"""Low-level numerical kernels shared by all other modules.

Special functions (normal CDF, quantile and truncated moments;
regularized incomplete gamma on a float, or in lockstep over the
elements of an array), adaptive Gauss-Legendre quadrature of vectorized
integrands on finite intervals (many intervals share each round),
cumulative integrals on a breakpoint grid from the antiderivatives of
the same Gauss-Legendre panels, bracketed root finding and
golden-section minimisation (each runs many brackets in lockstep, one
vectorized call per step), grid refinement, and sign-change counting
and root location.  Everything here is pure and operates on plain
floats / numpy arrays; no probability-specific types appear.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

import numpy as np

SQRT_2PI = math.sqrt(2.0 * math.pi)
INV_SQRT_2PI = 1.0 / SQRT_2PI
_SQRT2 = math.sqrt(2.0)


class NumericsError(Exception):
    """Base error for the numerics module."""


class DomainError(NumericsError):
    """Argument outside the mathematical domain of an operation."""


class ConvergenceError(NumericsError):
    """Refinement budget exhausted.  Carries the best estimate so far."""

    def __init__(self, msg: str, value: float, err_est: float):
        super().__init__(msg)
        self.value = value
        self.err_est = err_est


@dataclass(frozen=True)
class Tolerance:
    """Accuracy request for quadrature / search routines.

    abs_tol is the primary knob; rel_tol only matters for results whose
    magnitude is large.
    """

    abs_tol: float = 1e-10
    rel_tol: float = 1e-8

    def __post_init__(self):
        if not (self.abs_tol > 0):
            raise DomainError("abs_tol must be > 0")
        if self.rel_tol < 0:
            raise DomainError("rel_tol must be >= 0")


DEFAULT_TOL = Tolerance()


def on_array(fn: Callable[[np.ndarray], np.ndarray], x):
    """fn(x) for fn that takes and returns a 1-D float array: a 1-D x goes
    straight through, any other array comes back in its shape, and a
    scalar x gives a float."""
    xs = np.asarray(x, dtype=float)
    if xs.ndim == 1:
        return fn(xs)
    out = fn(xs.reshape(-1))
    return float(out[0]) if xs.ndim == 0 else out.reshape(xs.shape)


# ---------------------------------------------------------------------------
# special functions
# ---------------------------------------------------------------------------

def std_normal_pdf(x):
    return on_array(lambda t: INV_SQRT_2PI * np.exp(-0.5 * t * t), x)


_PHI_CHUNK = 65536


def std_normal_cdf(x):
    """Phi(x) = erfc(-x/sqrt(2))/2, one math.erfc call per point.

    Each point's argument and result are computed by the same float
    operations at any call size and in the scalar path, so Phi at a point
    has the same bits whatever array it arrives in (find_root's lockstep
    brackets rely on that).  math.erfc saturates by itself: Phi is exactly
    1.0 above x ~ 8.3 and exactly 0.0 below x ~ -38.5, and NaN stays NaN.
    Points go to Python floats in chunks, so no call holds one boxed float
    per point at once.
    """
    xs = np.asarray(x, dtype=float)
    if xs.ndim == 0:
        return _phi_scalar(float(xs))
    t = (-xs / _SQRT2).ravel()
    out = np.empty(t.size)
    for i in range(0, t.size, _PHI_CHUNK):
        out[i:i + _PHI_CHUNK] = np.fromiter(map(math.erfc, t[i:i + _PHI_CHUNK].tolist()), float)
    out *= 0.5
    return out.reshape(xs.shape)


def _phi_scalar(x: float) -> float:
    return 0.5 * math.erfc(-x / _SQRT2)


def std_normal_partial_moments(z, k: int) -> list:
    """[E[Z^j; Z <= z] for j < k] of the standard normal at a finite z
    (float or array), by the recurrence T_j = (j-1) T_{j-2} - z^(j-1) phi(z)
    from T_0 = Phi(z) and T_1 = -phi(z)."""
    phi = std_normal_pdf(z)
    out = [std_normal_cdf(z), -phi]
    for j in range(2, k):
        out.append((j - 1) * out[j - 2] - z ** (j - 1) * phi)
    return out[:k]


# Acklam-style rational initial guess, polished by two Newton steps on erfc.
_QA = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
       1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_QB = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
       6.680131188771972e+01, -1.328068155288572e+01)
_QC = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
       -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_QD = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
       3.754408661907416e+00)


def std_normal_quantile(p: float) -> float:
    """Inverse of Phi.  Newton-polished to ~1e-15 for p in (0, 1)."""
    if not 0.0 < p < 1.0:
        if p == 0.0:
            return -math.inf
        if p == 1.0:
            return math.inf
        raise DomainError(f"quantile needs p in [0,1], got {p}")
    p_low, p_high = 0.02425, 1 - 0.02425
    if p < p_low:
        q = math.sqrt(-2 * math.log(p))
        x = ((((( _QC[0]*q + _QC[1])*q + _QC[2])*q + _QC[3])*q + _QC[4])*q + _QC[5]) / \
            (((( _QD[0]*q + _QD[1])*q + _QD[2])*q + _QD[3])*q + 1)
    elif p <= p_high:
        q = p - 0.5
        r = q * q
        x = ((((( _QA[0]*r + _QA[1])*r + _QA[2])*r + _QA[3])*r + _QA[4])*r + _QA[5]) * q / \
            ((((( _QB[0]*r + _QB[1])*r + _QB[2])*r + _QB[3])*r + _QB[4])*r + 1)
    else:
        q = math.sqrt(-2 * math.log1p(-p))
        x = -((((( _QC[0]*q + _QC[1])*q + _QC[2])*q + _QC[3])*q + _QC[4])*q + _QC[5]) / \
            (((( _QD[0]*q + _QD[1])*q + _QD[2])*q + _QD[3])*q + 1)
    for _ in range(2):
        err = _phi_scalar(x) - p
        d = INV_SQRT_2PI * math.exp(-0.5 * x * x)
        if d <= 0:
            break
        x -= err / d
    return x


# arrays with fewer elements take the float loop one by one: a lockstep
# step costs about 15 numpy calls, and the two meet at 100-250 points
_LOCKSTEP_MIN_SIZE = 200


def reg_incomplete_gamma(a: float, x):
    """Regularized lower incomplete gamma P(a, x) for a > 0 and x >= 0.

    Series for x < a + 1, Lentz's continued fraction for 1 - P otherwise
    (Numerical Recipes, section 6.2); absolute error well below 1e-12 over
    the tested range.  A float x gives a float from a loop on floats, the
    reference.  An array x gives an array of its shape.  From 200 elements
    on, the series and the continued fraction each run in lockstep over the
    elements still open, and every element keeps the float loop's
    operations, tiny-value guards and stop test, and its prefactor
    x^a e^-x / Gamma(a) from math.log and math.exp; a smaller array takes
    the float loop element by element.  Either way each element is the
    float loop's value bit for bit.  Before any loop, NaN gives NaN and
    +inf gives 1.  Raises DomainError for a <= 0 or any x < 0.
    """
    if a <= 0:
        raise DomainError(f"reg_incomplete_gamma needs a > 0, got a={a}")
    if np.ndim(x) == 0:
        return _reg_incomplete_gamma_float(a, float(x))
    xs = np.asarray(x, dtype=float)
    if xs.size >= _LOCKSTEP_MIN_SIZE:
        return _reg_incomplete_gamma_lockstep(a, xs)
    return np.array([_reg_incomplete_gamma_float(a, t) for t in xs.ravel().tolist()],
                    dtype=float).reshape(xs.shape)


def _reg_incomplete_gamma_float(a: float, x: float) -> float:
    """reg_incomplete_gamma on a float: the reference loop."""
    if x < 0:
        raise DomainError(f"reg_incomplete_gamma needs x >= 0, got x={x}")
    if math.isnan(x):
        return math.nan
    if x == 0.0:
        return 0.0
    if x == math.inf:
        return 1.0
    lg = math.lgamma(a)
    if x < a + 1.0:
        # series: P(a,x) = x^a e^-x / Gamma(a) * sum x^n / (a)_(n+1)
        term = 1.0 / a
        total = term
        n = a
        for _ in range(10000):
            n += 1.0
            term *= x / n
            total += term
            if abs(term) < abs(total) * 1e-17:
                break
        return max(0.0, min(1.0, total * math.exp(-x + a * math.log(x) - lg)))
    # Lentz continued fraction for Q(a,x)
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 10000):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    q = math.exp(-x + a * math.log(x) - lg) * h
    return max(0.0, min(1.0, 1.0 - q))


def _lockstep(step, state, steps):
    """Run ``state, stop = step(i, state)`` for i = 1 .. steps on a tuple
    of equal-length arrays, dropping each element once its stop flag is
    set.  Returns the last array of the state, each element as it was
    when that element stopped or the steps ran out."""
    idx = np.arange(state[0].size)
    out = np.empty(idx.size)
    for i in range(1, steps + 1):
        if idx.size == 0:
            return out
        state, stop = step(i, state)
        if stop.any():
            out[idx[stop]] = state[-1][stop]
            keep = ~stop
            idx, state = idx[keep], tuple(s[keep] for s in state)
    out[idx] = state[-1]
    return out



def _reg_incomplete_gamma_lockstep(a: float, xs: np.ndarray) -> np.ndarray:
    """reg_incomplete_gamma on an array: the float loop's two branches,
    each in lockstep over its elements."""
    if np.any(xs < 0):
        raise DomainError(f"reg_incomplete_gamma needs x >= 0, got x={xs[xs < 0][0]}")
    x = xs.ravel()
    out = np.where(x == math.inf, 1.0, x + 0.0)     # 0 and NaN stay as they are
    lg = math.lgamma(a)

    def prefactor(t):
        # math.log and math.exp as the float loop has them: numpy's SIMD
        # log is 1 ulp off on a few points, which a * log(x) magnifies
        log_t = np.fromiter(map(math.log, t.tolist()), float, t.size)
        return np.fromiter(map(math.exp, (-t + a * log_t - lg).tolist()), float, t.size)

    n = a

    def series(i, state):
        nonlocal n
        t, term, total = state
        n += 1.0
        term = term * (t / n)
        total = total + term
        return (t, term, total), np.abs(term) < np.abs(total) * 1e-17

    tiny = 1e-300

    def lentz(i, state):
        b, c, d, h = state
        an = -i * (i - a)
        b = b + 2.0
        d = an * d + b
        d = np.where(np.abs(d) < tiny, tiny, d)
        c = b + an / c
        c = np.where(np.abs(c) < tiny, tiny, c)
        d = 1.0 / d
        delta = d * c
        return (b, c, d, h * delta), np.abs(delta - 1.0) < 1e-16

    pick = (x > 0.0) & (x < a + 1.0)
    t = x[pick]
    first = np.full(t.size, 1.0 / a)
    total = _lockstep(series, (t, first, first), 10000)
    out[pick] = np.clip(total * prefactor(t), 0.0, 1.0)
    pick = (x >= a + 1.0) & (x < math.inf)
    t = x[pick]
    b = t + 1.0 - a
    d = 1.0 / b
    h = _lockstep(lentz, (b, np.full(t.size, 1.0 / tiny), d, d), 9999)
    out[pick] = np.clip(1.0 - prefactor(t) * h, 0.0, 1.0)
    return out.reshape(xs.shape)


# ---------------------------------------------------------------------------
# adaptive quadrature
# ---------------------------------------------------------------------------

_NODE_BUDGET = 200_000

# 10-point Gauss-Legendre rule on [-1, 1]: the positive nodes and their
# weights, mirrored
_GL_X = np.array([0.14887433898163122, 0.4333953941292472, 0.6794095682990244,
                  0.8650633666889845, 0.9739065285171717])
_GL_W = np.array([0.29552422471475287, 0.26926671930999635, 0.21908636251598204,
                  0.1494513491505806, 0.06667134430868814])
_GL_X = np.concatenate([-_GL_X[::-1], _GL_X])
_GL_W = np.concatenate([_GL_W[::-1], _GL_W])
# a probe at u = -_END_U, just inside the left end of [-1, 1], and the
# Lagrange weights that extrapolate the rule's interpolant there; the
# columns of _GL_ENDS are those for the left and the right end
_END_U = 1.0 - 1e-9
_GL_END = np.array([np.prod([(-_END_U - xk) / (xj - xk) for xk in _GL_X if xk != xj])
                    for xj in _GL_X])
_GL_ENDS = np.stack([_GL_END, _GL_END[::-1]], axis=1)
# node values -> Legendre coefficients of the antiderivative, from u = -1,
# of their degree-9 interpolant (10 x 11): c_k = (2k+1)/2 sum_j w_j P_k(x_j) v_j,
# and P_k integrates to (P_{k+1} - P_{k-1}) / (2k+1), P_0 to P_1 + P_0
_GL_P = [np.ones(10), _GL_X]
for _k in range(1, 9):
    _GL_P.append(((2 * _k + 1) * _GL_X * _GL_P[-1] - _k * _GL_P[-2]) / (_k + 1))
_GL_C = 0.5 * _GL_W[:, None] * np.array(_GL_P).T      # c_k / (2k+1)
_GL_ANTI = np.pad(_GL_C, ((0, 0), (1, 0))) - np.pad(_GL_C[:, 1:], ((0, 0), (0, 2)))
_GL_ANTI[:, 0] += _GL_C[:, 0]
del _GL_P, _GL_C, _k


def integrate(f: Callable, a, b, tol: Tolerance = DEFAULT_TOL,
              breakpoints: Sequence = (), singularities: Sequence[float] = ()):
    """Integral of the vectorized ``f`` over the finite interval [a, b],
    a <= b, with an error estimate.

    ``a`` and ``b`` may also be equal-length 1-D arrays of K intervals:
    then ``f(x, k)`` also gets the index k of each node's integral,
    ``breakpoints`` is one sequence for all or a (K, m) array (row k for
    interval k), and value and err_est are arrays.  The K integrals share
    each round's call of f but keep their own acceptance tests, totals and
    node budgets, so each gets what a lone call would, up to rounding.

    ``breakpoints`` (known kinks or jumps) cut [a, b] into the first
    panels; those outside (a, b) are ignored.  Each round calls f once, on
    the 10-point Gauss-Legendre nodes of every open panel and of its two
    halves.  A panel is accepted when its two estimates agree within its
    width's share of tol.abs_tol, and all open panels of an integral are
    when their summed disagreements fit in what its accepted ones left of
    tol.abs_tol (a jump that is no breakpoint never meets its share); the
    rest are bisected.  Neither estimate has a node between an end of a
    half and the half's outermost node, so f is also probed just inside
    both ends of each half, and the gap to the half's interpolant there,
    times the width of that unseen strip, joins the disagreement: a kink
    or jump next to a panel end or its midpoint is bisected, not accepted.
    No node lies on a panel end, so f needs no one-sided value at a jump.
    ``singularities`` (shared by all intervals) declare integrable blow-ups
    milder than |x - s|^(-5/6); a panel next to one, or next to an end
    where f is not finite, is integrated in t with x = s +- t^6 (and not
    probed at its centre).
    Returns (value, err_est).  err_est bounds the error only when every
    jump of f is a declared breakpoint: across an undeclared jump the value
    can be further off than err_est, and than tol.abs_tol, though the call
    returns normally.  Raises ConvergenceError when a panel estimate is not
    finite, or when an integral's node budget runs out before its err_est
    is within max(abs_tol, rel_tol * |value|).
    """
    return _gl_panels(f, a, b, tol, breakpoints, singularities)[:2]


def _gl_panels(f, a, b, tol, breakpoints, singularities):
    """The adaptive loop of integrate: (value, err_est, rounds), where each
    round holds its panels' (lo, mid, hi, centre, sign, vals, done): ends
    and midpoints in t (x = t, or centre + sign * t^6), the values of f
    (times dx/dt) on the nodes of each panel and of its halves, shape
    (panels, 3, 10), and which were accepted.  The halves of the accepted
    panels tile the intervals."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    scalar = a.ndim == 0 and b.ndim == 0
    if scalar:                          # f takes the nodes only
        f_x = f
        f = lambda x, k: f_x(x)
    a, b = a.reshape(-1), b.reshape(-1)
    bad = ~(np.isfinite(a) & np.isfinite(b) & (a <= b))
    if bad.any():
        i = int(np.argmax(bad))
        raise DomainError(f"integrate needs finite a <= b, got [{a[i]}, {b[i]}]")
    n_int = a.size

    def out(v):
        return float(v[0]) if scalar else v

    # the first panel ends of each interval, sorted and without repeats:
    # its ends and the breakpoints and singularities inside it, after a
    # column of -inf so that the first end of each row is new (declared
    # centres keep their float values: exactness matters for the
    # pulled-back coordinate)
    sing = np.asarray(singularities, dtype=float)
    lo_b, hi_b = a[:, None], b[:, None]

    def inside(p):
        return np.where((p > lo_b) & (p < hi_b), p, lo_b)

    cand = np.sort(np.concatenate([lo_b - np.inf, lo_b, hi_b, inside(sing),
                                   inside(np.asarray(breakpoints, dtype=float))], axis=1), axis=1)
    new = cand[:, 1:] != cand[:, :-1]
    k_e, edges = np.nonzero(new)[0], cand[:, 1:][new]
    with np.errstate(all="ignore"):
        finite_ends = np.isfinite(np.asarray(f(edges, k_e), dtype=float))
    pair = k_e[1:] == k_e[:-1]
    lo, hi, k = edges[:-1][pair], edges[1:][pair], k_e[:-1][pair]
    centre, sign, width = np.zeros(lo.size), np.zeros(lo.size), hi - lo
    if sing.size or not finite_ends.all():
        # ends that are centres split their pair at its middle (or at the
        # other end): the sub-panel next to a centre c is integrated in t,
        # with x = c + t^6 (sign 1) or c - t^6 (sign -1); zero-width ones
        # are dropped
        centres = np.where(finite_ends, np.nan, edges)
        for s in sing[::-1]:            # the first declared one near an end wins
            centres = np.where(np.abs(edges - s) <= 1e-9 * (1.0 + np.abs(edges)), s, centres)
        c = np.stack([centres[:-1][pair], centres[1:][pair]], axis=1)
        sign = np.where(np.isnan(c), 0.0, [1.0, -1.0])
        mid = np.where(sign[:, 1] != 0, np.where(sign[:, 0] != 0, 0.5 * (lo + hi), lo), hi)
        u, v = np.stack([lo, mid], axis=1), np.stack([mid, hi], axis=1)
        keep = v > u

        def t_of(x_plus, x_minus):      # t at x_plus for sign 1, at x_minus for -1
            return np.where(sign != 0, np.maximum(sign * (np.where(sign > 0, x_plus, x_minus) - c),
                                                  0.0) ** (1 / 6), x_plus)

        lo, hi, centre, sign, width, k = (w[keep] for w in (
            t_of(u, v), t_of(v, u), np.where(sign != 0, c, 0.0), sign, v - u,
            np.stack([k, k], axis=1)))
    total, err, rounds = np.zeros(n_int), np.zeros(n_int), []
    budget = np.full(n_int, _NODE_BUDGET)
    share = tol.abs_tol * width / (b - a)[k]
    while k.size:
        # columns: the panel, its left half, its right half
        mid = 0.5 * (lo + hi)
        half = 0.5 * np.stack([hi - lo, mid - lo, hi - mid], axis=1)
        t = (np.stack([lo, lo, mid], axis=1) + half)[..., None] + half[..., None] * _GL_X
        # then a probe just inside both ends of each half
        inset = (1.0 - _END_U) * half[:, 1]
        t = np.concatenate([t.reshape(len(lo), -1), np.stack(
            [lo + inset, mid - inset, mid + inset, hi - inset], axis=1)], axis=1)
        m = sign != 0
        mapped = bool(m.any())
        x = t
        if mapped:
            at_centre = m & (lo == 0.0)      # no probe there: f blows up
            t[at_centre, -4] = mid[at_centre]
            x = t.copy()
            x[m] = centre[m, None] + sign[m, None] * t[m] ** 6
        vals = np.asarray(f(x.ravel(), np.repeat(k, x.shape[1])), dtype=float).reshape(x.shape)
        if mapped:
            vals[m] *= 6.0 * t[m] ** 5
        budget -= x.shape[1] * np.bincount(k, minlength=n_int)
        probes, vals = vals[:, -4:], vals[:, :-4].reshape(-1, 3, _GL_X.size)
        est = half * (vals @ _GL_W)
        halves = est[:, 1] + est[:, 2]
        # probe order: left half's left and right end, then the right half's
        gaps = np.abs(probes - (vals[:, 1:] @ _GL_ENDS).reshape(-1, 4))
        if mapped:
            gaps[at_centre, 0] = 0.0
        delta = np.abs(halves - est[:, 0]) + (1.0 - _GL_X[-1]) * half[:, 1] * gaps.sum(axis=1)
        if not np.all(np.isfinite(halves) & np.isfinite(delta)):
            raise ConvergenceError("quadrature estimate is not finite",
                                   out(total + np.bincount(k, halves, n_int)),
                                   out(np.full(n_int, math.inf)))
        # below the rounding floor of the panel values no refinement can help
        noise = 1e-14 * np.sum(half[:, 1:] * (np.abs(vals[:, 1:]) @ _GL_W), axis=1)
        done = delta <= np.maximum(share, noise)
        done |= ((budget <= 0) | (err + np.bincount(k, delta, n_int) <= tol.abs_tol))[k]
        total += np.bincount(k, np.where(done, halves, 0.0), n_int)
        err += np.bincount(k, np.where(done, delta, 0.0), n_int)
        rounds.append((lo, mid, hi, centre, sign, vals, done))
        if done.all():
            break
        keep = ~done
        lo, hi = np.concatenate([lo[keep], mid[keep]]), np.concatenate([mid[keep], hi[keep]])
        centre, sign, k, share = (np.concatenate([v, v]) for v in (
            centre[keep], sign[keep], k[keep], 0.5 * share[keep]))
    if np.any((budget <= 0) & (err > np.maximum(tol.abs_tol, tol.rel_tol * np.abs(total)))):
        raise ConvergenceError("quadrature did not converge", out(total), out(err))
    return out(total), out(err), rounds


def _finite_values(f: Callable, x: np.ndarray, who: str) -> np.ndarray:
    """f(x) as a float array; DomainError at the first non-finite value."""
    v = np.asarray(f(x), dtype=float)
    if not np.isfinite(v).all():
        bad = float(x[~np.isfinite(v)][0])
        raise DomainError(f"{who}: f is not finite at x = {bad!r}")
    return v


def find_root(f: Callable, a, b, tol: float = 1e-14, max_iter: int = 200):
    """Roots of f in the bracketing intervals [a, b], all in lockstep.

    ``a`` and ``b`` are floats, or equal-length 1-D arrays of bracket ends
    with a vectorised ``f``.  Every bracket alternates secant and bisection
    steps, so it provably shrinks; each iteration calls f once, on the new
    points of the brackets still open.  A bracket stops on the tests of
    the one-bracket loop: f is exactly 0 at an end or an iterate (the root
    is that point), it is narrower than tol * (1 + |a| + |b|), or max_iter
    steps are done (the root is its midpoint).  So each bracket sees the
    iterates it would see alone and gets a bit-identical root.  A float
    bracket calls f on floats and returns a float; arrays give an array of
    roots.  Raises DomainError when a bracket end is not finite, a bracket
    does not change sign, or f is not finite at an end or an iterate.
    """
    scalar = np.ndim(a) == 0 and np.ndim(b) == 0
    if scalar:                          # f takes and returns floats
        f_float = f
        f = lambda x: np.array([float(f_float(float(t))) for t in x])
    a, b = np.array(a, dtype=float, ndmin=1), np.array(b, dtype=float, ndmin=1)
    idx, root = np.arange(a.size), np.empty(a.size)
    if a.size == 0:
        return root
    if not np.all(np.isfinite(a) & np.isfinite(b)):
        raise DomainError("find_root needs finite bracket ends")
    fa, fb = np.split(_finite_values(f, np.concatenate([a, b]), "find_root"), 2)

    def close(done, at):
        """Give the brackets flagged in ``done`` their root ``at`` and drop them."""
        nonlocal idx, a, b, fa, fb
        if done.any():
            root[idx[done]] = at[done]
            keep = ~done
            idx, a, b, fa, fb = idx[keep], a[keep], b[keep], fa[keep], fb[keep]

    close(fa == 0.0, a)
    close(fb == 0.0, b)
    # signs are compared, not multiplied: a product of tiny values underflows
    if np.any((fa < 0) == (fb < 0)):
        raise DomainError("find_root needs a sign-changing bracket")
    for k in range(max_iter):
        close(np.abs(b - a) <= tol * (1.0 + np.abs(a) + np.abs(b)), 0.5 * (a + b))
        if idx.size == 0:
            break
        if k % 2 == 0:                  # secant on even steps (fa, fb differ in sign)
            xs = b - fb * (b - a) / (fb - fa)
            pad = 0.01 * (b - a)
            lo, hi = np.minimum(a, b) + pad, np.maximum(a, b) - pad
            xs = np.where(lo > xs, lo, xs)          # min(max(xs, lo), hi) as on floats
            x = np.where(hi < xs, hi, xs)
        else:
            x = 0.5 * (a + b)
        fx = _finite_values(f, x, "find_root")
        left = (fa < 0) != (fx < 0)
        np.copyto(b, x, where=left)
        np.copyto(fb, fx, where=left)
        left = ~left
        np.copyto(a, x, where=left)
        np.copyto(fa, fx, where=left)
        close(fx == 0.0, x)
    root[idx] = 0.5 * (a + b)
    return float(root[0]) if scalar else root


# ---------------------------------------------------------------------------
# cumulative integration
# ---------------------------------------------------------------------------

_EVAL_CHUNK = 4096            # points per evaluation step: bounds the working arrays


@dataclass(frozen=True, eq=False)
class PiecewiseLegendre:
    """h(x) on the grid [a, b]: one Legendre series per panel, 0 below the
    grid and ``final`` above it.

    Panel i starts at ``left[i]`` (sorted) and holds sum_j coef[j, i] P_j(u)
    with u = (t - mid_t[i]) * scale[i], where t = x, or t = |x - centre[i]|^(1/6)
    on a panel mapped by x = centre +- t^6; ``half`` is the panel's half
    width in t.  Evaluated _EVAL_CHUNK points at a time by Clenshaw's
    recurrence, for any degree; takes scalars and arrays as on_array does.
    """

    a: float
    b: float
    final: float
    left: np.ndarray
    mid_t: np.ndarray
    scale: np.ndarray
    half: np.ndarray
    coef: np.ndarray
    mapped: np.ndarray
    centre: np.ndarray

    def __call__(self, x):
        return on_array(self._eval, x)

    def _eval(self, x):
        left, mid_t, scale, coef, mapped = self.left, self.mid_t, self.scale, self.coef, self.mapped
        out = np.empty(x.size)
        for i in range(0, x.size, _EVAL_CHUNK):
            xs = x[i:i + _EVAL_CHUNK]
            k = np.maximum(np.searchsorted(left, xs, side="right") - 1, 0)
            t = np.where(mapped[k], np.abs(xs - self.centre[k]) ** (1 / 6), xs) \
                if mapped.any() else xs
            u = (t - mid_t[k]) * scale[k]
            b1 = b2 = 0.0
            for j in range(len(coef) - 1, 0, -1):   # Clenshaw for sum_j coef_j P_j(u)
                b1, b2 = coef[j][k] + (2 * j + 1) / (j + 1) * u * b1 - (j + 1) / (j + 2) * b2, b1
            out[i:i + _EVAL_CHUNK] = np.where(
                xs <= self.a, 0.0, np.where(xs >= self.b, self.final, coef[0][k] + u * b1 - 0.5 * b2))
        return out


def cumulative_integral(fn: Callable, breakpoints, left_tail: float, sign: int = 1,
                        tol: Tolerance = DEFAULT_TOL) -> Tuple[PiecewiseLegendre, float]:
    """(h, err_est) with h(x) = sign * integral of the vectorized fn over
    (-inf, x].

    ``breakpoints``, at least 2 and strictly increasing, are the first
    quadrature panel ends, where fn may jump or kink.  ``left_tail`` bounds
    |integral of fn over (-inf, breakpoints[0]]| (0.0 when the grid covers
    the support).  One run of integrate's adaptive loop over the grid.  On
    each accepted half panel h is the running sum of the panel estimates
    to its left end plus the antiderivative of the degree-9 interpolant of
    its 10 node values (by _GL_ANTI), so h agrees with integrate at panel
    ends; h is a PiecewiseLegendre of degree 10, 0 below the grid and the
    total above, so legendre_antiderivative integrates it again exactly.
    err_est, |left_tail| plus the summed panel disagreements, bounds the
    error of h at every panel end.  Raises ConvergenceError where
    integrate does, instead of missing tol.
    """
    bp = np.asarray(breakpoints, dtype=float)
    if bp.size < 2 or np.any(np.diff(bp) <= 0):
        raise DomainError("cumulative_integral needs at least 2 strictly increasing breakpoints")
    _, err, rounds = _gl_panels(fn, bp[0], bp[-1], tol, bp, ())
    lo, mid, hi, centre, way, vals = (np.concatenate(col) for col in zip(*(
        (lo[d], mid[d], hi[d], c[d], s[d], v[d]) for lo, mid, hi, c, s, v, d in rounds)))
    # the two halves of every accepted panel; one with x = centre - t^6
    # runs right to left in t, so its nodes are reversed
    lo, hi, centre, way = np.r_[lo, mid], np.r_[mid, hi], np.tile(centre, 2), np.tile(way, 2)
    vals = np.r_[vals[:, 1], vals[:, 2]]
    vals = np.where(way[:, None] < 0, vals[:, ::-1], vals)
    x_ends = np.where(way != 0, centre + way * np.stack([lo, hi]) ** 6, np.stack([lo, hi]))
    left = x_ends.min(axis=0)
    order = np.lexsort((x_ends.max(axis=0), left))    # zero-width panels first on ties
    half = 0.5 * (hi - lo)
    coef = (half[:, None] * (vals @ _GL_ANTI))[order]
    starts = np.cumsum((half * (vals @ _GL_W))[order])
    coef[1:, 0] += starts[:-1]
    scale = (np.where(way < 0, -1.0, 1.0) / half)[order]
    h = PiecewiseLegendre(bp[0], bp[-1], sign * float(starts[-1]), left[order],
                          (0.5 * (lo + hi))[order], scale, half[order], (sign * coef).T.copy(),
                          (way != 0)[order], centre[order])
    return h, abs(left_tail) + err


def legendre_antiderivative(h: PiecewiseLegendre, sign: int = 1) -> PiecewiseLegendre:
    """H(x) = sign * integral of h over [a, x], exactly, as a
    PiecewiseLegendre one degree higher on the same panels: 0 below the
    grid and sign * the integral of h over [a, b] above it, as
    cumulative_integral's h is.

    Each panel integrates term by term, int_{-1}^u P_j = (P_{j+1} - P_{j-1})
    / (2j+1) and P_1 + P_0 for j = 0, and running sums of the panel
    integrals 2 * half * c_0 join the panels.  No new values of anything
    are taken.  Raises DomainError for h with a panel mapped by
    x = centre +- t^6, which is no polynomial in x.
    """
    if h.mapped.any():
        raise DomainError("legendre_antiderivative needs panels that are not mapped by t^6")
    c, half = h.coef, h.half
    q = c / (2 * np.arange(len(c)) + 1.0)[:, None]
    d = np.zeros((len(c) + 1, c.shape[1]))
    d[1:] = q
    d[:-2] -= q[1:]
    d[0] += c[0]
    d *= half
    starts = np.cumsum(2.0 * half * c[0])
    d[0, 1:] += starts[:-1]
    return PiecewiseLegendre(h.a, h.b, sign * float(starts[-1]), h.left, h.mid_t, h.scale,
                             half, sign * d, h.mapped, h.centre)


# ---------------------------------------------------------------------------
# searches
# ---------------------------------------------------------------------------

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_bracket(a: float, b: float, tol: float, max_iter: int):
    """One bracket's golden-section search on floats, as a coroutine: it
    yields its two interior points as a pair and is sent their two values,
    then yields each new point alone and is sent its value; it returns
    (argmin, min)."""
    x1 = b - _INVPHI * (b - a)
    x2 = a + _INVPHI * (b - a)
    f1, f2 = yield x1, x2
    for _ in range(max_iter):
        if abs(b - a) < tol * (1.0 + abs(a) + abs(b)):
            break
        if f1 < f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INVPHI * (b - a)
            f1 = yield x1
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INVPHI * (b - a)
            f2 = yield x2
    return (x1, f1) if f1 < f2 else (x2, f2)


def golden_section(f: Callable, a, b, tol: float = 1e-10, max_iter: int = 200):
    """Minimize unimodal f on the brackets [a, b], all in lockstep; returns
    (argmin, min).

    ``a`` and ``b`` are floats, or equal-length 1-D arrays of brackets with
    a vectorised ``f``.  The first call of f gets the two interior points
    of every bracket; after that each call gets the one new point of each
    bracket still open.  Every bracket keeps its own f1 < f2 branch and its
    own width test, so it sees the iterates it would see alone and gets a
    bit-identical (argmin, min).  A float bracket calls f on floats and
    returns floats (with no numpy in its loop); arrays give two arrays.
    """
    if np.ndim(a) == 0 and np.ndim(b) == 0:
        search = _golden_bracket(a, b, tol, max_iter)
        x1, x2 = next(search)
        try:
            x = search.send((f(x1), f(x2)))
            while True:
                x = search.send(f(x))
        except StopIteration as stop:
            return stop.value
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.ndim != 1 or a.shape != b.shape:
        raise DomainError("golden_section needs floats or equal-length 1-D bracket arrays")
    arg, val = np.empty(a.size), np.empty(a.size)
    live = [(i, _golden_bracket(lo, hi, tol, max_iter))
            for i, (lo, hi) in enumerate(zip(a.tolist(), b.tolist()))]
    if not live:
        return arg, val
    pairs = np.array([next(search) for _, search in live])
    sent = np.asarray(f(pairs.ravel()), dtype=float).reshape(-1, 2).tolist()
    while live:
        still, points = [], []
        for (i, search), v in zip(live, sent):
            try:
                points.append(search.send(v))
                still.append((i, search))
            except StopIteration as stop:
                arg[i], val[i] = stop.value
        live = still
        if live:
            sent = np.asarray(f(np.array(points)), dtype=float).tolist()
    return arg, val


def scan_sign_changes(values: np.ndarray, zero_band: float):
    """Count alternations among values with |v| > zero_band.

    Returns (count, first_sign, alternation_index_pairs) where first_sign
    is +1 / -1 / 0 and each pair (i, j) brackets one alternation between
    off-band samples i and j.
    """
    v = np.asarray(values, dtype=float)
    idx = np.nonzero(np.abs(v) > zero_band)[0]
    if idx.size == 0:
        return 0, 0, []
    signs = np.sign(v[idx])
    flips = np.nonzero(signs[1:] != signs[:-1])[0]
    pairs = [(int(idx[k]), int(idx[k + 1])) for k in flips]
    return len(pairs), int(signs[0]), pairs


def refine_grid(grid: np.ndarray, k: int) -> np.ndarray:
    """Sorted ``grid`` plus k - 1 equally spaced interior points per panel,
    without repeats (np.unique would import numpy.ma on its first call)."""
    x = np.sort(np.concatenate([grid] + [grid[:-1] + np.diff(grid) * j / k for j in range(1, k)]))
    return x[np.r_[True, x[1:] != x[:-1]]]


def sign_roots(f: Callable, xs: np.ndarray) -> Tuple[List[float], float]:
    """(roots, band): roots of the vectorized ``f`` at the sign alternations
    of its samples on the sorted points ``xs``, and the zero band.

    Samples within band = 1e-11 * max|f(xs)| of zero do not count as a sign
    (the closed-form stacks cancel only to about 1e-14 absolute in the
    tails), so a lobe of f that stays inside the band is merged into its
    neighbours; each alternation between off-band samples brackets one
    root, and one lockstep find_root call on the vectorized f locates them
    all.  Raises DomainError when a sample of f is not finite.
    """
    vals = _finite_values(f, xs, "sign_roots")
    band = 1e-11 * float(np.max(np.abs(vals)) or 1.0)
    _, _, pairs = scan_sign_changes(vals, band)
    i, j = np.array(pairs, dtype=int).reshape(-1, 2).T
    return find_root(f, xs[i], xs[j], tol=1e-13).tolist(), band
