"""Low-level numerical kernels shared by all other modules.

Special functions (normal CDF/quantile, regularized incomplete gamma),
adaptive Gauss-Legendre quadrature of vectorized integrands on finite
intervals, grid-backed cumulative integration, bracketed root finding
(many brackets in lockstep, one vectorized call per step), golden-section
search, grid refinement, and sign-change counting and root location.
Everything here is pure and operates on plain floats / numpy arrays; no
probability-specific types appear.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

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


class TailBoundMissingError(NumericsError):
    """Cumulative integration from -inf needs a declared tail bound."""


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


# ---------------------------------------------------------------------------
# special functions
# ---------------------------------------------------------------------------

def std_normal_pdf(x):
    x = np.asarray(x, dtype=float)
    out = INV_SQRT_2PI * np.exp(-0.5 * x * x)
    return float(out) if out.ndim == 0 else out


_ERFC_UFUNC = np.frompyfunc(math.erfc, 1, 1)


def std_normal_cdf(x):
    """Phi(x) to ~1e-16 absolute, saturating for |x| > 40."""
    xs = np.asarray(x, dtype=float)
    if xs.ndim == 0:
        return _phi_scalar(float(xs))
    out = 0.5 * _ERFC_UFUNC(-np.clip(xs, -40.0, 40.0) / _SQRT2).astype(float)
    return np.where(xs > 40.0, 1.0, np.where(xs < -40.0, 0.0, out))


def _phi_scalar(x: float) -> float:
    if x > 40.0:
        return 1.0
    if x < -40.0:
        return 0.0
    return 0.5 * math.erfc(-x / _SQRT2)


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


def reg_incomplete_gamma(a: float, x: float) -> float:
    """Regularized lower incomplete gamma P(a, x).

    Series for x < a + 1, continued fraction otherwise; absolute error
    well below 1e-12 over the tested range.
    """
    if a <= 0:
        raise DomainError(f"reg_incomplete_gamma needs a > 0, got a={a}")
    if x < 0:
        raise DomainError(f"reg_incomplete_gamma needs x >= 0, got x={x}")
    if x == 0.0:
        return 0.0
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


def gamma_ratio(a: float, x: float) -> float:
    """G(a, x) = Gamma(x + a) / Gamma(x) for x > 0, x + a > 0."""
    if x <= 0 or x + a <= 0:
        raise DomainError(f"gamma_ratio needs x>0 and x+a>0, got a={a}, x={x}")
    return math.exp(math.lgamma(x + a) - math.lgamma(x))


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
# Lagrange weights that extrapolate the rule's interpolant there (mirrored
# for the right end)
_END_U = 1.0 - 1e-9
_GL_END = np.array([np.prod([(-_END_U - xk) / (xj - xk) for xk in _GL_X if xk != xj])
                    for xj in _GL_X])


def integrate(f: Callable[[np.ndarray], np.ndarray], a: float, b: float,
              tol: Tolerance = DEFAULT_TOL,
              breakpoints: Sequence[float] = (),
              singularities: Sequence[float] = ()):
    """Integral of the vectorized ``f`` over the finite interval [a, b],
    a <= b, with an error estimate.

    ``breakpoints`` (known kinks or jumps) cut [a, b] into the first
    panels.  Each round calls f once, on the 10-point Gauss-Legendre nodes
    of every open panel and of its two halves.  A panel is accepted when
    its two estimates agree within its width's share of tol.abs_tol, and
    all open panels are when their summed disagreements fit in what the
    accepted ones left of tol.abs_tol (a jump that is no breakpoint never
    meets its share); the rest are bisected.  Neither estimate has a node
    between a panel end and the outermost node of its half, so f is also
    probed just inside each end, and the gap to the half's interpolant
    there, times the width of that unseen strip, joins the disagreement: a
    kink or jump next to an end is bisected, not accepted.  No node lies on
    a panel end, so f needs no one-sided value at a jump.
    ``singularities`` declare integrable blow-ups milder than
    |x - s|^(-5/6); a panel next to one, or next to an end where f is not
    finite, is integrated in t with x = s +- t^6 (and not probed at its
    centre).  Returns (value, err_est); raises ConvergenceError when a
    panel estimate is not finite, or when the node budget runs out before
    err_est is within max(abs_tol, rel_tol * |value|).
    """
    if not (math.isfinite(a) and math.isfinite(b) and a <= b):
        raise DomainError(f"integrate needs finite a <= b, got [{a}, {b}]")

    def snap(x):
        return 1e-9 * (1.0 + abs(x))

    # centers keep their declared float values (exactness matters for the
    # pulled-back coordinate); only the interior ones also split the range
    sing = [s for s in singularities if a - snap(a) <= s <= b + snap(b)]
    edges = sorted({a, b, *(p for p in breakpoints if a < p < b),
                    *(s for s in sing if a < s < b)})
    with np.errstate(all="ignore"):
        finite_ends = np.isfinite(np.asarray(f(np.array(edges)), dtype=float))
    centres = []
    for e, ok in zip(edges, finite_ends):
        near = [s for s in sing if abs(e - s) <= snap(e)]
        centres.append(near[0] if near else (None if ok else e))
    panels = []                     # (t_lo, t_hi, centre, sign, width in x)
    for lo, hi, c_lo, c_hi in zip(edges, edges[1:], centres, centres[1:]):
        if c_lo is None and c_hi is None:
            panels.append((lo, hi, 0.0, 0, hi - lo))
            continue
        mid = hi if c_hi is None else lo if c_lo is None else 0.5 * (lo + hi)
        if c_lo is not None:
            panels.append((max(lo - c_lo, 0.0) ** (1 / 6), max(mid - c_lo, 0.0) ** (1 / 6),
                           c_lo, 1, mid - lo))
        if c_hi is not None:
            panels.append((max(c_hi - hi, 0.0) ** (1 / 6), max(c_hi - mid, 0.0) ** (1 / 6),
                           c_hi, -1, hi - mid))
    if not panels:
        return 0.0, 0.0
    lo, hi, centre, sign, width = (np.array(col, dtype=float) for col in zip(*panels))
    share = tol.abs_tol * width / (b - a)
    total, err, budget = 0.0, 0.0, _NODE_BUDGET
    while True:
        # columns: the panel, its left half, its right half
        mid = 0.5 * (lo + hi)
        half = 0.5 * np.stack([hi - lo, mid - lo, hi - mid], axis=1)
        t = (np.stack([lo, lo, mid], axis=1) + half)[..., None] + half[..., None] * _GL_X
        # then a probe just inside each end
        inset = (1.0 - _END_U) * half[:, 1]
        t = np.concatenate([t.reshape(len(lo), -1), (lo + inset)[:, None],
                            (hi - inset)[:, None]], axis=1)
        m = sign != 0
        mapped = bool(m.any())
        x = t
        if mapped:
            at_centre = m & (lo == 0.0)      # no probe there: f blows up
            t[at_centre, -2] = mid[at_centre]
            x = t.copy()
            x[m] = centre[m, None] + sign[m, None] * t[m] ** 6
        vals = np.asarray(f(x.ravel()), dtype=float).reshape(x.shape)
        if mapped:
            vals[m] *= 6.0 * t[m] ** 5
        budget -= vals.size
        probes, vals = vals[:, -2:], vals[:, :-2].reshape(-1, 3, _GL_X.size)
        est = half * (vals @ _GL_W)
        halves = est[:, 1] + est[:, 2]
        gap_lo = np.abs(probes[:, 0] - vals[:, 1] @ _GL_END)
        if mapped:
            gap_lo[at_centre] = 0.0
        gaps = gap_lo + np.abs(probes[:, 1] - vals[:, 2] @ _GL_END[::-1])
        delta = np.abs(halves - est[:, 0]) + (1.0 - _GL_X[-1]) * half[:, 1] * gaps
        if not np.all(np.isfinite(halves) & np.isfinite(delta)):
            raise ConvergenceError("quadrature estimate is not finite",
                                   total + float(np.sum(halves)), math.inf)
        # below the rounding floor of the panel values no refinement can help
        noise = 1e-14 * np.sum(half[:, 1:] * (np.abs(vals[:, 1:]) @ _GL_W), axis=1)
        done = delta <= np.maximum(share, noise)
        if budget <= 0 or err + float(np.sum(delta)) <= tol.abs_tol:
            done[:] = True
        total += float(np.sum(halves[done]))
        err += float(np.sum(delta[done]))
        if done.all():
            if budget <= 0 and err > max(tol.abs_tol, tol.rel_tol * abs(total)):
                raise ConvergenceError("quadrature did not converge", total, err)
            return total, err
        keep = ~done
        lo, hi = np.concatenate([lo[keep], mid[keep]]), np.concatenate([mid[keep], hi[keep]])
        centre, sign = np.tile(centre[keep], 2), np.tile(sign[keep], 2)
        share = np.tile(0.5 * share[keep], 2)


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
    if np.any(fa * fb > 0):
        raise DomainError("find_root needs a sign-changing bracket")
    for k in range(max_iter):
        close(np.abs(b - a) <= tol * (1.0 + np.abs(a) + np.abs(b)), 0.5 * (a + b))
        if idx.size == 0:
            break
        x = 0.5 * (a + b)
        if k % 2 == 0:                  # secant on even steps, where fa != fb
            s = fb != fa
            sa, sb, sfa, sfb = a[s], b[s], fa[s], fb[s]
            xs = sb - sfb * (sb - sa) / (sfb - sfa)
            pad = 0.01 * (sb - sa)
            lo, hi = np.minimum(sa, sb) + pad, np.maximum(sa, sb) - pad
            xs = np.where(lo > xs, lo, xs)          # min(max(xs, lo), hi) as on floats
            x[s] = np.where(hi < xs, hi, xs)
        fx = _finite_values(f, x, "find_root")
        left = fa * fx < 0
        np.copyto(b, x, where=left)
        np.copyto(fb, fx, where=left)
        left = ~left
        np.copyto(a, x, where=left)
        np.copyto(fa, fx, where=left)
        close(fx == 0.0, x)
    root[idx] = 0.5 * (a + b)
    return float(root[0]) if scalar else root


# ---------------------------------------------------------------------------
# grid functions and cumulative integration
# ---------------------------------------------------------------------------

@dataclass
class GridFunction:
    """Piecewise-defined function on a strictly increasing breakpoint grid.

    ``fn`` must be vectorized over numpy arrays and right-continuous at
    jump points; ``fn_left`` (optional) supplies left limits there.
    ``left_tail`` declares a bound on |integral of fn over (-inf, x0]|,
    consumed by cumulative_integral.
    """

    breakpoints: np.ndarray
    fn: Callable[[np.ndarray], np.ndarray]
    jump_points: np.ndarray = field(default_factory=lambda: np.empty(0))
    fn_left: Optional[Callable[[np.ndarray], np.ndarray]] = None
    left_tail: Optional[float] = None

    def __post_init__(self):
        self.breakpoints = np.asarray(self.breakpoints, dtype=float)
        self.jump_points = np.asarray(self.jump_points, dtype=float)
        if self.breakpoints.size < 2:
            raise DomainError("GridFunction needs at least 2 breakpoints")
        if np.any(np.diff(self.breakpoints) <= 0):
            raise DomainError("breakpoints must be strictly increasing")

    def __call__(self, x):
        return self.fn(np.asarray(x, dtype=float))

    def value_left(self, x):
        if self.fn_left is not None:
            return self.fn_left(np.asarray(x, dtype=float))
        return self.fn(np.asarray(x, dtype=float))

    @property
    def lo(self) -> float:
        return float(self.breakpoints[0])

    @property
    def hi(self) -> float:
        return float(self.breakpoints[-1])


class _PanelTable:
    """Dense per-panel node/value tables backing an integrated GridFunction.

    Values at arbitrary points come from the cumulative at the nearest
    stored node to the left plus the integral of the local cubic through
    the four surrounding nodes (O(h^4); h set by the Simpson refinement).
    Panels are interpolated independently so jumps at panel edges stay
    exact.
    """

    def __init__(self, panel_edges, node_xs, node_cums, node_gs, sign):
        self.edges = np.asarray(panel_edges, dtype=float)
        self.node_xs = node_xs              # list of m uniform node arrays
        self.node_cums = node_cums          # signed cumulative values
        self.node_gs = node_gs              # raw integrand values
        self.sign = sign
        self.final = float(node_cums[-1][-1])

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        xf = np.atleast_1d(x).astype(float)
        out = np.empty_like(xf)
        m = len(self.node_xs)
        pidx = np.clip(np.searchsorted(self.edges, xf, side="right") - 1, 0, m - 1)
        below = xf <= self.edges[0]
        above = xf >= self.edges[-1]
        out[below] = 0.0
        out[above] = self.final
        inner = ~(below | above)
        for p in np.unique(pidx[inner]):
            mask = inner & (pidx == p)
            xs, cs, gs = self.node_xs[p], self.node_cums[p], self.node_gs[p]
            h = xs[1] - xs[0]
            n = xs.size - 1
            xi = xf[mask]
            j = np.clip(np.floor((xi - xs[0]) / h).astype(int), 0, n - 1)
            i0 = np.clip(j - 1, 0, n - 3)
            g0, g1, g2, g3 = gs[i0], gs[i0 + 1], gs[i0 + 2], gs[i0 + 3]
            a0 = g0
            a1 = (-11 * g0 + 18 * g1 - 9 * g2 + 2 * g3) / 6.0
            a2 = (2 * g0 - 5 * g1 + 4 * g2 - g3) / 2.0
            a3 = (-g0 + 3 * g1 - 3 * g2 + g3) / 6.0

            def anti(u):
                return h * (a0 * u + a1 * u * u / 2 + a2 * u**3 / 3 + a3 * u**4 / 4)

            u = (xi - xs[i0]) / h
            u0 = (j - i0).astype(float)
            out[mask] = cs[j] + self.sign * (anti(u) - anti(u0))
        return float(out[0]) if scalar else out


def cumulative_integral(g: GridFunction, sign: int = 1,
                        tol: Tolerance = DEFAULT_TOL) -> GridFunction:
    """GridFunction h with h(x) = sign * integral of g over (-inf, x].

    Piecewise composite Simpson with step doubling per panel; the
    contribution from (-inf, lo] must be declared via ``g.left_tail``
    (use 0.0 when the grid already covers the effective support).
    """
    if g.left_tail is None:
        raise TailBoundMissingError(
            "cumulative_integral needs g.left_tail (declared bound on the "
            "mass of g below the grid)")
    bp = g.breakpoints
    jumps = set(float(j) for j in np.atleast_1d(g.jump_points))
    m = bp.size - 1
    panel_tol = tol.abs_tol / max(m, 1)
    node_xs, node_cums, node_gs = [], [], []
    running = 0.0
    err_total = abs(g.left_tail)
    edges = bp.copy()
    for i in range(m):
        a, b = float(bp[i]), float(bp[i + 1])
        n = 8
        prev = None
        while True:
            xs = np.linspace(a, b, n + 1)
            vals = np.asarray(g.fn(xs), dtype=float)
            if b in jumps:
                vals[-1] = float(g.value_left(b))
            h = (b - a) / n
            s = h / 3.0 * (vals[0] + vals[-1] + 4.0 * vals[1:-1:2].sum()
                           + 2.0 * vals[2:-1:2].sum())
            if prev is not None and (abs(s - prev) <= 15.0 * panel_tol or n >= 4096):
                err_total += abs(s - prev) / 15.0
                break
            prev = s
            n *= 2
        # cumulative values at every node: Simpson pairs for even nodes,
        # 4-point Newton-Cotes correction for odd nodes
        cum = np.zeros(n + 1)
        pair = h / 3.0 * (vals[:-2:2] + 4.0 * vals[1:-1:2] + vals[2::2])
        cum[2::2] = np.cumsum(pair)
        v0, v1, v2, v3 = vals[:-3], vals[1:-2], vals[2:-1], vals[3:]
        first = h * (9 * vals[0] + 19 * vals[1] - 5 * vals[2] + vals[3]) / 24.0
        inner = h * (-v0 + 13 * v1 + 13 * v2 - v3) / 24.0
        cum[1] = first
        cum[3::2] = cum[2:-1:2] + inner[1::2]
        node_xs.append(xs)
        node_cums.append(running + cum)
        node_gs.append(vals)
        running += s
    cums = [sign * c for c in node_cums]
    table = _PanelTable(edges, node_xs, cums, node_gs, sign)
    out = GridFunction(bp, table, jump_points=np.empty(0), left_tail=0.0)
    out.err_est = err_total
    return out


# ---------------------------------------------------------------------------
# searches
# ---------------------------------------------------------------------------

def golden_section(f: Callable[[float], float], a: float, b: float,
                   tol: float = 1e-10, max_iter: int = 200):
    """Minimize unimodal f on [a, b]; returns (argmin, min)."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(max_iter):
        if abs(b - a) < tol * (1.0 + abs(a) + abs(b)):
            break
        if f1 < f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = f(x2)
    if f1 < f2:
        return x1, f1
    return x2, f2


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
    """Sorted ``grid`` plus k - 1 equally spaced interior points per panel."""
    return np.unique(np.concatenate(
        [grid] + [grid[:-1] + np.diff(grid) * j / k for j in range(1, k)]))


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
