"""Low-level numerical kernels shared by all other modules.

Special functions (normal CDF/quantile, regularized incomplete gamma),
adaptive Simpson quadrature on finite and infinite intervals, grid-backed
cumulative integration, root and golden-section searches, grid
refinement, and sign-change counting and root location.  Everything
here is pure and operates on plain floats / numpy arrays; no
probability-specific types appear.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

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
    magnitude is large; max_refinements caps interval bisections.
    """

    abs_tol: float = 1e-10
    rel_tol: float = 1e-8
    max_refinements: int = 60

    def __post_init__(self):
        if not (self.abs_tol > 0):
            raise DomainError("abs_tol must be > 0")
        if self.rel_tol < 0:
            raise DomainError("rel_tol must be >= 0")
        if self.max_refinements < 1:
            raise DomainError("max_refinements must be >= 1")

    def scaled(self, factor: float) -> "Tolerance":
        return Tolerance(self.abs_tol * factor, self.rel_tol, self.max_refinements)


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


def std_normal_sf(x):
    """1 - Phi(x), accurate in the right tail."""
    xs = np.asarray(x, dtype=float)
    if xs.ndim == 0:
        return _phi_scalar(-float(xs))
    return std_normal_cdf(-xs)


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


def _simpson_recursive(f, a, fa, b, fb, m, fm, whole, tol, depth, max_depth, err_acc):
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm = f(lm)
    frm = f(rm)
    err_acc[2] -= 2
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    delta = left + right - whole
    # below the rounding floor of the panel values no refinement can help
    noise = 1e-15 * (abs(left) + abs(right)) + 5e-18 * abs(b - a)
    if depth >= max_depth or err_acc[2] <= 0:
        err_acc[0] += abs(delta)
        err_acc[1] = err_acc[1] or abs(delta) > 15.0 * tol
        return left + right + delta / 15.0
    if abs(delta) <= 15.0 * tol or abs(delta) <= noise:
        err_acc[0] += abs(delta) / 15.0
        return left + right + delta / 15.0
    half = 0.5 * tol
    return (_simpson_recursive(f, a, fa, m, fm, lm, flm, left, half, depth + 1, max_depth, err_acc)
            + _simpson_recursive(f, m, fm, b, fb, rm, frm, right, half, depth + 1, max_depth, err_acc))


def _integrate_finite(f, a, b, tol: Tolerance):
    if a == b:
        return 0.0, 0.0, False
    fa, fb = f(a), f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    err_acc = [0.0, False, _NODE_BUDGET]
    max_depth = min(int(tol.max_refinements), 44)
    val = _simpson_recursive(f, a, fa, b, fb, m, fm, whole, tol.abs_tol, 0, max_depth, err_acc)
    return val, err_acc[0], err_acc[1]


def integrate(f: Callable[[float], float], a: float, b: float,
              tol: Tolerance = DEFAULT_TOL,
              breakpoints: Sequence[float] = (),
              tail_exponent: float = 4.0,
              singularities: Sequence[float] = ()):
    """Adaptive Simpson integral of ``f`` over [a, b] with error estimate.

    Infinite endpoints are mapped by x = c +- t/(1-t); the integrand must
    then decay at least like |x|^-tail_exponent (exponent > 2 required).
    ``breakpoints`` pre-split the interval at known kinks or jumps;
    ``singularities`` declare points with integrable blow-ups milder than
    |x - s|^(-5/6), handled by a power substitution.  Returns
    (value, err_est); raises ConvergenceError when the refinement budget
    is exhausted and the estimated error exceeds the request.
    """
    if a > b:
        v, e = integrate(f, b, a, tol, breakpoints, tail_exponent, singularities)
        return -v, e
    pieces = []
    if math.isinf(a) or math.isinf(b):
        if tail_exponent <= 2.0:
            raise TailBoundMissingError("infinite endpoint needs tail decay exponent > 2")
        lo = a if not math.isinf(a) else None
        hi = b if not math.isinf(b) else None
        finite_feats = [p for p in breakpoints if not math.isinf(p)]
        anchor_lo = min([p for p in ([lo, hi] + finite_feats) if p is not None], default=0.0)
        anchor_hi = max([p for p in ([lo, hi] + finite_feats) if p is not None], default=0.0)
        if lo is None:
            c = anchor_lo - 1.0
            pieces.append(("map_left", c))
            a = c
        if hi is None:
            c = anchor_hi + 1.0
            pieces.append(("map_right", c))
            b = c

    def _snap(x):
        return 1e-9 * (1.0 + abs(x))

    # centers keep their original float values (exactness matters for the
    # pulled-back coordinate); only the interior ones also split the range
    sing = sorted(s for s in singularities
                  if a - _snap(a) <= s <= b + _snap(b))
    pts = sorted({a, b, *[p for p in breakpoints if a < p < b],
                  *[s for s in sing if a < s < b]})
    total, err = 0.0, 0.0
    hit_cap = False
    n_seg = len(pts) - 1 + len(pieces)
    seg_tol = tol.scaled(1.0 / max(n_seg, 1))

    def bad_center(edge):
        """Exact mapping center: the declared singular point when one sits
        within snapping distance, else the edge itself for blow-ups found
        by probing.  Using the declared float keeps the pulled-back
        coordinate exactly cancellation-free."""
        for s in sing:
            if abs(edge - s) <= _snap(edge):
                return s
        return edge if not math.isfinite(f(edge)) else None

    def _mapped(c, sign_):
        return lambda t: 0.0 if t == 0.0 else f(c + sign_ * t ** 6) * 6.0 * t ** 5

    def _sub_piece(lo_, hi_, center, sign_):
        # x = center + sign * t^6 covering [lo_, hi_]
        if sign_ > 0:
            t0 = max(lo_ - center, 0.0) ** (1.0 / 6.0)
            t1 = max(hi_ - center, 0.0) ** (1.0 / 6.0)
        else:
            t0 = max(center - hi_, 0.0) ** (1.0 / 6.0)
            t1 = max(center - lo_, 0.0) ** (1.0 / 6.0)
        if t1 <= t0:        # segment narrower than the snap radius
            fm = f(0.5 * (lo_ + hi_))
            slop = abs(hi_ - lo_) * abs(fm) if math.isfinite(fm) \
                else abs(hi_ - lo_) ** (1.0 / 6.0)
            return 0.0, min(slop, abs(hi_ - lo_) ** (1.0 / 6.0)), False
        return _integrate_finite(_mapped(center, sign_), t0, t1, seg_tol)

    for lo_, hi_ in zip(pts[:-1], pts[1:]):
        # integrable edge singularities: substitute x = center +- t^6,
        # which regularizes |x - center|^(-s) for s < 5/6
        c_lo, c_hi = bad_center(lo_), bad_center(hi_)
        if c_lo is not None and c_hi is not None:
            mid = 0.5 * (lo_ + hi_)
            v1, e1, cap1 = _sub_piece(lo_, mid, c_lo, +1)
            v2, e2, cap2 = _sub_piece(mid, hi_, c_hi, -1)
            total += v1 + v2
            err += e1 + e2
            hit_cap |= cap1 or cap2
            continue
        if c_lo is not None:
            v, e, cap = _sub_piece(lo_, hi_, c_lo, +1)
        elif c_hi is not None:
            v, e, cap = _sub_piece(lo_, hi_, c_hi, -1)
        else:
            v, e, cap = _integrate_finite(f, lo_, hi_, seg_tol)
        total += v
        err += e
        hit_cap |= cap
    for kind, c in pieces:
        if kind == "map_left":
            g = lambda t, c=c: f(c - t / (1.0 - t)) / (1.0 - t) ** 2
        else:
            g = lambda t, c=c: f(c + t / (1.0 - t)) / (1.0 - t) ** 2
        v, e, cap = _integrate_finite(g, 0.0, 1.0 - 1e-12, seg_tol)
        total += v
        err += e
        hit_cap |= cap
    if hit_cap and err > max(tol.abs_tol, tol.rel_tol * abs(total)) * 10.0:
        raise ConvergenceError("quadrature did not converge", total, err)
    return total, err


def find_root(f: Callable[[float], float], a: float, b: float,
              tol: float = 1e-14, max_iter: int = 200) -> float:
    """Root of f in the bracketing interval [a, b].

    Alternates secant and bisection steps so the bracket provably shrinks.
    """
    fa, fb = f(a), f(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if fa * fb > 0:
        raise DomainError("find_root needs a sign-changing bracket")
    use_secant = True
    for _ in range(max_iter):
        if abs(b - a) <= tol * (1.0 + abs(a) + abs(b)):
            break
        if use_secant and fb != fa:
            x = b - fb * (b - a) / (fb - fa)
            pad = 0.01 * (b - a)
            x = min(max(x, min(a, b) + pad), max(a, b) - pad)
        else:
            x = 0.5 * (a + b)
        fx = f(x)
        if fx == 0.0:
            return x
        if fa * fx < 0:
            b, fb = x, fx
        else:
            a, fa = x, fx
        use_secant = not use_secant
    return 0.5 * (a + b)


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


def sign_roots(f: Callable, xs: np.ndarray) -> List[float]:
    """Roots of the vectorized ``f`` at the sign alternations of its
    samples on the sorted points ``xs``.

    Samples within 1e-13 * max|f(xs)| of zero do not count as a sign;
    each alternation between off-band samples brackets one root, located
    by find_root on the scalar function.
    """
    vals = np.asarray(f(xs), dtype=float)
    band = 1e-13 * float(np.max(np.abs(vals)) or 1.0)
    _, _, pairs = scan_sign_changes(vals, band)
    scalar = lambda t: float(f(t))
    return [find_root(scalar, float(xs[i]), float(xs[j]), tol=1e-13) for i, j in pairs]
