"""Probability metrics of mass-zero signed measures.

Kolmogorov sup norm, the Wasserstein-type integral norms kappa_r, the
generalized signed moment lambda_1, and the Zolotarev norms zeta_r for
r = 1..4 via iterated integrated distribution functions

    F_1 = F_M,    F_{k+1}(x) = - integral of F_k over (-inf, x].

Two evaluation engines coexist: a closed-form one for measures whose
components are atoms, normals, uniforms, histograms, positive affine images
and mixtures of these (then every F_k is an explicit formula), and a
quadrature one stacking Gauss-Legendre panel antiderivatives
(numerics.cumulative_integral).  zeta_r integrates |F_r| by locating its
sign changes and telescoping F_{r+1} across the segments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .numerics import (DEFAULT_TOL, Tolerance, cumulative_integral,
                       golden_section, integrate, on_array, refine_grid,
                       scan_sign_changes, sign_roots, std_normal_cdf, std_normal_pdf)
from .measures import (Affine, Atoms, Dirac, HistogramLaw, InfiniteMomentError,
                       LawSpec, Normal, Rounded, SignedMeasure, Uniform,
                       STANDARD_NORMAL, signed_diff, standardise)


class MetricError(Exception):
    pass


class MassNotZeroError(MetricError):
    pass


class MomentConditionError(MetricError):
    def __init__(self, j: int, value: float, tol: float):
        super().__init__(
            f"moment condition violated: mu_{j}(M) = {value:.3e} "
            f"exceeds tolerance {tol:.1e}")
        self.j = j


@dataclass
class MetricValue:
    value: float
    err_est: float
    method: str                      # closed_form | cut_criterion | quadrature
    certificate: Optional[dict] = None

    def __float__(self):
        return float(self.value)


# ---------------------------------------------------------------------------
# closed-form integrated distribution functions F_{law,k}
# ---------------------------------------------------------------------------

def _stack_normal_std(k: int, x: np.ndarray) -> np.ndarray:
    """F_{N,k}(x) for the standard normal, k = 1..5."""
    Phi = std_normal_cdf(x)
    phi = std_normal_pdf(x)
    if k == 1:
        return Phi
    if k == 2:
        return -(phi + x * Phi)
    if k == 3:
        return ((1.0 + x * x) * Phi + x * phi) / 2.0
    if k == 4:
        return -((x * x + 2.0) * phi + (x ** 3 + 3.0 * x) * Phi) / 6.0
    if k == 5:
        return ((x ** 4 + 6.0 * x * x + 3.0) * Phi + (x ** 3 + 5.0 * x) * phi) / 24.0
    raise MetricError(f"stack order {k} not implemented for normal")


class _AtomStack:
    """x -> F_k(x) of signed atoms, O(log n) per point from the prefix sums
    of w * loc^m for m < k."""

    def __init__(self, atoms, k: int):
        locs = np.array([a for a, _ in atoms])
        wts = np.array([w for _, w in atoms])
        order = np.argsort(locs, kind="stable")
        self.k, self.locs = k, locs[order]
        self.prefix = [np.concatenate([[0.0], np.cumsum(wts[order] * self.locs ** m)])
                       for m in range(k)]

    def __call__(self, x: np.ndarray) -> np.ndarray:
        k = self.k
        idx = np.searchsorted(self.locs, x, side="right")
        out = np.zeros_like(x)
        for m in range(k):
            out = out + math.comb(k - 1, m) * self.prefix[m][idx] * (-x) ** (k - 1 - m)
        return out / math.factorial(k - 1)


def _stack_uniform(k: int, a: float, b: float, x: np.ndarray) -> np.ndarray:
    fact = math.factorial(k)
    width = b - a
    inside = -np.power(a - x, k) / (fact * width)
    beyond = (np.power(b - x, k) - np.power(a - x, k)) / (fact * width)
    return np.where(x <= a, 0.0, np.where(x <= b, inside, beyond))


def closed_stack_evaluator(law: LawSpec, k: int) -> Optional[Callable]:
    """x -> F_{law,k}(x) on 1-D arrays, or None when no closed form exists."""
    if isinstance(law, Normal):
        mu, s = law.mu_loc, law.sigma
        return lambda x: s ** (k - 1) * _stack_normal_std(k, (x - mu) / s)
    if isinstance(law, Uniform):
        return lambda x: _stack_uniform(k, law.a, law.b, x)
    if isinstance(law, (Dirac, Atoms, Rounded)):
        return _AtomStack(law.atoms(), k)
    if isinstance(law, HistogramLaw):
        # F_k of a uniform cell of mass w on [lo, hi] is F_{k+1} of the atoms
        # -w/eta at lo and +w/eta at hi; listed cell by cell, so that the stable
        # sort adds each pair to the prefix sums before the next (more accurate)
        centers, w = law._cells()
        h = law.eta / 2.0
        return _AtomStack(list(zip(np.c_[centers - h, centers + h].ravel(),
                                   np.c_[-w, w].ravel() / law.eta)), k + 1)
    if isinstance(law, Affine) and law.c > 0:
        base = closed_stack_evaluator(law.base, k)
        if base is None:
            return None
        c, d = law.c, law.d
        return lambda x: c ** (k - 1) * base((x - d) / c)
    if isinstance(law, SignedMeasure):            # mixtures too
        subs = [(c, closed_stack_evaluator(part, k)) for c, part in law.terms]
        if any(e is None for _, e in subs):
            return None
        return lambda x: sum(c * e(x) for c, e in subs)
    return None


def closed_measure_stack(M: SignedMeasure, k: int) -> Optional[Callable]:
    """Vectorized x -> F_{M,k}(x), or None when a term has no closed form."""
    ev = closed_stack_evaluator(M, k)
    return None if ev is None else lambda x: on_array(ev, x)


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------

def metric_grid(M: SignedMeasure, n_base: int = 2048,
                eps: float = 1e-15) -> np.ndarray:
    """Breakpoint grid: atoms, density kinks, 0, plus a dense fill."""
    lo, hi = M.support(eps)
    pad = 0.05 * (hi - lo) + 1e-6
    lo, hi = lo - pad, hi + pad
    feats = [x for x, _ in M.atoms()]
    feats += [b for b in M.density_breakpoints() if lo < b < hi]
    feats += [0.0] if lo < 0.0 < hi else []
    base = np.linspace(lo, hi, n_base)
    grid = np.unique(np.concatenate([base, np.asarray(feats, dtype=float),
                                     [lo, hi]]))
    # drop near-duplicates that would make panels degenerate
    keep = np.concatenate([[True], np.diff(grid) > 1e-13 * max(1.0, abs(hi), abs(lo))])
    return grid[keep]


# ---------------------------------------------------------------------------
# moment preconditions
# ---------------------------------------------------------------------------

MOMENT_TOL = 1e-8


def check_vanishing_moments(M: SignedMeasure, upto: int):
    """Raise MomentConditionError unless mu_j(M) ~ 0 for j = 0..upto."""
    for j in range(upto + 1):
        scale = max(1.0, M.nu_upper(j))
        mj = M.mu(j)
        if abs(mj) > MOMENT_TOL * scale:
            raise MomentConditionError(j, mj, MOMENT_TOL * scale)


# ---------------------------------------------------------------------------
# integrated distribution functions
# ---------------------------------------------------------------------------

def _integrated_cdfs(M: SignedMeasure, grid: np.ndarray, depth: int, tol: Tolerance,
                     engine: str) -> Tuple[List[Callable], float, str]:
    """(levels, err_est, method): the vectorized F_1 .. F_depth of M.

    With engine "auto" or "closed" they are the closed forms when every
    term of M has one (method "closed_form", err_est a rounding allowance
    of 1e-14 * max(1, nu_0 of M)); otherwise, or with engine "quadrature",
    F_1 = M.cdf and each further level is the cumulative_integral of the
    one before on ``grid`` (method "quadrature", err_est the summed bounds
    of the levels).  Raises MetricError for engine "closed" when a term
    has no closed form, and for any other engine name.
    """
    if engine not in ("auto", "closed", "quadrature"):
        raise MetricError(f"engine must be 'auto', 'closed' or 'quadrature', got {engine!r}")
    closed = [closed_measure_stack(M, k) for k in range(1, depth + 1)] \
        if engine != "quadrature" else [None]
    if all(c is not None for c in closed):
        return closed, 1e-14 * max(1.0, M.nu_upper(0)), "closed_form"
    if engine == "closed":
        raise MetricError("closed-form stack unavailable for this measure")
    levels, err, tail = [M.cdf], 0.0, 1e-15 * M.tail_scale()
    for _ in range(depth - 1):
        h, h_err = cumulative_integral(levels[-1], grid, tail, sign=-1, tol=tol)
        levels.append(h)
        err += h_err
        tail = 0.0
    return levels, err, "quadrature"


def _segment_points(M: SignedMeasure, fn: Callable,
                    grid: np.ndarray) -> Tuple[List[float], float]:
    """(points, band): the sign changes of fn (6 samples per grid panel)
    and the atoms of M strictly inside the grid, sorted, and the zero band
    of the sign scan.  fn is also sampled one float below each atom, where
    F_M takes its left limit: a lobe that ends at an atom is not merged
    into its neighbour."""
    atoms = [x for x, _ in M.atoms() if grid[0] < x < grid[-1]]
    xs = np.union1d(refine_grid(grid, 6), np.nextafter(atoms, -np.inf))
    roots, band = sign_roots(fn, xs)
    return sorted(set(roots) | set(atoms)), band


def _panel_points(M: SignedMeasure, grid: np.ndarray, seg: List[float]) -> List[float]:
    """First quadrature panels for an integrand built from F_M or the
    density of M: the segment points, the kinks of F_M, 0, and every 8th
    grid point, so that no panel spans more than 8 grid cells."""
    return sorted(set(seg) | set(M.density_breakpoints()) | {0.0} | set(grid[::8].tolist()))


def _telescope(f_k1: Callable, grid: np.ndarray, seg: List[float],
               band: float) -> Tuple[float, float]:
    """(integral of |F_k| over the grid, band loss), from the segment
    points ``seg`` and zero ``band`` of F_k given by _segment_points.

    F_{k+1}' = -F_k, so on each segment between consecutive sign changes
    of F_k the integral of |F_k| is |F_{k+1}(b) - F_{k+1}(a)| exactly.  A
    lobe of F_k inside the zero band of the sign scan is merged into its
    neighbours and lost twice over, so the loss is at most twice the band
    times the grid width.
    """
    vals = f_k1(np.array([grid[0]] + seg + [grid[-1]]))
    return float(np.sum(np.abs(np.diff(vals)))), 2.0 * band * (grid[-1] - grid[0])


def zeta_r(M: SignedMeasure, r: int, tol: Tolerance = DEFAULT_TOL,
           engine: str = "auto") -> MetricValue:
    """Zolotarev norm zeta_r(M) = integral |F_{M,r}| for M with
    vanishing moments mu_0 .. mu_{r-1}."""
    if r == 1:
        out = kappa_r(M, 1.0, tol, engine=engine)
        out.certificate = (out.certificate or {}) | {"delegated": "kappa_1"}
        return out
    if r not in (2, 3, 4):
        raise MetricError("zeta order r must be 1..4")
    check_vanishing_moments(M, r - 1)
    grid = metric_grid(M)
    levels, err, method = _integrated_cdfs(M, grid, r + 1, tol, engine)
    f_r = levels[r - 1]
    decay = (abs(float(f_r(grid[0]))), abs(float(f_r(grid[-1]))))
    seg, band = _segment_points(M, f_r, grid)
    total, loss = _telescope(levels[r], grid, seg, band)
    err = err + loss + max(decay) * (grid[-1] - grid[0]) * 1e-3
    return MetricValue(total, err + 1e-12 * max(1.0, total), method,
                       certificate={"segments": len(seg), "endpoint_decay": decay})


# ---------------------------------------------------------------------------
# kappa_r, lambda_1, kolmogorov, nu_r
# ---------------------------------------------------------------------------

def kappa_r(M: SignedMeasure, r: Union[float, Sequence[float]],
            tol: Tolerance = DEFAULT_TOL,
            engine: str = "auto") -> Union[MetricValue, List[MetricValue]]:
    """kappa_r(M) = integral r |x|^(r-1) |F_M(x)| dx for mass-zero M.

    ``r`` is one order, which gives one MetricValue, or a sequence of
    orders, which gives a list of MetricValues, one per order in the same
    places: ``kappa_r(M, (1.0, 3.0))``.  All orders share one grid and one
    segmentation of F_M at its sign changes.  r = 1 telescopes F_{M,2}
    across the segments; the other orders are the intervals of one
    batched integrate call, so each gets what it would get alone.  On a
    closed stack, the err_est of an order r != 1 also covers the stack's
    rounding allowance for F_M, weighted by the integral of r |x|^(r-1)
    over the grid.  Raises MetricError for the whole call when an order
    is not positive or nu at the largest order is infinite.
    """
    orders = [float(q) for q in np.atleast_1d(r)]
    if abs(M.mass()) > 1e-10:
        raise MassNotZeroError(f"kappa_r needs M(R) = 0, got mass {M.mass():.3e}")
    if any(q <= 0 for q in orders):
        raise MetricError("kappa_r needs r > 0")
    top = max(orders, default=1.0)
    try:
        M.nu_upper(int(math.ceil(top)))
    except InfiniteMomentError as exc:
        raise MetricError(f"kappa_{top} diverges: {exc}") from exc
    grid = metric_grid(M)
    levels, cum_err, method = _integrated_cdfs(M, grid, 2 if 1.0 in orders else 1, tol, engine)
    f1 = levels[0]
    seg, band = _segment_points(M, f1, grid)
    values = [None] * len(orders)
    if 1.0 in orders:
        total, loss = _telescope(levels[1], grid, seg, band)
        # a closed stack's rounding is inside the 1e-13 below
        stack_err = 0.0 if method == "closed_form" else cum_err
        for i, q in enumerate(orders):
            if q == 1.0:
                values[i] = total, loss + stack_err + 1e-11 * max(1.0, total) + 1e-13
    rest = [i for i, q in enumerate(orders) if q != 1.0]
    if rest:
        def weighted(x, k):
            # one float exponent per order, so that numpy's power takes the
            # path it takes in a lone call
            w = np.empty_like(x)
            for j, i in enumerate(rest):
                on = k == j
                w[on] = orders[i] * np.abs(x[on]) ** (orders[i] - 1.0)
            return w * np.abs(f1(x))

        ends = np.full(len(rest), grid[0]), np.full(len(rest), grid[-1])
        totals, errs = integrate(weighted, *ends, tol, breakpoints=_panel_points(M, grid, seg))
        for i, total, err in zip(rest, totals.tolist(), errs.tolist()):
            if method == "closed_form":
                # the stack's rounding of F_M times the integral of q |x|^(q-1)
                # over the grid, sign(x) |x|^q between its ends
                q = orders[i]
                err += cum_err * (math.copysign(abs(grid[-1]) ** q, grid[-1])
                                  - math.copysign(abs(grid[0]) ** q, grid[0]))
            values[i] = total, err + 1e-12 * max(1.0, total)
    out = [MetricValue(v, e, method, certificate={"segments": len(seg)}) for v, e in values]
    return out if np.ndim(r) else out[0]


def lambda_1(M: SignedMeasure) -> float:
    """lambda_1(M) = integral of h_M; equals mu_1(M) when nu_1 < infinity."""
    try:
        return M.mu(1)
    except InfiniteMomentError:
        pass
    if abs(M.mass()) > 1e-10:
        raise MassNotZeroError("lambda_1 fallback needs M(R) = 0")
    grid = metric_grid(M)
    v, _ = integrate(M.cdf, grid[0], grid[-1], DEFAULT_TOL,
                     breakpoints=_panel_points(M, grid, [x for x, _ in M.atoms()]))
    return -v


def kolmogorov(M: SignedMeasure, tol: Tolerance = DEFAULT_TOL,
               n_base: int = 2048) -> MetricValue:
    """sup_x |F_M(x)| (with left limits at atoms) for mass-zero M.

    The largest |F_M| on a dense grid and at both limits of every atom;
    when M has a density, the four highest interior local maxima of the
    grid are polished by one lockstep golden_section call, so each search
    step is one vectorized M.cdf call for all of them.
    """
    if abs(M.mass()) > 1e-10:
        raise MassNotZeroError(f"kolmogorov needs M(R) = 0, got {M.mass():.3e}")
    if not M.terms or all(c == 0 for c, _ in M.terms):
        return MetricValue(0.0, 0.0, "closed_form")
    grid = metric_grid(M, n_base=n_base)
    dense = refine_grid(grid, 6)
    vals = np.abs(M.cdf(dense))
    best = float(np.max(vals))
    best_x = float(dense[int(np.argmax(vals))])
    atoms = np.array([x for x, _ in M.atoms()])
    if atoms.size:
        for arr in (np.abs(M.cdf(atoms)), np.abs(M.cdf_left(atoms))):
            k = int(np.argmax(arr))
            if float(arr[k]) > best:
                best = float(arr[k])
                best_x = float(atoms[k])
    if M.has_density:
        # polish the four highest interior local maxima of |F_M| in one
        # search, folded in candidate order so that ties resolve as in one
        # search at a time; dense is strictly increasing and every candidate
        # is interior, so each bracket has b > a
        interior = (vals[1:-1] >= vals[:-2]) & (vals[1:-1] >= vals[2:])
        cand = np.nonzero(interior)[0] + 1
        cand = cand[np.argsort(vals[cand])[::-1][:4]]
        xs, vs = golden_section(lambda t: -np.abs(M.cdf(t)), dense[cand - 1], dense[cand + 1],
                                tol=1e-13)
        for x, v in zip(xs.tolist(), vs.tolist()):
            if -v > best:
                best, best_x = -v, x
    return MetricValue(best, 1e-12 + 1e-10 * best, "quadrature",
                       certificate={"argmax": best_x})


def nu_r_signed(M: SignedMeasure, r: int,
                tol: Tolerance = DEFAULT_TOL) -> MetricValue:
    """nu_r of the variation measure |M| (atoms + |summed density|)."""
    try:
        M.nu_upper(r)
    except InfiniteMomentError:
        return MetricValue(math.inf, 0.0, "closed_form",
                           certificate={"finite": False})
    total = sum(abs(w) * abs(x) ** r for x, w in M.atoms())
    err = 0.0
    if M.has_density:
        grid = metric_grid(M)
        roots, _ = sign_roots(M.pdf, refine_grid(grid, 2))
        v, err = integrate(lambda x: np.abs(x) ** r * np.abs(M.pdf(x)),
                           grid[0], grid[-1], tol, breakpoints=_panel_points(M, grid, roots),
                           singularities=M.density_singularities())
        total += v
    return MetricValue(total, err + 1e-12 * max(1.0, total), "quadrature",
                       certificate={"finite": True})


# ---------------------------------------------------------------------------
# cut criterion for zeta_3
# ---------------------------------------------------------------------------

def _certified_sign_count(fn: Callable, grid: np.ndarray, count: int,
                          band: float):
    """(count, first_sign, certified).

    Re-samples fn at 8 points per panel of ``grid`` and certifies ``count``,
    the alternations of fn's values on the grid, only if no extra
    alternation shows up (the finer count is returned either way).
    """
    fine_count, first, _ = scan_sign_changes(fn(refine_grid(grid, 8)), band)
    return fine_count, first, fine_count == count


def zeta3_cut_criterion(P: LawSpec, tol: Tolerance = DEFAULT_TOL
                        ) -> Optional[MetricValue]:
    """zeta_3(standardise(P) - N) by sign-change certification, or None.

    Returns |mu_3| / 6 when F~ - Phi certifiably changes sign at most
    twice and mu_3(P~) != 0; for symmetric densities with exactly four
    certified sign changes of f~ - phi it returns |nu_3(P~) - nu_3(N)|/6.
    Any other configuration declines (callers fall back to zeta_r).  It
    declines before the 8x re-sample when F~ - Phi already alternates
    more than twice on the grid and the symmetric-density branch cannot
    apply (P~ has atoms or |mu_3| > 1e-8): the re-sample keeps every grid
    point and the zero band, so it cannot count fewer alternations.
    """
    Pt = standardise(P)
    M = signed_diff(Pt, STANDARD_NORMAL)
    grid = metric_grid(M, n_base=1024)
    dvals = M.cdf(grid)
    sup0 = float(np.max(np.abs(dvals)))
    if sup0 < 1e-12:
        return MetricValue(0.0, 1e-12, "cut_criterion",
                           certificate={"sign_changes": 0, "first_sign": 0})
    mu3 = Pt.mu(3)
    band = 1e-9 * sup0
    symmetric_branch = Pt.has_density and not Pt.atoms() and abs(mu3) <= 1e-8
    count, _, _ = scan_sign_changes(dvals, band)
    if count > 2 and not symmetric_branch:
        return None
    # left limits matter at atoms: sample strictly between features
    count, first, certified = _certified_sign_count(M.cdf, grid, count, band)
    if certified and count <= 2 and abs(mu3) > 1e-8:
        return MetricValue(abs(mu3) / 6.0, 1e-12 * max(1.0, abs(mu3)),
                           "cut_criterion",
                           certificate={"sign_changes": count,
                                        "first_sign": int(first),
                                        "rule": "two_crossings"})
    # symmetric-density branch: four certified crossings of the density gap
    if symmetric_branch:
        xs = np.linspace(0.1, 6.0, 101)
        f_pos, f_neg = Pt.pdf(xs), Pt.pdf(-xs)
        sym = float(np.max(np.abs(f_pos - f_neg))) <= 1e-9 * max(1.0, float(np.max(f_pos)))
        if sym:
            dens = lambda x: Pt.pdf(x) - std_normal_pdf(x)
            dv = dens(grid)
            dband = 1e-9 * float(np.max(np.abs(dv)) or 1.0)
            cnt, dfirst, cert = _certified_sign_count(
                dens, grid, scan_sign_changes(dv, dband)[0], dband)
            if cert and cnt == 4:
                val = abs(Pt.nu(3) - STANDARD_NORMAL.nu(3)) / 6.0
                expected_first = 1 if Pt.nu(3) > STANDARD_NORMAL.nu(3) else -1
                if dfirst == expected_first:
                    return MetricValue(val, 1e-11 * max(1.0, val),
                                       "cut_criterion",
                                       certificate={"sign_changes": cnt,
                                                    "first_sign": int(dfirst),
                                                    "rule": "symmetric_density"})
    return None
