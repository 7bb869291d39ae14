"""Right-hand sides of the Berry-Esseen type error bounds.

Every evaluator returns a BoundReport carrying the numeric RHS, an
applicability flag with reason (n-range / moment requirements), the
metric inputs consumed and the metric its RHS bounds: "K" for the
Kolmogorov distance ||P~^{*n} - N||_K, "zeta1" for zeta_1(P~^{*n} - N).
The table _BOUNDS holds each bound of all_bounds with its smallest n
and that metric.  The distance inputs are collected once per law in a
NormalDistanceProfile and shared across the bound family, as is
Zolotarev's xi(zeta_1, zeta_3), which does not depend on n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Optional

import numpy as np

from .numerics import DEFAULT_TOL, Tolerance, golden_section
from .measures import (DegenerateLawError, LawSpec, STANDARD_NORMAL, lattice_span,
                       signed_diff, standardise)
from .metrics import _integer_order, kappa_r, nu_r_signed, zeta3_to_normal

SQRT_2PI = math.sqrt(2.0 * math.pi)


# ---------------------------------------------------------------------------
# g(eta) and the constants
# ---------------------------------------------------------------------------

def g_eta(eta):
    """g(eta) = sum_{j>=1} (j + eta^2)^{-3/2}, the Hurwitz zeta
    zeta(3/2, 1 + eta^2): 20 terms plus the Euler-Maclaurin tail from
    t = eta^2 + 21; within 1e-13 of the series for every eta >= 0."""
    e2 = np.asarray(eta, dtype=float) ** 2
    t = e2 + 21.0
    head = np.sum((e2[..., None] + np.arange(1.0, 21.0)) ** -1.5, axis=-1)
    out = head + 2.0 * t ** -0.5 + t ** -1.5 / 2.0 + t ** -2.5 / 8.0 \
        - 7.0 * t ** -4.5 / 384.0 + 11.0 * t ** -6.5 / 1024.0
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class Constants:
    c_Sh: float = 0.469
    c_E: float = (3.0 + math.sqrt(10.0)) / (6.0 * SQRT_2PI)
    p_E: float = (4.0 - math.sqrt(10.0)) / 2.0
    alpha_Z: float = 4.0 * math.exp(-0.5) / SQRT_2PI
    beta_Z: float = 4.0 / SQRT_2PI
    gamma_Z: float = (2.0 + 8.0 * math.exp(-1.5)) / SQRT_2PI
    zeta_R32: float = g_eta(0.0)
    c_main: float = 9.0
    c_zeta1_coarse: float = 14.0
    c_zeta3: float = 34.0
    c_hoeglund: float = 82.4

    @property
    def lambda_Z(self) -> float:
        return self.gamma_Z * self.zeta_R32

    @property
    def phi_deriv_L1(self):
        """L1 norms of the first five derivatives of the normal density."""
        r6 = math.sqrt(6.0)
        v4 = 4.0 * (math.sqrt(18.0 - 6.0 * r6) * math.exp(-(3.0 - r6) / 2.0)
                    + math.sqrt(18.0 + 6.0 * r6) * math.exp(-(3.0 + r6) / 2.0)) / SQRT_2PI
        return (1.0,
                2.0 / SQRT_2PI,
                4.0 * math.exp(-0.5) / SQRT_2PI,
                (2.0 + 8.0 * math.exp(-1.5)) / SQRT_2PI,
                v4)

    def c1_even_odd(self) -> float:
        """sqrt(3) (2^{-1/4} + 1)^2 / sqrt(2 pi), the pairing constant."""
        return math.sqrt(3.0) * (2.0 ** -0.25 + 1.0) ** 2 / SQRT_2PI

    def derived_c_zeta1(self) -> float:
        """sup_z min((1 + alpha)/(1 - lambda z), 6 + beta/z) = 13.3803..."""
        lam, beta, alpha = self.lambda_Z, self.beta_Z, self.alpha_Z
        A = alpha - 5.0 + beta * lam
        zstar = (-A + math.sqrt(A * A + 24.0 * lam * beta)) / (12.0 * lam)
        return 6.0 + beta / zstar

    def derived_c_main(self) -> float:
        """sup_z min(c1 (1+alpha)/(1-lambda z), c_Sh (6 + beta/z)) = 8.92085..."""
        lam, beta, alpha = self.lambda_Z, self.beta_Z, self.alpha_Z
        om = self.c1_even_odd() / self.c_Sh
        B = om * (1.0 + alpha) - 6.0 + beta * lam
        zstar = (-B + math.sqrt(B * B + 24.0 * lam * beta)) / (12.0 * lam)
        return self.c_Sh * (6.0 + beta / zstar)


CONSTANTS = Constants()


@dataclass
class BoundReport:
    bound_id: str
    rhs: float
    applicable: bool
    reason: str = ""
    inputs: Dict[str, float] = field(default_factory=dict)
    metric: str = "K"


# ---------------------------------------------------------------------------
# Zolotarev's xi
# ---------------------------------------------------------------------------

_XI_GRID = np.concatenate([[0.0], np.logspace(-6, 5, 1024)])
_XI_GVALS = g_eta(_XI_GRID)


def xi(kappa: float, zeta: float) -> float:
    """Zolotarev's bound function

        xi(kappa, zeta) = inf_eta (kappa + alpha zeta + beta eta)
                                  / (1 - gamma g(eta) zeta)

    over feasible eta (gamma g(eta) zeta < 1); +inf when no eta in the
    scan range is feasible.  eta = 0 realizes the closed-form branch
    (kappa + alpha zeta)/(1 - lambda zeta) for zeta < 1/lambda.
    """
    if kappa < 0 or zeta < 0:
        raise ValueError("xi needs kappa, zeta >= 0")
    C = CONSTANTS
    if zeta == 0.0:
        return kappa
    sel = _XI_GRID <= 10.0 * (1.0 + kappa + zeta)
    etas = _XI_GRID[sel]
    gs = _XI_GVALS[sel]
    denom = 1.0 - C.gamma_Z * gs * zeta
    feas = denom > 0.0
    if not np.any(feas):
        return math.inf
    vals = (kappa + C.alpha_Z * zeta + C.beta_Z * etas[feas]) / denom[feas]
    k = int(np.argmin(vals))
    best = float(vals[k])
    idx_feas = np.nonzero(feas)[0]
    i = idx_feas[k]
    lo_b = float(etas[max(i - 1, 0)])
    hi_b = float(etas[min(i + 1, etas.size - 1)])

    def objective(e):
        d = 1.0 - C.gamma_Z * g_eta(e) * zeta
        if d <= 0:
            return math.inf
        return (kappa + C.alpha_Z * zeta + C.beta_Z * e) / d

    if hi_b > lo_b:
        _, v = golden_section(objective, lo_b, hi_b, tol=1e-9)
        best = min(best, v)
    closed = math.inf
    if zeta < 1.0 / C.lambda_Z:
        closed = (kappa + C.alpha_Z * zeta) / (1.0 - C.lambda_Z * zeta)
    return min(best, closed)


# ---------------------------------------------------------------------------
# per-law distance profile
# ---------------------------------------------------------------------------

@dataclass
class NormalDistanceProfile:
    """Distances of standardise(P) to N consumed by the bound family."""

    law: LawSpec
    zeta1: float
    zeta3: float
    kappa1: float
    kappa3: float
    nu3_std: float
    nu_diff: Dict[int, float]
    mu3_std: float
    span_std: float
    zeta3_method: str = "quadrature"

    @property
    def zeta13(self) -> float:
        return max(self.zeta1, self.zeta3)

    @cached_property
    def xi(self) -> float:
        """xi(zeta1, zeta3), searched on first use and kept: it does not
        depend on n."""
        return xi(self.zeta1, self.zeta3)


def distance_profile(P: LawSpec, tol: Tolerance = DEFAULT_TOL) -> NormalDistanceProfile:
    Pt = standardise(P)
    M = signed_diff(Pt, STANDARD_NORMAL)
    z1, k3 = (mv.value for mv in kappa_r(M, (1.0, 3.0), tol))
    z3 = zeta3_to_normal(P, tol)
    nus = {r: nu_r_signed(M, r, tol).value for r in (0, 1, 2, 3)}
    return NormalDistanceProfile(
        law=P, zeta1=z1, zeta3=z3.value, kappa1=z1, kappa3=k3,
        nu3_std=Pt.nu(3), nu_diff=nus, mu3_std=Pt.mu(3),
        span_std=lattice_span(Pt), zeta3_method=z3.method)


def _profile(P_or_prof, n) -> NormalDistanceProfile:
    """The distance profile of P (or P itself when it is one: another
    accuracy comes in as distance_profile(P, tol)) for a bound at n
    summands; raises ValueError for n < 1, where no bound is defined."""
    if n < 1:
        raise ValueError(f"bounds need n >= 1, got n = {n}")
    if isinstance(P_or_prof, NormalDistanceProfile):
        return P_or_prof
    return distance_profile(P_or_prof)


# ---------------------------------------------------------------------------
# the bounds
# ---------------------------------------------------------------------------

def _needs(n: int, n_min: int) -> str:
    return f"needs n >= {n_min}" if n < n_min else ""


def _report(bound_id: str, rhs: float, n: int, inputs: Dict[str, float],
            reason: str = "") -> BoundReport:
    """The report of the table bound bound_id at n summands: applicable
    when n reaches the bound's smallest n and rhs is finite."""
    _, n_min, metric = _BOUNDS[bound_id]
    return BoundReport(bound_id, rhs, n >= n_min and math.isfinite(rhs),
                       reason or _needs(n, n_min), inputs, metric)


def be_classical(P, n: int) -> BoundReport:
    """Classical Berry-Esseen RHS c_Sh * nu_3(P~) / sqrt(n)."""
    prof = _profile(P, n)
    if not math.isfinite(prof.nu3_std):
        return _report("be_classical", math.inf, n, {}, "nu_3 infinite")
    c = CONSTANTS.c_Sh
    return _report("be_classical", c * prof.nu3_std / math.sqrt(n), n,
                   {"nu3_std": prof.nu3_std, "c": c})


def be_main(P, n: int) -> BoundReport:
    """(9 / sqrt(n)) (zeta_1 v zeta_3)(P~ - N), valid for n >= 2."""
    prof = _profile(P, n)
    return _report("be_main", CONSTANTS.c_main * prof.zeta13 / math.sqrt(n), n,
                   {"zeta1": prof.zeta1, "zeta3": prof.zeta3})


def be_main_all_n(P, n: int) -> BoundReport:
    """(9 / sqrt(n)) (zeta_1^(1 ^ n/2) v zeta_3), valid for all n >= 1."""
    prof = _profile(P, n)
    expo = min(1.0, n / 2.0)
    rhs = CONSTANTS.c_main * max(prof.zeta1 ** expo, prof.zeta3) / math.sqrt(n)
    return _report("be_main_all_n", rhs, n,
                   {"zeta1": prof.zeta1, "zeta3": prof.zeta3, "exponent": expo})


def be_kappa(P, n: int) -> BoundReport:
    """max(9 kappa_1, 1.5 kappa_3)(P~ - N) / sqrt(n), n >= 2."""
    prof = _profile(P, n)
    rhs = max(9.0 * prof.kappa1, 1.5 * prof.kappa3) / math.sqrt(n)
    return _report("be_kappa", rhs, n, {"kappa1": prof.kappa1, "kappa3": prof.kappa3})


def be_zeta3_only(P, n: int) -> BoundReport:
    """34 (zeta_3^(1/3) v zeta_3)(P~ - N) / sqrt(n), n >= 2."""
    prof = _profile(P, n)
    rhs = CONSTANTS.c_zeta3 * max(prof.zeta3 ** (1.0 / 3.0), prof.zeta3) / math.sqrt(n)
    return _report("be_zeta3_only", rhs, n, {"zeta3": prof.zeta3})


def esseen_asymptotic(P) -> float:
    """Limit of sqrt(n) ||P~^{*n} - N||_K:
    (h(P~)/2 + |mu_3(P~)|/6) / sqrt(2 pi)."""
    prof = _profile(P, math.inf)
    h = prof.span_std
    if math.isinf(h):
        raise ValueError("esseen_asymptotic needs a non-degenerate law")
    return (h / 2.0 + abs(prof.mu3_std) / 6.0) / SQRT_2PI


_SHIGANOV_C = {0: 1.8, 1: 4.2, 2: 13.5, 3: 35.0}


def shiganov_family(P, n: int, r: int) -> BoundReport:
    """c_r (nu_r^(1 ^ n/(r+1)) v nu_3)(P~ - N) / sqrt(n)."""
    r = _integer_order(r, "shiganov_family")
    if r not in _SHIGANOV_C:
        raise ValueError("shiganov family needs r in 0..3")
    prof = _profile(P, n)
    nur = prof.nu_diff[r]
    nu3 = prof.nu_diff[3]
    if not (math.isfinite(nur) and math.isfinite(nu3)):
        return BoundReport(f"shiganov_r{r}", math.inf, False, "moment infinite")
    expo = min(1.0, n / (r + 1.0))
    rhs = _SHIGANOV_C[r] * max(nur ** expo, nu3) / math.sqrt(n)
    return BoundReport(f"shiganov_r{r}", rhs, True, "",
                       {"nu_r": nur, "nu_3": nu3, "exponent": expo,
                        "c": _SHIGANOV_C[r], "r": r})


def shiganov_combined(P, n: int) -> BoundReport:
    """min over r from min(3, n-1) to 3 of the Shiganov family RHS."""
    prof = _profile(P, n)
    reports = [shiganov_family(prof, n, r) for r in range(min(3, n - 1), 4)]
    applicable = [rep for rep in reports if rep.applicable]
    if not applicable:
        return _report("shiganov_combined", math.inf, n, {}, "no admissible r")
    best = min(applicable, key=lambda rep: rep.rhs)
    return _report("shiganov_combined", best.rhs, n, best.inputs)


def zolotarev_zeta1_bound(P, n: int) -> BoundReport:
    """xi(zeta_1, zeta_3)/sqrt(n), bounding zeta_1(P~^{*n} - N); the
    coarse 14 (zeta_1 v zeta_3)/sqrt(n) form is reported alongside, and
    is the RHS where no eta makes xi feasible."""
    prof = _profile(P, n)
    v = prof.xi
    coarse = CONSTANTS.c_zeta1_coarse * prof.zeta13 / math.sqrt(n)
    feasible = math.isfinite(v)
    return _report("zolotarev_zeta1", v / math.sqrt(n) if feasible else coarse, n,
                   {"zeta1": prof.zeta1, "zeta3": prof.zeta3, "xi": v, "coarse": coarse},
                   "" if feasible else "xi infeasible; coarse form only")


def goldstein_tyurin(P, n: int) -> BoundReport:
    """zeta_1(P~^{*n} - N) <= nu_3(P~) / sqrt(n)."""
    prof = _profile(P, n)
    if not math.isfinite(prof.nu3_std):
        return _report("goldstein_tyurin", math.inf, n, {}, "nu_3 infinite")
    return _report("goldstein_tyurin", prof.nu3_std / math.sqrt(n), n,
                   {"nu3_std": prof.nu3_std})


def sampling_bound(population: LawSpec, n: int, N_pop: int,
                   diversity: Optional[int] = None) -> Dict[str, BoundReport]:
    """Simple-random-sampling bounds for the empirical population law.

    Main form: (9/sqrt(n)) (zeta_1 v zeta_3)(P~ - N) + min((n-1)/2, d) n/N.
    Companion: the finite-population classical RHS
    82.4 nu_3(P~) / sqrt(n (N-n)/(N-1)).
    """
    if n > N_pop:
        raise ValueError("sample size exceeds population size")
    atoms = population.atoms()
    if not atoms or population.has_density:
        raise ValueError("sampling_bound needs a finite atomic population law")
    d = diversity if diversity is not None else len(atoms)
    try:
        prof = _profile(population, n)
    except DegenerateLawError:
        return {b: BoundReport(b, math.inf, False, "degenerate population (sigma = 0)")
                for b in ("sampling_main", "hoeglund")}
    main = (CONSTANTS.c_main / math.sqrt(n)) * prof.zeta13 \
        + min((n - 1) / 2.0, float(d)) * n / N_pop
    eff = n * (N_pop - n) / (N_pop - 1.0) if N_pop > 1 else float(n)
    hoeg = CONSTANTS.c_hoeglund * prof.nu3_std / math.sqrt(eff) if eff > 0 else math.inf
    return {
        "sampling_main": BoundReport("sampling_main", main, n >= 2, _needs(n, 2),
                                     {"zeta1": prof.zeta1, "zeta3": prof.zeta3,
                                      "diversity": d, "N": N_pop}),
        "hoeglund": BoundReport("hoeglund", hoeg, n < N_pop,
                                "" if n < N_pop else "needs n < N",
                                {"nu3_std": prof.nu3_std,
                                 "effective_n": eff}),
    }


# id: (evaluator, smallest n, the metric its RHS bounds)
_BOUNDS = {
    "be_main": (be_main, 2, "K"),
    "be_main_all_n": (be_main_all_n, 1, "K"),
    "be_kappa": (be_kappa, 2, "K"),
    "be_zeta3_only": (be_zeta3_only, 2, "K"),
    "be_classical": (be_classical, 1, "K"),
    "shiganov_combined": (shiganov_combined, 1, "K"),
    "zolotarev_zeta1": (zolotarev_zeta1_bound, 1, "zeta1"),
    "goldstein_tyurin": (goldstein_tyurin, 1, "zeta1"),
}
ALL_BOUND_IDS = tuple(_BOUNDS)


def all_bounds(P, n: int) -> Dict[str, BoundReport]:
    """Every bound of _BOUNDS at n summands, in table order; raises
    ValueError for n < 1."""
    prof = _profile(P, n)
    return {bid: evaluate(prof, n) for bid, (evaluate, _, _) in _BOUNDS.items()}
