"""Rounding and histogram operators with their exact moment deltas.

The rounding of a law concentrates each lattice cell's mass in the cell
center; the histogram spreads it uniformly over the cell.  The pair has
exact closed-form moment differences (mu_0 = mu_1 = 0, mu_2 = -eta^2/12,
mu_3 = -(eta^2/4) mu_1) and the exact Wasserstein gap
zeta_1(P_rd - P_hist) = eta / 4, which rounding_gaps cross-checks by
quadrature.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .measures import (LawSpec, DegenerateLawError, histogram, rounded,
                       signed_diff, standardise)
from .metrics import kappa_r


@dataclass
class RoundingGapReport:
    eta: float
    alpha: float
    zeta1_rd_hist_exact: float          # eta / 4, exact
    zeta1_rd_hist_quad: float           # quadrature recomputation
    zeta1_rd_base: float                # zeta_1(P_rd - P)
    zeta3_rd_hist_bound: float          # closed-form upper bound
    zeta1_std_gap: Optional[float]      # zeta_1(P~_rd - P~)
    zeta1_std_reference: Optional[float]  # eta / (4 sigma(P_rd))
    sigma_base: float
    sigma_rounded: float


def rounding_gaps(P: LawSpec, eta: float, alpha: float = 0.0) -> RoundingGapReport:
    """Exact and recomputed discretisation gaps of P at width eta.

    The zeta_3 entry is the closed-form bound
    (eta^2/8) * sum_l eta^l / (l! (k-2-l)!) * nu_{k-2-l}(P) at k = 3.
    """
    if eta <= 0:
        raise ValueError("eta must be > 0")
    Prd = rounded(eta, alpha, P)
    Phist = histogram(eta, alpha, P)
    gap_quad = kappa_r(signed_diff(Prd, Phist), 1.0).value
    z1_rd_base = kappa_r(signed_diff(Prd, P), 1.0).value
    z3_bound = (eta ** 2 / 8.0) * (P.nu(1) + eta * P.nu(0))
    sigma = P.std
    if not sigma > 0:
        raise DegenerateLawError("rounding_gaps needs sigma(P) > 0")
    sigma_rd = Prd.std
    z1_std = None
    ref = None
    if sigma_rd > 0:
        z1_std = kappa_r(signed_diff(standardise(Prd), standardise(P)),
                         1.0).value
        ref = eta / (4.0 * sigma_rd)
    return RoundingGapReport(
        eta=eta, alpha=alpha,
        zeta1_rd_hist_exact=eta / 4.0,
        zeta1_rd_hist_quad=gap_quad,
        zeta1_rd_base=z1_rd_base,
        zeta3_rd_hist_bound=z3_bound,
        zeta1_std_gap=z1_std,
        zeta1_std_reference=ref,
        sigma_base=sigma,
        sigma_rounded=sigma_rd,
    )
