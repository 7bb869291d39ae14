"""Probability metrics and Berry-Esseen type bounds on the real line.

Laws and bounded signed measures with exact CDF evaluation; Kolmogorov,
Wasserstein (kappa_r) and Zolotarev (zeta_r) distances; exact lattice
convolution powers for central-limit left-hand sides; and evaluators
for a family of Berry-Esseen type error bounds in terms of these
distances.
"""

from .numerics import (Tolerance, DEFAULT_TOL, integrate,
                       cumulative_integral, std_normal_cdf, std_normal_pdf,
                       std_normal_quantile, reg_incomplete_gamma)
from .measures import (LawSpec, SignedMeasure, Atoms, Bernoulli,
                       Dirac, GammaPower, HistogramLaw, Lattice, Mixture,
                       Normal, Rounded, SubbotinLaw, Uniform, affine, atoms_law,
                       bernoulli, conv2_law, convolve_signed, dirac,
                       gamma_power, histogram, law_from_dict, lattice_span,
                       truncated_normal_left, winsorised_normal_left,
                       mixture, normal, reflect, rounded, signed_diff,
                       standardise, subbotin, truncate, Truncated, uniform,
                       STANDARD_NORMAL)
from .metrics import (MetricValue, kappa_r, kolmogorov, nu_r_signed, zeta3_cut_criterion,
                      zeta_r)
from .convolve import (clt_lhs, convolution_inequality_check, convolve_atomic, lattice_of,
                       power_lattice, wasserstein_lattice_vs_normal)
from .bounds import (CONSTANTS, BoundReport, NormalDistanceProfile, all_bounds,
                     be_classical, be_kappa, be_main, be_main_all_n,
                     be_zeta3_only, distance_profile, esseen_asymptotic, g_eta,
                     goldstein_tyurin, sampling_bound,
                     shiganov_combined, shiganov_family, xi,
                     zolotarev_zeta1_bound)

__version__ = "0.1.0"
