"""Recomputation of the published example values (reproduction gate).

Each table compares freshly computed quantities against their quoted
digits.  Quotes are strings so the comparison tolerance can be derived
from the quoted precision: 1.5 units in the last quoted digit, which
absorbs both truncation and rounding in the source.  Entries quoted
only as a bound (e.g. "<1e-5") are checked as bounds, and entries with
an exact value (zolotarev_M, rounding) within 1e-7 of it.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

from .measures import (SignedMeasure, STANDARD_NORMAL, atoms_law, gamma_power,
                       histogram, normal, rounded, signed_diff, standardise,
                       subbotin, uniform, lattice_span, convolve_signed)
from .metrics import kappa_r, kolmogorov, nu_r_signed, zeta_r, zeta3_to_normal
from .bounds import CONSTANTS

SQRT3 = math.sqrt(3.0)


def quoted_tol(quote: str) -> float:
    """1.5 units in the last quoted digit of a decimal string."""
    q = quote.strip().rstrip(".")
    if "e" in q or "E" in q:
        mant, expo = q.replace("E", "e").split("e")
        return quoted_tol(mant) * 10.0 ** float(expo)
    if "." not in q:
        return 1.5
    return 1.5 * 10.0 ** -(len(q.split(".")[1]))


def _row(name: str, computed: float, quote: str) -> Dict:
    if quote.startswith("<"):
        bound = float(quote[1:])
        ok = computed < bound
        return {"quantity": name, "computed": computed, "quoted": quote,
                "abs_diff": "", "ok": bool(ok)}
    target = float(quote)
    tol = quoted_tol(quote)
    diff = abs(computed - target)
    return {"quantity": name, "computed": computed, "quoted": quote,
            "abs_diff": diff, "ok": bool(diff <= tol)}


def _exact_row(name: str, computed: float, exact: float) -> Dict:
    diff = abs(computed - exact)
    return {"quantity": name, "computed": computed, "quoted": repr(exact),
            "abs_diff": diff, "ok": bool(diff <= 1e-7)}


# ---------------------------------------------------------------------------

_EXAMPLE_1_4_QUOTES = {
    1.0:   ("0.2417", "0.0051", "0.1916", "0.6562", "2.176"),
    0.1:   ("0.0249", "<1e-5", "0.01993", "0.6538", "0.224"),
    0.01:  ("0.00249", "<1e-5", "0.001994", "0.6538", "0.0224"),
}


def example_1_4() -> Tuple[List[Dict], bool]:
    """Discretised standard normal at eta in {1, 1/10, 1/100}."""
    rows: List[Dict] = []
    ok = True
    for eta, quotes in _EXAMPLE_1_4_QUOTES.items():
        P = rounded(eta, 0.0, normal())
        Pt = standardise(P)
        M = signed_diff(Pt, STANDARD_NORMAL)
        z1 = kappa_r(M, 1.0).value
        z3 = zeta_r(M, 3).value
        esseen = (lattice_span(Pt) / 2.0 + abs(Pt.mu(3)) / 6.0) \
            / math.sqrt(2.0 * math.pi)
        ce_nu3 = CONSTANTS.c_E * Pt.nu(3)
        nine = 9.0 * max(z1, z3)
        for name, val, q in (
                (f"zeta1[eta={eta}]", z1, quotes[0]),
                (f"zeta3[eta={eta}]", z3, quotes[1]),
                (f"esseen_rhs[eta={eta}]", esseen, quotes[2]),
                (f"cE_nu3[eta={eta}]", ce_nu3, quotes[3]),
                (f"nine_z13[eta={eta}]", nine, quotes[4])):
            r = _row(name, val, q)
            rows.append(r)
            ok &= r["ok"]
    return rows, ok


def zolotarev_measure() -> SignedMeasure:
    """M = (delta_-1 + delta_1)/2  -  uniform density on (-sqrt3, sqrt3)."""
    return SignedMeasure([
        (1.0, atoms_law([(-1.0, 0.5), (1.0, 0.5)])),
        (-1.0, uniform(-SQRT3, SQRT3)),
    ])


def zolotarev_M() -> Tuple[List[Dict], bool]:
    M = zolotarev_measure()
    rows = [_exact_row("K(M)", kolmogorov(M).value, 1.0 / (2.0 * SQRT3)),
            _exact_row("K(M*M)", kolmogorov(convolve_signed(M, M)).value, 0.25)]
    for r_ in range(4):
        rows.append(_exact_row(f"nu_{r_}(M)", nu_r_signed(M, r_).value,
                               3.0 ** (r_ / 2.0) / (r_ + 1.0) + 1.0))
    for r_, kappa in zip((1, 2, 3), kappa_r(M, (1.0, 2.0, 3.0))):
        exact = (3.0 ** (r_ / 2.0) + (2.0 * SQRT3 - 3.0) * r_ / 3.0 - 1.0) / (r_ + 1.0)
        rows.append(_exact_row(f"kappa_{r_}(M)", kappa.value, exact))
    rows += [_exact_row("zeta_1(M)", zeta_r(M, 1).value, (5.0 * SQRT3 - 6.0) / 6.0),
             _exact_row("zeta_3(M)", zeta_r(M, 3).value, (3.0 * SQRT3 - 4.0) / 24.0),
             _exact_row("zeta_4(M)", zeta_r(M, 4).value, 1.0 / 30.0)]
    return rows, all(r["ok"] for r in rows)


def rounding_table() -> Tuple[List[Dict], bool]:
    """The rounding P_rd of a law and its histogram P_hist at width eta.

    The rounding puts each lattice cell's mass at the cell's center and
    the histogram spreads it uniformly over the cell.  They have the same
    mass and mean, and differ exactly by -eta^2/12 in mu_2 and by
    -(eta^2/4) mu_1 in mu_3, and zeta_1(P_rd - P_hist) = eta / 4 for any
    base law.
    """
    rows: List[Dict] = []
    for name, P in (("normal", normal()), ("gamma(3)", gamma_power(3.0)),
                    ("subbotin(1.5)", subbotin(1.5))):
        for eta in (1.0, 0.1, 0.01):
            Prd, Phist = rounded(eta, 0.0, P), histogram(eta, 0.0, P)
            tag = f"[{name}, eta={eta}]"
            rows += [
                _exact_row("mu2_gap" + tag, Prd.mu(2) - Phist.mu(2), -eta * eta / 12.0),
                _exact_row("mu3_gap" + tag, Prd.mu(3) - Phist.mu(3),
                           -(eta * eta / 4.0) * Prd.mu(1)),
                _exact_row("zeta1_gap" + tag,
                           kappa_r(signed_diff(Prd, Phist), 1.0).value, eta / 4.0)]
    return rows, all(r["ok"] for r in rows)


def subbotin_table() -> Tuple[List[Dict], bool]:
    rows: List[Dict] = []
    ok = True
    for beta, quote in ((1.0, "0.0875918"), (2.0, "<1e-9"), (math.inf, "0.0494551")):
        r = _row(f"zeta3_subbotin[beta={beta}]", zeta3_to_normal(subbotin(beta)).value,
                 quote)
        rows.append(r)
        ok &= r["ok"]
    return rows, ok


_CONSTANT_QUOTES = (
    ("alpha_Z", lambda C: C.alpha_Z, "0.967882"),
    ("beta_Z", lambda C: C.beta_Z, "1.595769"),
    ("gamma_Z", lambda C: C.gamma_Z, "1.510013"),
    ("lambda_Z", lambda C: C.lambda_Z, "3.9447"),
    ("zeta_R(3/2)", lambda C: C.zeta_R32, "2.612375"),
    ("c_E", lambda C: C.c_E, "0.4097"),
    ("p_E", lambda C: C.p_E, "0.418861"),
    ("phi0_L1", lambda C: C.phi_deriv_L1[0], "1.0"),
    ("phi1_L1", lambda C: C.phi_deriv_L1[1], "0.797884"),
    ("phi2_L1", lambda C: C.phi_deriv_L1[2], "0.967882"),
    ("phi3_L1", lambda C: C.phi_deriv_L1[3], "1.510013"),
    ("phi4_L1", lambda C: C.phi_deriv_L1[4], "2.800600"),
    ("c_zeta1_derived", lambda C: C.derived_c_zeta1(), "13.3803"),
    ("c_main_derived", lambda C: C.derived_c_main(), "8.92085"),
    ("c1_pairing", lambda C: C.c1_even_odd(), "2.3416"),
    ("h11_pairing", lambda C: C.c1_even_odd() * math.sqrt(2 * math.pi), "5.86974"),
)


def constants_table() -> Tuple[List[Dict], bool]:
    rows: List[Dict] = []
    ok = True
    for name, fn, quote in _CONSTANT_QUOTES:
        r = _row(name, fn(CONSTANTS), quote)
        rows.append(r)
        ok &= r["ok"]
    return rows, ok


TABLES = {
    "example_1_4": example_1_4,
    "zolotarev_M": zolotarev_M,
    "subbotin": subbotin_table,
    "constants": constants_table,
    "rounding": rounding_table,
}


def compute(which: str) -> Tuple[List[Dict], bool]:
    if which not in TABLES:
        raise ValueError(f"unknown table {which!r}; known: {sorted(TABLES)}")
    return TABLES[which]()
