"""Acceptance criteria.

One test per criterion, each printing a single PASS/FAIL line (run with
``pytest tests/test_acceptance.py -s`` to see them inline).  Tolerances
are the stated ones; none are loosened at run time.
"""

import math
import time

import numpy as np
import pytest

import zetametrics as zm
from zetametrics import paper_tables
from zetametrics.bounds import CONSTANTS, xi

SQRT_2PI = math.sqrt(2 * math.pi)
SQRT3 = math.sqrt(3.0)


def report(num: int, ok: bool, detail: str):
    print(f"ACCEPTANCE {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


_PROFILE_TIME = {}


@pytest.fixture(scope="session")
def timed_profiles(corpus):
    t0 = time.time()
    profs = {name: zm.distance_profile(law) for name, law in corpus}
    _PROFILE_TIME["elapsed"] = time.time() - t0
    return profs


def test_criterion_1_example_table():
    t0 = time.time()
    rows, ok = paper_tables.compute("example_1_4")
    elapsed = time.time() - t0
    bad = [r["quantity"] for r in rows if not r["ok"]]
    ok = ok and elapsed < 30.0
    report(1, ok, f"example 1.4 table, {len(rows)} entries, "
                  f"failures={bad or 'none'}, {elapsed:.1f}s (< 30 s)")


def test_criterion_2_zolotarev_closed_forms():
    t0 = time.time()
    rows, ok = paper_tables.compute("zolotarev_M")
    # quadrature engine must match the closed forms too
    M = paper_tables.zolotarev_measure()
    checks = [
        (zm.zeta_r(M, 1, engine="quadrature").value, (5 * SQRT3 - 6) / 6),
        (zm.zeta_r(M, 3, engine="quadrature").value, (3 * SQRT3 - 4) / 24),
        (zm.zeta_r(M, 4, engine="quadrature").value, 1 / 30),
        (zm.kappa_r(M, 2.0, engine="quadrature").value,
         (3.0 + (2 * SQRT3 - 3) * 2 / 3 - 1) / 3),
    ]
    quad_ok = all(abs(a - b) <= 1e-7 for a, b in checks)
    elapsed = time.time() - t0
    ok = ok and quad_ok and elapsed < 10.0
    worst = max(abs(a - b) for a, b in checks)
    report(2, ok, f"Zolotarev example norms; worst quadrature-vs-closed "
                  f"deviation {worst:.2e} (<= 1e-7), {elapsed:.1f}s (< 10 s)")


def test_criterion_3_goldstein_tyurin_value():
    M = zm.signed_diff(zm.standardise(zm.bernoulli(0.5)), zm.STANDARD_NORMAL)
    v = zm.kappa_r(M, 1.0, engine="quadrature").value
    exact = 4 * zm.std_normal_cdf(1.0) + 4 * zm.std_normal_pdf(1.0) \
        - 2 * zm.std_normal_pdf(0.0) - 3
    ok = abs(v - exact) <= 1e-6
    report(3, ok, f"kappa_1(B~ - N) = {v:.9f} vs 4Phi(1)+4phi(1)-2phi(0)-3 "
                  f"= {exact:.9f} (|diff| = {abs(v - exact):.2e} <= 1e-6)")


def test_criterion_4_special_law_zeta3():
    fails = []
    sub = zm.zeta3_cut_criterion(zm.subbotin(1.0))
    target = (3 / math.sqrt(2) - 4 / SQRT_2PI) / 6
    if sub is None or abs(sub.value - target) > 1e-6:
        fails.append("subbotin")
    for a in (1.0, 4.0, 9.0):
        expect = 1 / (3 * math.sqrt(a))
        cut = zm.zeta3_cut_criterion(zm.gamma_power(a))
        M = zm.signed_diff(zm.standardise(zm.gamma_power(a)), zm.STANDARD_NORMAL)
        quad = zm.zeta_r(M, 3, engine="quadrature")
        if cut is None or abs(cut.value - expect) > 1e-6:
            fails.append(f"gamma({a}) cut")
        if abs(quad.value - expect) > 1e-5:
            fails.append(f"gamma({a}) F3")
        if cut is not None and abs(cut.value - quad.value) > 1e-5:
            fails.append(f"gamma({a}) paths disagree")
    report(4, not fails, f"Subbotin + gamma zeta_3 paths; failures={fails or 'none'}")


def test_criterion_5_constants():
    C = CONSTANTS
    targets = [
        ("alpha_Z", C.alpha_Z, 0.9678828981),
        ("beta_Z", C.beta_Z, 1.5957691216),
        ("gamma_Z", C.gamma_Z, 1.5100130001),
        ("lambda_Z", C.lambda_Z, 3.9447207377),
        ("c_E", C.c_E, 0.4097321837),
        ("phi0", C.phi_deriv_L1[0], 1.0),
        ("phi1", C.phi_deriv_L1[1], 0.7978845608),
        ("phi2", C.phi_deriv_L1[2], 0.9678828981),
        ("phi3", C.phi_deriv_L1[3], 1.5100130001),
        ("phi4", C.phi_deriv_L1[4], 2.8006003008),
        ("xi_sup_c", C.derived_c_zeta1(), 13.3803),
        ("main_sup_c", C.derived_c_main(), 8.92085),
        ("c1", C.c1_even_odd(), 2.3416),
    ]
    bad = [n for n, got, want in targets if abs(got - want) > 1e-4]
    report(5, not bad, f"constant recomputation within 1e-4; failures={bad or 'none'}")


def test_criterion_6_kolmogorov_bound_suite(corpus, timed_profiles):
    t0 = time.time()
    violations = []
    rows = 0
    for name, law in corpus:
        prof = timed_profiles[name]
        L = zm.lattice_of(law)
        for n in (2, 3, 4, 8, 16, 64):
            Ln = zm.power_lattice(L, n)
            from zetametrics.convolve import _lattice_vs_normal_sup
            sup, _ = _lattice_vs_normal_sup(Ln, n * law.mean,
                                            math.sqrt(n) * law.std)
            if n == 2:   # cross-check the public op against the direct sup
                assert abs(zm.clt_lhs(law, 2, mode="exact_lattice").value
                           - sup) < 1e-13
            reps = zm.all_bounds(prof, n)
            rows += 1
            for bid in ("be_main", "be_kappa", "be_zeta3_only",
                        "be_classical", "shiganov_combined"):
                rep = reps[bid]
                if not rep.applicable:
                    continue
                slack = 1e-7 * (1.0 + rep.rhs)
                if sup > rep.rhs + slack:
                    violations.append((name, n, bid, sup, rep.rhs))
    elapsed = time.time() - t0 + _PROFILE_TIME.get("elapsed", 0.0)
    ok = not violations and elapsed < 300.0
    report(6, ok, f"{rows} (law, n) pairs x 5 bounds; violations="
                  f"{violations[:3] or 'none'}; {elapsed:.0f}s (< 300 s)")


def test_criterion_7_zeta1_level_suite(corpus, timed_profiles):
    violations = []
    for name, law in corpus:
        prof = timed_profiles[name]
        xi_val = xi(prof.zeta1, prof.zeta3)
        L = zm.lattice_of(law)
        for n in (2, 3, 4, 8, 16, 64):
            Ln = zm.power_lattice(L, n)
            w1 = zm.wasserstein_lattice_vs_normal(
                Ln, n * law.mean, math.sqrt(n) * law.std)
            if math.isfinite(xi_val) and w1 > xi_val / math.sqrt(n) + 1e-9:
                violations.append((name, n, "xi", w1, xi_val / math.sqrt(n)))
            if w1 > prof.nu3_std / math.sqrt(n) + 1e-9:
                violations.append((name, n, "GT", w1,
                                   prof.nu3_std / math.sqrt(n)))
    report(7, not violations,
           f"zeta_1 of lattice powers vs xi and Goldstein-Tyurin RHS; "
           f"violations={violations[:3] or 'none'}")


def test_criterion_8_desk_asymptotics():
    fails = []
    v = zm.clt_lhs(zm.bernoulli(0.5), 400).value
    if abs(20.0 * v - 1 / SQRT_2PI) > 0.05 / SQRT_2PI:
        fails.append(f"sqrt(400) clt = {20 * v:.5f}")
    N, eta = zm.normal(), 0.01
    Nrd = zm.rounded(eta, 0.0, N)
    ratio = zm.kappa_r(zm.signed_diff(Nrd, N), 1.0).value / (eta / 4.0)
    if not 0.99 <= ratio <= 1.01:
        fails.append(f"zeta1(N_rd - N)/(eta/4) = {ratio:.4f}")
    gap = zm.kappa_r(zm.signed_diff(Nrd, zm.histogram(eta, 0.0, N)), 1.0).value
    if abs(gap - eta / 4.0) > 1e-8:
        fails.append(f"quadrature gap diff = {abs(gap - eta / 4.0):.2e}")
    report(8, not fails, f"desk-scale asymptotics; failures={fails or 'none'}")


def test_criterion_9_convolution_inequality():
    rng = np.random.default_rng(1234)
    fails = []
    for k in range(20):
        def rand_lattice():
            idx = sorted(rng.choice(np.arange(-6, 7), size=3, replace=False))
            w = rng.dirichlet([2.0, 2.0, 2.0])
            return zm.atoms_law([(0.5 * i, wi) for i, wi in zip(idx, w)])
        F1, F2 = rand_lattice(), rand_lattice()
        lhs, rhs = zm.convolution_inequality_check(
            F1, F2, zm.normal(), zm.normal())
        if lhs > rhs * (1 + 1e-9) + 1e-12:
            fails.append(f"pair {k}: lhs={lhs:.4g} > rhs={rhs:.4g}")
    eps = 0.1
    Phi_eps = float(zm.std_normal_cdf(eps))
    P = zm.mixture([
        (Phi_eps - 0.5, zm.dirac(0.0)),
        (0.5, zm.reflect(zm.truncated_normal_left(0.0))),
        (1.0 - Phi_eps, zm.truncated_normal_left(-eps)),
    ])
    lhs, rhs = zm.convolution_inequality_check(P, P, zm.normal(), zm.normal())
    ratio = lhs / rhs
    if not (lhs <= rhs * (1 + 1e-9)):
        fails.append(f"near-extremal lhs={lhs:.4g} > rhs={rhs:.4g}")
    if ratio < 0.8:
        fails.append(f"near-extremal ratio {ratio:.3f} < 0.8")
    report(9, not fails, f"convolution inequality, 20 random pairs + "
                         f"near-extremal ratio {ratio:.3f}; "
                         f"failures={fails or 'none'}")


def test_criterion_10_cut_certification():
    fails = []
    for t in (1.5, 2.5, 4.0):
        for name, law in (("truncated", zm.truncated_normal_left(t)),
                          ("winsorised", zm.winsorised_normal_left(t))):
            cut = zm.zeta3_cut_criterion(law)
            if cut is None or cut.certificate.get("sign_changes", 9) > 2:
                fails.append(f"{name}(t={t}) not certified")
                continue
            mu3 = zm.standardise(law).mu(3)
            if abs(cut.value - abs(mu3) / 6.0) > 1e-12:
                fails.append(f"{name}(t={t}) wrong value")
    if zm.zeta3_cut_criterion(zm.bernoulli(0.5)) is not None:
        fails.append("Bernoulli(1/2) did not decline")
    M = zm.signed_diff(zm.standardise(zm.bernoulli(0.5)), zm.STANDARD_NORMAL)
    fallback = zm.zeta_r(M, 3).value
    naive = abs(zm.standardise(zm.bernoulli(0.5)).mu(3)) / 6.0
    if abs(fallback - naive) <= 1e-3:
        fails.append("guard indistinguishable from naive value")
    report(10, not fails,
           f"cut certification at t in {{1.5, 2.5, 4}}, Bernoulli guard "
           f"(fallback {fallback:.4f} vs naive {naive:.4f}); "
           f"failures={fails or 'none'}")
