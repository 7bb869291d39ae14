"""Self-test of the benchmark's output checks: each check passes on a correct
value and fails on a perturbed one.  Where a reference computation can be
cross-checked against a closed form, that is done too.  It also checks
that BENCHMARK.json names exactly the metrics the benchmark reports.

    python3 bench/selftest.py        # exit 0 when every case holds

Needs scipy (for the convolution reference); does not need zetametrics.
"""

import json
import math
import sys
from pathlib import Path

import checks
import layer_trace

RESULTS = []


def case(name, result, expect_ok):
    ok = result[0] if isinstance(result, tuple) else bool(result)
    held = ok == expect_ok
    RESULTS.append(held)
    print(f"{'ok  ' if held else 'FAIL'} {name}: check {'passed' if ok else 'failed'}"
          f" (expected to {'pass' if expect_ok else 'fail'})")


def binomial_pmf(n, p):
    return [math.comb(n, k) * p ** k * (1 - p) ** (n - k) for k in range(n + 1)]


def main():
    # profile_corpus
    half = 4 * checks.Phi(1.0) + 4 * checks.phi(1.0) - 2 * checks.phi(0.0) - 3
    atoms = [(0.0, 0.5), (1.0, 0.5)]
    case("kappa_1 reference = Bernoulli(1/2) closed form",
         abs(checks.kappa1_reference(atoms) - half) <= 1e-13, True)
    case("kappa_1 correct", checks.check_kappa1(atoms, half), True)
    case("kappa_1 perturbed by 1e-8", checks.check_kappa1(atoms, half + 1e-8), False)
    case("Bernoulli(1/2) kappa_1 correct", checks.check_bernoulli_half_kappa1(half), True)
    case("Bernoulli(1/2) kappa_1 perturbed",
         checks.check_bernoulli_half_kappa1(half * (1 + 1e-8)), False)
    rhs = {"be_main": (0.2, True), "be_kappa": (0.05, False)}
    case("lhs <= rhs", checks.check_lhs_below_rhs(0.1, rhs), True)
    case("lhs above an applicable rhs", checks.check_lhs_below_rhs(0.21, rhs), False)
    case("moment chain", checks.check_moment_chain(0.01, 0.09, 0.1, 2.0), True)
    case("moment chain, zeta_3 > kappa_3/6",
         checks.check_moment_chain(0.016, 0.09, 0.1, 2.0), False)
    case("moment chain, kappa_3 > nu_3",
         checks.check_moment_chain(0.01, 0.11, 0.1, 2.0), False)
    case("moment chain, nu_0 != 2",
         checks.check_moment_chain(0.01, 0.09, 0.1, 2.0 + 1e-7), False)

    # clt_large_n
    n, p = 60, 0.3
    pmf = binomial_pmf(n, p)
    sd = math.sqrt(n * p * (1 - p))
    cum, exact_sup = 0.0, 0.0
    for k, w in enumerate(pmf):
        target = checks.Phi((k - n * p) / sd)
        exact_sup = max(exact_sup, abs(cum - target), abs(cum + w - target))
        cum += w
    case("binomial sup reference = direct pmf",
         abs(checks.binomial_sup_reference(p, n) - exact_sup) <= 1e-13, True)
    case("binomial sup correct", checks.check_binomial_sup(p, n, exact_sup), True)
    case("binomial sup perturbed", checks.check_binomial_sup(p, n, exact_sup + 1e-8), False)
    mean, var, mu3 = p, p * (1 - p), p * (1 - p) * (1 - 2 * p)
    case("power moments",
         checks.check_power_moments(pmf, 0.0, 1.0, n, mean, var, mu3), True)
    moved = list(pmf)
    moved[10] -= 1e-6
    moved[30] += 1e-6
    case("power moments, mass moved",
         checks.check_power_moments(moved, 0.0, 1.0, n, mean, var, mu3), False)
    lost = [w * (1 - 1e-8) for w in pmf]
    case("power moments, mass lost",
         checks.check_power_moments(lost, 0.0, 1.0, n, mean, var, mu3), False)
    ns = [10, 100, 1000, 10000]
    lhs = [(0.4 + 0.5 / math.sqrt(k)) / math.sqrt(k) for k in ns]
    case("esseen approach", checks.check_esseen_approach(ns, lhs, 0.4, 0.05), True)
    case("esseen approach, off the constant",
         checks.check_esseen_approach(ns, lhs[:-1] + [0.5 / 100], 0.4, 0.05), False)

    # quadrature_engine
    for name, value in checks.ZOLOTAREV_CLOSED_FORMS.items():
        case(f"{name} correct", checks.check_zolotarev(name, value), True)
        case(f"{name} perturbed", checks.check_zolotarev(name, value + 2e-7), False)
    case("conv2 reference at eps=0 = Phi(x/sqrt2)",
         abs(checks.near_extremal_conv_reference(0.7, 0.0)
             - checks.Phi(0.7 / checks.SQRT2)) <= 1e-12, True)
    ref = checks.near_extremal_conv_reference(0.3, 0.1)
    case("conv2 point correct", checks.check_conv2_point(0.3, 0.1, ref), True)
    case("conv2 point perturbed", checks.check_conv2_point(0.3, 0.1, ref + 2e-9), False)
    normal2 = checks.Phi(0.3 / checks.SQRT2)
    case("inequality holds", checks.check_conv2_inequality(0.3, normal2 + 0.01, 0.02), True)
    case("inequality breached", checks.check_conv2_inequality(0.3, normal2 + 0.03, 0.02), False)
    sup = checks.triangular_sup_reference()
    c = math.sqrt(6.0)

    def tri(x):
        if x <= -c:
            return 0.0
        if x <= 0:
            return (x + c) ** 2 / (2 * c * c)
        return 1.0 - (c - x) ** 2 / (2 * c * c) if x < c else 1.0
    scan = max(abs(tri(x) - checks.Phi(x))
               for x in (-4 + 8 * k / 400000 for k in range(400001)))
    case("triangular sup reference = dense scan", abs(sup - scan) <= 1e-9, True)
    case("uniform n=2 correct", checks.check_uniform_n2(sup), True)
    case("uniform n=2 perturbed", checks.check_uniform_n2(sup + 2e-9), False)

    # paper_gate
    case("row within digits", checks.check_paper_row("zeta1", 0.24171, "0.2417"), True)
    case("row off its digits", checks.check_paper_row("zeta1", 0.2419, "0.2417"), False)
    case("bound row", checks.check_paper_row("zeta3", 4e-6, "<1e-5"), True)
    case("bound row breached", checks.check_paper_row("zeta3", 2e-5, "<1e-5"), False)
    exact = repr(1.0 / 30.0)
    case("exact row", checks.check_paper_row("zeta_4", 1 / 30 + 5e-8, exact), True)
    case("exact row off", checks.check_paper_row("zeta_4", 1 / 30 + 5e-7, exact), False)

    # BENCHMARK.json against what the benchmark reports
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    per_layer = {(m["name"], m["unit"]) for m in spec["per_layer"]}
    case("per_layer metrics = traced report", per_layer == set(layer_trace.METRICS), True)
    reported = {name for names in layer_trace.EXPECTED_NONZERO.values() for name in names}
    case("layer map names reported metrics",
         reported <= {name for name, _ in layer_trace.METRICS}, True)
    e2e = {(m["name"], m["unit"]) for m in spec["end_to_end"]}
    case("end_to_end metrics", e2e == {("pass_s", "s"), ("item_p50_s", "s"),
                                      ("setup_s", "s"), ("peak_rss_mb", "MB")}, True)
    case("workloads", {w["name"] for w in spec["workloads"]}
         == set(layer_trace.EXPECTED_NONZERO), True)

    print(f"{sum(RESULTS)}/{len(RESULTS)} cases hold")
    return 0 if all(RESULTS) else 1


if __name__ == "__main__":
    sys.exit(main())
