"""Constants, g / xi, and the bound evaluators."""

import inspect
import math

import mpmath
import numpy as np
import pytest

import zetametrics as zm
from zetametrics import bounds
from zetametrics.bounds import ALL_BOUND_IDS, CONSTANTS, g_eta, xi
from zetametrics.metrics import MetricError

SQRT_2PI = math.sqrt(2 * math.pi)
RNG = np.random.default_rng(31337)


class TestConstants:
    def test_xi_function_constants(self):
        assert abs(CONSTANTS.alpha_Z - 0.967882) < 1.5e-6
        assert abs(CONSTANTS.beta_Z - 1.595769) < 1.5e-6
        assert abs(CONSTANTS.gamma_Z - 1.510013) < 1.5e-6
        assert abs(CONSTANTS.lambda_Z - 3.94472074) < 1e-6

    def test_esseen_constant(self):
        assert abs(CONSTANTS.c_E - 0.40973218) < 1e-7
        assert abs(CONSTANTS.p_E - 0.418861) < 1.5e-6

    def test_phi_derivative_l1_norms(self):
        expect = (1.0, 0.797884, 0.967882, 1.510013, 2.800600)
        for got, want in zip(CONSTANTS.phi_deriv_L1, expect):
            assert abs(got - want) < 1.5e-6

    def test_phi4_l1_by_quadrature(self):
        # independent check: total variation integral of phi'''
        f = lambda x: np.abs(x ** 4 - 6 * x * x + 3) * zm.std_normal_pdf(x)
        v, _ = zm.integrate(f, -40.0, 40.0, zm.Tolerance(1e-11, 1e-9),
                            breakpoints=[-2.334, -0.742, 0.742, 2.334])
        assert abs(v - CONSTANTS.phi_deriv_L1[4]) < 1e-8

    def test_derived_sup_constants(self):
        assert abs(CONSTANTS.derived_c_zeta1() - 13.3803) < 1e-4
        assert abs(CONSTANTS.derived_c_main() - 8.92085) < 1e-4
        assert abs(CONSTANTS.c1_even_odd() - 2.3416) < 1e-4


class TestGEta:
    def test_at_zero_is_zeta_three_halves(self):
        assert abs(g_eta(0.0) - 2.612375) < 1e-6

    def test_shifted_sum_identity(self):
        # g(1) = sum (j+1)^(-3/2) = zeta(3/2) - 1; direct summation oracle
        j = np.arange(1, 200_001, dtype=float)
        oracle = float(np.sum((j + 1.0) ** -1.5)) + 2.0 / math.sqrt(200_000 + 1.0)
        assert abs(g_eta(1.0) - oracle) < 1e-6
        assert abs(g_eta(1.0) - (g_eta(0.0) - 1.0)) < 1e-7

    def test_upper_bound_2_over_eta(self):
        for eta in (0.5, 1.0, 10.0, 50.0):
            assert g_eta(eta) < 2.0 / eta

    def test_vectorized(self):
        out = g_eta(np.array([0.0, 1.0]))
        assert abs(out[0] - g_eta(0.0)) < 1e-12 and abs(out[1] - g_eta(1.0)) < 1e-12

    def test_hurwitz_zeta_oracle(self):
        etas = np.concatenate([[0.0], np.logspace(-6, 5, 45)])
        got = g_eta(etas)
        for eta, g in zip(etas, got):
            assert abs(g - float(mpmath.zeta(1.5, 1.0 + eta * eta))) < 1e-12
        assert abs(CONSTANTS.zeta_R32 - float(mpmath.zeta(1.5))) < 1e-12


class TestXi:
    def test_zero_zeta_returns_kappa(self):
        for k in (0.0, 0.3, 2.0):
            assert xi(k, 0.0) == k

    def test_linear_upper_bound(self):
        # proof-step bound xi <= 2 kappa + 21.212827... zeta
        for _ in range(100):
            k = float(RNG.uniform(0, 2))
            z = float(RNG.uniform(0, 2))
            v = xi(k, z)
            assert v <= 2 * k + 21.212828 * z + 1e-7

    def test_closed_branch_matches_eta_zero(self):
        C = CONSTANTS
        k, z = 0.4, 0.1
        closed = (k + C.alpha_Z * z) / (1 - C.lambda_Z * z)
        assert xi(k, z) <= closed + 1e-9

    def test_bernoulli_bound_holds_downstream(self):
        # zeta_1(B~^{*n} - N) <= xi(zeta_1, zeta_3)/sqrt(n) at n in {4, 16}
        prof = zm.distance_profile(zm.bernoulli(0.5))
        v = xi(prof.zeta1, prof.zeta3)
        assert math.isfinite(v)
        B = zm.bernoulli(0.5)
        L = zm.lattice_of(B)
        for n in (4, 16):
            Ln = zm.power_lattice(L, n)
            w1 = zm.wasserstein_lattice_vs_normal(Ln, n * B.mean,
                                                  math.sqrt(n) * B.std)
            assert w1 <= v / math.sqrt(n) + 1e-9

    def test_xi_objective_vs_brute_force(self):
        # two-stage brute force of the xi objective at 1e-6 resolution
        C = CONSTANTS
        kappa, zeta = 1.0, 0.1
        coarse = np.arange(0.0, 10.0, 1e-3)
        cv = (kappa + C.alpha_Z * zeta + C.beta_Z * coarse) \
            / (1.0 - C.gamma_Z * g_eta(coarse) * zeta)
        k = int(np.argmin(cv))
        fine = np.arange(max(coarse[k] - 2e-3, 0.0), coarse[k] + 2e-3, 1e-6)
        fv = (kappa + C.alpha_Z * zeta + C.beta_Z * fine) \
            / (1.0 - C.gamma_Z * g_eta(fine) * zeta)
        assert abs(xi(kappa, zeta) - float(np.min(fv))) < 1e-6

    def test_monotone_on_grid(self):
        ks = np.linspace(0.0, 2.0, 50)
        zs = np.linspace(0.0, 0.24, 50)
        vals = np.array([[xi(float(k), float(z)) for z in zs] for k in ks])
        assert np.all(np.diff(vals, axis=0) >= -1e-8)
        assert np.all(np.diff(vals, axis=1) >= -1e-8)


    def test_searched_once_per_profile(self, monkeypatch):
        # xi does not depend on n: all_bounds at six n reads one search
        prof = zm.distance_profile(zm.bernoulli(0.3))
        calls = []

        def counted(kappa, zeta):
            calls.append((kappa, zeta))
            return xi(kappa, zeta)
        monkeypatch.setattr(bounds, "xi", counted)
        reports = [zm.all_bounds(prof, n) for n in (2, 3, 4, 8, 16, 64)]
        assert calls == [(prof.zeta1, prof.zeta3)]
        for rep in reports:
            assert rep["zolotarev_zeta1"].inputs["xi"] == xi(prof.zeta1, prof.zeta3)


class TestBoundEvaluators:
    def test_classical_bernoulli_n1(self):
        rep = zm.be_classical(zm.bernoulli(0.5), 1)
        assert abs(rep.rhs - 0.469) < 1e-12

    def test_classical_normal(self):
        rep = zm.be_classical(zm.normal(), 4)
        assert abs(rep.rhs - CONSTANTS.c_Sh * 4 / SQRT_2PI / 2.0) < 1e-9

    def test_table_ids_metrics_and_smallest_n(self):
        prof = zm.distance_profile(zm.bernoulli(0.3))
        reports = zm.all_bounds(prof, 1)
        assert tuple(reports) == ALL_BOUND_IDS
        assert {b for b, rep in reports.items() if rep.metric == "zeta1"} \
            == {"zolotarev_zeta1", "goldstein_tyurin"}
        assert {b: rep.reason for b, rep in reports.items() if not rep.applicable} \
            == dict.fromkeys(("be_main", "be_kappa", "be_zeta3_only"), "needs n >= 2")

    def test_main_normal_is_zero(self):
        rep = zm.be_main(zm.normal(), 4)
        assert rep.rhs < 1e-10 and rep.applicable

    def test_main_needs_two_summands(self):
        rep = zm.be_main(zm.bernoulli(0.5), 1)
        assert not rep.applicable and "n >= 2" in rep.reason

    def test_main_all_n_exponent(self):
        prof = zm.distance_profile(zm.bernoulli(0.5))
        rep1 = zm.be_main_all_n(prof, 1)
        assert abs(rep1.rhs - 9.0 * max(math.sqrt(prof.zeta1), prof.zeta3)) < 1e-12
        rep4 = zm.be_main_all_n(prof, 4)
        assert abs(rep4.rhs - 9.0 * prof.zeta13 / 2.0) < 1e-12

    def test_kappa_reports_both_inputs(self):
        rep = zm.be_kappa(zm.bernoulli(0.5), 4)
        assert abs(rep.inputs["kappa1"] - 0.535377) < 1e-5
        assert abs(rep.inputs["kappa3"] - 1.673258) < 1e-5
        assert abs(rep.rhs - max(9 * rep.inputs["kappa1"],
                                 1.5 * rep.inputs["kappa3"]) / 2.0) < 1e-12

    def test_zeta3_only_gamma(self):
        prof = zm.distance_profile(zm.gamma_power(9.0))
        rep = zm.be_zeta3_only(prof, 4)
        expect = 34.0 * (1.0 / 9.0) ** (1.0 / 3.0) / 2.0
        assert abs(rep.rhs - expect) < 1e-4

    def test_zeta3_only_subbotin(self):
        prof = zm.distance_profile(zm.subbotin(1.0))
        rep = zm.be_zeta3_only(prof, 9)
        expect = 34.0 * 0.0875918 ** (1.0 / 3.0) / 3.0
        assert abs(rep.rhs - expect) < 1e-4


    # every bound that takes n, called with a population law and n
    N_BOUNDS = {
        "be_classical": lambda P, n: zm.be_classical(P, n),
        "be_main": lambda P, n: zm.be_main(P, n),
        "be_main_all_n": lambda P, n: zm.be_main_all_n(P, n),
        "be_kappa": lambda P, n: zm.be_kappa(P, n),
        "be_zeta3_only": lambda P, n: zm.be_zeta3_only(P, n),
        "zolotarev_zeta1_bound": lambda P, n: zm.zolotarev_zeta1_bound(P, n),
        "goldstein_tyurin": lambda P, n: zm.goldstein_tyurin(P, n),
        "shiganov_family": lambda P, n: zm.shiganov_family(P, n, 1),
        "shiganov_combined": lambda P, n: zm.shiganov_combined(P, n),
        "sampling_bound": lambda P, n: zm.sampling_bound(P, n, 100),
    }

    @pytest.mark.parametrize("n", [0, -1])
    @pytest.mark.parametrize("name", sorted(N_BOUNDS))
    def test_n_below_one_rejected(self, name, n):
        with pytest.raises(ValueError, match=f"bounds need n >= 1, got n = {n}$"):
            self.N_BOUNDS[name](zm.bernoulli(0.5), n)


class TestEsseenAsymptotic:
    def test_bernoulli_closed_form(self):
        for p in (0.3, 0.5, CONSTANTS.p_E):
            got = zm.esseen_asymptotic(zm.bernoulli(p))
            expect = (3 + abs(1 - 2 * p)) / (6 * math.sqrt(2 * math.pi * p * (1 - p)))
            assert abs(got - expect) < 1e-9

    def test_symmetric_continuous_is_zero(self):
        assert zm.esseen_asymptotic(zm.subbotin(1.0)) < 1e-12

    def test_example_table_value(self):
        got = zm.esseen_asymptotic(zm.rounded(1.0, 0.0, zm.normal()))
        assert abs(got - 0.1916) < 1.5e-4


class TestShiganov:
    def test_normal_is_zero(self):
        rep = zm.shiganov_combined(zm.normal(), 4)
        assert rep.rhs < 1e-9

    def test_discrete_nu3_splits(self):
        # discrete laws: nu_3(P~ - N) = nu_3(P~) + nu_3(N)
        prof = zm.distance_profile(zm.bernoulli(0.4))
        expect = prof.nu3_std + 4 / SQRT_2PI
        assert abs(prof.nu_diff[3] - expect) < 1e-6

    def test_low_order_nu_bounded_by_two(self):
        for law in (zm.bernoulli(0.2), zm.gamma_power(2.0),
                    zm.rounded(0.5, 0.0, zm.normal())):
            prof = zm.distance_profile(law)
            for r in (0, 1, 2):
                assert prof.nu_diff[r] <= 2.0 + 1e-8

    def test_combined_takes_minimum(self):
        prof = zm.distance_profile(zm.bernoulli(0.5))
        combined = zm.shiganov_combined(prof, 8)
        singles = [zm.shiganov_family(prof, 8, r).rhs for r in range(3, 4)]
        assert combined.rhs <= min(singles) + 1e-12

    def test_integral_float_order_is_its_int(self):
        P = zm.bernoulli(0.3)
        got = zm.shiganov_family(P, 10, 2.0)
        want = zm.shiganov_family(P, 10, 2)
        assert got.bound_id == "shiganov_r2"
        assert got.inputs["r"] == 2 and type(got.inputs["r"]) is int
        assert got.rhs == want.rhs

    def test_non_integer_order_is_a_metric_error(self):
        with pytest.raises(MetricError, match="integer order"):
            zm.shiganov_family(zm.bernoulli(0.3), 10, 2.5)

    @pytest.mark.parametrize("r", [-1, 4, 5.0])
    def test_order_outside_0_to_3_rejected(self, r):
        with pytest.raises(ValueError, match="r in 0..3"):
            zm.shiganov_family(zm.bernoulli(0.3), 10, r)


class TestZolotarevZeta1Bound:
    def test_normal_zero(self):
        rep = zm.zolotarev_zeta1_bound(zm.normal(), 4)
        assert rep.rhs < 1e-10

    def test_reports_both_forms(self):
        rep = zm.zolotarev_zeta1_bound(zm.bernoulli(0.5), 4)
        assert "xi" in rep.inputs and "coarse" in rep.inputs

    def test_xi_form_below_coarse_for_small_zeta(self):
        for _ in range(50):
            k = float(RNG.uniform(0.01, 1.5))
            z = float(RNG.uniform(0.0, 0.2))
            assert xi(k, z) <= 14.0 * max(k, z) + 1e-9


class TestGoldsteinTyurin:
    def test_bernoulli_n1(self):
        rep = zm.goldstein_tyurin(zm.bernoulli(0.5), 1)
        assert abs(rep.rhs - 1.0) < 1e-12
        prof = zm.distance_profile(zm.bernoulli(0.5))
        assert prof.zeta1 <= rep.rhs

    def test_normal(self):
        rep = zm.goldstein_tyurin(zm.normal(), 4)
        assert abs(rep.rhs - 4 / SQRT_2PI / 2) < 1e-12

    def test_bernoulli_n16_quarter(self):
        B = zm.bernoulli(0.5)
        L16 = zm.power_lattice(zm.lattice_of(B), 16)
        w1 = zm.wasserstein_lattice_vs_normal(L16, 8.0, 2.0)
        assert w1 <= 0.25
        assert w1 <= zm.goldstein_tyurin(B, 16).rhs


class TestSamplingBound:
    def test_two_point_population(self):
        pop = zm.atoms_law([(0.0, 0.5), (1.0, 0.5)])
        out = zm.sampling_bound(pop, 10, 100)
        assert out["sampling_main"].applicable
        assert out["hoeglund"].applicable
        # hypergeometric case: nu_3 of the standardised two-point law is 1
        assert abs(out["hoeglund"].inputs["nu3_std"] - 1.0) < 1e-12

    def test_degenerate_population(self):
        pop = zm.atoms_law([(3.0, 1.0)])
        out = zm.sampling_bound(pop, 5, 100, diversity=1)
        assert not out["sampling_main"].applicable
        assert "sigma" in out["sampling_main"].reason
        with pytest.raises(ValueError, match="bounds need n >= 1, got n = 0$"):
            zm.sampling_bound(pop, 0, 100, diversity=1)

    def test_normal_like_population(self):
        rng = np.random.default_rng(4)
        vals = np.round(rng.normal(size=50), 2)
        pts = {}
        for v in vals:
            pts[float(v)] = pts.get(float(v), 0.0) + 1.0 / len(vals)
        pop = zm.atoms_law(list(pts.items()))
        out = zm.sampling_bound(pop, 100, 10_000)
        assert out["sampling_main"].applicable and out["hoeglund"].applicable
        assert out["sampling_main"].rhs > 0
        assert out["hoeglund"].rhs > 0

    def test_oversampling_rejected(self):
        with pytest.raises(ValueError):
            zm.sampling_bound(zm.atoms_law([(0.0, 0.5), (1.0, 0.5)]), 11, 10)


class TestCrossBoundInequalities:
    MINI = [zm.bernoulli(0.3), zm.bernoulli(0.5),
            zm.rounded(0.5, 0.0, zm.normal()),
            zm.rounded(0.5, 0.0, zm.gamma_power(2.0))]

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_zeta13_distance_below_nu3(self, n):
        # (zeta_1^(1 ^ n/2) v zeta_3)(P~ - N) <= nu_3(P~), so the main
        # bound with c = 9 never loses to the classical one with c = 9
        for law in self.MINI:
            prof = zm.distance_profile(law)
            expo = min(1.0, n / 2.0)
            assert max(prof.zeta1 ** expo, prof.zeta3) <= prof.nu3_std + 1e-9

    @pytest.mark.parametrize("p", [0.5, CONSTANTS.p_E])
    def test_clt_approaches_esseen_asymptote(self, p):
        v = zm.clt_lhs(zm.bernoulli(p), 400).value
        target = zm.esseen_asymptotic(zm.bernoulli(p))
        assert abs(20.0 * v - target) <= 0.05 * target


class TestKolmogorovNormalPair:
    @staticmethod
    def k(sigma, tau):
        return zm.kolmogorov(zm.signed_diff(zm.normal(0, sigma), zm.normal(0, tau))).value

    def test_equal_scales(self, kolmogorov_normal_pair):
        assert kolmogorov_normal_pair(1.3, 1.3) == 0.0
        assert self.k(1.3, 1.3) == 0.0

    def test_one_two(self, kolmogorov_normal_pair):
        assert abs(kolmogorov_normal_pair(1.0, 2.0) - 0.161337284417384) < 1e-12
        assert abs(self.k(1.0, 2.0) - kolmogorov_normal_pair(1.0, 2.0)) < 1e-14

    def test_lipschitz_style_bound(self, kolmogorov_normal_pair):
        v = self.k(1.0, 1.01)
        assert abs(v - kolmogorov_normal_pair(1.0, 1.01)) < 1e-14
        assert v <= 0.01 / math.sqrt(2 * math.pi * math.e) + 1e-12

    def test_symmetry(self, kolmogorov_normal_pair):
        assert self.k(0.5, 2.0) == self.k(2.0, 0.5)
        assert abs(self.k(0.5, 2.0) - kolmogorov_normal_pair(0.5, 2.0)) < 1e-14


class TestToleranceSurface:
    # a bound reads its distances from a profile; another accuracy goes in
    # through distance_profile(P, tol), the one place that integrates
    NO_TOL = ("be_classical", "be_main", "be_main_all_n", "be_kappa",
              "be_zeta3_only", "esseen_asymptotic", "shiganov_family",
              "shiganov_combined", "zolotarev_zeta1_bound", "goldstein_tyurin",
              "sampling_bound", "all_bounds", "convolution_inequality_check")

    @pytest.mark.parametrize("name", NO_TOL)
    def test_no_tol_parameter(self, name):
        assert "tol" not in inspect.signature(getattr(zm, name)).parameters
