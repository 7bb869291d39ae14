"""Kolmogorov, kappa_r, zeta_r, cut criterion, and the norm inequalities."""

import math

import mpmath
import numpy as np
import pytest

import zetametrics as zm
from zetametrics.metrics import (MassNotZeroError, MetricError, MomentConditionError,
                                 _integrated_cdfs, _segment_points, _telescope,
                                 closed_measure_stack, metric_grid)

SQRT_2PI = math.sqrt(2 * math.pi)
SQRT3 = math.sqrt(3.0)

# Goldstein-Tyurin closed form 4 Phi(1) + 4 phi(1) - 2 phi(0) - 3,
# frozen from the mpmath oracle
GT_VALUE = 0.535377321547880
# closed-form Kolmogorov distance of N(0,1) and N(0,4); dense-grid oracle
# cross-checked in test_numerics
K_N1_N2 = 0.161337284417384


def zolotarev_M():
    return zm.SignedMeasure([
        (1.0, zm.atoms_law([(-1.0, 0.5), (1.0, 0.5)])),
        (-1.0, zm.uniform(-SQRT3, SQRT3)),
    ])


def btilde_minus_N(p=0.5):
    return zm.signed_diff(zm.standardise(zm.bernoulli(p)), zm.STANDARD_NORMAL)


class TestKolmogorov:
    def test_zero_measure(self):
        M = zm.signed_diff(zm.gamma_power(2.0), zm.gamma_power(2.0))
        assert zm.kolmogorov(M).value < 1e-14

    def test_normal_pair_closed_form(self):
        M = zm.signed_diff(zm.normal(0, 1), zm.normal(0, 2))
        v = zm.kolmogorov(M)
        assert abs(v.value - K_N1_N2) < 1e-8
        assert abs(v.value - zm.kolmogorov_normal_pair(1.0, 2.0)) < 1e-10

    def test_bernoulli_atom_candidates(self):
        v = zm.kolmogorov(btilde_minus_N())
        expect = zm.std_normal_cdf(1.0) - 0.5
        assert abs(v.value - expect) < 1e-12

    def test_mass_nonzero_rejected(self):
        M = zm.SignedMeasure([(1.0, zm.normal()), (-0.5, zm.normal(0, 2))])
        with pytest.raises(MassNotZeroError):
            zm.kolmogorov(M)

    def test_zolotarev_measure(self):
        assert abs(zm.kolmogorov(zolotarev_M()).value - 1 / (2 * SQRT3)) < 1e-10

    def test_jump_left_limit_dominates(self):
        # F_M = 1{x >= 0} - (x + 1)/1.5 on [-1, 0.5]: |F_M| <= 1/3 right of
        # the atom, so the sup 2/3 is only reached as the left limit at 0
        M = zm.signed_diff(zm.dirac(0.0), zm.uniform(-1.0, 0.5))
        v = zm.kolmogorov(M)
        assert abs(v.value - 2.0 / 3.0) < 1e-15
        assert v.certificate["argmax"] == 0.0


class TestKappa:
    def test_dirac_pair(self):
        for a, b in ((0.0, 1.0), (-2.0, 3.5)):
            M = zm.signed_diff(zm.dirac(b), zm.dirac(a))
            assert abs(zm.kappa_r(M, 1.0).value - abs(b - a)) < 1e-12

    def test_goldstein_tyurin_value_closed(self):
        assert abs(zm.kappa_r(btilde_minus_N(), 1.0).value - GT_VALUE) < 1e-12

    def test_goldstein_tyurin_value_quadrature(self):
        v = zm.kappa_r(btilde_minus_N(), 1.0, engine="quadrature")
        assert v.method == "quadrature"
        assert abs(v.value - GT_VALUE) < 1e-9

    def test_quadrature_kappa_1_counts_the_cumulative_error(self, monkeypatch):
        from zetametrics import metrics
        M = btilde_minus_N()
        v = zm.kappa_r(M, 1.0, engine="quadrature")
        _, cum_err, _ = _integrated_cdfs(M, metric_grid(M), 2, zm.DEFAULT_TOL, "quadrature")
        assert v.err_est >= cum_err
        assert v.err_est >= abs(v.value - zm.kappa_r(M, 1.0, engine="closed").value)
        # here the cumulative's error is tiny; a large one must show too
        def loose(*args, **kw):
            h, _ = zm.cumulative_integral(*args, **kw)
            return h, 1e-3
        monkeypatch.setattr(metrics, "cumulative_integral", loose)
        assert zm.kappa_r(M, 1.0, engine="quadrature").err_est >= 1e-3

    def test_engine_names(self):
        # a closed engine without a closed stack, and an unknown engine, raise
        # instead of falling back to quadrature
        M = zm.signed_diff(zm.standardise(zm.gamma_power(3.0)), zm.STANDARD_NORMAL)
        with pytest.raises(MetricError, match="closed-form stack unavailable"):
            zm.kappa_r(M, 1.0, engine="closed")
        for metric in (lambda: zm.kappa_r(M, 1.0, engine="bogus"),
                       lambda: zm.zeta_r(M, 1, engine="bogus"),
                       lambda: zm.zeta_r(M, 3, engine="bogus")):
            with pytest.raises(MetricError, match="bogus"):
                metric()

    @pytest.mark.parametrize("r", [1.0, 2.0, 3.0])
    def test_zolotarev_formula(self, r):
        expect = (3.0 ** (r / 2) + (2 * SQRT3 - 3) * r / 3 - 1) / (r + 1)
        assert abs(zm.kappa_r(zolotarev_M(), r).value - expect) < 1e-8

    def test_order_below_one_blows_up_at_zero(self):
        # r |x|^(r-1) is infinite at 0; scipy's quad on the atom-free
        # pieces is the oracle
        from scipy.integrate import quad
        M = btilde_minus_N(0.3)
        f = lambda x: 0.5 * abs(x) ** -0.5 * abs(float(M.cdf(x)))
        pts = sorted({-12.0, 0.0, 12.0, *(x for x, _ in M.atoms())})
        oracle = sum(quad(f, a, b, limit=500, epsabs=1e-13, epsrel=1e-13)[0]
                     for a, b in zip(pts[:-1], pts[1:]))
        for engine in ("auto", "quadrature"):
            assert abs(zm.kappa_r(M, 0.5, engine=engine).value - oracle) < 1e-10

    def test_mass_nonzero_rejected(self):
        with pytest.raises(MassNotZeroError):
            zm.kappa_r(zm.SignedMeasure([(1.0, zm.normal()),
                                         (-2.0, zm.normal())]), 1.0)

    def test_divergent_tail_flagged(self):
        heavy = zm.gamma_power(2.0, 1.0, -1.0)    # nu_3 infinite
        M = zm.signed_diff(heavy, zm.STANDARD_NORMAL)
        with pytest.raises(Exception, match="diverges"):
            zm.kappa_r(M, 3.0)

    @pytest.mark.parametrize("engine", ["auto", "quadrature"])
    @pytest.mark.parametrize("M", [
        zolotarev_M(),
        zm.signed_diff(zm.standardise(zm.rounded(0.5, 0.3, zm.normal())), zm.STANDARD_NORMAL),
        zm.signed_diff(zm.standardise(zm.gamma_power(2.0)), zm.STANDARD_NORMAL)],
        ids=["closed_stack", "rounded", "quadrature_only"])
    def test_orders_in_one_call_equal_lone_calls(self, M, engine):
        orders = (3.0, 1.0, 2.5, 1.0)
        together = zm.kappa_r(M, orders, engine=engine)
        assert isinstance(together, list) and len(together) == len(orders)
        for q, mv in zip(orders, together):
            alone = zm.kappa_r(M, q, engine=engine)
            assert (mv.value, mv.err_est, mv.method, mv.certificate) == \
                (alone.value, alone.err_est, alone.method, alone.certificate)

    @pytest.mark.parametrize("r", [2.0, 3.0, 4.0])
    def test_err_est_covers_closed_stack_rounding(self, r):
        """kappa_r of a rounded law against the mpmath sum over its cells
        with exact F, on the metric grid; r |x|^(r-1) weights the rounding
        of the stack's F_M by up to 4 * 21^3 here (the parent's err_est at
        r = 4 was 3.6e-12 against an error of 1.8e-11)."""
        P = zm.standardise(zm.rounded(1.0, 0.0, zm.gamma_power(4.0)))
        M = zm.signed_diff(P, zm.STANDARD_NORMAL)
        v = zm.kappa_r(M, r)
        assert v.method == "closed_form"
        grid = metric_grid(M)
        with mpmath.workdps(30):
            atoms = [(mpmath.mpf(x), mpmath.mpf(w)) for x, w in P.atoms()]
            lo, hi = mpmath.mpf(float(grid[0])), mpmath.mpf(float(grid[-1]))
            ends = [lo] + [x for x, _ in atoms if lo < x < hi] + [hi]
            oracle = mpmath.mpf(0)
            for a, b in zip(ends[:-1], ends[1:]):
                c = sum((w for x, w in atoms if x <= a), mpmath.mpf(0))    # F_P on (a, b)
                root = mpmath.sqrt(2) * mpmath.erfinv(2 * c - 1) if 0 < c < 1 else a
                cuts = sorted(t for t in {a, b, mpmath.mpf(0), root} if a <= t <= b)
                oracle += mpmath.quad(lambda x: r * abs(x) ** (r - 1) * abs(c - mpmath.ncdf(x)),
                                      cuts)
        assert abs(v.value - float(oracle)) <= v.err_est

    def test_order_checks_cover_the_whole_sequence(self):
        for orders in ((1.0, 0.0), (2.0, -1.0, 3.0)):
            with pytest.raises(MetricError, match="r > 0"):
                zm.kappa_r(zolotarev_M(), orders)
        heavy = zm.gamma_power(2.0, 1.0, -1.0)
        assert math.isfinite(heavy.nu(1))         # nu_1 is finite, nu_3 is not
        with pytest.raises(MetricError, match="diverges"):
            zm.kappa_r(zm.signed_diff(heavy, zm.STANDARD_NORMAL), (1.0, 3.0))


class _BrokenMoments(zm.Normal):
    """A law whose moment routines fail for a reason other than divergence."""

    def mu(self, k):
        raise ArithmeticError("broken mu")

    def nu(self, r):
        raise ArithmeticError("broken nu")


class TestMomentErrors:
    @pytest.mark.parametrize("metric", [
        lambda M: zm.kappa_r(M, 1.0), lambda M: zm.kappa_r(M, 2.5),
        lambda M: zm.nu_r_signed(M, 1), zm.lambda_1])
    def test_non_divergence_errors_propagate(self, metric):
        # only InfiniteMomentError means "diverges" / inf / fallback
        M = zm.signed_diff(_BrokenMoments(), zm.STANDARD_NORMAL)
        with pytest.raises(ArithmeticError):
            metric(M)


class TestLambda1:
    def test_zero(self):
        assert abs(zm.lambda_1(zm.signed_diff(zm.normal(), zm.normal()))) < 1e-15

    def test_truncated_normal_mean(self):
        t = 2.0
        M = zm.signed_diff(zm.STANDARD_NORMAL, zm.truncated_normal_left(t))
        expect = -zm.std_normal_pdf(t) / (1 - zm.std_normal_cdf(-t))
        assert abs(zm.lambda_1(M) - expect) < 1e-12

    def test_linearity_for_atoms(self):
        P = zm.atoms_law([(0.0, 0.5), (2.0, 0.5)])
        Q = zm.atoms_law([(-1.0, 0.25), (1.0, 0.75)])
        assert abs(zm.lambda_1(zm.signed_diff(Q, P)) - (Q.mean - P.mean)) < 1e-14


class TestZetaStack:
    def test_null_measure(self):
        M = zm.signed_diff(zm.normal(), zm.normal())
        levels, _, _ = _integrated_cdfs(M, metric_grid(M), 3, zm.DEFAULT_TOL, "auto")
        xs = np.linspace(-5, 5, 33)
        for F in levels:
            assert np.max(np.abs(F(xs))) < 1e-13

    def test_bernoulli_moment_conditions_hold(self):
        assert zm.zeta_r(btilde_minus_N(), 3).method == "closed_form"

    def test_gamma_endpoint_decay(self):
        M = zm.signed_diff(zm.standardise(zm.gamma_power(4.0)), zm.STANDARD_NORMAL)
        v = zm.zeta_r(M, 3, engine="quadrature")
        assert max(v.certificate["endpoint_decay"]) <= 1e-8

    def test_moment_violation_names_first_j(self):
        # standardised Bernoulli(0.3) has mu_3 != 0, so zeta_4 must refuse
        M = btilde_minus_N(0.3)
        with pytest.raises(MomentConditionError) as ei:
            zm.zeta_r(M, 4)
        assert ei.value.j == 3

    def test_mass_violation_names_j0(self):
        M = zm.SignedMeasure([(1.0, zm.normal()), (-0.5, zm.normal(0, 2))])
        with pytest.raises(MomentConditionError) as ei:
            zm.zeta_r(M, 2)
        assert ei.value.j == 0


class TestZetaValues:
    def test_zolotarev_closed_engine(self):
        M = zolotarev_M()
        assert abs(zm.zeta_r(M, 1).value - (5 * SQRT3 - 6) / 6) < 1e-9
        assert abs(zm.zeta_r(M, 3).value - (3 * SQRT3 - 4) / 24) < 1e-9
        assert abs(zm.zeta_r(M, 4).value - 1 / 30) < 1e-9

    def test_zeta2_between_its_neighbours(self):
        M = zolotarev_M()
        z2 = zm.zeta_r(M, 2).value
        k2 = zm.kappa_r(M, 2.0).value
        mu2 = abs(M.mu(2))
        assert mu2 / 2 - 1e-9 <= z2 <= k2 / 2 + 1e-9
        assert abs(zm.zeta_r(M, 2, engine="quadrature").value - z2) < 1e-7

    def test_zolotarev_quadrature_engine_agrees(self):
        M = zolotarev_M()
        for r, expect in ((1, (5 * SQRT3 - 6) / 6), (3, (3 * SQRT3 - 4) / 24),
                          (4, 1 / 30)):
            v = zm.zeta_r(M, r, engine="quadrature")
            assert v.method == "quadrature"
            assert abs(v.value - expect) < 1e-7

    def test_bernoulli_symmetric_value(self):
        # zeta_3(B~_1/2 - N) = (nu_3(N) - 1)/6, via the F_3 integral
        expect = (4 / SQRT_2PI - 1) / 6
        v = zm.zeta_r(btilde_minus_N(), 3)
        assert abs(v.value - expect) < 1e-9

    def test_subbotin_laplace(self):
        M = zm.signed_diff(zm.standardise(zm.subbotin(1.0)), zm.STANDARD_NORMAL)
        expect = (3 / math.sqrt(2) - 4 / SQRT_2PI) / 6
        v = zm.zeta_r(M, 3, engine="quadrature")
        assert abs(v.value - expect) < 1e-6

    @pytest.mark.parametrize("a", [1.0, 4.0, 9.0])
    def test_gamma_f3_path(self, a):
        M = zm.signed_diff(zm.standardise(zm.gamma_power(a)), zm.STANDARD_NORMAL)
        v = zm.zeta_r(M, 3, engine="quadrature")
        assert abs(v.value - 1 / (3 * math.sqrt(a))) < 1e-5

    def test_tail_rounding_noise_adds_no_segments(self):
        # F_4 of U~ - N keeps one sign: zeta_4 = |mu_4(M)| / 24 = (3 - 9/5) / 24
        M = zm.signed_diff(zm.standardise(zm.uniform(0.0, 1.0)), zm.STANDARD_NORMAL)
        v = zm.zeta_r(M, 4)
        assert abs(v.value - 0.05) < 1e-13 and v.certificate["segments"] == 0
        assert [zm.zeta_r(zolotarev_M(), r).certificate["segments"]
                for r in (2, 3, 4)] == [4, 3, 2]

    def test_lobe_inside_zero_band_is_in_the_loss(self):
        # F_k = 1 on [-1, 1) and -5e-12 on [1, 2]: the second lobe is inside
        # the zero band 1e-11 * max|F_k|, so it is merged into the first
        f_k = lambda x: np.where(np.asarray(x) < 1.0, 1.0, -5e-12)
        f_k1 = lambda x: np.where(np.asarray(x) < 1.0, -(np.asarray(x) + 1.0),
                                  -2.0 + 5e-12 * (np.asarray(x) - 1.0))
        grid = np.linspace(-1.0, 2.0, 31)
        seg, band = _segment_points(zm.SignedMeasure([]), f_k, grid)
        total, loss = _telescope(f_k1, grid, seg, band)
        assert seg == []
        assert 1e-11 - 1e-14 < abs(total - (2.0 + 5e-12)) <= loss

    def test_zeta1_delegates_to_kappa(self):
        v = zm.zeta_r(btilde_minus_N(), 1)
        assert abs(v.value - GT_VALUE) < 1e-12
        assert v.certificate.get("delegated") == "kappa_1"

    def test_null_input_returns_zero_closed_form(self):
        M = zm.SignedMeasure([])
        v = zm.kolmogorov(M)
        assert v.value == 0.0 and v.method == "closed_form"


class TestCutCriterion:
    def test_normal_returns_zero(self):
        v = zm.zeta3_cut_criterion(zm.normal(2.0, 3.0))
        assert v is not None and v.value == 0.0
        assert v.certificate["sign_changes"] == 0

    def test_truncated_normal_certifies(self):
        t = 2.0
        v = zm.zeta3_cut_criterion(zm.truncated_normal_left(t))
        assert v is not None and v.method == "cut_criterion"
        assert v.certificate["sign_changes"] == 2
        assert v.certificate["first_sign"] == -1     # F~ - Phi initially negative
        mu3 = zm.standardise(zm.truncated_normal_left(t)).mu(3)
        assert abs(v.value - mu3 / 6) < 1e-12

    def test_bernoulli_declines_and_guard_matters(self):
        # mu_3 = 0 for the symmetric Bernoulli yet zeta_3 > 0: the criterion
        # must fall back, and the naive |mu_3|/6 would be off by > 1e-3
        assert zm.zeta3_cut_criterion(zm.bernoulli(0.5)) is None
        fallback = zm.zeta_r(btilde_minus_N(), 3).value
        assert abs(fallback - 0.0) > 1e-3

    def test_symmetric_density_branch(self):
        v = zm.zeta3_cut_criterion(zm.subbotin(1.0))
        assert v is not None
        assert v.certificate["rule"] == "symmetric_density"
        expect = (3 / math.sqrt(2) - 4 / SQRT_2PI) / 6
        assert abs(v.value - expect) < 1e-9

    @pytest.mark.parametrize("law", [zm.truncated_normal_left(2.0),
                                     zm.winsorised_normal_left(2.0),
                                     zm.gamma_power(4.0)])
    def test_cut_vs_quadrature_agreement(self, law):
        cut = zm.zeta3_cut_criterion(law)
        assert cut is not None
        M = zm.signed_diff(zm.standardise(law), zm.STANDARD_NORMAL)
        quad = zm.zeta_r(M, 3, engine="quadrature")
        assert abs(cut.value - quad.value) < 1e-6


class TestNuSigned:
    def test_bernoulli_total_variation(self):
        v = zm.nu_r_signed(btilde_minus_N(), 0)
        assert abs(v.value - 2.0) < 1e-9

    @pytest.mark.parametrize("r", [0, 1, 2, 3])
    def test_zolotarev_formula(self, r):
        v = zm.nu_r_signed(zolotarev_M(), r)
        assert abs(v.value - (3.0 ** (r / 2) / (r + 1) + 1)) < 1e-8

    @pytest.mark.parametrize("eta", [0.25, 0.5, 1.0])
    def test_disjoint_parts_add(self, eta):
        # the atoms of the rounded exponential and the normal density share
        # no mass, so nu_r of their difference is the sum of their nu_r
        Pt = zm.standardise(zm.rounded(eta, 0.0, zm.gamma_power(1.0)))
        M = zm.signed_diff(Pt, zm.STANDARD_NORMAL)
        for r in range(4):
            expect = Pt.nu(r) + zm.STANDARD_NORMAL.nu(r)
            assert abs(zm.nu_r_signed(M, r).value - expect) < 1e-9

    def test_pseudomoment_inequality(self):
        c = 1 + 4 / SQRT_2PI
        for law in (zm.bernoulli(0.3), zm.gamma_power(2.0),
                    zm.rounded(0.5, 0.0, zm.normal())):
            Pt = zm.standardise(law)
            M = zm.signed_diff(Pt, zm.STANDARD_NORMAL)
            v = zm.nu_r_signed(M, 3).value
            assert v <= c * Pt.nu(3) + 1e-8

    def test_infinite_flag(self):
        G = zm.gamma_power(2.0, 1.0, -1.0)   # nu_3 infinite
        M = zm.signed_diff(G, zm.STANDARD_NORMAL)
        v = zm.nu_r_signed(M, 3)
        assert math.isinf(v.value) and v.certificate == {"finite": False}


MEASURE_BANK = [
    ("Bt(0.3)-N", lambda: btilde_minus_N(0.3)),
    ("Bt(0.5)-N", lambda: btilde_minus_N(0.5)),
    ("Bt(0.7)-N", lambda: btilde_minus_N(0.7)),
    ("gamma2t-N", lambda: zm.signed_diff(zm.standardise(zm.gamma_power(2.0)),
                                         zm.STANDARD_NORMAL)),
    ("M_Z", zolotarev_M),
    ("rdN(0.5)t-N", lambda: zm.signed_diff(
        zm.standardise(zm.rounded(0.5, 0.0, zm.normal())), zm.STANDARD_NORMAL)),
]


class TestNormInequalities:
    @pytest.mark.parametrize("name,mk", MEASURE_BANK)
    def test_ordering_chain(self, name, mk):
        # |mu_r|/r! <= zeta_r <= kappa_r/r! <= nu_r/r! for r in {1, 3}
        M = mk()
        for r in (1, 3):
            mu_r = abs(M.mu(r))
            z = zm.zeta_r(M, r)
            k = zm.kappa_r(M, float(r))
            nu = zm.nu_r_signed(M, r)
            fact = math.factorial(r)
            slack = z.err_est + k.err_est + nu.err_est + 1e-9
            assert mu_r / fact <= z.value + slack
            assert z.value <= k.value / fact + slack
            assert k.value <= nu.value + slack * fact

    @pytest.mark.parametrize("lam", [0.5, 2.0, math.sqrt(5)])
    def test_homogeneity(self, lam):
        rng = np.random.default_rng(11)
        for _ in range(20):
            p = rng.uniform(0.1, 0.9)
            M = btilde_minus_N(p)
            z1 = zm.zeta_r(M, 1).value
            z1s = zm.zeta_r(zm.affine(lam, 0.0, M), 1).value
            assert abs(z1s - lam * z1) < 1e-7 * max(1.0, lam * z1)
        M = btilde_minus_N(0.5)
        z3 = zm.zeta_r(M, 3).value
        z3s = zm.zeta_r(zm.affine(lam, 0.0, M), 3).value
        assert abs(z3s - lam ** 3 * z3) < 1e-7 * max(1.0, lam ** 3 * z3)

    @pytest.mark.parametrize("a", [0.7, -1.3])
    def test_translation_invariance(self, a):
        M = btilde_minus_N(0.4)
        Mt = zm.affine(1.0, a, M)
        assert abs(zm.kolmogorov(Mt).value - zm.kolmogorov(M).value) < 1e-10
        assert abs(zm.nu_r_signed(Mt, 0).value - zm.nu_r_signed(M, 0).value) < 1e-8
        # zeta_1 is translation invariant on mass-zero measures
        assert abs(zm.kappa_r(Mt, 1.0).value - zm.kappa_r(M, 1.0).value) < 1e-9

    @pytest.mark.parametrize("name,mk", MEASURE_BANK)
    def test_kolmogorov_vs_half_nu0(self, name, mk):
        M = mk()
        assert zm.kolmogorov(M).value <= 0.5 * zm.nu_r_signed(M, 0).value + 1e-9

    def test_kolmogorov_vs_kappa1_near_normal(self):
        # ||P - N||_K <= (2 pi)^(-1/4) sqrt(kappa_1(P - N)) for centred P
        for law in (zm.standardise(zm.bernoulli(0.3)),
                    zm.standardise(zm.gamma_power(3.0)),
                    zm.standardise(zm.rounded(0.5, 0.0, zm.normal()))):
            M = zm.signed_diff(law, zm.STANDARD_NORMAL)
            K = zm.kolmogorov(M).value
            k1 = zm.kappa_r(M, 1.0).value
            assert K <= (2 * math.pi) ** -0.25 * math.sqrt(k1) + 1e-9

    @pytest.mark.parametrize("name,mk", MEASURE_BANK)
    def test_kappa_interpolation(self, name, mk):
        # kappa_r <= 2^(1-r/s) K^(1-r/s) kappa_s^(r/s), (r,s) = (1,3)
        M = mk()
        K = zm.kolmogorov(M).value
        k1 = zm.kappa_r(M, 1.0).value
        k3 = zm.kappa_r(M, 3.0).value
        assert k1 <= 2 ** (2 / 3) * K ** (2 / 3) * k3 ** (1 / 3) + 1e-8

    def test_zeta1_vs_zeta3_cube_root(self):
        for law in (zm.bernoulli(0.4), zm.gamma_power(2.0),
                    zm.rounded(1.0, 0.0, zm.normal())):
            M = zm.signed_diff(zm.standardise(law), zm.STANDARD_NORMAL)
            z1 = zm.zeta_r(M, 1).value
            z3 = zm.zeta_r(M, 3).value
            assert z1 <= 3 * 2 ** (1 / 3) * z3 ** (1 / 3) + 1e-9

    def test_zeta1_global_bound(self):
        bound = 1 + 2 / SQRT_2PI
        for law in (zm.bernoulli(0.05), zm.gamma_power(0.3), zm.uniform(3, 9)):
            M = zm.signed_diff(zm.standardise(law), zm.STANDARD_NORMAL)
            assert zm.kappa_r(M, 1.0).value <= bound + 1e-9


class TestClosedStackAvailability:
    def test_supported_measure(self):
        assert closed_measure_stack(btilde_minus_N(), 3) is not None
        assert closed_measure_stack(zolotarev_M(), 5) is not None

    def test_histogram_stack_against_cell_sum(self):
        """F_{H,k}, k = 1..5, against the mpmath sum over the cells of
        w (-1)^(k-1) ((x - lo)_+^k - (x - hi)_+^k) / (k! eta).  The former
        per-cell prefix sums reached 1.07e-10 here."""
        worst = 0.0
        for law in (zm.histogram(0.25, 0.0, zm.gamma_power(2.0)),
                    zm.histogram(0.5, 0.0, zm.normal()),
                    zm.histogram(1.0, 0.0, zm.normal(1.0, 1.5))):
            lo, hi = law.support()
            xs = np.linspace(lo - 1.0, hi + 1.0, 97)
            with mpmath.workdps(40):
                h = mpmath.mpf(law.eta) / 2
                cells = [(mpmath.mpf(c) - h, mpmath.mpf(c) + h, mpmath.mpf(w))
                         for c, w in law._rounded.atoms()]
                for k in range(1, 6):
                    got = closed_measure_stack(zm.SignedMeasure([(1.0, law)]), k)(xs)
                    for x, g in zip(xs.tolist(), got.tolist()):
                        ref = sum(w * (max(x - a, 0) ** k - max(x - b, 0) ** k)
                                  for a, b, w in cells)
                        ref *= (-1) ** (k - 1) / (mpmath.factorial(k) * 2 * h)
                        worst = max(worst, abs(float(ref - g)))
        assert worst <= 1.07e-10

    def test_unsupported_falls_back(self):
        M = zm.signed_diff(zm.standardise(zm.gamma_power(2.0)), zm.STANDARD_NORMAL)
        assert closed_measure_stack(M, 3) is None
        v = zm.zeta_r(M, 3)
        assert v.method == "quadrature"


SCALAR_LAWS = [zm.bernoulli(0.3), zm.normal(0.5, 2.0), zm.uniform(-1.0, 3.0),
               zm.truncated_normal_left(1.5), zm.winsorised_normal_left(1.5),
               zm.gamma_power(2.0), zm.gamma_power(2.0, 1.0, 2.0), zm.subbotin(1.7),
               zm.mixture([(0.4, zm.normal()), (0.6, zm.uniform(0, 1))]),
               zm.rounded(0.5, 0.3, zm.normal()), zm.histogram(0.5, 0.0, zm.normal()),
               zm.truncate(zm.normal(), -2.0, 2.0)]
SCALAR_MEASURES = [zm.signed_diff(zm.standardise(P), zm.STANDARD_NORMAL)
                   for P in SCALAR_LAWS] + [zolotarev_M()]
SCALAR_POINTS = np.linspace(-6.0, 6.0, 601)
SHAPE_LAWS = SCALAR_LAWS + [zm.dirac(0.5), zm.Lattice(0.1, 0.5, [0.2, 0.3, 0.5]),
                            zm.reflect(zm.gamma_power(2.0)),
                            zm.conv2_law(zm.uniform(-1.0, 1.0), zm.gamma_power(2.0))]


class TestLinearCombinations:
    """A mixture is a signed measure with probability weights: one type,
    one closed stack, and affine maps it term by term."""

    @pytest.mark.parametrize("c,d,factor", [(2.0, 0.0, 8.0), (1.0, 0.5, 1.0)])
    def test_affine_image_of_signed_measure(self, c, d, factor):
        M = zolotarev_M()
        image = zm.affine(c, d, M)
        assert type(image) is zm.SignedMeasure
        z, zi = zm.zeta_r(M, 3), zm.zeta_r(image, 3)
        assert abs(zi.value - factor * z.value) <= zi.err_est + factor * z.err_est

    def test_mixture_equals_signed_measure_with_its_weights(self):
        parts = [(0.25, zm.dirac(0.5)), (0.25, zm.atoms_law([(-1.0, 0.5), (0.5, 0.5)])),
                 (0.3, zm.normal(0.2, 1.3)), (0.2, zm.uniform(-1.0, 2.0))]
        P, S = zm.mixture(parts), zm.SignedMeasure(parts)
        xs = np.concatenate([np.linspace(-4.0, 4.0, 81), [-1.0, 0.5, 2.0]])
        for name in ("cdf", "cdf_left", "pdf"):
            assert np.array_equal(getattr(P, name)(xs), getattr(S, name)(xs)), name
        assert P.atoms() == S.atoms()
        assert [P.mu(k) for k in range(5)] == [S.mu(k) for k in range(5)]
        for k in range(1, 5):
            assert np.array_equal(closed_measure_stack(P, k)(xs),
                                  closed_measure_stack(S, k)(xs)), k


def assert_scalar_matches_array(f):
    for t in SCALAR_POINTS:
        assert float(f(t)) == float(f(np.array([t]))[0]), t


class TestScalarEvaluation:
    """float(f(t)) is the scalar form of every evaluator: it must equal
    the 1-element-array result bit for bit."""

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_closed_stacks(self, k):
        stacks = [closed_measure_stack(M, k) for M in SCALAR_MEASURES]
        assert sum(f is not None for f in stacks) >= 5
        for f in stacks:
            if f is not None:
                assert_scalar_matches_array(f)

    @pytest.mark.parametrize("name", ["cdf", "cdf_left", "pdf"])
    def test_measure_surface(self, name):
        for M in SCALAR_MEASURES:
            assert_scalar_matches_array(getattr(M, name))

    @pytest.mark.parametrize("name", ["cdf", "cdf_left", "pdf"])
    def test_array_shape_kept(self, name):
        """A (2, 3) array gives the flat call in its shape, and an empty
        array an empty array, for laws and for signed measures."""
        x = np.linspace(-2.0, 2.5, 6)
        surfaces = [getattr(law, name) for law in SHAPE_LAWS]
        surfaces += [getattr(M, name) for M in SCALAR_MEASURES]
        for f in surfaces:
            assert np.array_equal(f(x.reshape(2, 3)), f(x).reshape(2, 3))
            empty = f(np.array([]))
            assert isinstance(empty, np.ndarray) and empty.shape == (0,)

    def test_quadrature_grid_function(self):
        M = btilde_minus_N()
        levels, _, method = _integrated_cdfs(M, metric_grid(M), 4, zm.DEFAULT_TOL, "quadrature")
        assert method == "quadrature"
        for F in levels:
            assert_scalar_matches_array(F)
        h, _ = zm.cumulative_integral(zm.std_normal_pdf, np.linspace(-5, 5, 41), 0.0)
        assert_scalar_matches_array(h)
