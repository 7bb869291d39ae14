"""Special functions, quadrature, root search, sign counting."""

import math

import numpy as np
import pytest
import scipy.special as sps

from zetametrics import numerics as nm

RNG = np.random.default_rng(20240817)

# frozen from the mpmath erf oracle: mp.ncdf(1)
PHI_1 = 0.841344746068543


class TestStdNormalCdf:
    def test_symmetry_point(self):
        assert nm.std_normal_cdf(0.0) == 0.5

    def test_value_at_one(self):
        assert abs(nm.std_normal_cdf(1.0) - PHI_1) < 1e-14

    def test_tail_asymptotic_band(self):
        # Phi(-t) = phi(t)(1/t - 1/t^3 + O(1/t^5)); next term is +3/t^5
        t = 3.0
        phi_t = nm.std_normal_pdf(t)
        approx = phi_t * (1.0 / t - 1.0 / t ** 3)
        assert abs(nm.std_normal_cdf(-t) - approx) <= 3.0 * phi_t / t ** 5

    def test_reflection_sweep(self):
        xs = RNG.uniform(-10, 10, size=1000)
        vals = nm.std_normal_cdf(xs) + nm.std_normal_cdf(-xs)
        assert np.max(np.abs(vals - 1.0)) < 1e-13

    def test_saturation(self):
        assert nm.std_normal_cdf(41.0) == 1.0
        assert nm.std_normal_cdf(-41.0) == 0.0

    def test_quantile_roundtrip(self):
        for p in (1e-12, 1e-6, 0.1, 0.5, 0.9, 1 - 1e-6):
            assert abs(nm.std_normal_cdf(nm.std_normal_quantile(p)) - p) \
                < 1e-13 * max(p, 1e-3)


class TestRegIncompleteGamma:
    def test_empty_integral(self):
        assert nm.reg_incomplete_gamma(1.0, 0.0) == 0.0

    def test_exponential_closed_form(self):
        assert abs(nm.reg_incomplete_gamma(1.0, 1.0) - (1 - math.exp(-1))) < 1e-14

    def test_erf_identity(self):
        for x in (0.01, 0.3, 1.0, 2.5, 7.0):
            assert abs(nm.reg_incomplete_gamma(0.5, x) - math.erf(math.sqrt(x))) < 1e-13

    def test_against_scipy(self):
        for a in (0.2, 1.0, 3.7, 10.0, 40.0):
            for x in (0.0, 0.5, a, 2 * a, 5 * a + 10):
                assert abs(nm.reg_incomplete_gamma(a, x) - sps.gammainc(a, x)) < 1e-12

    def test_monotone_in_x(self):
        xs = np.linspace(0, 30, 200)
        vals = [nm.reg_incomplete_gamma(2.5, x) for x in xs]
        assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))

    def test_domain_errors(self):
        with pytest.raises(nm.DomainError):
            nm.reg_incomplete_gamma(0.0, 1.0)
        with pytest.raises(nm.DomainError):
            nm.reg_incomplete_gamma(1.0, -1.0)


class TestIntegrate:
    def test_constant(self):
        v, e = nm.integrate(lambda x: np.ones_like(x), 0.0, 1.0)
        assert abs(v - 1.0) < 1e-14

    def test_normal_mass(self):
        v, _ = nm.integrate(nm.std_normal_pdf, -40.0, 40.0, nm.Tolerance(1e-12, 1e-10))
        assert abs(v - 1.0) < 1e-12

    def test_abs_third_moment(self):
        v, _ = nm.integrate(lambda x: np.abs(x) ** 3 * nm.std_normal_pdf(x),
                            -40.0, 40.0, nm.Tolerance(1e-12, 1e-10), breakpoints=[0.0])
        assert abs(v - 4.0 / math.sqrt(2 * math.pi)) < 1e-12

    def test_additive_over_splits(self):
        f = lambda x: np.sin(3 * x) + x * x
        whole, ew = nm.integrate(f, -1.0, 2.0)
        a, ea = nm.integrate(f, -1.0, 0.3)
        b, eb = nm.integrate(f, 0.3, 2.0)
        assert abs(whole - (a + b)) <= ew + ea + eb + 1e-12

    @pytest.mark.parametrize("r", [0.5, 1.0, 2.5, 3.0])
    def test_jump_at_panel_end(self, r):
        # |x|^r times the uniform density on (-1, 2), which jumps at both
        # breakpoints; no node sits on them
        import zetametrics as zm
        U = zm.uniform(-1.0, 2.0)
        v, _ = nm.integrate(lambda x: np.abs(x) ** r * U.pdf(x), -3.0, 4.0,
                            nm.Tolerance(1e-12, 1e-10), breakpoints=[-1.0, 0.0, 2.0])
        assert abs(v - (1.0 + 2.0 ** (r + 1)) / (3.0 * (r + 1))) < 1e-12

    @pytest.mark.parametrize("gap", [1e-4, 1e-7])
    def test_feature_next_to_breakpoint(self, gap):
        # a jump and a kink just inside the wide panel [0.3, 40], nearer to
        # its end than the outermost node of the panel or of its halves
        c = 0.3 + gap
        cases = [(lambda x: (x > c).astype(float), 40.0 - c),
                 (lambda x: np.abs(x - c) * np.exp(-x),
                  c - 1.0 + 2.0 * math.exp(-c) - (41.0 - c) * math.exp(-40.0))]
        for f, exact in cases:
            v, _ = nm.integrate(f, 0.0, 40.0, nm.Tolerance(1e-12, 1e-10), breakpoints=[0.3])
            assert abs(v - exact) < 1e-11

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_declared_singularity(self, k):
        # the gamma density with alpha = 1/2 blows up like x^(-1/2) at 0
        import zetametrics as zm
        G = zm.gamma_power(0.5)
        v, _ = nm.integrate(lambda x: x ** k * G.pdf(x), 0.0, 80.0,
                            nm.Tolerance(1e-12, 1e-10), singularities=[0.0])
        assert abs(v - math.gamma(0.5 + k) / math.gamma(0.5)) < 1e-12

    def test_nan_integrand_raises(self):
        with pytest.raises(nm.ConvergenceError):
            nm.integrate(lambda x: np.full_like(x, np.nan), 0.0, 1.0)

    def test_undeclared_pole_raises(self):
        with np.errstate(all="ignore"), pytest.raises(nm.ConvergenceError):
            nm.integrate(lambda x: 1.0 / x, 0.0, 1.0)

    def test_needs_finite_ordered_limits(self):
        for a, b in ((1.0, 0.0), (-math.inf, 0.0), (0.0, math.inf)):
            with pytest.raises(nm.DomainError):
                nm.integrate(np.exp, a, b)


class TestCumulativeIntegral:
    def grid_fn(self, fn, lo, hi, n=64, **kw):
        return nm.GridFunction(np.linspace(lo, hi, n), fn, left_tail=0.0, **kw)

    def test_zero_stays_zero(self):
        g = self.grid_fn(lambda x: np.zeros_like(x), -2, 2)
        h = nm.cumulative_integral(g)
        xs = np.linspace(-2, 2, 100)
        assert np.max(np.abs(h(xs))) == 0.0

    def test_phi_integrates_to_Phi(self):
        g = nm.GridFunction(np.linspace(-10, 10, 201),
                            lambda x: nm.std_normal_pdf(x), left_tail=1e-23)
        h = nm.cumulative_integral(g, sign=1, tol=nm.Tolerance(1e-12, 1e-10))
        xs = np.linspace(-9.5, 9.5, 777)
        assert np.max(np.abs(h(xs) - nm.std_normal_cdf(xs))) < 1e-9

    def test_differentiation_recovers_integrand(self):
        g = nm.GridFunction(np.linspace(-6, 6, 121),
                            lambda x: np.exp(-0.5 * x * x) * np.cos(x),
                            left_tail=1e-8)
        h = nm.cumulative_integral(g, tol=nm.Tolerance(1e-12, 1e-10))
        d = 1e-5
        for x in np.linspace(-4, 4, 17):
            deriv = (h(x + d) - h(x - d)) / (2 * d)
            assert abs(deriv - float(g(np.array([x]))[0])) < 1e-6

    def test_bernoulli_gap_second_level_decays(self):
        # F_2 of B~_1/2 - N vanishes at both grid ends: the first two
        # moments of the difference cancel
        import zetametrics as zm
        M = zm.signed_diff(zm.standardise(zm.bernoulli(0.5)), zm.STANDARD_NORMAL)
        grid = np.unique(np.concatenate([np.linspace(-10, 10, 801), [-1.0, 1.0]]))
        g = nm.GridFunction(grid, lambda x: np.asarray(M.cdf(x), dtype=float),
                            jump_points=np.array([-1.0, 1.0]),
                            fn_left=lambda x: np.asarray(M.cdf_left(x), dtype=float),
                            left_tail=1e-20)
        h = nm.cumulative_integral(g, sign=-1, tol=nm.Tolerance(1e-11, 1e-9))
        assert abs(float(h(-10.0))) < 1e-9
        assert abs(float(h(10.0))) < 1e-9

    def test_missing_tail_bound_raises(self):
        g = nm.GridFunction(np.linspace(0, 1, 8), lambda x: x)
        with pytest.raises(nm.TailBoundMissingError):
            nm.cumulative_integral(g)

    def test_sign_flag(self):
        g = self.grid_fn(lambda x: np.ones_like(x), 0, 1, n=16)
        h = nm.cumulative_integral(g, sign=-1)
        assert abs(float(h(1.0)) + 1.0) < 1e-12


class TestSignChanges:
    """scan_sign_changes counts alternations; sign_roots locates them."""

    XS = np.linspace(-1.0, 1.0, 33)          # includes x = 0 exactly

    def test_constant_positive(self):
        ones = lambda x: np.ones_like(np.asarray(x, dtype=float))
        assert nm.scan_sign_changes(ones(self.XS), 0.0) == (0, 1, [])
        assert nm.sign_roots(ones, self.XS)[0] == []

    def test_linear(self):
        lin = lambda x: np.asarray(x, dtype=float)
        count, first, _ = nm.scan_sign_changes(lin(self.XS), 0.0)
        assert (count, first) == (1, -1)
        (root,), _ = nm.sign_roots(lin, self.XS)
        assert abs(root) < 1e-13

    def test_truncated_normal_cdf_gap(self):
        import zetametrics as zm
        P = zm.standardise(zm.truncated_normal_left(2.0))
        fn = lambda x: (np.asarray(P.cdf(x), dtype=float)
                        - nm.std_normal_cdf(np.asarray(x, dtype=float)))
        xs = nm.refine_grid(np.linspace(-6, 8, 1025), 6)
        vals = fn(xs)
        count, first, _ = nm.scan_sign_changes(vals, 1e-9 * np.max(np.abs(vals)))
        assert (count, first) == (2, -1)
        roots, _ = nm.sign_roots(fn, xs)
        assert len(roots) == 2
        assert np.max(np.abs(fn(np.array(roots)))) < 1e-14

    def test_negation_flips_initial_sign(self):
        fn = lambda x: np.sin(3.0 * np.asarray(x, dtype=float)) + 0.1
        xs = np.linspace(-2, 2, 129)
        c1, f1, _ = nm.scan_sign_changes(fn(xs), 0.0)
        c2, f2, _ = nm.scan_sign_changes(-fn(xs), 0.0)
        assert c1 == c2 == 3 and f1 == -f2
        assert nm.sign_roots(fn, xs) == nm.sign_roots(lambda x: -fn(x), xs)

    def test_exact_zero_grid_point_not_missed(self):
        # odd function vanishing exactly at a sample point
        cube = lambda x: np.asarray(x, dtype=float) ** 3
        xs = np.linspace(-1, 1, 21)
        count, first, _ = nm.scan_sign_changes(cube(xs), 0.0)
        assert (count, first) == (1, -1)
        (root,), _ = nm.sign_roots(cube, xs)
        assert abs(root) < 1e-12

    def test_non_finite_sample_raises(self):
        # a NaN sample used to make the band NaN, so no sample counted as
        # signed and sign_roots returned no roots
        f = lambda x: np.where(np.asarray(x) > 0.5, np.nan, np.asarray(x, dtype=float))
        with pytest.raises(nm.DomainError, match="not finite"):
            nm.sign_roots(f, self.XS)

    def test_refine_grid_adds_interior_points(self):
        out = nm.refine_grid(np.array([0.0, 1.0, 3.0]), 4)
        assert out.tolist() == [0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 2.5, 3.0]


class TestGridFunction:
    def test_needs_two_points(self):
        with pytest.raises(nm.DomainError):
            nm.GridFunction(np.array([1.0]), lambda x: x)

    def test_needs_increasing_breakpoints(self):
        with pytest.raises(nm.DomainError):
            nm.GridFunction(np.array([0.0, 0.0, 1.0]), lambda x: x)

    def test_left_limit_fallback(self):
        g = nm.GridFunction(np.array([0.0, 1.0]), lambda x: np.asarray(x) + 1.0)
        assert float(np.atleast_1d(g.value_left(np.array([0.5])))[0]) == 1.5


class TestFindRoot:
    def test_simple(self):
        r = nm.find_root(lambda x: x * x - 2.0, 0.0, 2.0)
        assert abs(r - math.sqrt(2)) < 1e-12

    def test_needs_bracket(self):
        with pytest.raises(nm.DomainError):
            nm.find_root(lambda x: x * x + 1.0, -1.0, 1.0)

    def test_float_bracket_returns_float(self):
        assert type(nm.find_root(lambda x: x * x - 2.0, 0.0, 2.0)) is float
        assert type(nm.find_root(lambda x: x * x - 2.0, np.float64(0.0), 2)) is float

    def test_endpoint_is_root(self):
        lin = lambda x: np.asarray(x, dtype=float) - 1.0
        roots = nm.find_root(lin, np.array([1.0, 0.0, 1.0, -1.0]),
                             np.array([3.0, 1.0, 1.0, 2.0]))
        assert roots[:3].tolist() == [1.0, 1.0, 1.0]
        assert roots[3] == nm.find_root(lin, -1.0, 2.0)
        assert nm.find_root(lin, 0.0, 1.0) == 1.0

    def test_equal_end_values_skip_secant(self):
        # at 1e-170 the product fa * fx underflows to -0.0, so the sign test
        # moves the wrong end and leaves fa == fb; the next secant step is
        # skipped there (it would divide by zero) and bisection runs instead
        f = lambda x: 1e-170 * np.sign(np.asarray(x, dtype=float) - 0.3)
        a, b = np.array([0.0, -1.0, 0.25]), np.array([1.0, 1.0, 0.5])
        with np.errstate(divide="raise", invalid="raise"):
            roots = nm.find_root(f, a, b)
        assert roots.tolist() == [nm.find_root(f, lo, hi) for lo, hi in zip(a, b)]
        assert np.all((a <= roots) & (roots <= b))

    def test_brackets_converge_at_different_iterations(self):
        sizes = []

        def f(x):
            sizes.append(x.size)
            return x * x * x - 3.0 * x + 1.0        # roots -1.88, 0.347, 1.53

        a = np.array([-3.0, 0.0, 1.0, 0.3, -2.0, 1.5])
        b = np.array([0.0, 1.0, 1.6, 0.4, -1.0, 3.0])
        roots = nm.find_root(f, a, b)
        assert a[0] == -3.0 and b[0] == 0.0          # the caller's ends are not moved
        assert sizes[0] == 2 * a.size                # both ends, one call
        its = sizes[1:]
        assert its[0] == a.size and its == sorted(its, reverse=True) and len(set(its)) > 2
        assert 0 not in its
        loop = [nm.find_root(lambda t: t * t * t - 3.0 * t + 1.0, lo, hi)
                for lo, hi in zip(a.tolist(), b.tolist())]
        assert roots.tolist() == loop
        assert np.max(np.abs(f(roots))) < 1e-13

    def test_empty_bracket_array(self):
        def f(x):
            raise AssertionError("f called on an empty bracket array")
        out = nm.find_root(f, np.empty(0), np.empty(0))
        assert isinstance(out, np.ndarray) and out.shape == (0,)

    def test_one_non_bracketing_pair_raises(self):
        with pytest.raises(nm.DomainError, match="sign-changing"):
            nm.find_root(lambda x: x * x - 2.0, np.array([0.0, 2.0, -3.0]),
                         np.array([2.0, 3.0, -1.0]))

    def test_non_finite_value_raises(self):
        with pytest.raises(nm.DomainError, match="not finite"):
            nm.find_root(lambda x: math.nan, 0.0, 1.0)
        # finite at both ends, NaN at the first iterate
        f = lambda x: np.where(np.abs(x - 0.5) < 0.25, np.nan, x - 0.5)
        with pytest.raises(nm.DomainError, match="not finite"):
            nm.find_root(f, np.array([0.0, -1.0]), np.array([1.0, 2.0]))
        with pytest.raises(nm.DomainError, match="finite bracket"):
            nm.find_root(lambda x: x, -math.inf, 1.0)
