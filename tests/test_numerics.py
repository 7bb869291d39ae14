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

    def test_jump_next_to_a_midpoint(self):
        # undeclared jumps, some between a panel's midpoint and the first
        # node of one of its halves, where only the inner-end probes see them
        for c in np.linspace(0.013, 0.987, 120):
            v, _ = nm.integrate(lambda x: (x > c).astype(float), 0.0, 1.0)
            assert abs(v - (1.0 - c)) < 1e-9, c

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
            with pytest.raises(nm.DomainError, match=r"got \["):
                nm.integrate(lambda x, k: np.exp(x), np.array([0.0, a]), np.array([1.0, b]))


class TestIntegrateBatch:
    """Many intervals in one integrate call against one call per interval."""

    def lone_calls(self, f, a, b, tol=nm.DEFAULT_TOL, bps=None, sing=()):
        return [nm.integrate(lambda x: f(x, np.full(x.shape, k)), a[k], b[k], tol,
                             breakpoints=() if bps is None else bps[k], singularities=sing)
                for k in range(a.size)]

    def test_matches_lone_calls(self):
        # a kink at c[k] in each interval, given as that interval's
        # breakpoint; the third interval has zero width
        a = np.array([-1.0, 0.0, 0.7, -3.0, 2.0])
        b = np.array([2.0, 5.0, 0.7, 3.0, 2.5])
        c = np.array([0.3, 4.0, 0.7, -1.2, 2.2])
        f = lambda x, k: np.exp(-x * x / (1.0 + k)) + np.abs(x - c[k])
        tol = nm.Tolerance(1e-12, 1e-10)
        v, e = nm.integrate(f, a, b, tol, breakpoints=c[:, None])
        assert v.shape == e.shape == (5,)
        assert v[2] == e[2] == 0.0
        for k, (v1, e1) in enumerate(self.lone_calls(f, a, b, tol, c[:, None])):
            assert abs(v[k] - v1) <= max(e[k], e1, 1e-15)
            assert abs(e[k] - e1) <= 1e-15

    def test_shared_breakpoints_and_singularity(self):
        # |x|^(-1/2) blows up at the declared 0 (where f is set to 0), an end
        # of some intervals and inside others; the shared breakpoint 0.5
        # lies outside the first
        a = np.array([0.0, -1.0, -0.25, 0.1])
        b = np.array([0.3, 1.0, 2.0, 3.0])
        w = np.array([1.0, 2.0, 0.5, 3.0])
        nodes = []
        f = lambda x, k: (nodes.append(x.size),
                          w[k] * np.where(x == 0.0, 0.0, np.abs(x) ** -0.5))[1]
        with np.errstate(divide="ignore"):
            v, e = nm.integrate(f, a, b, breakpoints=[0.5], singularities=[0.0])
            # in t, with x = +-t^6, |x|^(-1/2) dx is the polynomial 6 t^2 dt:
            # without the declaration, bisection takes some 40,000 nodes
            assert sum(nodes) < 1000
            lone = self.lone_calls(f, a, b, bps=[[0.5]] * 4, sing=[0.0])
        exact = 2.0 * w * (np.sign(b) * np.sqrt(np.abs(b)) - np.sign(a) * np.sqrt(np.abs(a)))
        assert np.max(np.abs(v - exact)) < 1e-9
        for k, (v1, e1) in enumerate(lone):
            assert abs(v[k] - v1) <= max(e[k], e1, 1e-15)

    def test_undeclared_jumps_keep_their_own_budgets(self):
        # a jump that is no breakpoint is bisected until what is left of
        # its integral's own tol.abs_tol covers it, with up to 2,000 nodes:
        # the 160 integrals together need more than one node budget, and
        # each still gets what it gets alone (up to the rounding of the
        # matrix products, which may differ with the number of panels)
        c = np.linspace(0.013, 0.987, 160)
        nodes = []
        f = lambda x, k: (nodes.append(x.size), (x > c[k]).astype(float))[1]
        zeros, ones = np.zeros(c.size), np.ones(c.size)
        v, e = nm.integrate(f, zeros, ones)
        assert sum(nodes) > nm._NODE_BUDGET
        for k, (v1, e1) in enumerate(self.lone_calls(f, zeros, ones)):
            assert abs(v[k] - v1) <= 1e-15 and abs(e[k] - e1) <= 1e-12 * e1

    def test_no_intervals(self):
        v, e = nm.integrate(lambda x, k: x, np.array([]), np.array([]))
        assert v.shape == e.shape == (0,)

    def test_one_failing_integral_fails_the_batch(self):
        # 1/x on [0, 1] diverges, as it does alone
        f = lambda x, k: np.where(k == 1, 1.0 / x, np.cos(x))
        with np.errstate(all="ignore"), pytest.raises(nm.ConvergenceError):
            nm.integrate(f, np.array([0.0, 0.0, 1.0]), np.array([1.0, 1.0, 2.0]))
        with np.errstate(all="ignore"):
            v, _ = nm.integrate(f, np.array([0.0, 1.0]), np.array([1.0, 2.0]))
        assert abs(v[0] - math.sin(1.0)) < 1e-12 and abs(v[1] - math.log(2.0)) < 1e-12


class TestCumulativeIntegral:
    def test_zero_stays_zero(self):
        h, _ = nm.cumulative_integral(lambda x: np.zeros_like(x), np.linspace(-2, 2, 64), 0.0)
        xs = np.linspace(-2, 2, 100)
        assert np.max(np.abs(h(xs))) == 0.0

    def test_phi_integrates_to_Phi(self):
        h, _ = nm.cumulative_integral(lambda x: nm.std_normal_pdf(x), np.linspace(-10, 10, 201),
                                      1e-23, sign=1, tol=nm.Tolerance(1e-12, 1e-10))
        xs = np.linspace(-9.5, 9.5, 777)
        assert np.max(np.abs(h(xs) - nm.std_normal_cdf(xs))) < 1e-9

    def test_differentiation_recovers_integrand(self):
        fn = lambda x: np.exp(-0.5 * x * x) * np.cos(x)
        h, _ = nm.cumulative_integral(fn, np.linspace(-6, 6, 121), 1e-8,
                                      tol=nm.Tolerance(1e-12, 1e-10))
        d = 1e-5
        for x in np.linspace(-4, 4, 17):
            deriv = (h(x + d) - h(x - d)) / (2 * d)
            assert abs(deriv - float(fn(np.array([x]))[0])) < 1e-6

    def test_bernoulli_gap_second_level_decays(self):
        # F_2 of B~_1/2 - N vanishes at both grid ends: the first two
        # moments of the difference cancel
        import zetametrics as zm
        M = zm.signed_diff(zm.standardise(zm.bernoulli(0.5)), zm.STANDARD_NORMAL)
        grid = np.unique(np.concatenate([np.linspace(-10, 10, 801), [-1.0, 1.0]]))
        h, _ = nm.cumulative_integral(lambda x: np.asarray(M.cdf(x), dtype=float), grid,
                                      1e-20, sign=-1, tol=nm.Tolerance(1e-11, 1e-9))
        assert abs(float(h(-10.0))) < 1e-9
        assert abs(float(h(10.0))) < 1e-9

    def test_sign_flag(self):
        h, _ = nm.cumulative_integral(lambda x: np.ones_like(x), np.linspace(0, 1, 16), 0.0,
                                      sign=-1)
        assert abs(float(h(1.0)) + 1.0) < 1e-12

    def test_breakpoints_match_integrate(self):
        fn = lambda x: np.exp(-0.5 * x * x) * np.cos(3 * x)
        bp = np.linspace(-6, 6, 25)
        h, _ = nm.cumulative_integral(fn, bp, 0.0)
        want = [nm.integrate(fn, bp[0], x)[0] for x in bp]
        assert np.max(np.abs(h(bp) - want)) < 1e-13
        # continuous across every panel end, the breakpoints and the ends
        # the adaptive loop added between them
        ends, d = nm.refine_grid(bp, 64), 1e-7
        assert np.max(np.abs(h(ends + d) - h(ends - d) - 2 * d * fn(ends))) < 1e-14

    def test_pole_at_grid_point(self):
        # |x|^(-1/2) is infinite at the grid point 0: the panels next to it
        # go through x = t^6, as in integrate
        with np.errstate(divide="ignore"):
            h, _ = nm.cumulative_integral(lambda x: np.abs(x) ** -0.5, np.linspace(-1, 1, 9), 0.0)
        assert abs(float(h(1.0)) - 4.0) < 1e-12
        xs = np.array([-0.7, -0.01, 0.0, 0.3, 0.999])
        exact = 2.0 + 2.0 * np.sign(xs) * np.sqrt(np.abs(xs))
        assert np.max(np.abs(h(xs) - exact)) < 1e-10

    def test_undeclared_pole_raises(self):
        with np.errstate(all="ignore"), pytest.raises(nm.ConvergenceError):
            nm.cumulative_integral(lambda x: 1.0 / x, np.linspace(0, 1, 8), 0.0)

    def test_needs_two_breakpoints(self):
        with pytest.raises(nm.DomainError):
            nm.cumulative_integral(lambda x: x, np.array([1.0]), 0.0)

    def test_needs_increasing_breakpoints(self):
        with pytest.raises(nm.DomainError):
            nm.cumulative_integral(lambda x: x, np.array([0.0, 0.0, 1.0]), 0.0)

    def test_antiderivative_matrix(self):
        # regenerated from numpy's Legendre tools: node values -> Legendre
        # coefficients of the interpolant -> its integral from -1
        from numpy.polynomial import legendre
        coef = np.linalg.inv(legendre.legvander(nm._GL_X, 9))
        want = legendre.legint(coef, lbnd=-1).T
        assert nm._GL_ANTI.shape == (10, 11)
        assert np.max(np.abs(nm._GL_ANTI - want)) < 1e-14


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


class TestFindRoot:
    def test_simple(self):
        r = nm.find_root(lambda x: x * x - 2.0, 0.0, 2.0)
        assert abs(r - math.sqrt(2)) < 1e-12

    def test_needs_bracket(self):
        with pytest.raises(nm.DomainError):
            nm.find_root(lambda x: x * x + 1.0, -1.0, 1.0)
        # no sign change, though fa * fb underflows to 0
        with pytest.raises(nm.DomainError, match="sign-changing"):
            nm.find_root(lambda x: 1e-170 * (x + 2.0), 0.0, 1.0)

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

    def test_tiny_values_keep_the_bracket(self):
        # at 1e-170 a product fa * fx underflows to -0.0; the sign test
        # compares signs, so the bracket still closes on the sign change
        step = lambda x: 1e-170 * np.sign(np.asarray(x, dtype=float) - 0.3)
        line = lambda x: 1e-170 * (np.asarray(x, dtype=float) - 0.3)
        a, b = np.array([0.0, -1.0, 0.25]), np.array([1.0, 1.0, 0.5])
        for f in (step, line):
            with np.errstate(divide="raise", invalid="raise"):
                roots = nm.find_root(f, a, b)
            assert roots.tolist() == [nm.find_root(f, lo, hi) for lo, hi in zip(a, b)]
            assert np.max(np.abs(roots - 0.3)) < 1e-13
        assert abs(nm.find_root(lambda x: 1e-170 * (x - 0.3), 0.0, 1.0) - 0.3) < 1e-13

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


class TestGoldenSection:
    def test_float_bracket_returns_floats(self):
        x, v = nm.golden_section(lambda t: (t - 0.3) ** 2, 0.0, 1.0)
        assert type(x) is float and type(v) is float
        assert abs(x - 0.3) < 1e-9

    def test_empty_bracket_array(self):
        def f(x):
            raise AssertionError("f called on an empty bracket array")
        xs, vs = nm.golden_section(f, np.empty(0), np.empty(0))
        assert xs.shape == vs.shape == (0,)

    def test_unequal_bracket_arrays_raise(self):
        with pytest.raises(nm.DomainError, match="equal-length"):
            nm.golden_section(lambda t: t * t, np.zeros(2), np.ones(3))
