"""Law families: CDFs, moments, transforms, spans, serialization."""

import json
import math

import numpy as np
import pytest

import zetametrics as zm
from zetametrics import measures
from zetametrics.measures import (DegenerateLawError, InfiniteMomentError, MeasureError,
                                  merge_atoms)

RNG = np.random.default_rng(7)
SQRT_2PI = math.sqrt(2 * math.pi)


def finite_or_none(moment, r):
    """moment(r), or None when that moment is infinite."""
    try:
        return moment(r)
    except InfiniteMomentError:
        return None


FAMILY_SAMPLES = [
    ("dirac", zm.dirac(0.7)),
    ("atoms", zm.atoms_law([(-1.0, 0.25), (0.5, 0.5), (2.0, 0.25)])),
    ("bernoulli", zm.bernoulli(0.3)),
    ("normal", zm.normal(0.5, 2.0)),
    ("uniform", zm.uniform(-1.0, 3.0)),
    ("truncated_normal_left", zm.truncated_normal_left(1.5)),
    ("winsorised_normal_left", zm.winsorised_normal_left(1.5)),
    ("gamma_power", zm.gamma_power(2.0, 1.0, 1.0)),
    ("gamma_power_beta2", zm.gamma_power(2.0, 1.0, 2.0)),
    ("subbotin", zm.subbotin(1.0)),
    ("mixture", zm.mixture([(0.4, zm.normal()), (0.6, zm.uniform(0, 1))])),
    ("rounded", zm.rounded(0.5, 0.0, zm.normal())),
    ("histogram", zm.histogram(0.5, 0.0, zm.normal())),
    ("truncated", zm.truncate(zm.normal(), -2.0, 2.0)),
]


class TestCdf:
    def test_dirac_left_limit(self):
        D = zm.dirac(0.0)
        assert D.cdf(0.0) == 1.0 and D.cdf_left(0.0) == 0.0

    def test_normal_median(self):
        assert zm.normal().cdf(0.0) == 0.5

    def test_winsorised_atom_inclusion(self):
        t = 1.5
        W = zm.winsorised_normal_left(t)
        assert abs(W.cdf(-t) - zm.std_normal_cdf(-t)) < 1e-15
        assert W.cdf_left(-t) == 0.0

    @pytest.mark.parametrize("name,law", FAMILY_SAMPLES)
    def test_monotone_and_right_continuous(self, name, law):
        lo, hi = law.support(1e-9)
        pad = 0.1 * (hi - lo) + 0.1
        xs = np.sort(RNG.uniform(lo - pad, hi + pad, size=10_000))
        F = np.asarray(law.cdf(xs), dtype=float)
        assert np.all(np.diff(F) >= -1e-12)
        assert np.all((F >= -1e-12) & (F <= 1 + 1e-12))
        # right continuity at atoms and random points
        pts = np.concatenate([xs[::500], [a for a, _ in law.atoms()]])
        gap = np.asarray(law.cdf(pts + 1e-10), dtype=float) \
            - np.asarray(law.cdf(pts), dtype=float)
        assert np.max(np.abs(gap)) < 1e-6

    @pytest.mark.parametrize("name,law", FAMILY_SAMPLES)
    def test_left_leq_right(self, name, law):
        pts = np.array([a for a, _ in law.atoms()] or [0.0])
        assert np.all(np.asarray(law.cdf_left(pts)) <= np.asarray(law.cdf(pts)) + 1e-15)


class TestSupport:
    @pytest.mark.parametrize("eps", [1e-15, 1e-16, 1e-17, 1e-30, 0.0])
    def test_normal_tails_stay_finite(self, eps):
        # the upper end leaves eps of the mass above it, also where 1 - eps
        # rounds to 1
        for t in (0.0, 1.0, -0.5):
            for law, z in ((zm.truncated_normal_left(t), 1.0 - zm.std_normal_cdf(-t)),
                           (zm.winsorised_normal_left(t), 1.0)):
                lo, hi = law.support(eps)
                assert lo == -t and math.isfinite(hi)
                tail = zm.std_normal_cdf(-hi) / z
                assert abs(tail - max(eps, 1e-300)) < 1e-12 * max(eps, 1e-300)

    def test_convolution_moment_of_truncated_normal(self):
        # E|X + Y|^3 for X ~ N conditioned on (0, inf) and Y ~ N(0, 1/4)
        from scipy.integrate import quad
        C = zm.conv2_law(zm.truncated_normal_left(0.0), zm.normal(0.0, 0.5))
        inner = lambda x: quad(lambda y: abs(x + y) ** 3 * zm.std_normal_pdf(y / 0.5) / 0.5,
                               -12.0, 12.0, points=[-x], epsabs=1e-13)[0]
        want = quad(lambda x: 2.0 * zm.std_normal_pdf(x) * inner(x), 0.0, 12.0,
                    epsabs=1e-12)[0]
        assert abs(C.nu(3) - want) < 1e-9


class TestMoments:
    def test_normal_closed_forms(self):
        N = zm.normal()
        assert abs(N.nu(1) - 2 / SQRT_2PI) < 1e-15
        assert N.nu(2) == 1.0
        assert abs(N.nu(3) - 4 / SQRT_2PI) < 1e-15
        assert N.nu(4) == 3.0

    def test_bernoulli_formulas(self):
        for p in (0.2, 0.5, 0.7):
            B = zm.bernoulli(p)
            assert abs(B.std - math.sqrt(p * (1 - p))) < 1e-15
            Bt = zm.standardise(B)
            assert abs(Bt.mu(3) - (1 - 2 * p) / math.sqrt(p * (1 - p))) < 1e-12
            assert abs(Bt.nu(3)
                       - (0.5 + 2 * (p - 0.5) ** 2) / math.sqrt(p * (1 - p))) < 1e-12

    def test_gamma_power_nu_formula(self):
        G = zm.gamma_power(2.5, 1.3, 1.0)
        for r in (1, 2, 3):
            expect = 1.3 ** (-r) * math.gamma(2.5 + r) / math.gamma(2.5)
            assert abs(G.nu(r) - expect) < 1e-12 * expect

    def test_gamma_standardised_mu3(self):
        for a in (1.0, 4.0, 9.0):
            G = zm.gamma_power(a)
            assert abs(zm.standardise(G).mu(3) - 2 / math.sqrt(a)) < 1e-9

    def test_gamma_existence_guard(self):
        # beta < 0 with alpha + r/beta <= 0 has no finite nu_r
        G = zm.gamma_power(2.0, 1.0, -1.0)
        with pytest.raises(InfiniteMomentError):
            G.nu(3)
        assert finite_or_none(G.nu, 3) is None and finite_or_none(G.nu, 1) is not None

    def test_inverse_gamma_near_zero_stays_quiet(self):
        # x ** beta overflows for a tiny x when beta < 0; the suite turns that
        # RuntimeWarning into an error, and cdf and pdf are 0 there
        G = zm.gamma_power(2.0, 1.0, -1.0)
        assert G.cdf(1e-310) == 0.0
        x = np.r_[1e-310, np.linspace(1e-3, 50.0, 300)]
        assert G.cdf(x)[0] == 0.0 and G.pdf(x)[0] == 0.0
        assert G.pdf(np.array([1e-310, 1.0])).tolist() == [0.0, float(G.pdf(1.0))]

    def test_truncated_normal_paper_identities(self):
        t = 2.0
        z = 1 - zm.std_normal_cdf(-t)
        T = zm.truncated_normal_left(t)
        phi_t = zm.std_normal_pdf(t)
        assert abs(T.mu(1) - phi_t / z) < 1e-14
        # integral of x^3 phi over (-t, inf) equals (t^2 + 2) phi(t)
        assert abs(T.mu(3) - (t * t + 2) * phi_t / z) < 1e-13
        assert abs(-zm.normal().partial_mu(3, -t) - (t * t + 2) * phi_t) < 1e-15

    def test_subbotin_moments(self):
        S = zm.subbotin(1.0)   # two-sided exponential
        assert abs(S.nu(1) - 1.0) < 1e-14
        assert abs(S.nu(2) - 2.0) < 1e-13
        assert abs(S.nu(3) - 6.0) < 1e-12
        assert S.mu(3) == 0.0

    def test_subbotin_inf_is_uniform(self):
        U = zm.subbotin(math.inf, 2.0)
        assert isinstance(U, zm.Uniform)
        assert (U.a, U.b) == (-2.0, 2.0)

    @pytest.mark.parametrize("name,law", FAMILY_SAMPLES)
    def test_lyapunov_chain(self, name, law):
        nu = [finite_or_none(law.nu, r) for r in range(5)]
        for (r, s, t) in ((1, 2, 3), (0, 1, 3), (2, 3, 4)):
            if None in (nu[r], nu[s], nu[t]):
                continue
            nr, ns, nt = nu[r], nu[s], nu[t]
            bound = nr ** ((t - s) / (t - r)) * nt ** ((s - r) / (t - r))
            assert ns <= bound + 1e-9 * max(1.0, bound)

    @pytest.mark.parametrize("name,law", FAMILY_SAMPLES)
    def test_abs_moment_dominates_signed(self, name, law):
        for r in range(5):
            nu = finite_or_none(law.nu, r)
            if nu is not None:
                assert abs(law.mu(r)) <= nu + 1e-9 * max(1.0, nu)

    @pytest.mark.parametrize("name,law", [fs for fs in FAMILY_SAMPLES
                                          if fs[0] != "dirac"])
    def test_nu3_of_standardised_at_least_one(self, name, law):
        Pt = zm.standardise(law)
        assert Pt.nu(3) >= 1.0 - 1e-9

    def test_nu_scaling(self):
        for name, law in (("normal", zm.normal()), ("gamma", zm.gamma_power(3.0)),
                          ("atoms", zm.bernoulli(0.25))):
            for c in (0.5, -2.0):
                img = zm.affine(c, 0.0, law)
                for r in (1, 2, 3):
                    assert abs(img.nu(r) - abs(c) ** r * law.nu(r)) \
                        <= 1e-9 * max(1.0, law.nu(r))


def mp_window_moment(k, absolute, a, b, m=0.0, s=1.0):
    """E[X^k | a < X <= b] (of |X|^k if absolute) for X ~ N(m, s^2), in mpmath."""
    import mpmath as mp
    mp.mp.dps = 30
    a, b, m, s = (mp.mpf(v) for v in (a, b, m, s))
    pts = sorted({a, b, *(c for c in (m, mp.mpf(0)) if a < c < b)})
    f = (lambda x: abs(x) ** k) if absolute else (lambda x: x ** k)
    num = mp.quad(lambda x: f(x) * mp.npdf(x, m, s), pts)
    return num / (mp.ncdf(b, m, s) - mp.ncdf(a, m, s))


def mp_moment_table(atoms, pdf, points, c=1.0, d=0.0):
    """{(standardised, "mu" or "nu", k): value} for k = 0..4, of X = c Y + d
    and of X standardised, in mpmath: Y has the atoms [(y, w)] and the
    density pdf on the pieces between the sorted points."""
    import mpmath as mp
    mp.mp.dps = 30
    c, d = mp.mpf(c), mp.mpf(d)
    atoms = [(mp.mpf(y), mp.mpf(w)) for y, w in atoms]
    points = [mp.mpf(p) for p in points]
    pieces = {}

    def below(y):
        """E[Y^j; Y <= y] for j = 0..4."""
        out = [mp.fsum(w * a ** j for a, w in atoms if a <= y) for j in range(5)]
        cuts = [p for p in points if p < y] + [min(y, points[-1])]
        for lo, hi in zip(cuts, cuts[1:]):
            if (lo, hi) not in pieces:
                pieces[lo, hi] = [mp.quad(lambda v: v ** j * pdf(v), [lo, hi],
                                          method="gauss-legendre") for j in range(5)]
            out = [o + p for o, p in zip(out, pieces[lo, hi])]
        return out

    full = below(mp.inf)
    sd = abs(c) * mp.sqrt(full[2] - full[1] ** 2)
    table = {}
    for std, (m, s) in ((False, (0, 1)), (True, (c * full[1] + d, sd))):
        alpha, beta = c / s, (d - m) / s            # X standardised is alpha Y + beta
        low = below(-beta / alpha)                  # where alpha Y + beta changes sign
        for k in range(5):
            def expand(part):
                return mp.fsum(math.comb(k, j) * alpha ** j * beta ** (k - j) * part[j]
                               for j in range(k + 1))
            neg = expand(low) if alpha > 0 else expand(full) - expand(low)
            table[std, "mu", k] = expand(full)
            table[std, "nu", k] = expand(full) + ((-1) ** k - 1) * neg
    return table


def mp_normal_window(m, s, a, b):
    """mp_moment_table's (atoms, pdf, points) of N(m, s^2) conditioned on
    (a, b], cut to m +- 12 s."""
    import mpmath as mp
    z = mp.ncdf(b, m, s) - mp.ncdf(a, m, s)
    lo, hi = max(a, m - 12 * s), min(b, m + 12 * s)
    return [], lambda y: mp.npdf(y, m, s) / z, sorted({lo, hi, *([m] if lo < m < hi else [])})


def mp_histogram(H):
    """mp_moment_table's (atoms, pdf, points) of the histogram law H's own cells."""
    import bisect
    import mpmath as mp
    centers, w = H._cells()
    edges = [x - H.eta / 2 for x in centers.tolist()] + [centers[-1] + H.eta / 2]
    dens = [mp.mpf(v) / H.eta for v in w.tolist()]

    def pdf(y):
        return dens[min(max(bisect.bisect_right(edges, y) - 1, 0), len(dens) - 1)]
    return [], pdf, edges


def mp_winsorised(t):
    """mp_moment_table's (atoms, pdf, points) of the normal winsorised at -t."""
    import mpmath as mp
    return [(-t, mp.ncdf(-t))], mp.npdf, [-t, 12]


def _moment_sweep():
    """(name, law, thunk of its mp_moment_table arguments) for the laws with
    closed partial moments."""
    H = zm.histogram(0.5, 0.0, zm.normal())
    yield "normal(0.5,2)", zm.normal(0.5, 2.0), \
        lambda: mp_normal_window(0.5, 2.0, -math.inf, math.inf)
    for a, b in ((-1.0, 3.0), (-3.0, -1.0), (1.0, 3.0)):
        yield f"uniform({a:g},{b:g})", zm.uniform(a, b), \
            lambda a=a, b=b: ([], lambda y: 1.0 / (b - a), [a, b])
    for t in (-0.5, 0.0, 1.5, 4.0):
        yield f"truncated_normal_left({t:g})", zm.truncated_normal_left(t), \
            lambda t=t: mp_normal_window(0.0, 1.0, -t, math.inf)
        yield f"winsorised_normal_left({t:g})", zm.winsorised_normal_left(t), \
            lambda t=t: mp_winsorised(t)
    yield "truncate(normal(0.5,2),-1,3)", zm.truncate(zm.normal(0.5, 2.0), -1.0, 3.0), \
        lambda: mp_normal_window(0.5, 2.0, -1.0, 3.0)
    yield "histogram(0.5,0,normal())", H, lambda: mp_histogram(H)
    yield "affine(-0.7,0.3,truncate(normal(),-1,2))", \
        zm.affine(-0.7, 0.3, zm.truncate(zm.normal(), -1.0, 2.0)), \
        lambda: (*mp_normal_window(0.0, 1.0, -1.0, 2.0), -0.7, 0.3)


MOMENT_SWEEP = list(_moment_sweep())


class TestPartialMoments:
    """The closed partial moments and the moments built on them."""

    @pytest.mark.parametrize("name,law,oracle", MOMENT_SWEEP,
                             ids=[name for name, _, _ in MOMENT_SWEEP])
    def test_moment_oracle_sweep(self, name, law, oracle):
        want = mp_moment_table(*oracle())
        for std, tol, P in ((False, 1e-15, law), (True, 2e-14, zm.standardise(law))):
            for k in range(5):
                for moment in ("mu", "nu"):
                    w = float(want[std, moment, k])
                    got = getattr(P, moment)(k)
                    assert abs(got - w) <= tol * max(1.0, abs(w)), (std, moment, k)
                    # the quadrature fallback still agrees; on a standardised
                    # law only to its own rel_tol (1.1e-12 off for the winsorised
                    # normal at t = -0.5)
                    quad = P._moment_quad(k, absolute=moment == "nu")
                    assert abs(quad - got) <= (1e-10 if std else 1e-12) * max(1.0, abs(w))

    def test_standardised_conv2_variance(self):
        # the even absolute moments of a Conv2 are its closed mu, not quadrature
        P = zm.standardise(zm.conv2_law(zm.uniform(-1.0, 1.0), zm.gamma_power(2.0)))
        assert abs(P.nu(2) - 1.0) <= 1e-15

    def test_orders_above_four_by_quadrature(self):
        # orders above 4 are computed, not refused: closed for normal-based
        # laws, integrated where a law has no closed partial_mu
        N = zm.normal(0.5, 2.0)
        assert zm.normal().nu(5) == pytest.approx(8.0 * math.sqrt(2.0 / math.pi), rel=1e-10)
        assert N.nu(6) == pytest.approx(1143.765625, rel=1e-10)
        for P, want in ((zm.truncated_normal_left(1.5), 5.871446324478156),
                        (zm.winsorised_normal_left(1.5), 5.262485347931911)):
            assert zm.standardise(P).nu(5) == pytest.approx(want, rel=1e-10)
        M = zm.signed_diff(zm.uniform(-1.0, 1.0), zm.normal())
        assert zm.nu_r_signed(M, 5).value == pytest.approx(6.366067855239136, rel=1e-10)
        assert math.isfinite(zm.kappa_r(M, 4.5).value)

    def test_normal_partial_mu_against_mpmath(self):
        import mpmath as mp
        N = zm.normal(0.5, 2.0)
        for x in (-7.0, -1.0, 0.5, 3.0, 9.0):
            for k in range(7):
                want = float(mp_window_moment(k, False, -mp.inf, x, 0.5, 2.0)
                             * mp.ncdf(x, 0.5, 2.0))
                assert abs(N.partial_mu(k, x) - want) <= 1e-15 * max(1.0, abs(want))

    def test_normal_high_moments_closed(self, monkeypatch):
        # the truncated moments' recurrence serves every order: nu_5 takes
        # no quadrature (the value is mpmath's integral of |x|^5 phi)
        def refused(*args):
            raise AssertionError("quadrature called")
        monkeypatch.setattr(zm.LawSpec, "_moment_quad", refused)
        N = zm.normal(0.5, 2.0)
        assert N.nu(5) == pytest.approx(236.67354560324819, rel=1e-14)

    @pytest.mark.parametrize("t", [-0.5, 0.0, 1.5, 4.0])
    def test_truncated_and_winsorised_moments_against_mpmath(self, t):
        import mpmath as mp
        p = float(mp.ncdf(-t))
        for k in range(5):
            for absolute, moment in ((False, "mu"), (True, "nu")):
                tail = float(mp_window_moment(k, absolute, -t, mp.inf))
                atom = abs(t) ** k if absolute else (-t) ** k
                for law, want in ((zm.truncated_normal_left(t), tail),
                                  (zm.winsorised_normal_left(t), p * atom + (1 - p) * tail)):
                    got = getattr(law, moment)(k)
                    assert abs(got - want) <= 2e-15 * max(1.0, abs(want)), (law, moment, k)

    def test_window_moments_against_mpmath_and_quadrature(self):
        T = zm.truncate(zm.normal(0.5, 2.0), -1.0, 3.0)
        for k in range(5):
            for absolute, moment in ((False, T.mu), (True, T.nu)):
                want = float(mp_window_moment(k, absolute, -1.0, 3.0, 0.5, 2.0))
                assert abs(moment(k) - want) <= 1e-15 * max(1.0, abs(want))
                # the quadrature path the closed form replaced still agrees
                assert abs(T._moment_quad(k, absolute) - want) <= 1e-12 * max(1.0, abs(want))

    @pytest.mark.parametrize("x", [1e200, -1e200, math.inf, -math.inf])
    def test_normal_partial_mu_saturates(self, x):
        for N in (zm.normal(), zm.normal(0.5, 2.0)):
            got = [N.partial_mu(k, x) for k in range(5)]
            assert got == ([N.mu(k) for k in range(5)] if x > 0 else [0.0] * 5)
        T = zm.truncate(zm.normal(), -1e200, 1e200)
        assert [T.mu(k) for k in range(5)] == [zm.normal().mu(k) for k in range(5)]
        assert [T.nu(k) for k in range(5)] == [zm.normal().nu(k) for k in range(5)]

    def test_infinite_base_moment_takes_quadrature(self):
        # nu_3 of the inverse gamma of shape 2 is infinite, so partial_mu
        # raises; on a bounded window the moment is finite
        G = zm.gamma_power(2.0, 1.0, -1.0)
        with pytest.raises(InfiniteMomentError):
            G.partial_mu(3, 5.0)
        assert abs(zm.truncate(G, 1.0, 5.0).nu(3) - 11.03489603039669) < 1e-12

    def test_inverse_gamma_partial_mu_at_tiny_x(self):
        # x ** beta of a Python float overflows for a tiny x when beta < 0
        P = zm.affine(1.0, -1e-310, zm.gamma_power(2.0, 1.0, -1.0))
        assert abs(P.nu(1) - 1.0) < 1e-12

    def test_factories_build_general_laws(self):
        for t in (-0.5, 1.5, 40.0):
            T = zm.law_from_dict({"family": "truncated_normal_left", "t": t})
            assert T == zm.truncated_normal_left(t) and T.to_dict()["family"] == "truncated"
        with pytest.raises(zm.numerics.DomainError):
            zm.truncated_normal_left(-40.0)     # (40, inf) has no normal mass in floats
        for t in (-40.0, -0.5, 1.5, 40.0):
            # a part of weight 0 is left out
            W = zm.law_from_dict({"family": "winsorised_normal_left", "t": t})
            assert W == zm.winsorised_normal_left(t) and W.to_dict()["family"] == "mixture"
            assert abs(W.mu(0) - 1.0) < 1e-15 and math.isfinite(W.nu(3))


class TestTransforms:
    def test_standardise_normal_exact(self):
        out = zm.standardise(zm.normal(3.0, 2.5))
        assert isinstance(out, zm.Normal)
        assert out.mu_loc == 0.0 and out.sigma == 1.0

    def test_reflect_bernoulli(self):
        out = zm.reflect(zm.bernoulli(0.3))
        assert out.atoms() == [(-1.0, 0.3), (0.0, 0.7)]

    def test_standardise_bernoulli_atoms(self):
        p = 0.3
        out = zm.standardise(zm.bernoulli(p))
        s = math.sqrt(p * (1 - p))
        locs = [a for a, _ in out.atoms()]
        assert abs(locs[0] - (0 - p) / s) < 1e-14
        assert abs(locs[1] - (1 - p) / s) < 1e-14

    @pytest.mark.parametrize("name,law", [fs for fs in FAMILY_SAMPLES
                                          if fs[0] != "dirac"])
    def test_standardise_moments(self, name, law):
        Pt = zm.standardise(law)
        assert abs(Pt.mean) < 1e-9
        assert abs(Pt.std - 1.0) < 1e-9

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateLawError):
            zm.standardise(zm.dirac(1.0))

    def test_point_mass_below_rounding_floor_is_degenerate(self):
        # the window keeps one atom, but mu_2 - mu_1^2 comes out as 2.2e-16:
        # below 16 eps mu_2 it is rounding, not spread
        P = zm.affine(-0.5, 0.1796090289055119, zm.truncate(
            zm.atoms_law([(-1.065897190058088, 0.6387016723928906),
                          (2.0343098485038125, 0.3612983276071094)]),
            -0.4458557823457079, 2.0343098485038125))
        assert len(P.atoms()) == 1 and P.variance > 0.0
        with pytest.raises(DegenerateLawError):
            zm.standardise(P)
        with pytest.raises(DegenerateLawError):
            zm.distance_profile(P)

    def test_narrow_law_above_rounding_floor_standardises(self):
        Pt = zm.standardise(zm.atoms_law([(0.0, 0.5), (1e-6, 0.5)]))
        assert [x for x, _ in Pt.atoms()] == pytest.approx([-1.0, 1.0], abs=1e-9)

    @pytest.mark.parametrize("eta", [2.0, 1.0, 0.5, 0.25, 0.1])
    def test_affine_rounding_is_an_exact_lattice(self, eta):
        # an affine image of a rounding is an Atoms law, so its cdf at its
        # own atoms reads the rounding's cells: no pull-back (x - d) / c that
        # lands one ulp beside a cell and misses a whole atom mass
        for base in (zm.normal(), zm.gamma_power(1.0), zm.gamma_power(2.0),
                     zm.gamma_power(4.0), zm.subbotin(1.5)):
            R = zm.rounded(eta, 0.0, base)
            for c, d, S in ((1.0 / R.std, -R.mean / R.std, zm.standardise(R)),
                            (-0.7, 0.3, zm.affine(-0.7, 0.3, R))):
                assert isinstance(S, zm.Atoms)
                locs = np.array([x for x, _ in R.atoms()])
                at = c * locs + d
                right, left = (R.cdf, R.cdf_left) if c > 0 else \
                    (lambda x: 1.0 - R.cdf_left(x), lambda x: 1.0 - R.cdf(x))
                assert np.max(np.abs(S.cdf(at) - right(locs))) <= 1e-12
                assert np.max(np.abs(S.cdf_left(at) - left(locs))) <= 1e-12

    def test_winsorisation_shrinks_variance(self):
        for t in (0.5, 1.0, 2.0, 3.0):
            W = zm.winsorised_normal_left(t)
            assert W.std < 1.0
            assert W.mean > 0.0


class TestSignedMeasures:
    def test_zero_difference(self):
        M = zm.signed_diff(zm.normal(), zm.normal())
        assert M.mass() == 0.0
        xs = np.linspace(-3, 3, 11)
        assert np.max(np.abs(M.cdf(xs))) == 0.0

    def test_bernoulli_vs_normal_structure(self):
        M = zm.signed_diff(zm.standardise(zm.bernoulli(0.5)), zm.normal())
        assert abs(M.mass()) < 1e-15
        assert M.atoms() == [(-1.0, 0.5), (1.0, 0.5)]
        assert abs(float(M.pdf(0.3)) + zm.std_normal_pdf(0.3)) < 1e-15

    def test_uniform_overlap_variation(self):
        M = zm.signed_diff(zm.uniform(-1, 1), zm.uniform(0, 2))
        v = zm.nu_r_signed(M, 0)
        assert abs(v.value - 1.0) < 1e-9

    def test_variation_split(self):
        M = zm.signed_diff(zm.bernoulli(0.5), zm.normal())
        assert M.atoms() == [(0.0, 0.5), (1.0, 0.5)]
        assert abs(float(M.pdf(0.5)) + zm.std_normal_pdf(0.5)) < 1e-15

    def test_atoms_of_different_terms_merge_only_when_equal(self):
        # M.cdf sums the terms' own CDFs, so atoms 1e-13 apart stay two atoms
        M = zm.signed_diff(zm.dirac(0.0), zm.dirac(1e-13))
        assert M.atoms() == [(0.0, 1.0), (1e-13, -1.0)]
        assert zm.nu_r_signed(M, 0).value == 2.0
        assert zm.kolmogorov(M).value == 1.0
        assert zm.signed_diff(zm.dirac(0.5), zm.atoms_law([(0.5, 1.0)])).atoms() == []

    def test_atoms_merged_once_per_measure(self, monkeypatch):
        M = zm.signed_diff(zm.standardise(zm.bernoulli(0.3)), zm.STANDARD_NORMAL)
        calls = []

        def counted(pairs, *args, **kwargs):
            calls.append(len(pairs))
            return merge_atoms(pairs, *args, **kwargs)
        monkeypatch.setattr(measures, "merge_atoms", counted)
        zm.kappa_r(M, (1, 3))
        zm.zeta_r(M, 3)
        zm.nu_r_signed(M, 3)
        assert calls == [2]

    def test_atoms_returns_a_fresh_list(self):
        M = zm.signed_diff(zm.bernoulli(0.5), zm.normal())
        got = M.atoms()
        got.append((7.0, 1.0))
        got[0] = (0.25, 0.25)
        assert M.atoms() == [(0.0, 0.5), (1.0, 0.5)]

    def test_nu_is_no_absolute_moment(self):
        # the integral of |x|^r against M (0.298 at r = 1 here) is no moment
        # of |M| (0.670); the error names the two routines that give one
        M = zm.signed_diff(zm.normal(), zm.uniform(-1, 1))
        with pytest.raises(MeasureError, match="nu_r_signed.*nu_upper"):
            M.nu(1)
        assert zm.nu_r_signed(M, 1).value <= M.nu_upper(1)

    def test_mixture_atoms_merge_only_when_equal(self):
        # Mixture.cdf sums the parts' own CDFs, as SignedMeasure.cdf does
        P = zm.mixture([(0.5, zm.dirac(0.0)), (0.5, zm.dirac(1e-13))])
        assert P.atoms() == [(0.0, 0.5), (1e-13, 0.5)]
        M = zm.signed_diff(P, zm.dirac(0.0))
        assert zm.nu_r_signed(M, 0).value == 1.0
        assert zm.kolmogorov(M).value == 0.5


class TestLatticeSpan:
    def test_bernoulli(self):
        assert zm.lattice_span(zm.bernoulli(0.4)) == 1.0

    def test_continuous_is_zero(self):
        assert zm.lattice_span(zm.normal()) == 0.0

    def test_dirac_is_inf(self):
        assert math.isinf(zm.lattice_span(zm.dirac(2.0)))

    def test_rounded_span_and_standardised(self):
        for eta in (1.0, 0.1, 0.01):
            R = zm.rounded(eta, 0.0, zm.normal())
            assert abs(zm.lattice_span(R) - eta) < 1e-12 * eta
            Rt = zm.standardise(R)
            assert abs(zm.lattice_span(Rt) - eta / R.std) < 1e-9 * eta

    def test_incommensurable(self):
        law = zm.atoms_law([(0.0, 0.5), (1.0, 0.25), (math.sqrt(2), 0.25)])
        assert zm.lattice_span(law) == 0.0

    def test_gapped_lattice(self):
        law = zm.atoms_law([(0.0, 0.5), (3.0, 0.25), (5.0, 0.25)])
        assert abs(zm.lattice_span(law) - 1.0) < 1e-12

    def test_lattice_locations_are_shift_plus_span_times_index(self):
        # the nonzero cells' locations, bit for bit as on the full lattice
        w = np.zeros(1001)
        w[[0, 3, 7, 500, 999, 1000]] = [0.1, 0.2, 0.3, 0.1, 0.2, 0.1]
        L = zm.Lattice(-0.3, 0.1, w)
        full = L.shift + L.span * np.arange(w.size)
        assert L._locs.view(np.uint64).tolist() == full[w > 0].view(np.uint64).tolist()
        assert L.atoms() == [(x, v) for x, v in zip(full[w > 0].tolist(), w[w > 0].tolist())]


class TestRoundingOperators:
    def test_dirac_on_lattice_unchanged(self):
        R = zm.rounded(0.5, 0.2, zm.dirac((0.2 + 3) * 0.5))
        assert R.atoms() == [((0.2 + 3) * 0.5, 1.0)]

    def test_rounded_normal_weights(self):
        R = zm.rounded(1.0, 0.0, zm.normal())
        Phi = zm.std_normal_cdf
        for j, w in ((0, Phi(0.5) - Phi(-0.5)), (1, Phi(1.5) - Phi(0.5))):
            got = dict(R.atoms())[float(j)]
            assert abs(got - w) < 1e-14

    def test_uniform_boundary_split(self):
        R = zm.rounded(1.0, 0.0, zm.uniform(0, 1))
        assert [(x, round(w, 12)) for x, w in R.atoms()] == [(0.0, 0.5), (1.0, 0.5)]

    def test_atom_on_boundary_split(self):
        # an atom exactly on a cell edge splits half/half
        law = zm.atoms_law([(0.5, 1.0)])
        R = zm.rounded(1.0, 0.0, law)
        assert [(x, w) for x, w in R.atoms()] == [(0.0, 0.5), (1.0, 0.5)]

    def test_histogram_idempotence_pair(self):
        base = zm.normal()
        R = zm.rounded(0.5, 0.0, base)
        H = zm.histogram(0.5, 0.0, base)
        R2 = zm.rounded(0.5, 0.0, H)       # (P_hist)_rd = P_rd
        assert np.allclose([w for _, w in R.atoms()],
                           [w for _, w in R2.atoms()], atol=1e-12)
        H2 = zm.histogram(0.5, 0.0, R)     # (P_rd)_hist = P_hist
        assert np.allclose(H._cells()[1], H2._cells()[1], atol=1e-12)
        assert np.allclose(H._cells()[0], H2._cells()[0], atol=1e-12)


class TestSerialization:
    @pytest.mark.parametrize("name,law", FAMILY_SAMPLES)
    def test_roundtrip_identity(self, name, law):
        d = law.to_dict()
        law2 = zm.law_from_dict(json.loads(json.dumps(d)))
        assert law2.to_dict() == d
        # laws are hashable values, mixtures included
        assert law2 == law and hash(law2) == hash(law)

    def test_text_format_example(self):
        d = {"family": "rounded", "eta": 0.1, "alpha": 0.0,
             "base": {"family": "normal", "mu": 0, "sigma": 1}}
        law = zm.law_from_dict(d)
        assert isinstance(law, zm.Rounded)
        assert law.eta == 0.1

    def test_subbotin_inf_round_trip(self):
        law = zm.law_from_dict({"family": "subbotin", "beta": "inf", "scale": 1.5})
        assert isinstance(law, zm.Uniform)

    def test_unknown_family(self):
        with pytest.raises(Exception):
            zm.law_from_dict({"family": "zeta-prime"})
