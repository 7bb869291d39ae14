"""Lattice convolution, CLT left-hand sides, convolution inequality."""

import math

import numpy as np
import pytest

import zetametrics as zm
from zetametrics.convolve import (_DIRECT_CAP, MAX_LATTICE_ENTRIES, ConvolveError,
                                  ModeError, SpanMismatchError, _fft_size,
                                  _lattice_vs_normal_sup, _mass_window)

SQRT_2PI = math.sqrt(2 * math.pi)
RNG = np.random.default_rng(99)


def full_power(L, n):
    """The full-support n-fold power by binary exponentiation over
    convolve_atomic, with nothing cut: the reference for power_lattice."""
    out, base = None, L
    while True:
        if n & 1:
            out = base if out is None else zm.convolve_atomic(out, base)
        n >>= 1
        if not n:
            return out
        base = zm.convolve_atomic(base, base)


def random_standardised_lattice(rng):
    """Random three-atom lattice law, standardised (stays commensurable)."""
    idx = sorted(rng.choice(np.arange(-8, 9), size=3, replace=False))
    x = [0.25 * i for i in idx]
    w = rng.dirichlet([2.0, 2.0, 2.0])
    law = zm.atoms_law(list(zip(x, w)))
    return zm.standardise(law)


class TestConvolveAtomic:
    def test_dirac_pair(self):
        P = zm.lattice_of(zm.dirac(1.5))
        Q = zm.lattice_of(zm.dirac(-0.5))
        R = zm.convolve_atomic(P, Q)
        assert R.atoms() == [(1.0, 1.0)]

    def test_bernoulli_square(self):
        L = zm.lattice_of(zm.bernoulli(0.5))
        R = zm.convolve_atomic(L, L)
        assert np.allclose(R.weights, [0.25, 0.5, 0.25])

    def test_binomial_20(self):
        L = zm.lattice_of(zm.bernoulli(0.5))
        R = zm.power_lattice(L, 20)
        exact = np.array([math.comb(20, k) for k in range(21)]) / 2.0 ** 20
        assert np.max(np.abs(R.weights - exact)) <= 1e-15

    def test_span_mismatch(self):
        with pytest.raises(SpanMismatchError):
            zm.convolve_atomic(zm.lattice_of(zm.bernoulli(0.5)),
                               zm.Lattice(0.0, 0.5, [0.5, 0.5]))


class TestLatticeLaws:
    """Roundings and Bernoullis are lattice laws that lattice_of returns as
    they are; a JSON lattice folds its first index into its shift."""

    def test_rounding_is_its_own_lattice(self):
        R = zm.rounded(0.01, 0.3, zm.gamma_power(3.0))
        assert isinstance(R, zm.Lattice) and zm.lattice_of(R) is R
        assert R.span == 0.01
        assert R.weights[0] > 0 and R.weights[-1] > 0

    def test_bernoulli_is_its_own_lattice(self):
        B = zm.bernoulli(0.3)
        assert isinstance(B, zm.Lattice) and zm.lattice_of(B) is B

    def test_rounding_atoms_are_cell_centres(self):
        eta, alpha = 0.1, 0.3
        R = zm.rounded(eta, alpha, zm.normal())
        locs = np.array([x for x, _ in R.atoms()])
        js = np.round(locs / eta - alpha)
        assert locs.tolist() == ((alpha + js) * eta).tolist()

    def test_json_first_index_folds_into_shift(self):
        L = zm.law_from_dict({"family": "lattice", "shift": 0.1, "span": 0.5,
                              "weights": [0.2, 0.3, 0.5], "first_index": 2})
        assert L.to_dict() == {"family": "lattice", "shift": 0.1 + 0.5 * 2,
                               "span": 0.5, "weights": [0.2, 0.3, 0.5]}
        A = zm.atoms_law(L.atoms())
        for n in (2, 16, 64):
            assert zm.clt_lhs(L, n).value == zm.clt_lhs(A, n).value


class TestPowerLattice:
    def test_identity(self):
        L = zm.lattice_of(zm.bernoulli(0.3))
        R = zm.power_lattice(L, 1)
        assert np.allclose(R.weights, L.weights) and R.shift == L.shift

    def test_symmetric_five_atoms(self):
        Bt = zm.standardise(zm.bernoulli(0.5))
        L = zm.power_lattice(zm.lattice_of(Bt), 4)
        w = L.weights[L.weights > 0]
        assert w.size == 5
        assert np.allclose(w, w[::-1])

    def test_rounded_normal_power_vs_double_sum(self):
        R = zm.rounded(1.0, 0.0, zm.normal())
        L = zm.lattice_of(R)
        L2 = zm.power_lattice(L, 2)
        pts = dict((round(x), w) for x, w in R.atoms())
        # direct double sum over the ten central atoms
        for target in range(-4, 5):
            direct = sum(pts.get(j, 0.0) * pts.get(target - j, 0.0)
                         for j in range(-10, 11))
            idx = int(round((target - L2.shift) / L2.span))
            got = L2.weights[idx] if 0 <= idx < L2.weights.size else 0.0
            assert abs(got - direct) < 1e-14


class TestFftPower:
    """Past the size cap the FFT power agrees with direct convolution."""

    CASES = [("bernoulli(0.1)", zm.bernoulli(0.1), 20000),
             ("bernoulli(0.5)", zm.bernoulli(0.5), 20000),
             ("rounded_gamma(a=2,eta=0.25)", zm.rounded(0.25, 0.0, zm.gamma_power(2.0)), 300),
             ("uniform_lattice_4", zm.atoms_law([(float(k), 0.25) for k in range(4)]), 10000)]

    @pytest.mark.parametrize("name,law,n", CASES, ids=[c[0] for c in CASES])
    def test_matches_direct(self, name, law, n):
        L = zm.lattice_of(law)
        fft = zm.power_lattice(L, n)
        direct = full_power(L, n)
        # the FFT power is renormalised to mass 1, and so is the reference:
        # the rounding of its direct convolutions leaves Bernoulli(0.1)'s
        # 20,000-fold power with mass 1 + 8.0e-13
        direct = zm.Lattice(direct.shift, direct.span, direct.weights / math.fsum(direct.weights))
        N = direct.weights.size
        lo, hi = fft.window
        assert N > _DIRECT_CAP and direct.fft_size == 0
        # the transform holds the window, which is shorter than the support
        assert hi - lo <= fft.fft_size < N
        # the power is stored over its window, and the window holds all
        # but 1e-30 of the mass on each side
        S = fft.weights.size
        assert S == hi - lo
        assert fft.shift == pytest.approx(n * L.shift + lo * L.span, abs=1e-9)
        assert math.fsum(direct.weights[:lo]) + math.fsum(direct.weights[hi:]) <= 2e-30
        # each entry is off by at most the noise floor plus the share of the
        # renormalisation, which moves the mass by at most S floors
        floor = fft.noise_floor
        assert 0 < floor < 1e-12 * direct.weights.max()
        ref = direct.weights[lo:hi]
        gap = np.abs(fft.weights - ref)
        assert np.all(gap <= 2 * floor * (1.0 + S * ref))
        mean, sd = n * law.mean, math.sqrt(n) * law.std
        sup_fft, _ = _lattice_vs_normal_sup(fft, mean, sd)
        sup_direct, _ = _lattice_vs_normal_sup(direct, mean, sd)
        out = zm.clt_lhs(law, n)
        assert out.value == sup_fft
        assert out.certificate["engine"] == "fft"
        assert out.certificate["fft_size"] == fft.fft_size
        assert out.certificate["atoms"] == int((fft.weights > 0).sum())
        assert abs(sup_fft - sup_direct) <= out.err_est

    def test_full_window_is_the_full_length_transform(self):
        # a far atom spreads the mass over the whole support, so the window
        # is all of it and the weights are those of a full-length transform
        L = zm.lattice_of(zm.atoms_law([(0.0, 0.5), (1.0, 0.25), (4000.0, 0.25)]))
        out = zm.power_lattice(L, 3)
        size = 3 * (L.weights.size - 1) + 1
        N = _fft_size(size)
        assert size > _DIRECT_CAP and out.window == [0, size] and out.fft_size == N
        w = np.fft.irfft(np.fft.rfft(L.weights, N) ** 3, N)[:size]
        floor = 3 * math.log2(N) * np.finfo(float).eps * float(w.max())
        w[w <= floor] = 0.0
        w *= 1.0 / w.sum()
        assert out.noise_floor == floor
        assert out.weights.view(np.uint64).tolist() == w.view(np.uint64).tolist()

    @pytest.mark.parametrize("p", [0.1, 0.3, 0.5])
    @pytest.mark.parametrize("n", [64, 2048, 10**4, 10**5, 10**6])
    def test_window_leaves_out_at_most_1e_30_a_side(self, p, n):
        # at n = 64 and 2048 the b L / 3 term of Bernstein's bound dominates
        from scipy.stats import binom
        out = zm.power_lattice(zm.bernoulli(p), n)
        lo, hi = out.window
        assert 0 <= lo < hi <= n + 1 and out.fft_size < n
        assert out.weights.size == hi - lo
        assert binom.logcdf(lo - 1, n, p) <= math.log(1e-30)
        assert binom.logsf(hi - 1, n, p) <= math.log(1e-30)

    def test_million_fold_bernoulli_matches_binomial_sup(self):
        # the reference pmf in log space through math.lgamma, within 40 sd of
        # the mean and normalised to mass 1, with the left limit at each atom
        p, n = 0.5, 10**6
        mean, sd = n * p, math.sqrt(n * p * (1.0 - p))
        ks = np.arange(int(mean - 40 * sd), int(mean + 40 * sd) + 1)
        lg_n, lp, lq = math.lgamma(n + 1), math.log(p), math.log1p(-p)
        pmf = np.exp([lg_n - math.lgamma(k + 1) - math.lgamma(n - k + 1) + k * lp + (n - k) * lq
                      for k in ks.tolist()])
        pmf /= math.fsum(pmf)
        cum = np.cumsum(pmf)
        phi = zm.std_normal_cdf((ks - mean) / sd)
        sup = max(np.abs(cum - phi).max(), np.abs(cum - pmf - phi).max())
        out = zm.clt_lhs(zm.bernoulli(p), n)
        assert out.certificate["engine"] == "fft"
        assert out.certificate["window"] == zm.power_lattice(zm.bernoulli(p), n).window
        assert abs(out.value - sup) <= out.err_est

    def test_fft_size_is_smallest_5_smooth(self):
        def smooth(k):
            for f in (2, 3, 5):
                while k % f == 0:
                    k //= f
            return k == 1
        for n in range(1, 3000):
            assert _fft_size(n) == next(k for k in range(n, 2 * n + 1) if smooth(k))

    def test_below_cap_is_direct(self):
        out = zm.clt_lhs(zm.bernoulli(0.3), 64)
        assert out.certificate["engine"] == "direct"
        assert out.certificate["fft_size"] == 0 and out.err_est == 1e-13
        assert out.certificate["window"] == [0, 65]

    CUT = [("bernoulli(0.5)", zm.bernoulli(0.5), 3185),
           ("rounded_gamma(a=4,eta=1)", zm.rounded(1.0, 0.0, zm.gamma_power(4.0)), 64)]

    @pytest.mark.parametrize("name,law,n", CUT, ids=[c[0] for c in CUT])
    def test_cut_direct_power_matches_full_support(self, name, law, n):
        L = zm.lattice_of(law)
        cut = zm.power_lattice(L, n)
        full = full_power(L, n)
        lo, hi = cut.window
        assert cut.fft_size == 0 and cut.cuts > 0
        assert 0 < hi - lo < full.weights.size <= _DIRECT_CAP
        assert cut.weights.size == hi - lo
        assert cut.shift == pytest.approx(n * L.shift + lo * L.span, abs=1e-9)
        # the two sum the same products in other orders, over at most
        # 2 log2(n) levels; each cut factor lost at most 2e-30 of mass
        ref = full.weights[lo:hi]
        bound = 64 * n.bit_length() * np.finfo(float).eps * ref + 2e-30 * cut.cuts
        assert np.all(np.abs(cut.weights - ref) <= bound)
        mean, sd = n * law.mean, math.sqrt(n) * law.std
        out = zm.clt_lhs(law, n)
        assert out.certificate["engine"] == "direct" and out.certificate["window"] == [lo, hi]
        assert out.err_est == 1e-13 + 2e-30 * cut.cuts
        assert abs(out.value - _lattice_vs_normal_sup(full, mean, sd)[0]) <= out.err_est

    UNCUT = [("bernoulli(0.3)", zm.bernoulli(0.3), 64),
             ("rounded_normal(eta=1)", zm.rounded(1.0, 0.0, zm.normal()), 16)]

    @pytest.mark.parametrize("name,law,n", UNCUT, ids=[c[0] for c in UNCUT])
    def test_uncut_power_is_the_full_support_power(self, name, law, n):
        L = zm.lattice_of(law)
        out = zm.power_lattice(L, n)
        full = full_power(L, n)
        size = full.weights.size
        assert out.window == [0, size] and out.cuts == 0 and out.fft_size == 0
        assert out.weights.view(np.uint64).tolist() == full.weights.view(np.uint64).tolist()
        assert out.shift == full.shift
        assert zm.clt_lhs(law, n).err_est == 1e-13

    def test_uncut_window_means_uncut_factors(self, corpus):
        # the margins of Bernstein's bound are convex in k: when the n-fold
        # window is the whole support, so is every k-fold one with k <= n
        laws = [zm.bernoulli(p) for p in np.linspace(0.01, 0.99, 50)]
        laws += [law for _, law in corpus]
        for law in laws:
            L = zm.lattice_of(law)
            window = _mass_window(L.weights)
            top = L.weights.size - 1
            full = [window(k) == (0, k * top + 1) for k in range(1, 4097)]
            # the ks of full windows are 1 .. K for some K
            assert full[0] and full == sorted(full, reverse=True)

    def test_entry_budget_checked_before_any_work(self, monkeypatch):
        def no_work(*args):
            raise AssertionError("convolved past the entry budget")
        monkeypatch.setattr("zetametrics.convolve.convolve_atomic", no_work)
        L = zm.lattice_of(zm.bernoulli(0.5))
        with pytest.raises(ConvolveError, match="entry budget"):
            zm.power_lattice(L, MAX_LATTICE_ENTRIES)


class TestCdfConvolution2:
    def test_normal_pair(self):
        for x in (-1.5, 0.0, 0.7, 2.3):
            got = zm.conv2_law(zm.normal(), zm.normal()).cdf(x)
            assert abs(got - zm.std_normal_cdf(x / math.sqrt(2))) < 1e-12

    def test_dirac_shift(self):
        Q = zm.gamma_power(2.0)
        for x in (0.5, 2.0, 5.0):
            got = zm.conv2_law(zm.dirac(1.0), Q).cdf(x)
            assert abs(got - Q.cdf(x - 1.0)) < 1e-12

    def test_pdf_sees_a_narrow_factor(self):
        # U(-1, 1) * Gamma(2): the density at 2.5 is the mass of y e^-y / 2
        # on [1.5, 3.5], a window much narrower than the gamma's support
        got = zm.conv2_law(zm.uniform(-1.0, 1.0), zm.gamma_power(2.0)).pdf(2.5)
        assert abs(got - 0.5 * (2.5 * math.exp(-1.5) - 4.5 * math.exp(-3.5))) < 1e-10

    def test_narrow_mixture_part_is_seen(self):
        # the N(17.3, 1e-4) part is far narrower than the node spacing of a
        # panel over the mixture's support; its ends are breakpoints, also
        # inside a nested mixture whose own support is wide
        narrow = zm.normal(17.3, 1e-4)
        q = zm.mixture([(0.5, zm.normal(0.0, 1.0)), (0.5, narrow)])
        nested = zm.mixture([(0.5, zm.normal(0.0, 1.0)),
                             (0.5, zm.mixture([(0.5, zm.normal(-3.0, 1.0)), (0.5, narrow)]))])
        u = zm.uniform(-1.0, 1.0)
        # (law, cdf at 17.3, pdf at 17.3): the narrow part holds half its
        # mass below 17.3, and U(-1, 1) spreads it at density 1/2
        cases = [(zm.conv2_law(u, q), 0.75, 0.25), (zm.conv2_law(q, u), 0.75, 0.25),
                 (zm.conv2_law(u, nested), 0.875, 0.125)]
        for C, cdf, pdf in cases:
            assert abs(C.cdf(30.0) - 1.0) < 1e-10
            assert abs(C.cdf(17.3) - cdf) < 1e-10
            assert abs(C.pdf(17.3) - pdf) < 1e-10

    def test_pdf_counts_the_atoms_of_both_factors(self):
        # W = Phi(-1/2) delta_{-1/2} + phi on (-1/2, inf); W + Z has density
        # Phi(-1/2) phi(x + 1/2) + phi(x / sqrt2) / sqrt2 * Phi((x + 1) / sqrt2)
        W, Z = zm.winsorised_normal_left(0.5), zm.normal()
        s2 = math.sqrt(2.0)
        for C in (zm.conv2_law(W, Z), zm.conv2_law(Z, W)):
            for x in (-2.0, -0.5, 0.3, 1.7):
                want = (zm.std_normal_cdf(-0.5) * zm.std_normal_pdf(x + 0.5)
                        + zm.std_normal_pdf(x / s2) / s2 * zm.std_normal_cdf((x + 1.0) / s2))
                assert abs(C.pdf(x) - want) < 1e-10
            mass, _ = zm.integrate(C.pdf, -12.0, 12.0, breakpoints=[-0.5])
            assert abs(mass - 1.0) < 1e-9

    def test_atoms_of_both_factors(self):
        # W + W sits at -1 when both summands do
        W = zm.winsorised_normal_left(0.5)
        WW = zm.conv2_law(W, W)
        mass = zm.std_normal_cdf(-0.5) ** 2
        [(loc, w)] = WW.atoms()
        assert loc == -1.0 and abs(w - mass) < 1e-15
        assert abs(WW.cdf(-1.0) - mass) < 1e-10
        assert abs(WW.cdf_left(-1.0)) < 1e-10
        # the near-extremal law's atom at 0 squares
        eps = 0.2
        Phi_eps = float(zm.std_normal_cdf(eps))
        P = zm.mixture([(Phi_eps - 0.5, zm.dirac(0.0)),
                        (0.5, zm.reflect(zm.truncated_normal_left(0.0))),
                        (1.0 - Phi_eps, zm.truncated_normal_left(-eps))])
        [(loc, w)] = zm.conv2_law(P, P).atoms()
        assert loc == 0.0 and abs(w - (Phi_eps - 0.5) ** 2) < 1e-15

    def test_array_matches_scalar_points(self, monkeypatch):
        # chunks of 4 points: the 11 points span three integrate calls
        monkeypatch.setattr("zetametrics.measures._FOLD_CHUNK", 4)
        W = zm.winsorised_normal_left(0.5)
        xs = np.linspace(-3.0, 4.0, 11)
        for C in (zm.conv2_law(W, zm.normal()), zm.conv2_law(zm.uniform(-1.0, 1.0),
                                                             zm.gamma_power(2.0))):
            for fn in (C.cdf, C.pdf):
                got = fn(xs)
                assert got.shape == xs.shape
                assert np.max(np.abs(got - [fn(float(x)) for x in xs])) < 1e-15
            assert C.cdf(xs.reshape(1, 11)).shape == (1, 11)

    def test_winsorised_two_fold_asymptotics(self):
        # F*2(-t) = Phi(-t/sqrt2) - (2/sqrt(2 pi)) phi(t)/t^2 + O(phi(t)/t^3)
        t = 3.0
        W = zm.winsorised_normal_left(t)
        got = zm.conv2_law(W, W).cdf(-t)
        phi_t = zm.std_normal_pdf(t)
        approx = zm.std_normal_cdf(-t / math.sqrt(2)) - 2 / SQRT_2PI * phi_t / t ** 2
        assert abs(got - approx) <= phi_t / t ** 3


class TestCltLhs:
    def test_normal_is_exact_zero(self):
        v = zm.clt_lhs(zm.normal(), 2, mode="quadrature_n2")
        assert v.value < 1e-10

    def test_bernoulli_esseen_asymptotics(self):
        v = zm.clt_lhs(zm.bernoulli(0.5), 400)
        target = 1.0 / SQRT_2PI / 20.0
        assert abs(v.value * 20.0 - 1.0 / SQRT_2PI) < 0.05 / SQRT_2PI

    def test_esseen_worst_bernoulli(self):
        pE = (4 - math.sqrt(10)) / 2
        cE = (3 + math.sqrt(10)) / (6 * SQRT_2PI)
        nu3 = (0.5 + 2 * (pE - 0.5) ** 2) / math.sqrt(pE * (1 - pE))
        v = zm.clt_lhs(zm.bernoulli(pE), 400)
        assert abs(20.0 * v.value - cE * nu3) < 0.05 * cE * nu3

    @pytest.mark.parametrize("p", [0.5, 0.1])
    def test_sqrt_n_lhs_approaches_esseen(self, p):
        # sqrt(n) || B~^{*n} - N ||_K -> (h/2 + |mu_3|/6) / sqrt(2 pi)
        P = zm.bernoulli(p)
        target = zm.esseen_asymptotic(P)
        gaps = [abs(math.sqrt(n) * zm.clt_lhs(P, n).value - target) / target
                for n in (10 ** 4, 10 ** 5, 10 ** 6)]
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 1e-5

    def test_lattice_approx_reports_heuristic(self):
        v = zm.clt_lhs(zm.normal(), 3, mode="lattice_approx", eta=0.5)
        assert v.certificate["heuristic_discretisation_err"] > 0
        assert "heuristic" in v.certificate["note"]

    def test_lattice_approx_cross_check_n3(self):
        # direct triple convolution of the rounded law equals the mode output
        eta = 0.5
        R = zm.rounded(eta, 0.0, zm.normal())
        direct = zm.clt_lhs(R, 3, mode="exact_lattice")
        via_mode = zm.clt_lhs(zm.normal(), 3, mode="lattice_approx", eta=eta)
        assert abs(direct.value - via_mode.value) < 1e-12

    def test_mode_errors(self):
        with pytest.raises(ModeError):
            zm.clt_lhs(zm.bernoulli(0.5), 3, mode="quadrature_n2")
        with pytest.raises(ModeError):
            zm.clt_lhs(zm.normal(), 2, mode="lattice_approx")
        with pytest.raises(Exception):
            zm.clt_lhs(zm.normal(), 4, mode="exact_lattice")


class TestConvolutionInequality:
    def test_trivial_equality(self):
        lhs, rhs = zm.convolution_inequality_check(
            zm.normal(), zm.normal(), zm.normal(), zm.normal())
        assert lhs < 1e-10 and rhs < 1e-10

    def test_bernoulli_vs_normal_strict_slack(self):
        lhs, rhs = zm.convolution_inequality_check(
            zm.standardise(zm.bernoulli(0.5)), zm.normal(),
            zm.normal(), zm.normal())
        assert lhs <= rhs
        assert lhs < 0.7 * rhs          # strict slack away from extremality

    def test_near_extremal_family(self):
        # the near-extremal law: N off [0, eps] with the strip mass at 0
        eps = 0.2
        Phi_eps = float(zm.std_normal_cdf(eps))
        P = zm.mixture([
            (Phi_eps - 0.5, zm.dirac(0.0)),
            (0.5, zm.reflect(zm.truncated_normal_left(0.0))),
            (1.0 - Phi_eps, zm.truncated_normal_left(-eps)),
        ])
        lhs, rhs = zm.convolution_inequality_check(P, P, zm.normal(), zm.normal())
        assert lhs <= rhs * (1 + 1e-9)
        assert lhs / rhs > 0.8

    def test_unbounded_density_rejected(self):
        with pytest.raises(Exception):
            zm.convolution_inequality_check(zm.normal(), zm.normal(),
                                            zm.bernoulli(0.5), zm.normal())


class TestRegularityAndSmoothing:
    def test_semiadditivity_zeta1(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            P = random_standardised_lattice(rng)
            Q = zm.standardise(zm.bernoulli(rng.uniform(0.2, 0.8)))
            # put both on a common refined lattice via rounding
            eta = 0.25
            Pr, Qr = zm.rounded(eta, 0.0, P), zm.rounded(eta, 0.0, Q)
            base = zm.kappa_r(zm.signed_diff(Pr, Qr), 1.0).value
            for n in (2, 4, 8):
                LP = zm.power_lattice(zm.lattice_of(Pr), n)
                LQ = zm.power_lattice(zm.lattice_of(Qr), n)
                conv = zm.kappa_r(zm.signed_diff(LP, LQ), 1.0).value
                assert conv <= n * base + 1e-8

    def test_regularity_kolmogorov(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            P = zm.bernoulli(rng.uniform(0.1, 0.9))
            Q = zm.bernoulli(rng.uniform(0.1, 0.9))
            R = zm.atoms_law([(0.0, 0.5), (float(rng.integers(1, 4)), 0.5)])
            MR = zm.convolve_signed(zm.signed_diff(P, Q),
                                    zm.SignedMeasure([(1.0, R)]))
            base = zm.kolmogorov(zm.signed_diff(P, Q)).value
            assert zm.kolmogorov(MR).value <= base + 1e-10

    @pytest.mark.parametrize("eps", [0.05, 0.2])
    def test_gaussian_smoothing_zeta1(self, eps):
        P = zm.standardise(zm.bernoulli(0.3))
        Q = zm.standardise(zm.bernoulli(0.6))
        direct = zm.kappa_r(zm.signed_diff(P, Q), 1.0).value
        Ps = zm.conv2_law(P, zm.normal(0.0, eps))
        Qs = zm.conv2_law(Q, zm.normal(0.0, eps))
        smoothed = zm.kappa_r(zm.signed_diff(Ps, Qs), 1.0).value
        assert direct <= smoothed + 4 * eps / SQRT_2PI + 1e-8

    @pytest.mark.parametrize("n", [2, 4, 9])
    def test_zeta3_clt_rate(self, n):
        P = zm.standardise(zm.bernoulli(0.5))
        base = zm.zeta_r(zm.signed_diff(P, zm.STANDARD_NORMAL), 3).value
        Ln = zm.power_lattice(zm.lattice_of(P), n)
        Pn = zm.standardise(Ln)
        val = zm.zeta_r(zm.signed_diff(Pn, zm.STANDARD_NORMAL), 3).value
        assert val <= base / math.sqrt(n) + 1e-9

    def test_two_fold_kolmogorov_vs_wasserstein(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            P = random_standardised_lattice(rng)
            lhs = zm.clt_lhs(P, 2, mode="exact_lattice").value
            z1 = zm.kappa_r(zm.signed_diff(P, zm.STANDARD_NORMAL), 1.0).value
            assert lhs <= 4.0 / SQRT_2PI * z1 + 1e-9


class TestWassersteinLattice:
    def test_matches_kappa_route(self):
        B = zm.bernoulli(0.5)
        L = zm.lattice_of(B)
        v = zm.wasserstein_lattice_vs_normal(L, B.mean, B.std)
        k = zm.kappa_r(zm.signed_diff(zm.standardise(B), zm.STANDARD_NORMAL),
                       1.0).value
        assert abs(v - k) < 1e-12

    def test_lobe_ending_at_an_atom(self):
        # a random lattice law of the benchmark corpus (seed 8): F_M changes
        # sign just left of an atom, which a scan sampling F_M only at the
        # atom's right value merges into the neighbouring lobe
        P = zm.atoms_law([(0.0, 0.2710930016226632), (0.5, 0.1627878027831701),
                          (1.0, 0.06563403814873614), (1.5, 0.5004851574454304)])
        v = zm.wasserstein_lattice_vs_normal(zm.lattice_of(P), P.mean, P.std)
        k = zm.kappa_r(zm.signed_diff(zm.standardise(P), zm.STANDARD_NORMAL), 1.0)
        assert abs(k.value - v) <= k.err_est

    def test_cut_power_against_mpmath(self):
        # the exact value: a 40-digit mpmath cell sum over the binomial
        # weights of Binomial(1024, p) for the float p = 0.3; the full
        # support reached atoms of mass 1e-159, where the power's mass
        # defect of -5.6e-14 was integrated over a grid out to 43 sd
        B = zm.bernoulli(0.3)
        L = zm.power_lattice(B, 1024)
        v = zm.wasserstein_lattice_vs_normal(L, 1024 * B.mean, 32 * B.std)
        assert abs(v - 0.017649059747201456) <= 1e-12

    def test_power_consistency(self):
        B = zm.bernoulli(0.3)
        L16 = zm.power_lattice(zm.lattice_of(B), 16)
        v = zm.wasserstein_lattice_vs_normal(L16, 16 * B.mean, 4 * B.std)
        M = zm.signed_diff(zm.standardise(L16), zm.STANDARD_NORMAL)
        assert abs(v - zm.kappa_r(M, 1.0).value) < 1e-10
