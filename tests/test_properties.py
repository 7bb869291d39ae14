"""Randomised properties of the metrics and of the rounding operators, the
batched root finder of ``sign_roots`` and the lockstep golden section
against their one-bracket loops, and the early decline of
``zeta3_cut_criterion`` against the path without it."""

import math

import numpy as np
from hypothesis import assume, given, settings, strategies as st

import zetametrics as zm
from zetametrics import numerics as nm
from zetametrics.metrics import _certified_sign_count, _integrated_cdfs, metric_grid

FEW = settings(max_examples=25, deadline=None)


@st.composite
def atomic_laws(draw, min_atoms=1):
    n = draw(st.integers(min_atoms, 5))
    locs = draw(st.lists(st.floats(-5.0, 5.0), min_size=n, max_size=n))
    w = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n)))
    return zm.atoms_law(list(zip(locs, (w / w.sum()).tolist())))


@FEW
@given(atomic_laws(), atomic_laws(),
       st.lists(st.floats(-6.0, 6.0), min_size=1, max_size=20))
def test_kolmogorov_between_samples_and_half_variation(P, Q, xs):
    M = zm.signed_diff(P, Q)
    K = zm.kolmogorov(M).value
    assert K <= min(1.0, 0.5 * zm.nu_r_signed(M, 0).value) + 1e-12
    # the sup dominates |F_M| and its left limits at every point
    for f in (M.cdf, M.cdf_left):
        assert np.max(np.abs(f(np.array(xs)))) <= K + 1e-12


@FEW
@given(atomic_laws(), atomic_laws(), st.floats(-3.0, 3.0), st.floats(0.1, 10.0))
def test_kappa1_translation_invariant_and_homogeneous(P, Q, a, lam):
    M = zm.signed_diff(P, Q)
    k1 = zm.kappa_r(M, 1.0).value
    slack = 1e-9 * max(1.0, lam * k1)
    assert abs(zm.kappa_r(zm.affine(1.0, a, M), 1.0).value - k1) <= slack
    assert abs(zm.kappa_r(zm.affine(lam, 0.0, M), 1.0).value - lam * k1) <= slack


@st.composite
def standardised_atomic_laws(draw):
    P = draw(atomic_laws(min_atoms=2))
    assume(P.std > 0.05)
    return zm.standardise(P)


@FEW
@given(standardised_atomic_laws(), standardised_atomic_laws(), st.sampled_from([2, 3]),
       st.floats(-3.0, 3.0), st.floats(0.1, 10.0))
def test_zeta_r_translation_invariant_and_homogeneous(P, Q, r, a, lam):
    # equal means and variances make mu_0 .. mu_2 of P - Q vanish, so
    # zeta_2 and zeta_3 are finite; zeta_r(M o (x -> lam x)) = lam^r zeta_r(M)
    M = zm.signed_diff(P, Q)
    z = zm.zeta_r(M, r).value
    slack = 1e-9 * max(1.0, lam ** r * z)
    assert abs(zm.zeta_r(zm.affine(1.0, a, M), r).value - z) <= slack
    assert abs(zm.zeta_r(zm.affine(lam, 0.0, M), r).value - lam ** r * z) <= slack


@FEW
@given(st.one_of(st.builds(zm.normal, st.floats(-2.0, 2.0), st.floats(0.3, 3.0)),
                 st.builds(zm.gamma_power, st.floats(1.0, 5.0))),
       st.floats(0.05, 1.5), st.floats(0.0, 0.99))
def test_rounding_mass_and_mean(base, eta, alpha):
    R = zm.rounded(eta, alpha, base)
    H = zm.histogram(eta, alpha, base)
    assert abs(sum(w for _, w in R.atoms()) - 1.0) <= 1e-12
    assert abs(float(H.cdf(H.support()[1])) - 1.0) <= 1e-12
    # rounding moves every point by at most eta/2; spreading each cell
    # mass uniformly keeps the mean and adds eta^2/12 to the second moment
    assert abs(R.mu(1) - base.mu(1)) <= eta / 2 + 1e-12
    assert abs(H.mu(1) - R.mu(1)) <= 1e-12 * max(1.0, abs(R.mu(1)))
    assert math.isclose(H.mu(2), R.mu(2) + eta * eta / 12, rel_tol=1e-12)


def scalar_find_root(f, a, b, tol, max_iter=200):
    """The one-bracket secant/bisection loop on Python floats, with the sign
    test of find_root (signs compared, not multiplied): the reference for
    the iterates."""
    fa, fb = f(a), f(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    use_secant = True
    for _ in range(max_iter):
        if abs(b - a) <= tol * (1.0 + abs(a) + abs(b)):
            break
        if use_secant:
            x = b - fb * (b - a) / (fb - fa)
            pad = 0.01 * (b - a)
            x = min(max(x, min(a, b) + pad), max(a, b) - pad)
        else:
            x = 0.5 * (a + b)
        fx = f(x)
        if fx == 0.0:
            return x
        if (fa < 0) != (fx < 0):
            b, fb = x, fx
        else:
            a, fa = x, fx
        use_secant = not use_secant
    return 0.5 * (a + b)


def scalar_golden_section(f, a, b, tol=1e-10, max_iter=200):
    """The one-bracket golden-section loop on Python floats: the reference
    for the iterates of the lockstep search."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(max_iter):
        if abs(b - a) < tol * (1.0 + abs(a) + abs(b)):
            break
        if f1 < f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = f(x2)
    if f1 < f2:
        return x1, f1
    return x2, f2


@st.composite
def unimodal_functions(draw):
    """(f on floats, the same f vectorised): s (x - m)^2 + c (|x - m| - h)_+,
    built from correctly rounded operations only, so that both give the
    same bits; s = 0 < h gives a flat bottom, where f1 == f2 ties."""
    m = draw(st.floats(-5.0, 5.0))
    s, c = (draw(st.one_of(st.just(0.0), st.floats(0.01, 10.0))) for _ in range(2))
    h = draw(st.one_of(st.just(0.0), st.floats(0.0, 2.0)))
    return (lambda x: s * ((x - m) * (x - m)) + c * max(abs(x - m) - h, 0.0),
            lambda x: s * ((x - m) * (x - m)) + c * np.maximum(np.abs(x - m) - h, 0.0))


@FEW
@given(unimodal_functions(),
       st.lists(st.tuples(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0)),
                min_size=1, max_size=6),
       st.sampled_from([1e-13, 1e-10, 1e-6, 0.1]), st.sampled_from([0, 1, 5, 200]))
def test_lockstep_golden_section_matches_loop(fns, brackets, tol, max_iter):
    f_float, f_vec = fns
    a, b = (np.array(ends) for ends in zip(*(sorted(p) for p in brackets)))
    sizes = []
    xs, vs = nm.golden_section(lambda x: sizes.append(x.size) or f_vec(x), a, b,
                               tol=tol, max_iter=max_iter)
    got = list(zip(xs.tolist(), vs.tolist()))
    pairs = list(zip(a.tolist(), b.tolist()))
    assert got == [scalar_golden_section(f_float, lo, hi, tol, max_iter) for lo, hi in pairs]
    assert got == [nm.golden_section(f_float, lo, hi, tol=tol, max_iter=max_iter)
                   for lo, hi in pairs]
    # both interior points of every bracket first, then one point per open
    # bracket a step
    assert sizes[0] == 2 * a.size and len(sizes) <= max_iter + 1
    assert all(0 < n <= m for n, m in zip(sizes[1:], [a.size] + sizes[1:]))


def test_kolmogorov_polish_is_one_call_per_step(monkeypatch):
    """kolmogorov(M * M) for Zolotarev's M polishes its candidate maxima
    together: one M.cdf call per search step, on the 193 points that one
    search per candidate sees in as many calls; the sup stays 1/4."""
    from zetametrics import metrics
    from zetametrics.paper_tables import zolotarev_measure
    M = zolotarev_measure()
    MM = zm.convolve_signed(M, M)
    cdf, sizes, brackets, first = MM.cdf, [], [], []

    def recording(f, a, b, **kw):
        brackets.extend(zip(a.tolist(), b.tolist()))
        first.append(len(sizes))
        return nm.golden_section(f, a, b, **kw)

    monkeypatch.setattr(metrics, "golden_section", recording)
    MM.cdf = lambda x: sizes.append(np.size(x)) or cdf(x)
    v = zm.kolmogorov(MM, n_base=384)
    assert v.value.hex() == "0x1.0000000000000p-2"
    polish = sizes[first[0]:]
    lone = []
    for lo, hi in brackets:
        calls = []
        scalar_golden_section(lambda t: calls.append(t) or -abs(float(cdf(t))), lo, hi, tol=1e-13)
        lone.append(len(calls))
    assert len(brackets) == 4 and sum(lone) == 193
    assert sum(polish) == sum(lone) and polish[0] == 2 * len(brackets)
    assert len(polish) == max(lone) - 1 <= 201       # max_iter + 1


def one_bracket_roots(f, xs, find):
    """sign_roots as a loop of one-bracket ``find`` calls on floats."""
    vals = f(xs)
    _, _, pairs = nm.scan_sign_changes(vals, 1e-11 * float(np.max(np.abs(vals)) or 1.0))
    return [find(lambda t: float(f(t)), float(xs[i]), float(xs[j]), tol=1e-13)
            for i, j in pairs]


def assert_batched_roots_match(M, r, levels):
    """Batched roots of the levels F_k of the zeta_r stack of M equal those
    of one-bracket find_root calls and of the reference loop, on the points
    that zeta_r and kappa_1 scan; returns how many roots were compared."""
    grid = metric_grid(M)
    stack, _, _ = _integrated_cdfs(M, grid, r + 1, zm.DEFAULT_TOL, "auto")
    xs = nm.refine_grid(grid, 6)
    count = 0
    for k in levels:
        roots, _ = nm.sign_roots(stack[k - 1], xs)
        assert roots == one_bracket_roots(stack[k - 1], xs, nm.find_root)
        assert roots == one_bracket_roots(stack[k - 1], xs, scalar_find_root)
        count += len(roots)
    return count


def test_batched_roots_match_loop_example_1_4():
    # the eta = 0.01 row of example 1.4, on the level zeta_3 segments
    P = zm.standardise(zm.rounded(0.01, 0.0, zm.normal()))
    assert assert_batched_roots_match(zm.signed_diff(P, zm.normal()), 3, [3]) > 1000


def test_batched_roots_match_loop_corpus_law():
    # rounded_normal(eta=0.25,alpha=0.3) of the test corpus
    P = zm.standardise(zm.rounded(0.25, 0.3, zm.normal()))
    assert assert_batched_roots_match(zm.signed_diff(P, zm.normal()), 3, [1, 2, 3]) > 100


@FEW
@given(standardised_atomic_laws(), st.sampled_from([2, 3]))
def test_batched_roots_match_loop_atomic(P, r):
    assert_batched_roots_match(zm.signed_diff(P, zm.normal()), r, range(1, r + 1))


def full_path_cut(P):
    """zeta3_cut_criterion without its early decline, for a law outside the
    symmetric-density branch: (value, coarse), where value is |mu_3| / 6
    when the 8x re-sample certifies at most two alternations of F~ - Phi,
    else None, and coarse is the alternation count on the grid alone."""
    Pt = zm.standardise(P)
    M = zm.signed_diff(Pt, zm.STANDARD_NORMAL)
    grid = metric_grid(M, n_base=1024)
    vals = M.cdf(grid)
    band = 1e-9 * float(np.max(np.abs(vals)))
    coarse, _, _ = nm.scan_sign_changes(vals, band)
    count, _, certified = _certified_sign_count(M.cdf, grid, coarse, band)
    mu3 = Pt.mu(3)
    value = abs(mu3) / 6.0 if certified and count <= 2 and abs(mu3) > 1e-8 else None
    return value, coarse


def assert_cut_matches_full_path(P):
    """The cut criterion of P equals full_path_cut; returns full_path_cut
    (a coarse count above 2 means the early decline answered)."""
    Pt = zm.standardise(P)
    assert Pt.atoms() or abs(Pt.mu(3)) > 1e-8      # no symmetric-density branch
    cut = zm.zeta3_cut_criterion(P)
    value, coarse = full_path_cut(P)
    assert (None if cut is None else cut.value) == value
    return value, coarse


def test_cut_early_decline_corpus(corpus):
    for _, P in corpus:
        assert assert_cut_matches_full_path(P)[1] > 2


def test_cut_early_decline_paper_laws():
    # the example 1.4 rows decline early; the laws of criterion 4 and a
    # truncated normal are certified after the re-sample
    for eta in (1.0, 0.1, 0.01):
        assert assert_cut_matches_full_path(zm.rounded(eta, 0.0, zm.normal()))[1] > 2
    for P in (zm.gamma_power(1.0), zm.gamma_power(4.0), zm.truncated_normal_left(2.0)):
        value, coarse = assert_cut_matches_full_path(P)
        assert value is not None and coarse <= 2


@FEW
@given(atomic_laws(min_atoms=2))
def test_cut_early_decline_lattice(P):
    assume(P.std > 0.05)
    assert_cut_matches_full_path(P)
