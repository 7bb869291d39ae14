"""Randomised properties of the metrics and of the rounding operators, and
the batched root finder of ``sign_roots`` against its one-bracket loop."""

import math

import numpy as np
from hypothesis import assume, given, settings, strategies as st

import zetametrics as zm
from zetametrics import numerics as nm

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
    assert abs(zm.kappa_r(M.translated(a), 1.0).value - k1) <= slack
    assert abs(zm.kappa_r(M.scaled(lam), 1.0).value - lam * k1) <= slack


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
    assert abs(zm.zeta_r(M.translated(a), r).value - z) <= slack
    assert abs(zm.zeta_r(M.scaled(lam), r).value - lam ** r * z) <= slack


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
    """The one-bracket secant/bisection loop on Python floats, as find_root
    ran before brackets were batched: the reference for the iterates."""
    fa, fb = f(a), f(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    use_secant = True
    for _ in range(max_iter):
        if abs(b - a) <= tol * (1.0 + abs(a) + abs(b)):
            break
        if use_secant and fb != fa:
            x = b - fb * (b - a) / (fb - fa)
            pad = 0.01 * (b - a)
            x = min(max(x, min(a, b) + pad), max(a, b) - pad)
        else:
            x = 0.5 * (a + b)
        fx = f(x)
        if fx == 0.0:
            return x
        if fa * fx < 0:
            b, fb = x, fx
        else:
            a, fa = x, fx
        use_secant = not use_secant
    return 0.5 * (a + b)


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
    stack = zm.build_zeta_stack(M, r)
    xs = nm.refine_grid(stack.grid, 6)
    count = 0
    for k in levels:
        roots, _ = nm.sign_roots(stack.F(k), xs)
        assert roots == one_bracket_roots(stack.F(k), xs, nm.find_root)
        assert roots == one_bracket_roots(stack.F(k), xs, scalar_find_root)
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
