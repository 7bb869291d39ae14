"""Randomised properties of the metrics and of the rounding operators."""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

import zetametrics as zm

FEW = settings(max_examples=25, deadline=None)


@st.composite
def atomic_laws(draw):
    n = draw(st.integers(1, 5))
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
