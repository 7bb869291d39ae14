"""Rounding / histogram moment deltas and Wasserstein gaps."""

import math

import numpy as np
import pytest

import zetametrics as zm


def zeta1(A, B):
    return zm.kappa_r(zm.signed_diff(A, B), 1.0).value


class TestMomentDeltas:
    @pytest.mark.parametrize("base,eta,alpha", [
        (zm.normal(), 0.5, 0.0),
        (zm.normal(0.3, 1.7), 0.25, 0.4),
        (zm.gamma_power(2.0), 0.5, 0.0),
    ])
    def test_mass_mean_preserved_exactly(self, base, eta, alpha):
        R = zm.rounded(eta, alpha, base)
        H = zm.histogram(eta, alpha, base)
        assert abs((R.mu(0) - H.mu(0))) < 1e-13
        assert abs((R.mu(1) - H.mu(1))) < 1e-12

    @pytest.mark.parametrize("base,eta", [(zm.normal(), 0.5),
                                          (zm.gamma_power(3.0), 0.25)])
    def test_second_moment_delta(self, base, eta):
        R = zm.rounded(eta, 0.0, base)
        H = zm.histogram(eta, 0.0, base)
        assert abs((R.mu(2) - H.mu(2)) + eta * eta / 12.0) < 1e-12

    @pytest.mark.parametrize("base,eta", [(zm.normal(0.5, 1.0), 0.5),
                                          (zm.gamma_power(2.0), 0.25)])
    def test_third_moment_delta(self, base, eta):
        R = zm.rounded(eta, 0.0, base)
        H = zm.histogram(eta, 0.0, base)
        expect = -(eta * eta / 4.0) * R.mu(1)
        assert abs((R.mu(3) - H.mu(3)) - expect) < 1e-11


class TestRoundingGaps:
    def test_quarter_eta_exact_and_quadrature(self):
        P = zm.normal()
        gap = zeta1(zm.rounded(0.3, 0.0, P), zm.histogram(0.3, 0.0, P))
        assert abs(gap - 0.3 / 4.0) < 1e-8

    def test_gap_formula_independent_of_base(self):
        for base, eta in ((zm.normal(), 0.3), (zm.normal(), 0.1), (zm.gamma_power(2.0), 0.5),
                          (zm.uniform(-1, 2), 0.5), (zm.gamma_power(4.0), 0.25)):
            gap = zeta1(zm.rounded(eta, 0.0, base), zm.histogram(eta, 0.0, base))
            assert abs(gap - eta / 4.0) <= 1e-12, (base, eta)

    def test_rounding_gap_first_order(self):
        P = zm.normal()
        ratio = zeta1(zm.rounded(0.01, 0.0, P), P) / (0.01 / 4.0)
        assert 0.99 <= ratio <= 1.01

    def test_standardised_gap_reference(self):
        P = zm.normal()
        Prd = zm.rounded(0.1, 0.0, P)
        ratio = zeta1(zm.standardise(Prd), zm.standardise(P)) * 4.0 * Prd.std / 0.1
        assert 0.99 <= ratio <= 1.01
        # Sheppard: sigma^2(P_rd) ~ 1 + eta^2/12
        assert abs(Prd.std ** 2 - (1 + 0.01 / 12.0)) < 1e-5


class TestTailDiscretised:
    def test_example_gap_vanishes_with_eta(self):
        # N with only its tails |x| > t rounded; zeta_1 v zeta_3 of the
        # standardised difference to N goes to 0 as eta does
        t = 2.0
        eps = 2 * float(zm.std_normal_cdf(-t))
        core = zm.truncate(zm.normal(), -t, t)
        tails = zm.mixture([(0.5, zm.reflect(zm.truncated_normal_left(-t))),
                            (0.5, zm.truncated_normal_left(-t))])
        vals = {}
        for eta in (0.1, 0.02):
            P = zm.mixture([(1 - eps, core), (eps, zm.rounded(eta, 0.0, tails))])
            M = zm.signed_diff(zm.standardise(P), zm.STANDARD_NORMAL)
            z1 = zm.kappa_r(M, 1.0).value
            z3 = zm.zeta_r(M, 3).value
            vals[eta] = max(z1, z3)
        assert vals[0.02] < vals[0.1] < 2e-3
        assert vals[0.02] < 4e-4

    def test_kappa_dominates_zeta_here(self):
        # for the tail-discretised law the zeta-based RHS beats the
        # kappa-based RHS by better than a factor two
        t, eta = 2.0, 0.02
        eps = 2 * float(zm.std_normal_cdf(-t))
        core = zm.truncate(zm.normal(), -t, t)
        tails = zm.mixture([(0.5, zm.reflect(zm.truncated_normal_left(-t))),
                            (0.5, zm.truncated_normal_left(-t))])
        P = zm.mixture([(1 - eps, core), (eps, zm.rounded(eta, 0.0, tails))])
        M = zm.signed_diff(zm.standardise(P), zm.STANDARD_NORMAL)
        z1 = zm.kappa_r(M, 1.0).value
        z3 = zm.zeta_r(M, 3).value
        k3 = zm.kappa_r(M, 3.0).value
        be_main_rhs = 9.0 * max(z1, z3)
        be_kappa_rhs = max(9.0 * z1, 1.5 * k3)
        assert be_main_rhs < 0.5 * be_kappa_rhs
