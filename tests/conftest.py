"""Shared fixtures: the lattice test corpus, cached distance profiles and
the closed Kolmogorov distance of two centred normals."""

import math

import pytest

import zetametrics as zm


def build_corpus():
    """>= 30 lattice laws: Bernoullis, rounded normals, rounded gammas,
    and a few hand-made atomic laws."""
    laws = []
    for p in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9):
        laws.append((f"bernoulli({p})", zm.bernoulli(p)))
    for eta in (0.25, 0.5, 1.0):
        laws.append((f"rounded_normal(eta={eta})",
                     zm.rounded(eta, 0.0, zm.normal())))
    for eta in (0.25, 0.5, 1.0):
        laws.append((f"rounded_normal(eta={eta},alpha=0.3)",
                     zm.rounded(eta, 0.3, zm.normal())))
    for a in (1.0, 2.0, 4.0):
        for eta in (0.25, 0.5, 1.0):
            laws.append((f"rounded_gamma(a={a},eta={eta})",
                         zm.rounded(eta, 0.0, zm.gamma_power(a))))
    for eta in (0.5, 1.0):
        laws.append((f"rounded_normal(1,1.5,eta={eta})",
                     zm.rounded(eta, 0.0, zm.normal(1.0, 1.5))))
    laws.append(("three_atoms_a", zm.atoms_law([(-1.0, 0.2), (0.0, 0.5), (2.0, 0.3)])))
    laws.append(("three_atoms_b", zm.atoms_law([(0.0, 0.25), (1.0, 0.5), (3.0, 0.25)])))
    laws.append(("binomial_2_half", zm.atoms_law([(0.0, 0.25), (1.0, 0.5), (2.0, 0.25)])))
    laws.append(("uniform_lattice_4", zm.atoms_law([(0.0, 0.25), (1.0, 0.25),
                                                    (2.0, 0.25), (3.0, 0.25)])))
    return laws


@pytest.fixture(scope="session")
def corpus():
    laws = build_corpus()
    assert len(laws) >= 30
    return laws


@pytest.fixture(scope="session")
def corpus_profiles(corpus):
    """NormalDistanceProfile per corpus law, computed once per session."""
    return {name: zm.distance_profile(law) for name, law in corpus}


@pytest.fixture(scope="session")
def kolmogorov_normal_pair():
    """||N(0, sigma^2) - N(0, tau^2)||_K = Phi(omega x) - Phi(x) in closed
    form, omega = max/min of the scales, x where the two densities cross:
    an oracle for zm.kolmogorov on normal pairs."""
    def closed_form(sigma, tau):
        omega = max(sigma, tau) / min(sigma, tau)
        if omega == 1.0:
            return 0.0
        x = math.sqrt(2.0 * math.log(omega) / (omega * omega - 1.0))
        Phi = lambda z: 0.5 * math.erfc(-z / math.sqrt(2.0))
        return Phi(omega * x) - Phi(x)
    return closed_form
