"""Law families and the bounded-signed-measure algebra.

A ``LawSpec`` is an immutable constructor tree for a probability law on
the real line: elementary families (dirac, atoms, lattice, bernoulli,
normal, uniform, power-transformed gamma, Subbotin) plus structural
nodes (mixture, affine image, rounding, histogram, truncation, two-fold
convolution).  Every law exposes exact CDF / left CDF evaluation, its
atom list and continuous density, moments, and an effective support
window.  Moments rest on one primitive, the closed partial moment
E[X^k; X <= x] (``partial_mu``) of the normal (at every order), uniform,
gamma_power and histogram laws and of truncations and affine images of
these: mu_k is its value at x = inf, and nu_r is mu_r for even r and
mu_r - 2 E[X^r; X <= 0] for odd r.  Exact closed full moments (of the
atomic, normal, Subbotin, mixture and two-fold convolution laws) stand
in for it; any other moment is integrated.  ``SignedMeasure`` is a
finite real linear combination of laws and a ``LawSpec`` itself;
``Mixture`` is the signed measure whose coefficients are probability
weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partialmethod
from typing import List, Sequence, Tuple

import numpy as np

from .numerics import (DomainError, Tolerance, find_root,
                       integrate, on_array, reg_incomplete_gamma,
                       std_normal_cdf, std_normal_partial_moments, std_normal_pdf,
                       std_normal_quantile)

ATOM_MERGE_RTOL = 1e-12
SUPPORT_EPS = 1e-15
ROUNDING_TAIL_MASS = 1e-14    # base mass a rounding may leave outside its cells
MAX_LATTICE_ENTRIES = 100_000_000   # cells of a rounding, entries of a lattice power


class MeasureError(Exception):
    pass


class DegenerateLawError(MeasureError):
    """Standardisation of a zero-variance law was requested."""


class InfiniteMomentError(MeasureError):
    pass


# -- base class ---------------------------------------------------------------

def _frozen(v):
    """A to_dict() value with its dicts and lists turned into tuples."""
    if isinstance(v, dict):
        return tuple(sorted((k, _frozen(x)) for k, x in v.items()))
    if isinstance(v, list):
        return tuple(_frozen(x) for x in v)
    return v


class LawSpec:
    """Abstract probability law.  Subclasses are immutable value objects.

    ``cdf``, ``cdf_left`` and ``pdf`` give a float for a scalar x and an
    array of x's shape for an array; subclasses implement ``_cdf``,
    ``_cdf_left`` and ``_pdf`` on 1-D float arrays.
    """

    family: str = "abstract"

    # -- distribution surface
    def cdf(self, x):
        return on_array(self._cdf, x)

    def cdf_left(self, x):
        return on_array(self._cdf_left, x)

    def pdf(self, x):
        return on_array(self._pdf, x)

    def _cdf(self, x):
        raise NotImplementedError

    def _cdf_left(self, x):
        atoms = self.atoms()
        if not atoms:
            return self.cdf(x)
        out = self.cdf(x).copy()
        for loc, w in atoms:
            out[np.isclose(x, loc, rtol=0, atol=ATOM_MERGE_RTOL * max(1.0, abs(loc)))] -= w
        return np.clip(out, 0.0, 1.0)

    def _pdf(self, x):
        return np.zeros_like(x)

    @property
    def has_density(self) -> bool:
        return False

    def atoms(self) -> List[Tuple[float, float]]:
        return []

    def density_breakpoints(self) -> List[float]:
        return []

    def density_singularities(self) -> List[float]:
        """Points where the density blows up (integrably)."""
        return []

    def support(self, eps: float = SUPPORT_EPS) -> Tuple[float, float]:
        raise NotImplementedError

    # -- moments: from partial_mu where a law has one, else by quadrature
    def partial_mu(self, k: int, x: float) -> float:
        """Partial moment E[X^k; X <= x] in closed form; NotImplementedError
        where a law has none."""
        raise NotImplementedError

    def mu(self, k: int) -> float:
        """Signed moment E X^k for k in 0..4."""
        if k == 0:
            return 1.0
        try:
            return self.partial_mu(k, math.inf)
        except NotImplementedError:
            return self._moment_quad(k, absolute=False)

    def nu(self, r: int) -> float:
        """Absolute moment E |X|^r for integer r in 0..4: mu(r) for even r,
        mu(r) - 2 E[X^r; X <= 0] for odd r."""
        if r % 2 == 0:
            return self.mu(r)
        try:
            below = self.partial_mu(r, 0.0)
        except NotImplementedError:
            return self._moment_quad(r, absolute=True)
        return self.mu(r) - 2.0 * below

    @property
    def mean(self) -> float:
        return self.mu(1)

    @property
    def variance(self) -> float:
        return max(self.mu(2) - self.mu(1) ** 2, 0.0)

    @property
    def std(self) -> float:
        return math.sqrt(self.variance)

    # -- serialization
    def to_dict(self) -> dict:
        raise NotImplementedError

    def __repr__(self):
        return f"{type(self).__name__}({self.to_dict()})"

    def __eq__(self, other):
        return isinstance(other, LawSpec) and self.to_dict() == other.to_dict()

    def __hash__(self):
        # equal to_dict() values hash alike (1 == 1.0), unlike their reprs
        return hash(_frozen(self.to_dict()))

    def _moment_quad(self, k: int, absolute: bool) -> float:
        lo, hi = self.support(1e-16)
        total = sum(w * (abs(a) ** k if absolute else a ** k) for a, w in self.atoms())
        if self.has_density:
            f = lambda x: (np.abs(x) if absolute else x) ** k * self.pdf(x)
            v, _ = integrate(f, lo, hi, Tolerance(1e-11, 1e-10),
                             breakpoints=self.density_breakpoints() + [0.0],
                             singularities=self.density_singularities())
            total += v
        return total


# -- elementary families ------------------------------------------------------

class Atoms(LawSpec):
    """Finite purely atomic law; locations sorted, nearby ones merged."""

    family = "atoms"

    def __init__(self, points: Sequence[Tuple[float, float]]):
        pts = [(float(x), float(w)) for x, w in points if w != 0.0]
        if any(w < 0 for _, w in pts):
            raise DomainError("atom weights must be >= 0")
        merged = merge_atoms(pts)
        total = sum(w for _, w in merged)
        if abs(total - 1.0) > 1e-9:
            raise DomainError(f"atom weights must sum to 1, got {total}")
        self._locs = np.array([x for x, _ in merged])
        self._wts = np.array([w for _, w in merged])
        self._cum = np.concatenate([[0.0], np.cumsum(self._wts)])

    def _cdf(self, x, side="right"):
        return self._cum[np.searchsorted(self._locs, x, side=side)]

    def _cdf_left(self, x):
        return self._cdf(x, side="left")

    def atoms(self):
        return list(zip(self._locs.tolist(), self._wts.tolist()))

    def support(self, eps=SUPPORT_EPS):
        return (float(self._locs[0]), float(self._locs[-1]))

    def mu(self, k):
        return float(np.sum(self._wts * self._locs ** k))

    def nu(self, r):
        return float(np.sum(self._wts * np.abs(self._locs) ** r))

    def to_dict(self):
        return {"family": "atoms",
                "points": [[x, w] for x, w in self.atoms()]}


class Dirac(Atoms):
    family = "dirac"

    def __init__(self, a: float):
        self.a = a
        super().__init__([(a, 1.0)])

    # Python's a ** k, not numpy's power: they differ in the last bit
    def mu(self, k):
        return self.a ** k

    def nu(self, r):
        return abs(self.a) ** r

    def to_dict(self):
        return {"family": "dirac", "a": self.a}


class Lattice(Atoms):
    """Law on shift + span * {0, 1, ..., len(weights) - 1}.

    The atom arrays ``_locs``, ``_wts`` and ``_cum`` cover the nonzero
    weights and are made on first use, so lattice powers that are only
    convolved never build them.  ``fft_size`` is the transform length of
    an FFT-formed power (0 otherwise), ``noise_floor`` the level at or
    below which its entries were set to zero, ``window`` the index range
    ``[lo, hi)`` of the full support that a power's weights span, on
    either engine (None for a law that is no power), and ``cuts`` the
    number of the power's factors cut to their windows.
    """

    family = "lattice"
    fft_size = 0
    noise_floor = 0.0
    window = None
    cuts = 0

    def __init__(self, shift: float, span: float, weights: Sequence[float]):
        if not span > 0:
            raise DomainError("lattice span must be > 0")
        w = np.asarray(weights, dtype=float)
        if np.any(w < 0):
            raise DomainError("lattice weights must be >= 0")
        if abs(float(w.sum()) - 1.0) > 1e-9:
            raise DomainError("lattice weights must sum to 1")
        self.shift = float(shift)
        self.span = float(span)
        self.weights = w

    @cached_property
    def _locs(self):
        return self.shift + self.span * np.flatnonzero(self.weights > 0)

    @cached_property
    def _wts(self):
        return self.weights[self.weights > 0]

    @cached_property
    def _cum(self):
        return np.concatenate([[0.0], np.cumsum(self._wts)])

    def to_dict(self):
        return {"family": "lattice", "shift": self.shift, "span": self.span,
                "weights": self.weights.tolist()}


class Bernoulli(Lattice):
    family = "bernoulli"

    def __init__(self, p: float):
        if not 0.0 <= p <= 1.0:
            raise DomainError(f"bernoulli needs p in [0,1], got {p}")
        self.p = p
        super().__init__(0.0, 1.0, [1.0 - p, p])

    def to_dict(self):
        return {"family": "bernoulli", "p": self.p}


@dataclass(frozen=True, eq=False)
class Normal(LawSpec):
    mu_loc: float = 0.0
    sigma: float = 1.0
    family = "normal"

    def __post_init__(self):
        if self.sigma <= 0:
            raise DomainError(f"normal needs sigma > 0, got {self.sigma}")

    def _cdf(self, x):
        return std_normal_cdf((x - self.mu_loc) / self.sigma)

    def _pdf(self, x):
        return std_normal_pdf((x - self.mu_loc) / self.sigma) / self.sigma

    @property
    def has_density(self):
        return True

    def support(self, eps=SUPPORT_EPS):
        # the floor sits below 1e-300: a truncation asks for 1e-300 of its own mass
        q = abs(std_normal_quantile(min(max(eps, 1e-305), 0.5)))
        return (self.mu_loc - q * self.sigma, self.mu_loc + q * self.sigma)

    def mu(self, k):
        m, s = self.mu_loc, self.sigma
        if k == 0:
            return 1.0
        if k == 1:
            return m
        if k == 2:
            return m * m + s * s
        if k == 3:
            return m ** 3 + 3 * m * s * s
        if k == 4:
            return m ** 4 + 6 * m * m * s * s + 3 * s ** 4
        return super().mu(k)

    def partial_mu(self, k: int, x: float) -> float:
        """E[X^k; X <= x]: the binomial expansion in mu_loc and sigma of the
        standard normal's E[Z^j; Z <= z].  z is clamped to [-40, 40], where
        both moments saturate, as std_normal_cdf does."""
        z = min(max((x - self.mu_loc) / self.sigma, -40.0), 40.0)
        low = std_normal_partial_moments(z, k + 1)
        m, s = self.mu_loc, self.sigma
        return sum(math.comb(k, j) * m ** (k - j) * s ** j * low[j] for j in range(k + 1))

    def to_dict(self):
        return {"family": "normal", "mu": self.mu_loc, "sigma": self.sigma}


@dataclass(frozen=True, eq=False)
class Uniform(LawSpec):
    a: float
    b: float
    family = "uniform"

    def __post_init__(self):
        if not self.a < self.b:
            raise DomainError(f"uniform needs a < b, got [{self.a}, {self.b}]")

    def _cdf(self, x):
        return np.clip((x - self.a) / (self.b - self.a), 0.0, 1.0)

    def _pdf(self, x):
        return np.where((x >= self.a) & (x <= self.b), 1.0 / (self.b - self.a), 0.0)

    @property
    def has_density(self):
        return True

    def density_breakpoints(self):
        return [self.a, self.b]

    def support(self, eps=SUPPORT_EPS):
        return (self.a, self.b)

    def partial_mu(self, k, x):
        a, b = self.a, self.b
        return (min(max(x, a), b) ** (k + 1) - a ** (k + 1)) / ((k + 1) * (b - a))

    def to_dict(self):
        return {"family": "uniform", "a": self.a, "b": self.b}


@dataclass(frozen=True, eq=False)
class GammaPower(LawSpec):
    """Power-transformed gamma: X = G^(1/beta) with G ~ Gamma(alpha, lam)."""

    alpha: float
    lam: float = 1.0
    beta: float = 1.0
    family = "gamma_power"

    def __post_init__(self):
        if self.alpha <= 0 or self.lam <= 0 or self.beta == 0:
            raise DomainError("gamma_power needs alpha > 0, lam > 0, beta != 0")

    def _power(self, x):
        """x ** beta; a tiny x with beta < 0 overflows to inf, the limit that
        makes cdf and pdf 0 there."""
        with np.errstate(over="ignore"):
            return x ** self.beta

    def _cdf(self, x):
        out = np.zeros_like(x)
        pos = x > 0
        vals = reg_incomplete_gamma(self.alpha, self.lam * self._power(x[pos]))
        out[pos] = vals if self.beta > 0 else 1.0 - vals
        return out

    def _pdf(self, x):
        out = np.zeros_like(x)
        pos = x > 0
        la, a, b = self.lam, self.alpha, self.beta
        v = x[pos]
        out[pos] = np.exp(a * math.log(la) + (a * b - 1.0) * np.log(v)
                          - la * self._power(v) - math.lgamma(a)) * abs(b)
        return out

    @property
    def has_density(self):
        return True

    def density_breakpoints(self):
        return [0.0]

    def density_singularities(self):
        return [0.0] if self.alpha * self.beta < 1.0 else []

    def support(self, eps=SUPPORT_EPS):
        eps = min(max(eps, 1e-300), 1e-3)
        a = self.alpha

        def q_upper(p):
            lo, hi = 0.0, max(a, 1.0)
            while reg_incomplete_gamma(a, hi) < p:
                hi *= 2.0
                if hi > 1e8:
                    break
            return find_root(lambda u: reg_incomplete_gamma(a, u) - p,
                             lo, hi, tol=1e-13)

        def q_lower(p):
            # P(a, u) ~ u^a / (a Gamma(a)) for small u; exact enough for
            # tail cut-offs and immune to absolute root-finder floors
            u = math.exp((math.log(p) + math.log(a) + math.lgamma(a)) / a)
            return u if u < 0.1 * max(a, 1.0) else q_upper(p)

        qlo, qhi = q_lower(eps), q_upper(1.0 - eps)
        xlo = (qlo / self.lam) ** (1.0 / self.beta)
        xhi = (qhi / self.lam) ** (1.0 / self.beta)
        lo, hi = sorted((xlo, xhi))
        return (max(lo, 0.0) if self.beta > 0 else lo, hi)

    def moment_exists(self, r: float) -> bool:
        return self.alpha + r / self.beta > 0

    def partial_mu(self, k: int, x: float) -> float:
        """E[X^k 1_{X <= x}] in closed form (needed because for
        alpha*beta < 1 the density packs mass unresolvably close to 0)."""
        if k == 0:
            return float(self.cdf(x))
        full = self.nu(k)            # raises InfiniteMomentError where it is infinite
        if x <= 0:
            return 0.0
        a_shift = self.alpha + k / self.beta
        p = reg_incomplete_gamma(a_shift, self.lam * self._power(np.float64(x)))
        return full * (p if self.beta > 0 else 1.0 - p)

    def nu(self, r):
        if r == 0:
            return 1.0
        if not self.moment_exists(r):
            raise InfiniteMomentError(
                f"nu_{r} of gamma_power(alpha={self.alpha}, beta={self.beta}) "
                f"is infinite (needs alpha + r/beta > 0)")
        # Gamma(alpha + r/beta) / Gamma(alpha); both arguments are > 0 here
        return self.lam ** (-r / self.beta) * math.exp(
            math.lgamma(self.alpha + r / self.beta) - math.lgamma(self.alpha))

    def to_dict(self):
        return {"family": "gamma_power", "alpha": self.alpha,
                "lambda": self.lam, "beta": self.beta}


@dataclass(frozen=True, eq=False)
class SubbotinLaw(LawSpec):
    """Density ~ exp(-|x/scale|^beta); beta = inf handled by Uniform."""

    beta: float
    scale: float = 1.0
    family = "subbotin"

    def __post_init__(self):
        if self.beta <= 0 or math.isinf(self.beta):
            raise DomainError("SubbotinLaw needs finite beta > 0 "
                              "(use subbotin() for beta = inf)")
        if self.scale <= 0:
            raise DomainError("subbotin needs scale > 0")

    def _cdf(self, x):
        half = reg_incomplete_gamma(1.0 / self.beta, (np.abs(x) / self.scale) ** self.beta)
        return 0.5 + 0.5 * np.sign(x) * half

    def _pdf(self, x):
        b, a = self.beta, self.scale
        c = b / (2.0 * a * math.gamma(1.0 / b))
        return c * np.exp(-np.power(np.abs(x / a), b))

    @property
    def has_density(self):
        return True

    def density_breakpoints(self):
        return [0.0]

    def support(self, eps=SUPPORT_EPS):
        eps = min(max(eps, 1e-300), 1e-3)
        hi = self.scale * max(1.0, (math.log(1.0 / eps)) ** (1.0 / self.beta)) * 2.0
        return (-hi, hi)

    def mu(self, k):
        if k == 0:
            return 1.0
        return 0.0 if k % 2 else self.nu(k)

    def nu(self, r):
        if r == 0:
            return 1.0
        b = self.beta
        return self.scale ** r * math.gamma((r + 1.0) / b) / math.gamma(1.0 / b)

    def to_dict(self):
        return {"family": "subbotin", "beta": self.beta, "scale": self.scale}


def subbotin(beta: float, scale: float = 1.0) -> LawSpec:
    """Subbotin family constructor; beta = inf is exactly Uniform(-scale, scale)."""
    if math.isinf(beta):
        return Uniform(-scale, scale)
    return SubbotinLaw(beta, scale)


# -- structural nodes ---------------------------------------------------------

class SignedMeasure(LawSpec):
    """Finite linear combination sum_i coef_i * law_i.  Its cdf, left cdf,
    density, atoms and moments are the same sums over the terms."""

    family = "signed_measure"

    def __init__(self, terms: Sequence[Tuple[float, LawSpec]]):
        self.terms = list(terms)

    def _combine(self, name: str, x: np.ndarray) -> np.ndarray:
        """sum of c * law.<name>(x) over the terms, on a 1-D array x."""
        out = np.zeros_like(x)
        for c, law in self.terms:
            out += c * getattr(law, name)(x)
        return out

    _cdf = partialmethod(_combine, "cdf")
    _cdf_left = partialmethod(_combine, "cdf_left")
    _pdf = partialmethod(_combine, "pdf")

    @property
    def has_density(self):
        return any(law.has_density for _, law in self.terms)

    def atoms(self):
        """Signed atoms; only exactly coinciding locations of different
        terms merge, as in cdf, which sums the terms' own distribution
        functions."""
        return list(self._merged_atoms)

    @cached_property
    def _merged_atoms(self):
        return merge_atoms([(x, c * w) for c, law in self.terms
                            for x, w in law.atoms()], rtol=0.0)

    def density_breakpoints(self):
        return sorted({x for _, law in self.terms for x in law.density_breakpoints()})

    def density_singularities(self):
        return sorted({x for _, law in self.terms for x in law.density_singularities()})

    def support(self, eps=SUPPORT_EPS):
        los, his = zip(*(law.support(eps / len(self.terms)) for _, law in self.terms))
        return (min(los), max(his))

    def mass(self) -> float:
        return sum(c for c, _ in self.terms)

    def mu(self, k):
        return sum(c * law.mu(k) for c, law in self.terms)

    def nu(self, r):
        raise MeasureError("a signed measure has no absolute moment of its own: "
                           "use metrics.nu_r_signed for nu_r(|M|), or nu_upper "
                           "for the triangle-inequality bound")

    def nu_upper(self, r: int) -> float:
        """Triangle-inequality bound sum |c_i| nu_r(P_i) (used for scales);
        raises InfiniteMomentError from the first term with infinite nu_r."""
        return sum(abs(c) * law.nu(r) for c, law in self.terms)

    def to_dict(self):
        return {"family": self.family,
                "parts": [[c, law.to_dict()] for c, law in self.terms]}


class Mixture(SignedMeasure):
    """A signed measure whose coefficients are probability weights."""

    family = "mixture"

    def __init__(self, parts: Sequence[Tuple[float, LawSpec]]):
        parts = [(float(w), law) for w, law in parts if w != 0.0]
        if any(w < 0 for w, _ in parts):
            raise DomainError("mixture weights must be >= 0")
        if abs(sum(w for w, _ in parts) - 1.0) > 1e-9:
            raise DomainError("mixture weights must sum to 1")
        super().__init__(parts)

    def support(self, eps=SUPPORT_EPS):
        eps = max(eps, 1e-300)          # the floor of the parts, in this law's mass
        los, his = zip(*(law.support(min(eps / w, 0.4)) for w, law in self.terms))
        return (min(los), max(his))

    nu = SignedMeasure.nu_upper         # exact: the weights are >= 0


class Affine(LawSpec):
    """Law of c*X + d for X ~ base, c != 0."""

    family = "affine"

    def __init__(self, c: float, d: float, base: LawSpec):
        if c == 0:
            raise DomainError("affine needs c != 0")
        self.c = float(c)
        self.d = float(d)
        self.base = base

    def _pull(self, x):
        return (x - self.d) / self.c

    def _cdf(self, x):
        y = self._pull(x)
        return self.base.cdf(y) if self.c > 0 else 1.0 - self.base.cdf_left(y)

    def _cdf_left(self, x):
        y = self._pull(x)
        return self.base.cdf_left(y) if self.c > 0 else 1.0 - self.base.cdf(y)

    def _pdf(self, x):
        return self.base.pdf(self._pull(x)) / abs(self.c)

    @property
    def has_density(self):
        return self.base.has_density

    def atoms(self):
        return sorted((self.c * x + self.d, w) for x, w in self.base.atoms())

    def density_breakpoints(self):
        return sorted(self.c * b + self.d for b in self.base.density_breakpoints())

    def density_singularities(self):
        return sorted(self.c * s + self.d for s in self.base.density_singularities())

    def support(self, eps=SUPPORT_EPS):
        lo, hi = self.base.support(eps)
        a, b = self.c * lo + self.d, self.c * hi + self.d
        return (min(a, b), max(a, b))

    def _binomial(self, k, base_moment):
        """E(cX + d)^k term by term, from base_moment(j) = E[X^j; ...]."""
        return sum(math.comb(k, j) * self.c ** j * self.d ** (k - j) * base_moment(j)
                   for j in range(k + 1))

    def mu(self, k):
        return self._binomial(k, self.base.mu)

    def partial_mu(self, k, x):
        # cX + d <= x on {X <= y} when c > 0, on {X >= y} when c < 0; the
        # partial moment goes first, so a base without one integrates nothing
        y, base = self._pull(x), self.base
        if self.c > 0:
            return self._binomial(k, lambda j: base.partial_mu(j, y))
        return self._binomial(k, lambda j: -base.partial_mu(j, y) + base.mu(j))

    def nu(self, r):
        if self.d == 0.0:
            return abs(self.c) ** r * self.base.nu(r)
        return super().nu(r)

    def to_dict(self):
        return {"family": "affine", "c": self.c, "d": self.d,
                "base": self.base.to_dict()}


def affine(c: float, d: float, base: LawSpec) -> LawSpec:
    """Affine image c*X + d with structural simplifications."""
    if c == 0:
        raise DomainError("affine needs c != 0")
    if c == 1.0 and d == 0.0:
        return base
    if isinstance(base, Normal):
        return Normal(c * base.mu_loc + d, abs(c) * base.sigma)
    if isinstance(base, Dirac):
        return Dirac(c * base.a + d)
    if isinstance(base, Atoms):
        return Atoms([(c * x + d, w) for x, w in base.atoms()])
    if isinstance(base, Uniform):
        a, b = c * base.a + d, c * base.b + d
        return Uniform(min(a, b), max(a, b))
    if isinstance(base, Affine):
        return affine(c * base.c, c * base.d + d, base.base)
    if isinstance(base, SignedMeasure):
        return type(base)([(w, affine(c, d, law)) for w, law in base.terms])
    return Affine(c, d, base)


class Rounded(Lattice):
    """Projection of ``base`` onto the lattice {(alpha + j) eta : j in Z}.

    Cell j receives base mass of ]((alpha+j-1/2)eta, (alpha+j+1/2)eta];
    base atoms sitting exactly on a cell boundary are split half/half.
    The lattice runs from the first to the last cell with mass, with span
    exactly eta; its atoms sit at the cell centres (alpha + j) eta.
    """

    family = "rounded"

    def __init__(self, eta: float, alpha: float, base: LawSpec):
        if eta <= 0:
            raise DomainError("rounding needs eta > 0")
        self.eta = float(eta)
        self.alpha = float(alpha)
        self.base = base
        lo, hi = base.support(ROUNDING_TAIL_MASS / 4.0)
        j_lo = math.floor(lo / self.eta - self.alpha + 0.5) - 1
        j_hi = math.ceil(hi / self.eta - self.alpha - 0.5) + 1
        if j_hi - j_lo + 1 > MAX_LATTICE_ENTRIES:
            raise MeasureError(f"rounding at eta={eta:g} needs {j_hi - j_lo + 1:.3g} "
                               f"cells, more than {MAX_LATTICE_ENTRIES:.0e}")
        js = np.arange(j_lo, j_hi + 1)
        edges = (self.alpha + js[0] - 0.5 + np.arange(js.size + 1)) * self.eta
        p = np.diff(base.cdf(edges))
        for x, w in base.atoms():
            k = (x / self.eta) - self.alpha + 0.5
            if abs(k - round(k)) <= ATOM_MERGE_RTOL * max(1.0, abs(k)):
                # boundary atom: the cdf difference put all of w into the
                # cell left of the boundary; move half of it to the right
                j_edge = int(round(k)) - 1 - j_lo
                if 0 <= j_edge < p.size:
                    p[j_edge] -= 0.5 * w
                if 0 <= j_edge + 1 < p.size:
                    p[j_edge + 1] += 0.5 * w
        locs = (self.alpha + js) * self.eta
        missing = 1.0 - float(p.sum())
        if abs(missing) > 1e-12:
            raise MeasureError(f"rounding lost mass {missing:g}")
        keep = p > 0
        first, last = np.flatnonzero(keep)[[0, -1]]
        super().__init__(locs[first], self.eta,
                         np.where(keep, p, 0.0)[first:last + 1] / p[keep].sum())
        self._locs = locs[keep]

    def to_dict(self):
        return {"family": "rounded", "eta": self.eta, "alpha": self.alpha,
                "base": self.base.to_dict()}


class HistogramLaw(LawSpec):
    """Cell masses of the rounding spread uniformly over the cells."""

    family = "histogram"

    def __init__(self, eta: float, alpha: float, base: LawSpec):
        if eta <= 0:
            raise DomainError("histogram needs eta > 0")
        self.eta = float(eta)
        self.alpha = float(alpha)
        self.base = base
        self._rounded = Rounded(eta, alpha, base)

    def _cells(self):
        """(centers, masses): the rounded law's own arrays, not to be written."""
        return self._rounded._locs, self._rounded._wts

    def _cdf(self, x):
        centers, w = self._cells()
        left = centers - self.eta / 2.0
        cum = np.concatenate([[0.0], np.cumsum(w)])
        idx = np.searchsorted(left, x, side="right") - 1
        idx = np.clip(idx, -1, centers.size - 1)
        inside = np.clip((x - left[np.maximum(idx, 0)]) / self.eta, 0.0, 1.0)
        out = np.where(idx >= 0, cum[np.maximum(idx, 0)] + w[np.maximum(idx, 0)] * inside, 0.0)
        return np.clip(out, 0.0, 1.0)

    def _pdf(self, x):
        centers, w = self._cells()
        left = centers - self.eta / 2.0
        idx = np.searchsorted(left, x, side="right") - 1
        idx_c = np.clip(idx, 0, centers.size - 1)
        inside = (idx >= 0) & (x <= centers[idx_c] + self.eta / 2.0)
        return np.where(inside, w[idx_c] / self.eta, 0.0)

    @property
    def has_density(self):
        return True

    def density_breakpoints(self):
        centers, _ = self._cells()
        edges = np.concatenate([centers - self.eta / 2.0,
                                [centers[-1] + self.eta / 2.0]])
        return edges.tolist()

    def support(self, eps=SUPPORT_EPS):
        centers, _ = self._cells()
        return (float(centers[0]) - self.eta / 2.0, float(centers[-1]) + self.eta / 2.0)

    def partial_mu(self, k, x):
        # cell-wise exact: uniform on the cell of width eta, its top clipped at x
        centers, w = self._cells()
        h = self.eta / 2.0
        top = np.clip(x, centers - h, centers + h)
        vals = (top ** (k + 1) - (centers - h) ** (k + 1)) / ((k + 1) * self.eta)
        return float(np.sum(w * vals))

    def to_dict(self):
        return {"family": "histogram", "eta": self.eta, "alpha": self.alpha,
                "base": self.base.to_dict()}


class Truncated(LawSpec):
    """Base law conditioned on the window (a, b]."""

    family = "truncated"

    def __init__(self, base: LawSpec, a: float, b: float):
        if not a < b:
            raise DomainError("truncate needs a < b")
        self.base = base
        self.a = float(a)
        self.b = float(b)
        self._fa = float(base.cdf(self.a))
        self._z = float(base.cdf(self.b)) - self._fa
        if self._z <= 0:
            raise DomainError("truncation window has zero mass")

    def _cdf(self, x):
        # x is already a 1-D array; the clip gives 0 below a, where F <= F(a)
        out = np.clip((self.base._cdf(x) - self._fa) / self._z, 0.0, 1.0)
        return np.where(x >= self.b, 1.0, out)

    def _pdf(self, x):
        inside = (x > self.a) & (x <= self.b)
        return np.where(inside, self.base._pdf(x) / self._z, 0.0)

    @property
    def has_density(self):
        return self.base.has_density

    def atoms(self):
        return [(x, w / self._z) for x, w in self.base.atoms()
                if self.a < x <= self.b]

    def density_breakpoints(self):
        inner = [c for c in self.base.density_breakpoints() if self.a < c < self.b]
        return sorted({*(e for e in (self.a, self.b) if math.isfinite(e)), *inner})

    def density_singularities(self):
        return [s for s in self.base.density_singularities()
                if self.a <= s <= self.b]

    def support(self, eps=SUPPORT_EPS):
        lo, hi = self.base.support(max(eps, 1e-300) * self._z)
        return (max(lo, self.a), min(hi, self.b))

    def partial_mu(self, k, x):
        """The window difference of the base's partial moments over the
        window's mass; a base moment that is infinite (though finite on the
        window) leaves the moments to quadrature."""
        pm, a = self.base.partial_mu, self.a
        try:
            return (pm(k, min(max(x, a), self.b)) - pm(k, a)) / self._z
        except InfiniteMomentError:
            raise NotImplementedError from None

    def to_dict(self):
        return {"family": "truncated", "a": self.a, "b": self.b,
                "base": self.base.to_dict()}


_FOLD_CHUNK = 256             # points per integrate call in Conv2: bounds the working arrays
_FOLD_TOL = Tolerance(1e-10, 1e-9)   # of the integrals of Conv2's cdf and pdf


class Conv2(LawSpec):
    """Convolution of two laws, evaluated by quadrature.

    Exactly representable convolutions (atomic factors, normal*normal)
    are simplified away by :func:`conv2_law`; this class is the generic
    continuous fallback.
    """

    family = "conv2"

    def __init__(self, p: LawSpec, q: LawSpec):
        self.p = p
        self.q = q

    @cached_property
    def _layout(self):
        """q's atoms and support, and the breakpoints of g(x - y) q.pdf(y) as
        x * slope + offset: x - b for p's kinks, atoms and mixture-part ends
        b, where g(x - y) may jump or kink, and q.pdf's own kinks and
        mixture-part ends."""
        p_pts = [*self.p.density_breakpoints(), *(a for a, _ in self.p.atoms()),
                 *_part_ends(self.p)]
        q_pts = self.q.density_breakpoints() + _part_ends(self.q)
        return (self.q.atoms(), self.q.support(1e-15),
                np.repeat([1.0, 0.0], [len(p_pts), len(q_pts)]),
                np.array([-b for b in p_pts] + q_pts, dtype=float))

    def _fold(self, g, x):
        """At every x: the sum of w * g(x - a) over the atoms (a, w) of q,
        plus the integral of g(x - y) q.pdf(y) over q's support, for g one
        of p's cdf or pdf.  The integrals of _FOLD_CHUNK points at a time
        share one integrate call, with the breakpoints of _layout."""
        q_atoms, (lo, hi), slope, offset = self._layout
        out = np.zeros(x.size)
        for a, w in q_atoms:
            out += w * g(x - a)
        if self.q.has_density:
            for i in range(0, x.size, _FOLD_CHUNK):
                xc = x[i:i + _FOLD_CHUNK]
                v, _ = integrate(lambda y, k: g(xc[k] - y) * self.q.pdf(y),
                                 np.full(xc.size, lo), np.full(xc.size, hi), _FOLD_TOL,
                                 breakpoints=xc[:, None] * slope + offset)
                out[i:i + _FOLD_CHUNK] += v
        return out

    def _cdf(self, x):
        return np.clip(self._fold(self.p.cdf, x), 0.0, 1.0)

    def _pdf(self, x):
        out = self._fold(self.p.pdf, x)
        for a, w in self.p.atoms():
            out += w * self.q.pdf(x - a)
        return out

    @property
    def has_density(self):
        return self.p.has_density or self.q.has_density

    def atoms(self):
        return merge_atoms([(xa + xb, wa * wb)
                            for xa, wa in self.p.atoms()
                            for xb, wb in self.q.atoms()])

    def support(self, eps=SUPPORT_EPS):
        lp = self.p.support(eps / 2)
        lq = self.q.support(eps / 2)
        return (lp[0] + lq[0], lp[1] + lq[1])

    def mu(self, k):
        # moments of a sum via the binomial expansion
        return sum(math.comb(k, j) * self.p.mu(j) * self.q.mu(k - j)
                   for j in range(k + 1))

    def to_dict(self):
        return {"family": "conv2", "p": self.p.to_dict(), "q": self.q.to_dict()}


def _part_ends(law: LawSpec) -> List[float]:
    """The support ends of a mixture's continuous parts, nested ones too: a
    narrow part can fall between all quadrature nodes unless its ends are
    breakpoints."""
    if not isinstance(law, SignedMeasure):
        return []
    return [e for _, part in law.terms if part.has_density
            for e in (*part.support(1e-15), *_part_ends(part))]


def conv2_law(p: LawSpec, q: LawSpec) -> LawSpec:
    """Law of X + Y for independent X ~ p, Y ~ q, simplified where exact."""
    if isinstance(p, Dirac):
        return affine(1.0, p.a, q)
    if isinstance(q, Dirac):
        return affine(1.0, q.a, p)
    if isinstance(p, Normal) and isinstance(q, Normal):
        return Normal(p.mu_loc + q.mu_loc, math.hypot(p.sigma, q.sigma))
    if not (p.has_density or q.has_density):
        return Atoms(Conv2(p, q).atoms())
    if not p.has_density:
        return Mixture([(w, affine(1.0, x, q)) for x, w in p.atoms()])
    if not q.has_density:
        return Mixture([(w, affine(1.0, x, p)) for x, w in q.atoms()])
    return Conv2(p, q)


# -- factories mirroring the text format --------------------------------------

dirac = Dirac
atoms_law = Atoms
bernoulli = Bernoulli
normal = Normal
uniform = Uniform
gamma_power = GammaPower
mixture = Mixture
rounded = Rounded
histogram = HistogramLaw
truncate = Truncated

STANDARD_NORMAL = Normal(0.0, 1.0)


def truncated_normal_left(t: float) -> Truncated:
    """The standard normal conditioned on (-t, inf)."""
    return Truncated(STANDARD_NORMAL, -t, math.inf)


def winsorised_normal_left(t: float) -> Mixture:
    """The standard normal winsorised at -t: Phi(-t) delta_{-t} plus the
    normal's mass on (-t, inf); a part of weight 0 is left out."""
    p = std_normal_cdf(-t)
    parts = [(p, Dirac(-t))]
    if p < 1.0:
        parts.append((1.0 - p, truncated_normal_left(t)))
    return Mixture(parts)


def law_from_dict(d: dict) -> LawSpec:
    """Parse the nested object notation into a LawSpec tree."""
    fam = d.get("family")
    if fam == "dirac":
        return Dirac(float(d["a"]))
    if fam == "atoms":
        return Atoms([(float(x), float(w)) for x, w in d["points"]])
    if fam == "lattice":
        span = float(d["span"])
        return Lattice(float(d["shift"]) + span * int(d.get("first_index", 0)), span,
                       d["weights"])
    if fam == "bernoulli":
        return Bernoulli(float(d["p"]))
    if fam == "normal":
        return Normal(float(d.get("mu", 0.0)), float(d.get("sigma", 1.0)))
    if fam == "uniform":
        return Uniform(float(d["a"]), float(d["b"]))
    if fam == "truncated_normal_left":
        return truncated_normal_left(float(d["t"]))
    if fam == "winsorised_normal_left":
        return winsorised_normal_left(float(d["t"]))
    if fam == "gamma_power":
        return GammaPower(float(d["alpha"]), float(d.get("lambda", 1.0)),
                          float(d.get("beta", 1.0)))
    if fam == "subbotin":
        b = d["beta"]
        b = math.inf if b in ("inf", "Infinity") else float(b)
        return subbotin(b, float(d.get("scale", 1.0)))
    if fam == "mixture":
        return Mixture([(float(w), law_from_dict(sub)) for w, sub in d["parts"]])
    if fam == "affine":
        return affine(float(d["c"]), float(d["d"]), law_from_dict(d["base"]))
    if fam == "rounded":
        return Rounded(float(d["eta"]), float(d.get("alpha", 0.0)),
                       law_from_dict(d["base"]))
    if fam == "histogram":
        return HistogramLaw(float(d["eta"]), float(d.get("alpha", 0.0)),
                            law_from_dict(d["base"]))
    if fam == "truncated":
        return Truncated(law_from_dict(d["base"]), float(d["a"]), float(d["b"]))
    if fam == "conv2":
        return conv2_law(law_from_dict(d["p"]), law_from_dict(d["q"]))
    raise MeasureError(f"unknown law family: {fam!r}")


# -- transforms ---------------------------------------------------------------

def reflect(P: LawSpec) -> LawSpec:
    return affine(-1.0, 0.0, P)


def standardise(P: LawSpec) -> LawSpec:
    """The law of (X - mean) / sigma.  A variance mu_2 - mu_1^2 at or below
    16 eps mu_2, the rounding floor of that difference, is no spread."""
    if isinstance(P, Normal):
        return Normal(0.0, 1.0)
    m1, m2 = P.mu(1), P.mu(2)
    var = m2 - m1 ** 2
    if not (var > 16.0 * np.finfo(float).eps * m2) or not math.isfinite(var):
        raise DegenerateLawError("standardise needs 0 < sigma < inf, with sigma^2 "
                                 "above 16 eps mu_2")
    s = math.sqrt(var)
    return affine(1.0 / s, -m1 / s, P)


# -- lattice span -------------------------------------------------------------

def lattice_span(P: LawSpec) -> float:
    """Maximal eta with P(a + eta Z) = 1; zero for laws with a density.

    Dirac laws return inf (every eta works).  The span candidate is the
    smallest gap between adjacent atoms (or an integer fraction of it),
    verified against every atom within 1e-12 relative tolerance and then
    refined by least squares over the gaps.
    """
    if P.has_density:
        return 0.0
    pts = P.atoms()
    if not pts:
        return 0.0
    if len(pts) == 1:
        return math.inf
    locs = np.array([x for x, _ in pts])
    diffs = np.diff(locs)
    scale = float(locs[-1] - locs[0])
    g0 = float(np.min(diffs))
    for m in range(1, 65):
        g = g0 / m
        ks = np.round(diffs / g)
        if np.all(ks >= 1) and float(np.max(np.abs(diffs - ks * g))) \
                <= 1e-12 * max(1.0, scale):
            return float(np.sum(ks * diffs) / np.sum(ks * ks))
    return 0.0


# -- signed measures ----------------------------------------------------------

def merge_atoms(pairs: Sequence[Tuple[float, float]],
                rtol: float = ATOM_MERGE_RTOL) -> List[Tuple[float, float]]:
    pts = sorted((float(x), float(w)) for x, w in pairs)
    out: List[List[float]] = []
    for x, w in pts:
        if out and abs(x - out[-1][0]) <= rtol * max(1.0, abs(x)):
            out[-1][1] += w
        else:
            out.append([x, w])
    return [(x, w) for x, w in out if w != 0.0]


def signed_diff(P: LawSpec, Q: LawSpec) -> SignedMeasure:
    return SignedMeasure([(1.0, P), (-1.0, Q)])


def convolve_signed(M1: SignedMeasure, M2: SignedMeasure) -> SignedMeasure:
    terms = []
    for c1, p in M1.terms:
        for c2, q in M2.terms:
            terms.append((c1 * c2, conv2_law(p, q)))
    return SignedMeasure(terms)
