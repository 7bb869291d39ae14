"""Law families and the bounded-signed-measure algebra.

A ``LawSpec`` is an immutable constructor tree for a probability law on
the real line: elementary families (dirac, atoms, lattice, bernoulli,
normal, uniform, truncated/winsorised normal, power-transformed gamma,
Subbotin) plus structural nodes (mixture, affine image, rounding,
histogram, two-fold convolution).  Every law exposes exact CDF / left
CDF evaluation, its atom list and continuous density, moments, and an
effective support window.  ``SignedMeasure`` is a finite real linear
combination of laws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .numerics import (DEFAULT_TOL, DomainError, Tolerance, find_root,
                       gamma_ratio, integrate, reg_incomplete_gamma,
                       std_normal_cdf, std_normal_pdf, std_normal_quantile,
                       INV_SQRT_2PI)

ATOM_MERGE_RTOL = 1e-12
SUPPORT_EPS = 1e-15


class MeasureError(Exception):
    pass


class DegenerateLawError(MeasureError):
    """Standardisation of a zero-variance law was requested."""


class InfiniteMomentError(MeasureError):
    pass


# -- closed-form helpers -----------------------------------------------------

def _phi(x):
    return std_normal_pdf(x)


def _Phi(x):
    return std_normal_cdf(x)


def normal_upper_moment(k: int, a: float) -> float:
    """integral of x^k phi(x) over [a, inf)."""
    sf = 1.0 - _Phi(a)
    p = _phi(a)
    if k == 0:
        return sf
    if k == 1:
        return p
    if k == 2:
        return a * p + sf
    if k == 3:
        return (a * a + 2.0) * p
    if k == 4:
        return (a ** 3 + 3.0 * a) * p + 3.0 * sf
    raise DomainError(f"normal_upper_moment supports k <= 4, got {k}")


def normal_abs_window_moment(r: int, a: float, b: float) -> float:
    """integral of |x|^r phi(x) over [a, b], for integer r in 0..4."""
    def upper(r_, t):
        return normal_upper_moment(r_, t)

    def signed(lo, hi):
        # integral of x^r phi over [lo, hi] with lo >= 0
        return upper(r, lo) - upper(r, hi)

    if a >= 0:
        return signed(a, b)
    if b <= 0:
        return signed(-b, -a)
    return signed(0.0, -a) + signed(0.0, b)


# -- base class ---------------------------------------------------------------

class LawSpec:
    """Abstract probability law.  Subclasses are immutable value objects."""

    family: str = "abstract"

    # -- distribution surface
    def cdf(self, x):
        raise NotImplementedError

    def cdf_left(self, x):
        x = np.asarray(x, dtype=float)
        atoms = self.atoms()
        if not atoms:
            return self.cdf(x)
        out = np.asarray(self.cdf(x), dtype=float).copy()
        locs = np.array([a for a, _ in atoms])
        wts = np.array([w for _, w in atoms])
        scalar = out.ndim == 0
        outa = np.atleast_1d(out)
        xa = np.atleast_1d(x)
        for loc, w in zip(locs, wts):
            outa[np.isclose(xa, loc, rtol=0, atol=ATOM_MERGE_RTOL * max(1.0, abs(loc)))] -= w
        outa = np.clip(outa, 0.0, 1.0)
        return float(outa[0]) if scalar else outa

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(np.atleast_1d(x))
        return float(out[0]) if x.ndim == 0 else out

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

    def tail_scale(self) -> float:
        """Characteristic decay length used in tail-error heuristics."""
        lo, hi = self.support(1e-6)
        return max(1.0, 0.1 * (hi - lo))

    # -- moments
    def mu(self, k: int) -> float:
        """Signed moment E X^k for k in 0..4."""
        raise NotImplementedError

    def nu(self, r: int) -> float:
        """Absolute moment E |X|^r for integer r in 0..4."""
        raise NotImplementedError

    @property
    def mean(self) -> float:
        return self.mu(1)

    @property
    def variance(self) -> float:
        return max(self.mu(2) - self.mu(1) ** 2, 0.0)

    @property
    def std(self) -> float:
        return math.sqrt(self.variance)

    def central_mu3(self) -> float:
        m1 = self.mu(1)
        return self.mu(3) - 3.0 * m1 * self.mu(2) + 2.0 * m1 ** 3

    # -- serialization
    def to_dict(self) -> dict:
        raise NotImplementedError

    def __repr__(self):
        return f"{type(self).__name__}({self.to_dict()})"

    def __eq__(self, other):
        return isinstance(other, LawSpec) and self.to_dict() == other.to_dict()

    def __hash__(self):
        return hash(repr(self.to_dict()))

    def _moment_quad(self, k: int, absolute: bool, tol: Tolerance = DEFAULT_TOL) -> float:
        lo, hi = self.support(1e-16)
        total = sum(w * (abs(a) ** k if absolute else a ** k) for a, w in self.atoms())
        if self.has_density:
            f = lambda x: ((np.abs(x) if absolute else x) ** k
                           * np.asarray(self.pdf(x), dtype=float))
            v, _ = integrate(f, lo, hi, Tolerance(1e-11, 1e-10),
                             breakpoints=self.density_breakpoints() + [0.0],
                             singularities=self.density_singularities())
            total += v
        return total


# -- elementary families ------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Dirac(LawSpec):
    a: float
    family = "dirac"

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        out = (x >= self.a).astype(float)
        return float(out) if out.ndim == 0 else out

    def atoms(self):
        return [(self.a, 1.0)]

    def support(self, eps=SUPPORT_EPS):
        return (self.a, self.a)

    def tail_scale(self):
        return 1.0

    def mu(self, k):
        return self.a ** k

    def nu(self, r):
        return abs(self.a) ** r

    def to_dict(self):
        return {"family": "dirac", "a": self.a}


class Atoms(LawSpec):
    """Finite purely atomic law; locations sorted, nearby ones merged."""

    family = "atoms"

    def __init__(self, points: Sequence[Tuple[float, float]]):
        pts = sorted((float(x), float(w)) for x, w in points if w != 0.0)
        merged: List[List[float]] = []
        for x, w in pts:
            if w < 0:
                raise DomainError("atom weights must be >= 0")
            if merged and abs(x - merged[-1][0]) <= ATOM_MERGE_RTOL * max(1.0, abs(x)):
                merged[-1][1] += w
            else:
                merged.append([x, w])
        total = sum(w for _, w in merged)
        if abs(total - 1.0) > 1e-9:
            raise DomainError(f"atom weights must sum to 1, got {total}")
        self._locs = np.array([x for x, _ in merged])
        self._wts = np.array([w for _, w in merged])
        self._cum = np.cumsum(self._wts)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        idx = np.searchsorted(self._locs, x, side="right")
        out = np.where(idx > 0, self._cum[np.maximum(idx - 1, 0)], 0.0)
        return float(out) if out.ndim == 0 else out

    def cdf_left(self, x):
        x = np.asarray(x, dtype=float)
        idx = np.searchsorted(self._locs, x, side="left")
        out = np.where(idx > 0, self._cum[np.maximum(idx - 1, 0)], 0.0)
        return float(out) if out.ndim == 0 else out

    def atoms(self):
        return list(zip(self._locs.tolist(), self._wts.tolist()))

    def support(self, eps=SUPPORT_EPS):
        return (float(self._locs[0]), float(self._locs[-1]))

    def tail_scale(self):
        return 1.0

    def mu(self, k):
        return float(np.sum(self._wts * self._locs ** k))

    def nu(self, r):
        return float(np.sum(self._wts * np.abs(self._locs) ** r))

    def to_dict(self):
        return {"family": "atoms",
                "points": [[x, w] for x, w in self.atoms()]}


class Bernoulli(Atoms):
    family = "bernoulli"

    def __init__(self, p: float):
        if not 0.0 <= p <= 1.0:
            raise DomainError(f"bernoulli needs p in [0,1], got {p}")
        self.p = p
        super().__init__([(0.0, 1.0 - p), (1.0, p)])

    def mu(self, k):
        return self.p if k >= 1 else 1.0

    def nu(self, r):
        return self.p if r >= 1 else 1.0

    def to_dict(self):
        return {"family": "bernoulli", "p": self.p}


class Lattice(Atoms):
    """Law on shift + span * Z given by a finite weight window."""

    family = "lattice"

    def __init__(self, shift: float, span: float, weights: Sequence[float],
                 first_index: int = 0):
        if span <= 0:
            raise DomainError("lattice span must be > 0")
        w = np.asarray(weights, dtype=float)
        if np.any(w < 0):
            raise DomainError("lattice weights must be >= 0")
        if abs(float(w.sum()) - 1.0) > 1e-9:
            raise DomainError("lattice weights must sum to 1")
        self.shift = float(shift)
        self.span = float(span)
        self.weights = w
        self.first_index = int(first_index)
        locs = self.shift + self.span * (self.first_index + np.arange(w.size))
        super().__init__(list(zip(locs.tolist(), w.tolist())))

    def tail_scale(self):
        return max(1.0, self.span)

    def to_dict(self):
        return {"family": "lattice", "shift": self.shift, "span": self.span,
                "first_index": self.first_index,
                "weights": self.weights.tolist()}


@dataclass(frozen=True, eq=False)
class Normal(LawSpec):
    mu_loc: float = 0.0
    sigma: float = 1.0
    family = "normal"

    def __post_init__(self):
        if self.sigma <= 0:
            raise DomainError(f"normal needs sigma > 0, got {self.sigma}")

    def cdf(self, x):
        return _Phi((np.asarray(x, dtype=float) - self.mu_loc) / self.sigma)

    def cdf_left(self, x):
        return self.cdf(x)

    def pdf(self, x):
        return _phi((np.asarray(x, dtype=float) - self.mu_loc) / self.sigma) / self.sigma

    @property
    def has_density(self):
        return True

    def support(self, eps=SUPPORT_EPS):
        q = abs(std_normal_quantile(min(max(eps, 1e-300), 0.5)))
        return (self.mu_loc - q * self.sigma, self.mu_loc + q * self.sigma)

    def tail_scale(self):
        return self.sigma

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
        raise DomainError("mu supports k <= 4")

    def nu(self, r):
        if r == 0:
            return 1.0
        if self.mu_loc == 0.0:
            s = self.sigma
            if r == 1:
                return 2.0 * INV_SQRT_2PI * s
            if r == 2:
                return s * s
            if r == 3:
                return 4.0 * INV_SQRT_2PI * s ** 3
            if r == 4:
                return 3.0 * s ** 4
        return self._moment_quad(r, absolute=True)

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

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.clip((x - self.a) / (self.b - self.a), 0.0, 1.0)
        return float(out) if out.ndim == 0 else out

    def cdf_left(self, x):
        return self.cdf(x)

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.where((x >= self.a) & (x <= self.b), 1.0 / (self.b - self.a), 0.0)
        return float(out) if out.ndim == 0 else out

    @property
    def has_density(self):
        return True

    def density_breakpoints(self):
        return [self.a, self.b]

    def support(self, eps=SUPPORT_EPS):
        return (self.a, self.b)

    def tail_scale(self):
        return self.b - self.a

    def mu(self, k):
        a, b = self.a, self.b
        return (b ** (k + 1) - a ** (k + 1)) / ((k + 1) * (b - a))

    def nu(self, r):
        a, b = self.a, self.b
        if a >= 0:
            return self.mu(r)
        if b <= 0:
            return abs((abs(a) ** (r + 1) - abs(b) ** (r + 1)) / ((r + 1) * (b - a))) if r else 1.0
        return (abs(a) ** (r + 1) + b ** (r + 1)) / ((r + 1) * (b - a))

    def to_dict(self):
        return {"family": "uniform", "a": self.a, "b": self.b}


@dataclass(frozen=True, eq=False)
class TruncatedNormalLeft(LawSpec):
    """Standard normal conditioned on (-t, inf)."""

    t: float
    family = "truncated_normal_left"

    @property
    def _z(self) -> float:
        return 1.0 - _Phi(-self.t)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.clip((_Phi(x) - _Phi(-self.t)) / self._z, 0.0, 1.0)
        out = np.where(x < -self.t, 0.0, out)
        return float(out) if out.ndim == 0 else out

    def cdf_left(self, x):
        return self.cdf(x)

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.where(x > -self.t, _phi(x) / self._z, 0.0)
        return float(out) if out.ndim == 0 else out

    @property
    def has_density(self):
        return True

    def density_breakpoints(self):
        return [-self.t]

    def support(self, eps=SUPPORT_EPS):
        hi = std_normal_quantile(1.0 - self._z * min(max(eps, 1e-300), 0.5))
        return (-self.t, hi)

    def tail_scale(self):
        return 1.0

    def mu(self, k):
        if k == 0:
            return 1.0
        return normal_upper_moment(k, -self.t) / self._z

    def nu(self, r):
        if r == 0:
            return 1.0
        lo, hi = -self.t, 60.0
        return normal_abs_window_moment(r, lo, hi) / self._z

    def to_dict(self):
        return {"family": "truncated_normal_left", "t": self.t}


@dataclass(frozen=True, eq=False)
class WinsorisedNormalLeft(LawSpec):
    """Phi(-t) delta_{-t} + N restricted to (-t, inf)."""

    t: float
    family = "winsorised_normal_left"

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.where(x >= -self.t, _Phi(np.maximum(x, -self.t)), 0.0)
        return float(out) if out.ndim == 0 else out

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.where(x > -self.t, _phi(x), 0.0)
        return float(out) if out.ndim == 0 else out

    @property
    def has_density(self):
        return True

    def atoms(self):
        return [(-self.t, _Phi(-self.t))]

    def density_breakpoints(self):
        return [-self.t]

    def support(self, eps=SUPPORT_EPS):
        return (-self.t, std_normal_quantile(1.0 - min(max(eps, 1e-300), 0.5)))

    def tail_scale(self):
        return 1.0

    def mu(self, k):
        if k == 0:
            return 1.0
        return (-self.t) ** k * _Phi(-self.t) + normal_upper_moment(k, -self.t)

    def nu(self, r):
        if r == 0:
            return 1.0
        return abs(self.t) ** r * _Phi(-self.t) + normal_abs_window_moment(r, -self.t, 60.0)

    def to_dict(self):
        return {"family": "winsorised_normal_left", "t": self.t}


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

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        xa = np.atleast_1d(x).astype(float)
        out = np.zeros_like(xa)
        pos = xa > 0
        if np.any(pos):
            vals = np.array([reg_incomplete_gamma(self.alpha, self.lam * v ** self.beta)
                             for v in xa[pos]])
            out[pos] = vals if self.beta > 0 else 1.0 - vals
        if self.beta < 0:
            out[~pos] = 0.0
        return float(out[0]) if scalar else out

    def cdf_left(self, x):
        return self.cdf(x)

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        xa = np.atleast_1d(x).astype(float)
        out = np.zeros_like(xa)
        pos = xa > 0
        if np.any(pos):
            la, a, b = self.lam, self.alpha, self.beta
            lg = math.lgamma(a)
            v = xa[pos]
            out[pos] = np.exp(a * math.log(la) + (a * b - 1.0) * np.log(v)
                              - la * v ** b - lg) * abs(b)
        return float(out[0]) if scalar else out

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

    def tail_scale(self):
        return max(1.0, self.nu(1))

    def moment_exists(self, r: float) -> bool:
        return self.alpha + r / self.beta > 0

    def partial_mu(self, k: int, x: float) -> float:
        """E[X^k 1_{X <= x}] in closed form (needed because for
        alpha*beta < 1 the density packs mass unresolvably close to 0)."""
        if k == 0:
            return float(self.cdf(x))
        if not self.moment_exists(k):
            raise InfiniteMomentError(f"partial moment {k} infinite")
        if x <= 0:
            return 0.0
        full = self.nu(k)
        a_shift = self.alpha + k / self.beta
        p = reg_incomplete_gamma(a_shift, self.lam * x ** self.beta)
        return full * (p if self.beta > 0 else 1.0 - p)

    def mu(self, k):
        if k == 0:
            return 1.0
        return self.nu(k)

    def nu(self, r):
        if r == 0:
            return 1.0
        if not self.moment_exists(r):
            raise InfiniteMomentError(
                f"nu_{r} of gamma_power(alpha={self.alpha}, beta={self.beta}) "
                f"is infinite (needs alpha + r/beta > 0)")
        return self.lam ** (-r / self.beta) * gamma_ratio(r / self.beta, self.alpha)

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

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        xa = np.atleast_1d(x).astype(float)
        half = np.array([reg_incomplete_gamma(1.0 / self.beta,
                                              (abs(v) / self.scale) ** self.beta)
                         for v in xa])
        out = 0.5 + 0.5 * np.sign(xa) * half
        return float(out[0]) if scalar else out

    def cdf_left(self, x):
        return self.cdf(x)

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        b, a = self.beta, self.scale
        c = b / (2.0 * a * math.gamma(1.0 / b))
        out = c * np.exp(-np.power(np.abs(x / a), b))
        return float(out) if out.ndim == 0 else out

    @property
    def has_density(self):
        return True

    def density_breakpoints(self):
        return [0.0]

    def support(self, eps=SUPPORT_EPS):
        eps = min(max(eps, 1e-300), 1e-3)
        hi = self.scale * max(1.0, (math.log(1.0 / eps)) ** (1.0 / self.beta)) * 2.0
        return (-hi, hi)

    def tail_scale(self):
        return self.scale

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

class Mixture(LawSpec):
    family = "mixture"

    def __init__(self, parts: Sequence[Tuple[float, LawSpec]]):
        parts = [(float(w), law) for w, law in parts if w != 0.0]
        if any(w < 0 for w, _ in parts):
            raise DomainError("mixture weights must be >= 0")
        if abs(sum(w for w, _ in parts) - 1.0) > 1e-9:
            raise DomainError("mixture weights must sum to 1")
        self.parts = parts

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        out = sum(w * np.asarray(law.cdf(x), dtype=float) for w, law in self.parts)
        return float(out) if np.ndim(out) == 0 else out

    def cdf_left(self, x):
        x = np.asarray(x, dtype=float)
        out = sum(w * np.asarray(law.cdf_left(x), dtype=float) for w, law in self.parts)
        return float(out) if np.ndim(out) == 0 else out

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        out = sum(w * np.asarray(law.pdf(x), dtype=float) for w, law in self.parts)
        return float(out) if np.ndim(out) == 0 else out

    @property
    def has_density(self):
        return any(law.has_density for _, law in self.parts)

    def atoms(self):
        # only exactly equal locations merge, as in cdf, which sums the
        # parts' own distribution functions
        return merge_atoms([(x, w * wp) for wp, law in self.parts
                            for x, w in law.atoms()], rtol=0.0)

    def density_breakpoints(self):
        out: List[float] = []
        for _, law in self.parts:
            out.extend(law.density_breakpoints())
        return sorted(set(out))

    def density_singularities(self):
        out: List[float] = []
        for _, law in self.parts:
            out.extend(law.density_singularities())
        return sorted(set(out))

    def support(self, eps=SUPPORT_EPS):
        los, his = zip(*(law.support(min(1.0 if w == 0 else eps / w, 0.4))
                         for w, law in self.parts))
        return (min(los), max(his))

    def tail_scale(self):
        return max(law.tail_scale() for _, law in self.parts)

    def mu(self, k):
        return sum(w * law.mu(k) for w, law in self.parts)

    def nu(self, r):
        return sum(w * law.nu(r) for w, law in self.parts)

    def to_dict(self):
        return {"family": "mixture",
                "parts": [[w, law.to_dict()] for w, law in self.parts]}


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
        return (np.asarray(x, dtype=float) - self.d) / self.c

    def cdf(self, x):
        y = self._pull(x)
        if self.c > 0:
            return self.base.cdf(y)
        out = 1.0 - np.asarray(self.base.cdf_left(y), dtype=float)
        return float(out) if np.ndim(out) == 0 else out

    def cdf_left(self, x):
        y = self._pull(x)
        if self.c > 0:
            return self.base.cdf_left(y)
        out = 1.0 - np.asarray(self.base.cdf(y), dtype=float)
        return float(out) if np.ndim(out) == 0 else out

    def pdf(self, x):
        out = np.asarray(self.base.pdf(self._pull(x)), dtype=float) / abs(self.c)
        return float(out) if np.ndim(out) == 0 else out

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

    def tail_scale(self):
        return abs(self.c) * self.base.tail_scale()

    def mu(self, k):
        return sum(math.comb(k, j) * self.c ** j * self.d ** (k - j) * self.base.mu(j)
                   for j in range(k + 1))

    def nu(self, r):
        if r == 0:
            return 1.0
        if self.d == 0.0:
            return abs(self.c) ** r * self.base.nu(r)
        if not self.base.has_density:
            return sum(w * abs(x) ** r for x, w in self.atoms())
        if hasattr(self.base, "partial_mu"):
            return self._nu_via_partials(r)
        return self._moment_quad(r, absolute=True)

    def _nu_via_partials(self, r: int) -> float:
        # E|cX + d|^r through closed partial moments of the base,
        # splitting at the sign change x* = -d/c
        c, d = self.c, self.d
        xs = -d / c
        full = [self.base.mu(k) for k in range(r + 1)]
        below = [self.base.partial_mu(k, xs) for k in range(r + 1)]
        lo_part = 0.0
        hi_part = 0.0
        for k in range(r + 1):
            coef = math.comb(r, k) * c ** k * d ** (r - k)
            lo_part += coef * below[k]
            hi_part += coef * (full[k] - below[k])
        # cX + d < 0 exactly on {X < x*} when c > 0, on {X > x*} when c < 0
        if c > 0:
            return hi_part + (-1.0) ** r * lo_part
        return lo_part + (-1.0) ** r * hi_part

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
    if isinstance(base, Mixture):
        return Mixture([(w, affine(c, d, part)) for w, part in base.parts])
    return Affine(c, d, base)


class Rounded(LawSpec):
    """Projection of ``base`` onto the lattice {(alpha + j) eta : j in Z}.

    Cell j receives base mass of ]((alpha+j-1/2)eta, (alpha+j+1/2)eta];
    base atoms sitting exactly on a cell boundary are split half/half.
    """

    family = "rounded"

    def __init__(self, eta: float, alpha: float, base: LawSpec,
                 tail_mass: float = 1e-14):
        if eta <= 0:
            raise DomainError("rounding needs eta > 0")
        self.eta = float(eta)
        self.alpha = float(alpha)
        self.base = base
        self.tail_mass = tail_mass
        self._inner: Optional[Atoms] = None

    def _weights(self) -> Atoms:
        if self._inner is None:
            lo, hi = self.base.support(self.tail_mass / 4.0)
            j_lo = math.floor(lo / self.eta - self.alpha + 0.5) - 1
            j_hi = math.ceil(hi / self.eta - self.alpha - 0.5) + 1
            js = np.arange(j_lo, j_hi + 1)
            edges = (self.alpha + js[0] - 0.5 + np.arange(js.size + 1)) * self.eta
            F = np.asarray(self.base.cdf(edges), dtype=float)
            p = np.diff(F)
            for x, w in self.base.atoms():
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
            self._inner = Atoms(list(zip(locs[keep].tolist(),
                                         (p[keep] / p[keep].sum()).tolist())))
        return self._inner

    def cdf(self, x):
        return self._weights().cdf(x)

    def cdf_left(self, x):
        return self._weights().cdf_left(x)

    def atoms(self):
        return self._weights().atoms()

    def support(self, eps=SUPPORT_EPS):
        return self._weights().support(eps)

    def tail_scale(self):
        return max(self.eta, self.base.tail_scale())

    def mu(self, k):
        return self._weights().mu(k)

    def nu(self, r):
        return self._weights().nu(r)

    def to_dict(self):
        return {"family": "rounded", "eta": self.eta, "alpha": self.alpha,
                "base": self.base.to_dict()}


class HistogramLaw(LawSpec):
    """Cell masses of the rounding spread uniformly over the cells."""

    family = "histogram"

    def __init__(self, eta: float, alpha: float, base: LawSpec,
                 tail_mass: float = 1e-14):
        if eta <= 0:
            raise DomainError("histogram needs eta > 0")
        self.eta = float(eta)
        self.alpha = float(alpha)
        self.base = base
        self._rounded = Rounded(eta, alpha, base, tail_mass)

    def _cells(self):
        pts = self._rounded.atoms()
        centers = np.array([x for x, _ in pts])
        w = np.array([wt for _, wt in pts])
        return centers, w

    def cdf(self, x):
        centers, w = self._cells()
        x = np.asarray(x, dtype=float)
        left = centers - self.eta / 2.0
        cum = np.concatenate([[0.0], np.cumsum(w)])
        idx = np.searchsorted(left, x, side="right") - 1
        idx = np.clip(idx, -1, centers.size - 1)
        inside = np.clip((x - left[np.maximum(idx, 0)]) / self.eta, 0.0, 1.0)
        out = np.where(idx >= 0, cum[np.maximum(idx, 0)] + w[np.maximum(idx, 0)] * inside, 0.0)
        out = np.clip(out, 0.0, 1.0)
        return float(out) if out.ndim == 0 else out

    def cdf_left(self, x):
        return self.cdf(x)

    def pdf(self, x):
        centers, w = self._cells()
        x = np.asarray(x, dtype=float)
        left = centers - self.eta / 2.0
        idx = np.searchsorted(left, x, side="right") - 1
        idx_c = np.clip(idx, 0, centers.size - 1)
        inside = (idx >= 0) & (x <= centers[idx_c] + self.eta / 2.0)
        out = np.where(inside, w[idx_c] / self.eta, 0.0)
        return float(out) if out.ndim == 0 else out

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

    def tail_scale(self):
        return self._rounded.tail_scale()

    def mu(self, k):
        # cell-wise exact: uniform on cell of width eta around center c
        centers, w = self._cells()
        h = self.eta / 2.0
        vals = ((centers + h) ** (k + 1) - (centers - h) ** (k + 1)) / ((k + 1) * self.eta)
        return float(np.sum(w * vals))

    def nu(self, r):
        centers, w = self._cells()
        h = self.eta / 2.0
        lo, hi = centers - h, centers + h
        a, b = np.abs(lo), np.abs(hi)
        straddle = (lo < 0) & (hi > 0)
        vals = np.empty_like(centers)
        vals[straddle] = (a[straddle] ** (r + 1) + b[straddle] ** (r + 1)) \
            / ((r + 1) * self.eta)
        mono = ~straddle
        vals[mono] = np.abs(b[mono] ** (r + 1) - a[mono] ** (r + 1)) \
            / ((r + 1) * self.eta)
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
        self._z = float(base.cdf(self.b)) - float(base.cdf(self.a))
        if self._z <= 0:
            raise DomainError("truncation window has zero mass")

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        fa = float(self.base.cdf(self.a))
        out = (np.asarray(self.base.cdf(np.clip(x, self.a, self.b)), dtype=float)
               - fa) / self._z
        out = np.clip(out, 0.0, 1.0)
        out = np.where(x < self.a, 0.0, np.where(x >= self.b, 1.0, out))
        return float(out) if out.ndim == 0 else out

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        inside = (x > self.a) & (x <= self.b)
        out = np.where(inside, np.asarray(self.base.pdf(x), dtype=float) / self._z, 0.0)
        return float(out) if out.ndim == 0 else out

    @property
    def has_density(self):
        return self.base.has_density

    def atoms(self):
        return [(x, w / self._z) for x, w in self.base.atoms()
                if self.a < x <= self.b]

    def density_breakpoints(self):
        inner = [c for c in self.base.density_breakpoints() if self.a < c < self.b]
        return sorted({self.a, self.b, *inner})

    def density_singularities(self):
        return [s for s in self.base.density_singularities()
                if self.a <= s <= self.b]

    def support(self, eps=SUPPORT_EPS):
        lo, hi = self.base.support(eps * self._z)
        return (max(lo, self.a), min(hi, self.b))

    def tail_scale(self):
        return min(self.base.tail_scale(), self.b - self.a)

    def mu(self, k):
        return self._moment_quad(k, absolute=False)

    def nu(self, r):
        return self._moment_quad(r, absolute=True)

    def to_dict(self):
        return {"family": "truncated", "a": self.a, "b": self.b,
                "base": self.base.to_dict()}


def truncate(base: LawSpec, a: float, b: float) -> Truncated:
    return Truncated(base, a, b)


class Conv2(LawSpec):
    """Convolution of two laws, evaluated by quadrature.

    Exactly representable convolutions (atomic factors, normal*normal)
    are simplified away by :func:`conv2_law`; this class is the generic
    continuous fallback.
    """

    family = "conv2"

    def __init__(self, p: LawSpec, q: LawSpec, tol: Tolerance = Tolerance(1e-10, 1e-9)):
        # integrate over the factor with the simpler structure
        self.p = p
        self.q = q
        self.tol = tol

    def _cdf_one(self, x: float) -> float:
        total = 0.0
        for a, w in self.q.atoms():
            total += w * float(self.p.cdf(x - a))
        if self.q.has_density:
            lo, hi = self.q.support(1e-15)
            plo, phi_ = self.p.support(1e-15)
            bps = sorted({x - b for b in ([plo, phi_] + self.p.density_breakpoints()
                                          + [a for a, _ in self.p.atoms()])}
                         | set(self.q.density_breakpoints()) | set(_part_ends(self.q)))
            f = lambda y: (np.asarray(self.p.cdf(x - y), dtype=float)
                           * np.asarray(self.q.pdf(y), dtype=float))
            v, _ = integrate(f, lo, hi, self.tol, breakpoints=bps)
            total += v
        return min(max(total, 0.0), 1.0)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        if x.ndim == 0:
            return self._cdf_one(float(x))
        return np.array([self._cdf_one(float(v)) for v in x])

    def cdf_left(self, x):
        return self.cdf(x)   # atoms of a continuous convolution are null here

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        xa = np.atleast_1d(x)
        out = np.zeros_like(xa)
        for i, v in enumerate(xa):
            total = 0.0
            for a, w in self.q.atoms():
                total += w * float(self.p.pdf(v - a))
            if self.q.has_density and self.p.has_density:
                lo, hi = self.q.support(1e-15)
                f = lambda y: (np.asarray(self.p.pdf(v - y), dtype=float)
                               * np.asarray(self.q.pdf(y), dtype=float))
                bps = (self.q.density_breakpoints() + _part_ends(self.q)
                       + [v - b for b in self.p.density_breakpoints() + _part_ends(self.p)])
                val, _ = integrate(f, lo, hi, self.tol, breakpoints=bps)
                total += val
            out[i] = total
        return float(out[0]) if scalar else out

    @property
    def has_density(self):
        return self.p.has_density or self.q.has_density

    def atoms(self):
        if self.p.has_density and self.q.has_density:
            return []
        return merge_atoms([(xa + xb, wa * wb)
                            for xa, wa in self.p.atoms()
                            for xb, wb in self.q.atoms()])

    def density_breakpoints(self):
        return []

    def support(self, eps=SUPPORT_EPS):
        lp = self.p.support(eps / 2)
        lq = self.q.support(eps / 2)
        return (lp[0] + lq[0], lp[1] + lq[1])

    def tail_scale(self):
        return self.p.tail_scale() + self.q.tail_scale()

    def mu(self, k):
        # moments of a sum via the binomial expansion
        return sum(math.comb(k, j) * self.p.mu(j) * self.q.mu(k - j)
                   for j in range(k + 1))

    def nu(self, r):
        if r == 0:
            return 1.0
        if r % 2 == 0:
            return self.mu(r)
        return self._moment_quad(r, absolute=True)

    def to_dict(self):
        return {"family": "conv2", "p": self.p.to_dict(), "q": self.q.to_dict()}


def _part_ends(law: LawSpec) -> List[float]:
    """The support ends of a mixture's continuous parts, nested ones too: a
    narrow part can fall between all quadrature nodes unless its ends are
    breakpoints."""
    if not isinstance(law, Mixture):
        return []
    return [e for _, part in law.parts if part.has_density
            for e in (*part.support(1e-15), *_part_ends(part))]


def conv2_law(p: LawSpec, q: LawSpec) -> LawSpec:
    """Law of X + Y for independent X ~ p, Y ~ q, simplified where exact."""
    if isinstance(p, Dirac):
        return affine(1.0, p.a, q)
    if isinstance(q, Dirac):
        return affine(1.0, q.a, p)
    if isinstance(p, Normal) and isinstance(q, Normal):
        return Normal(p.mu_loc + q.mu_loc, math.hypot(p.sigma, q.sigma))
    p_atomic = not p.has_density
    q_atomic = not q.has_density
    if p_atomic and q_atomic:
        return Atoms(merge_atoms([(xa + xb, wa * wb)
                                  for xa, wa in p.atoms()
                                  for xb, wb in q.atoms()]))
    if p_atomic:
        return Mixture([(w, affine(1.0, x, q)) for x, w in p.atoms()])
    if q_atomic:
        return Mixture([(w, affine(1.0, x, p)) for x, w in q.atoms()])
    return Conv2(p, q)


# -- factories mirroring the text format --------------------------------------

def dirac(a: float) -> Dirac:
    return Dirac(a)


def atoms_law(points) -> Atoms:
    return Atoms(points)


def bernoulli(p: float) -> Bernoulli:
    return Bernoulli(p)


def normal(mu: float = 0.0, sigma: float = 1.0) -> Normal:
    return Normal(mu, sigma)


STANDARD_NORMAL = Normal(0.0, 1.0)


def uniform(a: float, b: float) -> Uniform:
    return Uniform(a, b)


def truncated_normal_left(t: float) -> TruncatedNormalLeft:
    return TruncatedNormalLeft(t)


def winsorised_normal_left(t: float) -> WinsorisedNormalLeft:
    return WinsorisedNormalLeft(t)


def gamma_power(alpha: float, lam: float = 1.0, beta: float = 1.0) -> GammaPower:
    return GammaPower(alpha, lam, beta)


def mixture(parts) -> Mixture:
    return Mixture(parts)


def rounded(eta: float, alpha: float, base: LawSpec) -> Rounded:
    return Rounded(eta, alpha, base)


def histogram(eta: float, alpha: float, base: LawSpec) -> HistogramLaw:
    return HistogramLaw(eta, alpha, base)


def law_from_dict(d: dict) -> LawSpec:
    """Parse the nested object notation into a LawSpec tree."""
    fam = d.get("family")
    if fam == "dirac":
        return Dirac(float(d["a"]))
    if fam == "atoms":
        return Atoms([(float(x), float(w)) for x, w in d["points"]])
    if fam == "lattice":
        return Lattice(float(d["shift"]), float(d["span"]), d["weights"],
                       int(d.get("first_index", 0)))
    if fam == "bernoulli":
        return Bernoulli(float(d["p"]))
    if fam == "normal":
        return Normal(float(d.get("mu", 0.0)), float(d.get("sigma", 1.0)))
    if fam == "uniform":
        return Uniform(float(d["a"]), float(d["b"]))
    if fam == "truncated_normal_left":
        return TruncatedNormalLeft(float(d["t"]))
    if fam == "winsorised_normal_left":
        return WinsorisedNormalLeft(float(d["t"]))
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

def centre(P: LawSpec) -> LawSpec:
    return affine(1.0, -P.mean, P)


def reflect(P: LawSpec) -> LawSpec:
    return affine(-1.0, 0.0, P)


def standardise(P: LawSpec) -> LawSpec:
    if isinstance(P, Normal):
        return Normal(0.0, 1.0)
    s = P.std
    if not (s > 0) or not math.isfinite(s):
        raise DegenerateLawError("standardise needs 0 < sigma < inf")
    return affine(1.0 / s, -P.mean / s, P)


# -- moment tables ------------------------------------------------------------

@dataclass
class MomentTable:
    mu: List[Optional[float]]       # mu_0 .. mu_4, None when infinite
    nu: List[Optional[float]]       # nu_0 .. nu_4
    mean: Optional[float]
    sigma: Optional[float]

    def finite(self, r: int) -> bool:
        return self.nu[r] is not None


def moments(P: LawSpec) -> MomentTable:
    mu: List[Optional[float]] = []
    nu: List[Optional[float]] = []
    for k in range(5):
        try:
            nuk = P.nu(k)
        except InfiniteMomentError:
            nuk = None
        nu.append(nuk)
        if nuk is None:
            mu.append(None)
        else:
            mu.append(P.mu(k))
    mean = mu[1]
    sigma = None
    if mu[2] is not None and mean is not None:
        sigma = math.sqrt(max(mu[2] - mean * mean, 0.0))
    return MomentTable(mu, nu, mean, sigma)


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


@dataclass
class SignedMeasure:
    """Finite linear combination sum_i coef_i * law_i."""

    terms: List[Tuple[float, LawSpec]]

    def mass(self) -> float:
        return sum(c for c, _ in self.terms)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        out = sum(c * np.asarray(law.cdf(x), dtype=float) for c, law in self.terms)
        return float(out) if np.ndim(out) == 0 else out

    def cdf_left(self, x):
        x = np.asarray(x, dtype=float)
        out = sum(c * np.asarray(law.cdf_left(x), dtype=float) for c, law in self.terms)
        return float(out) if np.ndim(out) == 0 else out

    def density(self, x):
        x = np.asarray(x, dtype=float)
        out = sum(c * np.asarray(law.pdf(x), dtype=float) for c, law in self.terms)
        return float(out) if np.ndim(out) == 0 else out

    @property
    def has_density(self):
        return any(law.has_density for _, law in self.terms)

    def atoms(self) -> List[Tuple[float, float]]:
        """Signed atoms; only exactly coinciding locations of different
        terms merge, as in cdf, which sums the terms' own distribution
        functions."""
        return merge_atoms([(x, c * w) for c, law in self.terms
                            for x, w in law.atoms()], rtol=0.0)

    def density_breakpoints(self) -> List[float]:
        out: List[float] = []
        for _, law in self.terms:
            out.extend(law.density_breakpoints())
        return sorted(set(out))

    def density_singularities(self) -> List[float]:
        out: List[float] = []
        for _, law in self.terms:
            out.extend(law.density_singularities())
        return sorted(set(out))

    def support(self, eps: float = SUPPORT_EPS) -> Tuple[float, float]:
        los, his = [], []
        for c, law in self.terms:
            lo, hi = law.support(eps / max(len(self.terms), 1))
            los.append(lo)
            his.append(hi)
        return (min(los), max(his))

    def tail_scale(self) -> float:
        return max(law.tail_scale() for _, law in self.terms)

    def mu(self, k: int) -> float:
        return sum(c * law.mu(k) for c, law in self.terms)

    def nu_upper(self, r: int) -> float:
        """Triangle-inequality bound sum |c_i| nu_r(P_i) (used for scales)."""
        return sum(abs(c) * law.nu(r) for c, law in self.terms)

    def scaled(self, lam: float) -> "SignedMeasure":
        """Image under x -> lam * x."""
        return SignedMeasure([(c, affine(lam, 0.0, law)) for c, law in self.terms])

    def translated(self, a: float) -> "SignedMeasure":
        return SignedMeasure([(c, affine(1.0, a, law)) for c, law in self.terms])


def signed_diff(P: LawSpec, Q: LawSpec) -> SignedMeasure:
    return SignedMeasure([(1.0, P), (-1.0, Q)])


def convolve_signed(M1: SignedMeasure, M2: SignedMeasure) -> SignedMeasure:
    terms = []
    for c1, p in M1.terms:
        for c2, q in M2.terms:
            terms.append((c1 * c2, conv2_law(p, q)))
    return SignedMeasure(terms)
