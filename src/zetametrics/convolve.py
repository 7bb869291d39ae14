"""Convolution of laws and exact lattice powers; CLT left-hand sides.

The discrete path keeps weight arrays on a common lattice.  A power whose
result has at most ``_DIRECT_CAP`` entries is convolved directly (binary
exponentiation with ``np.convolve``), exact up to summation rounding.  A
larger power squares the base directly while it stays within the cap,
then takes one real FFT of that base to the remaining exponent ``q``,
times the FFT of the directly formed remainder power, and one inverse
transform.  Entries at or below the noise floor
``q * log2(fft_size) * eps * max(w)`` are set to zero and the rest are
renormalised, so the Kolmogorov distance of a standardised lattice power
to the normal law is off by at most the floor times the entry count.  The
continuous path evaluates two-fold convolution CDFs by quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .numerics import DEFAULT_TOL, Tolerance, std_normal_cdf, std_normal_pdf
from .measures import (Atoms, LawSpec, STANDARD_NORMAL, conv2_law,
                       lattice_span, signed_diff, standardise)
from .metrics import MetricValue, kolmogorov

MAX_LATTICE_ENTRIES = 100_000_000
# powers with at most this many entries are convolved directly; past it,
# the base is squared directly while it stays within it, then FFT-powered
_DIRECT_CAP = 4096


class ConvolveError(Exception):
    pass


class SpanMismatchError(ConvolveError):
    pass


class ModeError(ConvolveError):
    pass


@dataclass
class LatticeWeights:
    """Weights on shift + span * {0, 1, ..., len(weights)-1}.

    ``fft_size`` is the transform length of an FFT-formed power (0 when it
    was convolved directly); ``noise_floor`` is the level at or below
    which its entries were set to zero, the size of the transforms'
    rounding in each entry.
    """

    shift: float
    span: float
    weights: np.ndarray
    mass_tail: float = 0.0
    fft_size: int = 0
    noise_floor: float = 0.0

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        if self.span <= 0:
            raise ConvolveError("span must be > 0")
        if np.any(self.weights < 0):
            raise ConvolveError("weights must be >= 0")
        if abs(float(self.weights.sum()) + self.mass_tail - 1.0) > 1e-9:
            raise ConvolveError("weights + mass_tail must sum to 1")

    @property
    def locations(self) -> np.ndarray:
        return self.shift + self.span * np.arange(self.weights.size)

    def law(self) -> Atoms:
        keep = self.weights > 0
        w = self.weights[keep] / self.weights[keep].sum()
        return Atoms(list(zip(self.locations[keep].tolist(), w.tolist())))


def lattice_of(P: LawSpec, tol: float = 1e-9) -> LatticeWeights:
    """Embed a purely atomic commensurable law into a LatticeWeights array."""
    if P.has_density:
        raise ConvolveError("lattice_of needs a purely atomic law")
    pts = P.atoms()
    if len(pts) == 1:
        return LatticeWeights(pts[0][0], 1.0, np.array([1.0]))
    span = lattice_span(P)
    if not (span > 0) or math.isinf(span):
        raise ConvolveError("law is not lattice-commensurable")
    locs = np.array([x for x, _ in pts])
    wts = np.array([w for _, w in pts])
    idx = np.round((locs - locs[0]) / span).astype(int)
    if np.max(np.abs(locs[0] + idx * span - locs)) > tol * max(1.0, span):
        raise ConvolveError("atoms do not sit on a common lattice")
    arr = np.zeros(int(idx[-1]) + 1)
    arr[idx] = wts
    return LatticeWeights(float(locs[0]), float(span), arr)


def convolve_atomic(P: LatticeWeights, Q: LatticeWeights) -> LatticeWeights:
    """Exact discrete convolution; spans must match, shifts add."""
    if abs(P.span - Q.span) > 1e-12 * max(P.span, Q.span):
        raise SpanMismatchError(f"span mismatch: {P.span} vs {Q.span}")
    if (P.weights.size + Q.weights.size - 1) > MAX_LATTICE_ENTRIES:
        raise ConvolveError("convolution result exceeds entry budget")
    w = np.convolve(P.weights, Q.weights)
    tail = P.mass_tail + Q.mass_tail
    return LatticeWeights(P.shift + Q.shift, P.span, w, min(tail, 1.0))


def _square_down(P: LatticeWeights, n: int, cap: float):
    """Write P^n = base^q * rest with base = P^(2^j) by repeated squaring,
    squaring while q > 1 and the square has at most ``cap`` entries; rest
    is P^(n mod 2^j), or None when that exponent is 0."""
    rest: Optional[LatticeWeights] = None
    base = P
    q = n
    while q > 1 and 2 * base.weights.size - 1 <= cap:
        if q & 1:
            rest = base if rest is None else convolve_atomic(rest, base)
        q >>= 1
        base = convolve_atomic(base, base)
    return base, q, rest


def _power_direct(P: LatticeWeights, n: int) -> LatticeWeights:
    """n-fold convolution power by repeated squaring."""
    base, _, rest = _square_down(P, n, math.inf)
    return base if rest is None else convolve_atomic(rest, base)


def _fft_size(n: int) -> int:
    """The smallest 2^a 3^b 5^c >= n."""
    best = 1 << max(n - 1, 0).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            size = p35 << max(-(-n // p35) - 1, 0).bit_length()
            best = min(best, size)
            p35 *= 3
        p5 *= 5
    return best


def power_lattice(P: LatticeWeights, n: int) -> LatticeWeights:
    """n-fold convolution power, direct up to ``_DIRECT_CAP`` entries.

    Past the cap, ``P^(2^j)`` is squared directly while its length stays
    within the cap, collecting the low bits of n into a direct remainder
    power ``P^r``; then ``P^n = irfft(rfft(P^(2^j))^q * rfft(P^r))`` with
    ``q = n >> j``.  The transforms' rounding grows with q, so entries at
    or below ``q * log2(fft_size) * eps * max(w)`` (negative ones too) are
    set to zero and the rest renormalised; the result records that floor
    and the transform length.
    """
    if n < 1:
        raise ConvolveError("power needs n >= 1")
    size = n * (P.weights.size - 1) + 1
    if size > MAX_LATTICE_ENTRIES:
        raise ConvolveError("convolution power exceeds entry budget")
    if n == 1 or size <= _DIRECT_CAP:
        return _power_direct(P, n)
    base, q, rest = _square_down(P, n, _DIRECT_CAP)
    fft_size = _fft_size(size)
    W = np.fft.rfft(base.weights, fft_size)
    np.power(W, q, out=W)
    if rest is not None:
        W *= np.fft.rfft(rest.weights, fft_size)
    w = np.fft.irfft(W, fft_size)[:size]
    del W
    floor = q * math.log2(fft_size) * np.finfo(float).eps * float(w.max())
    w[w <= floor] = 0.0
    tail = min(n * P.mass_tail, 1.0)
    w *= (1.0 - tail) / w.sum()
    return LatticeWeights(n * P.shift, P.span, w, tail, fft_size, floor)


def _phi_antideriv(x: np.ndarray) -> np.ndarray:
    """Antiderivative of Phi: x Phi(x) + phi(x)."""
    return x * std_normal_cdf(x) + std_normal_pdf(x)


def wasserstein_lattice_vs_normal(L: LatticeWeights, mean: float, sd: float) -> float:
    """Exact integral |F_L~(x) - Phi(x)| dx over the standardised lattice.

    Cell-by-cell closed form: between adjacent atoms the lattice CDF is
    constant, so each cell contributes |c (b - a) - int Phi| split at the
    quantile when Phi crosses the level c.  This is the zeta_1 = kappa_1
    distance of the standardised lattice law to N.
    """
    from .numerics import std_normal_quantile
    keep = L.weights > 0
    xs = (L.locations[keep] - mean) / sd
    cum = np.cumsum(L.weights[keep])
    a = xs[:-1]
    b = xs[1:]
    c = cum[:-1]
    A = _phi_antideriv
    seg = A(b) - A(a)
    Fa = std_normal_cdf(a)
    Fb = std_normal_cdf(b)
    total = float(A(xs[0]))                        # left tail: int Phi
    total += float(std_normal_pdf(xs[-1]) - xs[-1] * (1.0 - std_normal_cdf(xs[-1])))
    below = c <= Fa
    above = c >= Fb
    cross = ~(below | above)
    total += float(np.sum(seg[below] - c[below] * (b[below] - a[below])))
    total += float(np.sum(c[above] * (b[above] - a[above]) - seg[above]))
    if np.any(cross):
        qs = np.array([std_normal_quantile(v) for v in c[cross]])
        ac, bc, cc = a[cross], b[cross], c[cross]
        left = cc * (qs - ac) - (A(qs) - A(ac))
        right = (A(bc) - A(qs)) - cc * (bc - qs)
        total += float(np.sum(np.abs(left) + np.abs(right)))
    return total


def _lattice_vs_normal_sup(L: LatticeWeights, mean: float, sd: float) -> Tuple[float, float]:
    """sup_x |F_L~(x) - Phi(x)| standardising atom coordinates exactly."""
    keep = L.weights > 0
    locs = (L.locations[keep] - mean) / sd
    cum = np.cumsum(L.weights[keep])
    cum_left = cum - L.weights[keep]
    Phi = std_normal_cdf(locs)
    diffs = np.maximum(np.abs(cum - Phi), np.abs(cum_left - Phi))
    k = int(np.argmax(diffs))
    return float(diffs[k]), float(locs[k])


def clt_lhs(P: LawSpec, n: int, mode: str = "exact_lattice",
            eta: Optional[float] = None, alpha: float = 0.0,
            tol: Tolerance = DEFAULT_TOL) -> MetricValue:
    """The central-limit error  || standardise(P^{*n}) - N ||_K.

    Modes: ``exact_lattice`` (purely atomic commensurable P, exact),
    ``quadrature_n2`` (n = 2, any P, quadrature convolution), and
    ``lattice_approx`` (any P, rounds to span eta first; the reported
    err_est adds a heuristic, uncertified discretisation term).
    """
    if n < 1:
        raise ModeError("n must be >= 1")
    if mode == "exact_lattice":
        L = lattice_of(P)
        Ln = power_lattice(L, n)
        mean = n * P.mean
        sd = math.sqrt(n) * P.std
        if not sd > 0:
            raise ModeError("degenerate law in exact_lattice mode")
        sup, arg = _lattice_vs_normal_sup(Ln, mean, sd)
        err = 1e-13 + Ln.noise_floor * Ln.weights.size
        return MetricValue(sup, err, "closed_form",
                           certificate={"atoms": int((Ln.weights > 0).sum()),
                                        "argmax": arg,
                                        "engine": "fft" if Ln.fft_size else "direct",
                                        "fft_size": Ln.fft_size})
    if mode == "quadrature_n2":
        if n != 2:
            raise ModeError("quadrature_n2 requires n = 2")
        law = conv2_law(P, P)
        M = signed_diff(standardise(law), STANDARD_NORMAL)
        # quadrature-backed CDF evaluations are costly; a coarser candidate
        # grid plus the golden polish keeps the sup accurate for smooth F_M
        n_base = 96 if law.family == "conv2" else 2048
        out = kolmogorov(M, tol, n_base=n_base)
        out.method = "quadrature"
        return out
    if mode == "lattice_approx":
        if eta is None or eta <= 0:
            raise ModeError("lattice_approx requires eta > 0")
        from .measures import Rounded
        Prd = Rounded(eta, alpha, P)
        out = clt_lhs(Prd, n, mode="exact_lattice")
        # heuristic discretisation error from zeta_1 rounding ~ eta/4,
        # semiadditivity over n factors, and the Kolmogorov-vs-kappa_1
        # smoothing inequality; not a certified bound.
        sigma = P.std
        extra = (2 * math.pi) ** (-0.25) * math.sqrt(n * eta / (4.0 * sigma) * 1.1)
        return MetricValue(out.value, out.err_est + extra, "quadrature",
                           certificate={"heuristic_discretisation_err": extra,
                                        "note": "lattice_approx error term is "
                                                "heuristic, not a certified bound"})
    raise ModeError(f"unknown clt_lhs mode {mode!r}")


def convolution_inequality_check(F1: LawSpec, F2: LawSpec,
                                 H1: LawSpec, H2: LawSpec,
                                 tol: Tolerance = DEFAULT_TOL) -> Tuple[float, float]:
    """Both sides of the two-fold convolution smoothing inequality.

    lhs = sup |F_{F1*F2} - F_{H1*H2}|;
    rhs = (sqrt(L2 * |F1-H1|_1) + sqrt(L1 * |F2-H2|_1))^2
    with L_i the Lipschitz constant (sup density) of H_i.
    """
    from .metrics import kappa_r

    def lipschitz(H: LawSpec) -> float:
        if not H.has_density or H.atoms():
            raise ConvolveError("H factors must be Lipschitz laws "
                                "(bounded density, no atoms)")
        lo, hi = H.support(1e-9)
        xs = np.linspace(lo, hi, 4097)
        return float(np.max(np.asarray(H.pdf(xs), dtype=float)))

    L1 = lipschitz(H1)
    L2 = lipschitz(H2)
    d1 = kappa_r(signed_diff(F1, H1), 1.0, tol).value
    d2 = kappa_r(signed_diff(F2, H2), 1.0, tol).value
    rhs = (math.sqrt(L2 * d1) + math.sqrt(L1 * d2)) ** 2
    c12 = conv2_law(F1, F2)
    Mconv = signed_diff(c12, conv2_law(H1, H2))
    n_base = 96 if c12.family == "conv2" else 2048
    lhs = kolmogorov(Mconv, tol, n_base=n_base).value
    return lhs, rhs
