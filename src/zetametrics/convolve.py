"""Convolution of laws and exact lattice powers; CLT left-hand sides.

The discrete path keeps weight arrays on a common lattice.  A power whose
result has at most ``_DIRECT_CAP`` entries is convolved directly (binary
exponentiation with ``np.convolve``), exact up to summation rounding.  A
larger power squares the base directly while it stays within the cap,
then takes one real FFT of that base to the remaining exponent ``q``,
times the FFT of the directly formed remainder power, and one inverse
transform.  The transforms span only the window of indices outside which
Bernstein's inequality leaves at most 1e-30 of the sum's mass on each
side, not the whole support; the result is 0 outside the window.  Entries
at or below the noise floor ``q * log2(fft_size) * eps * max(w)`` are set
to zero and the rest are renormalised, so the Kolmogorov distance of a
standardised lattice power to the normal law is off by at most the floor
times the entry count, plus the two 1e-30 tails.  The continuous path
evaluates two-fold convolution CDFs by quadrature.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from .numerics import std_normal_cdf, std_normal_pdf, std_normal_quantile
from .measures import (MAX_LATTICE_ENTRIES, Lattice, LawSpec, Rounded, STANDARD_NORMAL,
                       conv2_law, lattice_span, signed_diff, standardise)
from .metrics import MetricValue, closed_stack_evaluator, kappa_r, kolmogorov
# powers with at most this many entries are convolved directly; past it,
# the base is squared directly while it stays within it, then FFT-powered
_DIRECT_CAP = 4096
# an FFT power's transform spans the window outside which each side of the
# sum holds at most this mass (Bernstein's inequality)
_TAIL_MASS = 1e-30


class ConvolveError(Exception):
    pass


class SpanMismatchError(ConvolveError):
    pass


class ModeError(ConvolveError):
    pass


def lattice_of(P: LawSpec) -> Lattice:
    """P as a Lattice: itself when it is one, else its atoms embedded on
    their common lattice, which must hold them within 1e-9 of the span."""
    if isinstance(P, Lattice):
        return P
    if P.has_density:
        raise ConvolveError("lattice_of needs a purely atomic law")
    pts = P.atoms()
    if len(pts) == 1:
        return Lattice(pts[0][0], 1.0, [1.0])
    span = lattice_span(P)
    if not (span > 0) or math.isinf(span):
        raise ConvolveError("law is not lattice-commensurable")
    locs = np.array([x for x, _ in pts])
    wts = np.array([w for _, w in pts])
    idx = np.round((locs - locs[0]) / span).astype(int)
    if np.max(np.abs(locs[0] + idx * span - locs)) > 1e-9 * max(1.0, span):
        raise ConvolveError("atoms do not sit on a common lattice")
    arr = np.zeros(int(idx[-1]) + 1)
    arr[idx] = wts
    return Lattice(float(locs[0]), float(span), arr)


def convolve_atomic(P: Lattice, Q: Lattice) -> Lattice:
    """Exact discrete convolution; spans must match, shifts add."""
    if abs(P.span - Q.span) > 1e-12 * max(P.span, Q.span):
        raise SpanMismatchError(f"span mismatch: {P.span} vs {Q.span}")
    if (P.weights.size + Q.weights.size - 1) > MAX_LATTICE_ENTRIES:
        raise ConvolveError("convolution result exceeds entry budget")
    return Lattice(P.shift + Q.shift, P.span, np.convolve(P.weights, Q.weights))


def _square_down(P: Lattice, n: int, cap: float):
    """Write P^n = base^q * rest with base = P^(2^j) by repeated squaring,
    squaring while q > 1 and the square has at most ``cap`` entries; rest
    is P^(n mod 2^j), or None when that exponent is 0."""
    rest: Optional[Lattice] = None
    base = P
    q = n
    while q > 1 and 2 * base.weights.size - 1 <= cap:
        if q & 1:
            rest = base if rest is None else convolve_atomic(rest, base)
        q >>= 1
        base = convolve_atomic(base, base)
    return base, q, rest


def _power_direct(P: Lattice, n: int) -> Lattice:
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


def _mass_window(p: np.ndarray, n: int) -> Tuple[int, int]:
    """Indices [lo, hi) of the n-fold sum of the index law p outside which
    each side holds at most ``_TAIL_MASS``, clipped to the sum's support.

    Bernstein's inequality with the index mean mu, variance s2 and the
    one-sided ranges b = mu (below) and len(p) - 1 - mu (above) bounds the
    mass past ``n mu -+ t`` by exp(-L), L = ln(1 / _TAIL_MASS), for
    ``t = b L / 3 + sqrt((b L / 3)^2 + 2 n s2 L)``.
    """
    p = p / p.sum()
    idx = np.arange(p.size)
    mu = float(p @ idx)
    s2 = float(p @ (idx - mu) ** 2)
    L = math.log(1.0 / _TAIL_MASS)

    def side(b):
        return b * L / 3.0 + math.sqrt((b * L / 3.0) ** 2 + 2.0 * n * s2 * L)

    size = n * (p.size - 1) + 1
    lo = max(math.floor(n * mu - side(mu)), 0)
    hi = min(math.ceil(n * mu + side(p.size - 1 - mu)) + 1, size)
    return lo, hi


def power_lattice(P: Lattice, n: int) -> Lattice:
    """n-fold convolution power, direct up to ``_DIRECT_CAP`` entries.

    Past the cap, ``P^(2^j)`` is squared directly while its length stays
    within the cap, collecting the low bits of n into a direct remainder
    power ``P^r``; then ``P^n = irfft(rfft(P^(2^j))^q * rfft(P^r))`` with
    ``q = n >> j``.  The transforms span only the window ``[lo, hi)``
    of ``_mass_window``, past each side of which the sum holds at most
    1e-30: the circular result is read at the window's indices modulo the
    transform length, so only the mass past the window aliases in, and
    the power is 0 outside it.  When the window is the whole support, the
    transform length and weights are those of a full-length transform.
    The transforms' rounding grows with q, so entries at or below
    ``q * log2(fft_size) * eps * max(w)`` (negative ones too) are set to
    zero and the rest renormalised; the result records that floor, the
    transform length and the window.
    """
    if n < 1:
        raise ConvolveError("power needs n >= 1")
    size = n * (P.weights.size - 1) + 1
    if size > MAX_LATTICE_ENTRIES:
        raise ConvolveError("convolution power exceeds entry budget")
    if n == 1 or size <= _DIRECT_CAP:
        return _power_direct(P, n)
    lo, hi = _mass_window(P.weights, n)
    base, q, rest = _square_down(P, n, _DIRECT_CAP)
    # rfft crops a longer input; the remainder is shorter than the base
    fft_size = _fft_size(max(hi - lo, base.weights.size))
    W = np.fft.rfft(base.weights, fft_size)
    np.power(W, q, out=W)
    if rest is not None:
        W *= np.fft.rfft(rest.weights, fft_size)
    v = np.fft.irfft(W, fft_size)[np.arange(lo, hi) % fft_size]
    del W
    floor = q * math.log2(fft_size) * np.finfo(float).eps * float(v.max())
    v[v <= floor] = 0.0
    v *= 1.0 / v.sum()
    w = np.zeros(size)
    w[lo:hi] = v
    out = Lattice(n * P.shift, P.span, w)
    out.fft_size, out.noise_floor, out.window = fft_size, floor, [lo, hi]
    return out


def wasserstein_lattice_vs_normal(L: Lattice, mean: float, sd: float) -> float:
    """Exact integral |F_L~(x) - Phi(x)| dx over the standardised lattice.

    Cell-by-cell closed form: between adjacent atoms the lattice CDF is
    constant, so each cell contributes |c (b - a) - int Phi| split at the
    quantile when Phi crosses the level c.  This is the zeta_1 = kappa_1
    distance of the standardised lattice law to N.
    """
    xs = (L._locs - mean) / sd
    cum = L._cum[1:]
    a = xs[:-1]
    b = xs[1:]
    c = cum[:-1]
    F2 = closed_stack_evaluator(STANDARD_NORMAL, 2)   # -(x Phi(x) + phi(x))
    seg = F2(a) - F2(b)                            # int_a^b Phi
    Fa = std_normal_cdf(a)
    Fb = std_normal_cdf(b)
    total = float(-F2(xs[0]))                      # left tail: int Phi
    total += float(std_normal_pdf(xs[-1]) - xs[-1] * (1.0 - std_normal_cdf(xs[-1])))
    below = c <= Fa
    above = c >= Fb
    cross = ~(below | above)
    total += float(np.sum(seg[below] - c[below] * (b[below] - a[below])))
    total += float(np.sum(c[above] * (b[above] - a[above]) - seg[above]))
    if np.any(cross):
        qs = np.array([std_normal_quantile(v) for v in c[cross]])
        ac, bc, cc = a[cross], b[cross], c[cross]
        left = cc * (qs - ac) - (F2(ac) - F2(qs))
        right = (F2(qs) - F2(bc)) - cc * (bc - qs)
        total += float(np.sum(np.abs(left) + np.abs(right)))
    return total


def _lattice_vs_normal_sup(L: Lattice, mean: float, sd: float) -> Tuple[float, float]:
    """sup_x |F_L~(x) - Phi(x)| standardising atom coordinates exactly."""
    locs = (L._locs - mean) / sd
    Phi = std_normal_cdf(locs)
    cum = L._cum[1:]
    diffs = np.maximum(np.abs(cum - Phi), np.abs(cum - L._wts - Phi))
    k = int(np.argmax(diffs))
    return float(diffs[k]), float(locs[k])


def clt_lhs(P: LawSpec, n: int, mode: str = "exact_lattice",
            eta: Optional[float] = None, alpha: float = 0.0) -> MetricValue:
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
        if Ln.window is not None:
            # the mass past each side of the window is left out and aliased in
            err += 4 * _TAIL_MASS
        return MetricValue(sup, err, "closed_form",
                           certificate={"atoms": int((Ln.weights > 0).sum()),
                                        "argmax": arg,
                                        "engine": "fft" if Ln.fft_size else "direct",
                                        "fft_size": Ln.fft_size,
                                        "window": Ln.window})
    if mode == "quadrature_n2":
        if n != 2:
            raise ModeError("quadrature_n2 requires n = 2")
        M = signed_diff(standardise(conv2_law(P, P)), STANDARD_NORMAL)
        out = kolmogorov(M)
        out.method = "quadrature"
        return out
    if mode == "lattice_approx":
        if eta is None or eta <= 0:
            raise ModeError("lattice_approx requires eta > 0")
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
                                 H1: LawSpec, H2: LawSpec) -> Tuple[float, float]:
    """Both sides of the two-fold convolution smoothing inequality.

    lhs = sup |F_{F1*F2} - F_{H1*H2}|;
    rhs = (sqrt(L2 * |F1-H1|_1) + sqrt(L1 * |F2-H2|_1))^2
    with L_i the Lipschitz constant (sup density) of H_i.
    """
    def lipschitz(H: LawSpec) -> float:
        if not H.has_density or H.atoms():
            raise ConvolveError("H factors must be Lipschitz laws "
                                "(bounded density, no atoms)")
        lo, hi = H.support(1e-9)
        xs = np.linspace(lo, hi, 4097)
        return float(np.max(H.pdf(xs)))

    L1 = lipschitz(H1)
    L2 = lipschitz(H2)
    d1 = kappa_r(signed_diff(F1, H1), 1.0).value
    d2 = kappa_r(signed_diff(F2, H2), 1.0).value
    rhs = (math.sqrt(L2 * d1) + math.sqrt(L1 * d2)) ** 2
    lhs = kolmogorov(signed_diff(conv2_law(F1, F2), conv2_law(H1, H2))).value
    return lhs, rhs
