"""Convolution of laws and exact lattice powers; CLT left-hand sides.

The discrete path keeps weight arrays on a common lattice.  A power whose
result has at most ``_DIRECT_CAP`` entries is convolved directly (binary
exponentiation with ``np.convolve``).  A larger power squares the base
directly while its full support stays within the cap, then takes one
real FFT of that base to the remaining exponent ``q``, times the FFT of
the directly formed remainder power, and one inverse transform.  Every
k-fold factor and the power itself are kept only over their window:
Bernstein's inequality leaves at most 1e-30 of the exact power's mass
past each side of it, and the weights span the window, not the whole
support.  So a direct power is exact up to summation rounding and the
1e-30 cuts; when the window is the whole support nothing is cut.  The
transforms span the power's window.  Their entries at or below the noise
floor ``q * log2(fft_size) * eps * max(w)`` are set to zero and the rest
are renormalised, so the Kolmogorov distance of a standardised lattice
power to the normal law is off by at most the floor times the stored
entry count, plus 2e-30 per cut factor and the two 1e-30 tails of the
transform, left out and aliased in.  The continuous path evaluates
two-fold convolution CDFs by quadrature.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Tuple

import numpy as np

from .numerics import std_normal_cdf, std_normal_pdf, std_normal_quantile
from .measures import (MAX_LATTICE_ENTRIES, Lattice, LawSpec, Rounded, STANDARD_NORMAL,
                       conv2_law, lattice_span, signed_diff, standardise)
from .metrics import MetricValue, closed_stack_evaluator, kappa_r, kolmogorov
# powers with at most this many entries are convolved directly; past it,
# the base is squared directly while its full support stays within it,
# then FFT-powered
_DIRECT_CAP = 4096
# a power and its factors are kept over the window outside which each side
# of the exact sum holds at most this mass (Bernstein's inequality)
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


def _mass_window(p: np.ndarray) -> Callable[[int], Tuple[int, int]]:
    """The mass windows of the sums of the index law p: a function of k
    giving the indices [lo, hi) of the k-fold sum outside which each side
    holds at most ``_TAIL_MASS``, clipped to the sum's support.

    Bernstein's inequality with the index mean mu, variance s2 and the
    one-sided ranges b = mu (below) and len(p) - 1 - mu (above) bounds the
    mass past ``k mu -+ t`` by exp(-L), L = ln(1 / _TAIL_MASS), for
    ``t = b L / 3 + sqrt((b L / 3)^2 + 2 k s2 L)``.  The margin between
    ``k mu - t`` and the support's lower end is convex in k and negative
    at k = 0, and so is the one above; so when the n-fold window is the
    whole support, every k-fold window with k <= n is too.
    """
    idx = np.arange(p.size, dtype=float)
    mass = float(p.sum())
    mu = float(p @ idx) / mass
    idx -= mu
    s2 = float(p @ (idx * idx)) / mass
    L = math.log(1.0 / _TAIL_MASS)
    top = p.size - 1
    # b L / 3 for the sides below and above, and 2 s2 L
    below, above, v = mu * L / 3.0, (top - mu) * L / 3.0, 2.0 * s2 * L

    def window(k):
        lo = math.floor(k * mu - below - math.sqrt(below * below + k * v))
        hi = math.ceil(k * mu + above + math.sqrt(above * above + k * v)) + 1
        return max(lo, 0), min(hi, k * top + 1)
    return window


def power_lattice(P: Lattice, n: int) -> Lattice:
    """n-fold convolution power, stored over its mass window.

    ``P^(2^j)`` is squared directly, collecting the low bits of n into a
    direct remainder power ``P^r``.  A power of at most ``_DIRECT_CAP``
    entries is their product; past the cap, the squaring stops while the
    square's full support still fits the cap, and
    ``P^n = irfft(rfft(P^(2^j))^q * rfft(P^r))`` with ``q = n >> j``.
    Each product, a k-fold power, is cut to the k-fold window of
    ``_mass_window``, past each side of which the exact power holds at
    most 1e-30; ``cuts`` counts the factors that lost entries.  The
    transforms span the n-fold window ``[lo, hi)``, and the circular
    result is read at its indices less the factors' first indices, so
    only mass past the window aliases in.  The power's ``weights`` span
    its window only, ``shift`` is the window's first atom, and ``window``
    records ``[lo, hi]`` on both engines.  When the n-fold window is the
    whole support, nothing is cut and the weights are those of the
    uncut products and full-length transform.  The transforms' rounding
    grows with q, so entries at or below
    ``q * log2(fft_size) * eps * max(w)`` (negative ones too) are set to
    zero and the rest renormalised; the result records that floor and
    the transform length.
    """
    if n < 1:
        raise ConvolveError("power needs n >= 1")
    m = P.weights.size
    size = n * (m - 1) + 1
    if size > MAX_LATTICE_ENTRIES:
        raise ConvolveError("convolution power exceeds entry budget")
    if n == 1:
        return P
    window = _mass_window(P.weights)
    lo, hi = window(n)
    # no k-fold factor (k <= n) is cut when the n-fold window is the support
    cut = hi - lo < size
    cuts = 0

    def times(A, a, B, b, k):
        """The k-fold power A * B, with A stored from index a and B from
        b, cut to its window; returns it and its first index."""
        nonlocal cuts
        C = convolve_atomic(A, B)
        if cut:
            klo, khi = window(k)
            i, j = max(klo - a - b, 0), min(khi - a - b, C.weights.size)
            if j - i < C.weights.size:
                C.weights, C.shift = C.weights[i:j], C.shift + i * P.span
                cuts += 1
                return C, a + b + i
        return C, a + b

    direct = size <= _DIRECT_CAP
    cap = math.inf if direct else _DIRECT_CAP
    base, b0, k = P, 0, 1
    rest, r0, r = None, 0, 0
    q = n
    while q > 1 and 2 * k * (m - 1) + 1 <= cap:
        if q & 1:
            r += k
            rest, r0 = (base, b0) if rest is None else times(rest, r0, base, b0, r)
        q >>= 1
        k *= 2
        base, b0 = times(base, b0, base, b0, k)
    if direct:
        out, first = (base, b0) if rest is None else times(rest, r0, base, b0, n)
        out.window, out.cuts = [first, first + out.weights.size], cuts
        return out
    # rfft would crop a longer input
    fft_size = _fft_size(max(hi - lo, base.weights.size,
                             0 if rest is None else rest.weights.size))
    W = np.fft.rfft(base.weights, fft_size)
    np.power(W, q, out=W)
    if rest is not None:
        W *= np.fft.rfft(rest.weights, fft_size)
    first = q * b0 + r0
    v = np.fft.irfft(W, fft_size)[np.arange(lo - first, hi - first) % fft_size]
    del W
    floor = q * math.log2(fft_size) * np.finfo(float).eps * float(v.max())
    v[v <= floor] = 0.0
    v *= 1.0 / v.sum()
    out = Lattice(n * P.shift + lo * P.span, P.span, v)
    out.fft_size, out.noise_floor, out.window, out.cuts = fft_size, floor, [lo, hi], cuts
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
        err = 1e-13 + Ln.noise_floor * Ln.weights.size + 2 * _TAIL_MASS * Ln.cuts
        if Ln.fft_size:
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
