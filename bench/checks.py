"""Output checks of the benchmark, with their reference computations.

Every reference here is computed apart from zetametrics, from the standard
library (``math.erf``, ``math.erfc``, ``math.lgamma``) or, for the one
convolution integral, from ``scipy.integrate.quad``.  A check takes plain
numbers and returns ``(ok, detail)``; ``selftest.py`` feeds each one a
perturbed value and shows that it then fails.
"""

import math

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)
INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def Phi(x):
    return 0.5 * math.erfc(-x / SQRT2)


def phi(x):
    return INV_SQRT_2PI * math.exp(-0.5 * x * x)


def _Phi_antiderivative(x):
    """Integral of Phi over (-inf, x]."""
    return x * Phi(x) + phi(x)


def _Phi_inverse(c):
    lo, hi = -40.0, 40.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if Phi(mid) < c:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-15 * (1.0 + abs(mid)):
            break
    return 0.5 * (lo + hi)


def _standardised(atoms):
    mean = math.fsum(w * x for x, w in atoms)
    sd = math.sqrt(math.fsum(w * (x - mean) ** 2 for x, w in atoms))
    return sorted(((x - mean) / sd, w) for x, w in atoms)


def kappa1_reference(atoms):
    """Integral of |F - Phi| for the standardised atomic law.

    F is constant between atoms, so each cell contributes a closed form in
    the antiderivative of Phi, split where Phi crosses the cell's level.
    """
    pts = _standardised(atoms)
    A = _Phi_antiderivative
    total = A(pts[0][0])
    last = pts[-1][0]
    total += phi(last) - last * (1.0 - Phi(last))
    level = 0.0
    for (a, w), (b, _) in zip(pts[:-1], pts[1:]):
        level += w
        if level <= Phi(a):
            total += (A(b) - A(a)) - level * (b - a)
        elif level >= Phi(b):
            total += level * (b - a) - (A(b) - A(a))
        else:
            q = _Phi_inverse(level)
            total += (level * (q - a) - (A(q) - A(a))) \
                + ((A(b) - A(q)) - level * (b - q))
    return total


def _close(got, want, tol):
    return abs(got - want) <= tol, f"got {got:.15g}, want {want:.15g}, tol {tol:.1e}"


# ---------------------------------------------------------------------------
# profile_corpus
# ---------------------------------------------------------------------------

def check_kappa1(atoms, kappa1, tol=1e-9):
    """kappa_1(P~ - N) agrees with the integral of |F - Phi| from the atoms."""
    return _close(kappa1, kappa1_reference(atoms), tol)


def check_lhs_below_rhs(lhs, rhs):
    """The exact CLT left-hand side is at most every applicable right-hand
    side; ``rhs`` maps a bound id to ``(value, applicable)``."""
    broken = [(bid, value) for bid, (value, applicable) in sorted(rhs.items())
              if applicable and lhs > value + 1e-7 * (1.0 + value)]
    return not broken, f"lhs {lhs:.6g}, breached {broken or 'none'}"


def check_moment_chain(zeta3, kappa3, nu3, nu0, tol=1e-9):
    """zeta_3 <= kappa_3/6 <= nu_3/6, and nu_0 = 2 for a lattice law against
    the normal (the two parts are mutually singular)."""
    ok = (zeta3 <= kappa3 / 6.0 * (1 + tol) + tol
          and kappa3 <= nu3 * (1 + tol) + tol
          and abs(nu0 - 2.0) <= tol)
    return ok, (f"zeta3 {zeta3:.6g}, kappa3/6 {kappa3 / 6:.6g}, "
                f"nu3/6 {nu3 / 6:.6g}, nu0 {nu0:.12g}")


def check_bernoulli_half_kappa1(kappa1, tol=1e-9):
    """kappa_1(B~_1/2 - N) = 4 Phi(1) + 4 phi(1) - 2 phi(0) - 3."""
    return _close(kappa1, 4 * Phi(1.0) + 4 * phi(1.0) - 2 * phi(0.0) - 3, tol)


# ---------------------------------------------------------------------------
# clt_large_n
# ---------------------------------------------------------------------------

def binomial_sup_reference(p, n):
    """sup |F - Phi| of the standardised Binomial(n, p), with the pmf built
    in log space and the left limit taken at every atom."""
    lp, lq = math.log(p), math.log1p(-p)
    lg_n = math.lgamma(n + 1)
    mean, sd = n * p, math.sqrt(n * p * (1.0 - p))
    cum, best = 0.0, 0.0
    for k in range(n + 1):
        log_pmf = (lg_n - math.lgamma(k + 1) - math.lgamma(n - k + 1)
                   + k * lp + (n - k) * lq)
        target = Phi((k - mean) / sd)
        left = cum
        cum += math.exp(log_pmf)
        best = max(best, abs(cum - target), abs(left - target))
    return best


def check_binomial_sup(p, n, sup, tol=1e-9):
    return _close(sup, binomial_sup_reference(p, n), tol)


def check_power_moments(weights, shift, span, n, mean, var, mu3, tol=1e-9):
    """The n-th lattice power has total mass 1, and mean n mu, variance
    n sigma^2 and third central moment n mu_3 (of the weights normalised by
    their mass).  ``weights`` is a sequence of floats on shift + span * k."""
    xs = [shift + span * k for k in range(len(weights))]
    mass = math.fsum(weights)
    m1 = math.fsum(w * x for w, x in zip(weights, xs)) / mass
    m2 = math.fsum(w * (x - m1) ** 2 for w, x in zip(weights, xs)) / mass
    m3 = math.fsum(w * (x - m1) ** 3 for w, x in zip(weights, xs)) / mass
    scale = math.sqrt(n * var)
    ok = (abs(mass - 1.0) <= tol
          and abs(m1 - n * mean) <= tol * max(1.0, abs(n * mean), scale)
          and abs(m2 - n * var) <= tol * n * var
          and abs(m3 - n * mu3) <= tol * scale ** 3)
    return ok, (f"n={n}: mass-1 {mass - 1:.2e}, mean {m1 - n * mean:.2e} off, "
                f"var {m2 / (n * var) - 1:.2e} off (relative), "
                f"mu3 {(m3 - n * mu3) / scale ** 3:.2e} off (in sigma^3)")


def check_esseen_approach(ns, lhs, esseen, rel_tol):
    """sqrt(n) * LHS approaches the Esseen constant: the gap shrinks from the
    smallest to the largest n and ends within ``rel_tol`` of the constant."""
    gaps = [abs(math.sqrt(n) * v - esseen) for n, v in zip(ns, lhs)]
    ok = gaps[-1] < gaps[0] and gaps[-1] <= rel_tol * esseen
    return ok, (f"esseen {esseen:.6g}, sqrt(n) lhs gap {gaps[0]:.3g} at n={ns[0]} "
                f"-> {gaps[-1]:.3g} at n={ns[-1]} (<= {rel_tol * esseen:.3g})")


# ---------------------------------------------------------------------------
# quadrature_engine
# ---------------------------------------------------------------------------

ZOLOTAREV_CLOSED_FORMS = {
    "zeta_1": (5 * SQRT3 - 6) / 6,
    "zeta_3": (3 * SQRT3 - 4) / 24,
    "zeta_4": 1.0 / 30.0,
    "kappa_2": (3.0 + (2 * SQRT3 - 3) * 2 / 3 - 1) / 3,
}


def check_zolotarev(name, value, tol=1e-7):
    """The norms of M = (delta_-1 + delta_1)/2 - U(-sqrt3, sqrt3)."""
    return _close(value, ZOLOTAREV_CLOSED_FORMS[name], tol)


def near_extremal_cdf(x, eps):
    """F_P for P = (Phi(eps) - 1/2) delta_0 + N restricted to R minus [0, eps]:
    the normal law with the mass of (0, eps] moved to 0."""
    return Phi(eps) if 0.0 <= x < eps else Phi(x)


def near_extremal_conv_reference(x, eps):
    """F_{P*P}(x) = (Phi(eps) - 1/2) F_P(x) + integral of F_P(x - y) phi(y)
    over y < 0 and y > eps, by scipy.integrate.quad."""
    from scipy.integrate import quad
    f = lambda y: near_extremal_cdf(x - y, eps) * phi(y)
    total = (Phi(eps) - 0.5) * near_extremal_cdf(x, eps)
    for lo, hi in ((-40.0, 0.0), (eps, 40.0)):
        kinks = [k for k in (x - eps, x) if lo < k < hi]
        v, _ = quad(f, lo, hi, points=kinks or None, epsabs=1e-14,
                    epsrel=1e-13, limit=400)
        total += v
    return total


def check_conv2_point(x, eps, value, tol=1e-9):
    return _close(value, near_extremal_conv_reference(x, eps), tol)


def check_conv2_inequality(x, value, rhs):
    """|F_{P*P}(x) - Phi(x / sqrt2)| <= the smoothing inequality's RHS."""
    gap = abs(value - Phi(x / SQRT2))
    return gap <= rhs, f"x={x}: |F - Phi| {gap:.6g} vs rhs {rhs:.6g}"


def triangular_sup_reference():
    """sup |F_T - Phi| for T = (U1 + U2)/sqrt2, U_i ~ U(-sqrt3, sqrt3).

    T is triangular on [-c, c] with c = sqrt6 and F_T - Phi is odd, so the
    sup sits at x = c or where the densities cross on (0, c)."""
    c = math.sqrt(6.0)

    def gap(x):
        return 1.0 - (c - x) ** 2 / (2 * c * c) - Phi(x)

    def dens(x):
        return (c - x) / (c * c) - phi(x)

    best = abs(gap(c))
    grid = [c * k / 4096 for k in range(4097)]
    for a, b in zip(grid[:-1], grid[1:]):
        if dens(a) * dens(b) < 0:
            for _ in range(200):
                m = 0.5 * (a + b)
                if dens(a) * dens(m) <= 0:
                    b = m
                else:
                    a = m
            best = max(best, abs(gap(0.5 * (a + b))))
    return best


def check_uniform_n2(value, tol=1e-9):
    return _close(value, triangular_sup_reference(), tol)


# ---------------------------------------------------------------------------
# paper_gate
# ---------------------------------------------------------------------------

def quoted_tolerance(quote):
    """1.5 units in the last quoted digit, and never below 1e-7 (the
    precision the exact Zolotarev rows are quoted to be met at)."""
    mant, _, expo = quote.lower().partition("e")
    decimals = len(mant.split(".")[1]) if "." in mant else 0
    return max(1.5 * 10.0 ** (-decimals + (int(expo) if expo else 0)), 1e-7)


def check_paper_row(quantity, computed, quoted):
    """A recomputed value is within its published digits; a quote "<b" is a
    strict upper bound."""
    if quoted.startswith("<"):
        bound = float(quoted[1:])
        return computed < bound, f"{quantity}: {computed:.10g} < {bound:g}"
    tol = quoted_tolerance(quoted)
    ok, detail = _close(computed, float(quoted), tol)
    return ok, f"{quantity}: {detail}"
