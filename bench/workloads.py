"""The four workloads: their seeded inputs, set-up, timed items and checks.

A workload object is made from the seed alone (no zetametrics import), so
the inputs are fixed before the program is loaded.  ``setup`` imports the
program, builds the input laws and does the one-time work that all items
share.  ``items`` lists the timed operations of one pass; each returns
plain data, so that passes can be compared and checked.  ``checks`` runs
untimed after the passes and yields ``(name, ok, detail)``.

Items call the library through module attributes (``zm.kappa_r``), so the
traced run sees the wrapped functions.
"""

import math
import random

import checks


def _geometric_grid(rng, lo, hi, count, jitter=0.1):
    """``count`` integers from lo to hi, geometric; the interior points move
    by a seeded factor within exp(+-jitter), the endpoints stay fixed so the
    cost of a sweep (set by its largest n) does not depend on the seed."""
    out = {lo, hi}
    for i in range(1, count - 1):
        base = lo * (hi / lo) ** (i / (count - 1))
        out.add(int(round(base * math.exp(rng.uniform(-jitter, jitter)))))
    return sorted(out)


def _random_lattice_law(rng):
    """Atoms 0.5 * {0, 1, 2, 3} with Dirichlet(2, 2, 2, 2) weights.  Laws with
    seeded atom positions differed in cost by up to 1.8x; these by 1.1x."""
    g = [rng.gammavariate(2.0, 1.0) for _ in range(4)]
    total = sum(g)
    return [(0.5 * i, gi / total) for i, gi in enumerate(g)]


class ProfileCorpus:
    """What ``zm bounds`` computes, for each law of a lattice corpus.

    Eight of the thirteen laws are small atomic laws of nearly equal cost,
    so that the median item lies inside that group and not on the edge
    between it and the rounded laws, which cost 1.4 to 2 times as much.
    """

    name = "profile_corpus"
    setups = 3
    N_VALUES = (2, 3, 4, 8, 16, 64)
    CHECKED_BOUNDS = ("be_main", "be_kappa", "be_zeta3_only", "be_classical",
                      "shiganov_combined")

    def __init__(self, seed):
        rng = random.Random(seed)
        self.p = round(rng.uniform(0.3, 0.7), 6)
        self.alpha = round(rng.uniform(0.1, 0.9), 6)
        self.random_atoms = [_random_lattice_law(rng) for _ in range(2)]

    def setup(self):
        import zetametrics as zm
        self.zm = zm
        laws = [("bernoulli(0.5)", zm.bernoulli(0.5)),
                (f"bernoulli({self.p})", zm.bernoulli(self.p)),
                ("three_atoms_a", zm.atoms_law([(-1.0, 0.2), (0.0, 0.5), (2.0, 0.3)])),
                ("three_atoms_b", zm.atoms_law([(0.0, 0.25), (1.0, 0.5), (3.0, 0.25)])),
                ("binomial_2_half", zm.atoms_law([(0.0, 0.25), (1.0, 0.5), (2.0, 0.25)])),
                ("uniform_lattice_4", zm.atoms_law([(float(k), 0.25) for k in range(4)]))]
        laws += [(f"random_lattice_{k}", zm.atoms_law(a))
                 for k, a in enumerate(self.random_atoms)]
        laws += [("rounded_normal(eta=1.0)", zm.rounded(1.0, 0.0, zm.normal())),
                 (f"rounded_normal(eta=0.5,alpha={self.alpha})",
                  zm.rounded(0.5, self.alpha, zm.normal()))]
        laws += [(f"rounded_gamma(a={a},eta=1.0)",
                  zm.rounded(1.0, 0.0, zm.gamma_power(a))) for a in (1.0, 2.0, 4.0)]
        self.laws = laws
        self.atoms = {name: P.atoms() for name, P in laws}
        zm.xi(1.0, 0.01)            # the first call fills the xi scan grid

    def _item(self, P):
        zm = self.zm
        prof = zm.distance_profile(P)
        out = {"kappa1": prof.kappa1, "zeta3": prof.zeta3, "kappa3": prof.kappa3,
               "nu0": prof.nu_diff[0], "nu3": prof.nu_diff[3], "n": {}}
        for n in self.N_VALUES:
            reps = zm.all_bounds(prof, n)
            out["n"][n] = {"lhs": zm.clt_lhs(P, n, mode="exact_lattice").value,
                           "rhs": {b: (reps[b].rhs, reps[b].applicable)
                                   for b in self.CHECKED_BOUNDS}}
        return out

    def items(self):
        return [(name, lambda P=P: self._item(P)) for name, P in self.laws]

    def checks(self, outputs):
        for name, out in outputs.items():
            yield (f"{name} kappa_1", *checks.check_kappa1(self.atoms[name], out["kappa1"]))
            yield (f"{name} moment chain", *checks.check_moment_chain(
                out["zeta3"], out["kappa3"], out["nu3"], out["nu0"]))
            for n, row in out["n"].items():
                yield (f"{name} n={n} lhs<=rhs",
                       *checks.check_lhs_below_rhs(row["lhs"], row["rhs"]))
        if "bernoulli(0.5)" in outputs:
            yield ("bernoulli(0.5) kappa_1 closed form",
                   *checks.check_bernoulli_half_kappa1(outputs["bernoulli(0.5)"]["kappa1"]))


class CltLargeN:
    """Exact ``clt_lhs`` sweeps over a geometric grid of n, one item per law."""

    name = "clt_large_n"
    setups = 3
    BERNOULLI_P = {"bernoulli(0.5)": 0.5, "bernoulli(0.1)": 0.1}

    def __init__(self, seed):
        rng = random.Random(seed)
        self.grids = {"bernoulli(0.5)": _geometric_grid(rng, 10, 100_000, 9),
                      "bernoulli(0.1)": _geometric_grid(rng, 10, 100_000, 9),
                      "rounded_gamma(a=2,eta=0.25)": _geometric_grid(rng, 10, 1000, 5)}

    def setup(self):
        import zetametrics as zm
        self.zm = zm
        self.laws = {name: zm.bernoulli(p) for name, p in self.BERNOULLI_P.items()}
        self.laws["rounded_gamma(a=2,eta=0.25)"] = zm.rounded(0.25, 0.0, zm.gamma_power(2.0))
        for P in self.laws.values():
            P.atoms()
        self.esseen = {name: zm.esseen_asymptotic(P) for name, P in self.laws.items()}

    def items(self):
        zm = self.zm
        return [(name, lambda P=P, ns=self.grids[name]:
                 [zm.clt_lhs(P, n, mode="exact_lattice").value for n in ns])
                for name, P in self.laws.items()]

    def checks(self, outputs):
        zm = self.zm
        for name, lhs in outputs.items():
            P, ns = self.laws[name], self.grids[name]
            p = self.BERNOULLI_P.get(name)
            if p is not None:
                for n, v in zip(ns, lhs):
                    yield (f"{name} n={n} binomial sup", *checks.check_binomial_sup(p, n, v))
            atoms = P.atoms()
            mean = math.fsum(w * x for x, w in atoms)
            var = math.fsum(w * (x - mean) ** 2 for x, w in atoms)
            mu3 = math.fsum(w * (x - mean) ** 3 for x, w in atoms)
            L = zm.lattice_of(P)
            for n in ns:
                Ln = zm.power_lattice(L, n)
                yield (f"{name} n={n} power moments", *checks.check_power_moments(
                    Ln.weights.tolist(), Ln.shift, Ln.span, n, mean, var, mu3))
            yield (f"{name} sqrt(n) lhs -> esseen",
                   *checks.check_esseen_approach(ns, lhs, self.esseen[name], 0.05))


class QuadratureEngine:
    """Costly integrands on the scalar quadrature layer."""

    name = "quadrature_engine"
    setups = 3
    EPS = 0.1
    POINTS = 8

    def __init__(self, seed):
        # one point in each of POINTS equal strata of [-2.5, 2.5]: the cost of
        # a point depends on where it lies, so the strata keep the pass steady
        rng = random.Random(seed)
        width = 5.0 / self.POINTS
        self.points = [round(-2.5 + width * (k + rng.random()), 6)
                       for k in range(self.POINTS)]

    def setup(self):
        import zetametrics as zm
        self.zm = zm
        r3 = math.sqrt(3.0)
        self.M = zm.SignedMeasure([(1.0, zm.atoms_law([(-1.0, 0.5), (1.0, 0.5)])),
                                   (-1.0, zm.uniform(-r3, r3))])
        e = self.EPS
        phi_e = float(zm.std_normal_cdf(e))
        P = zm.mixture([(phi_e - 0.5, zm.dirac(0.0)),
                        (0.5, zm.reflect(zm.truncated_normal_left(0.0))),
                        (1.0 - phi_e, zm.truncated_normal_left(-e))])
        self.PP = zm.conv2_law(P, P)
        self.U = zm.uniform(-r3, r3)
        # right-hand side of the smoothing inequality for P*P against N*N:
        # (sqrt(L2 d1) + sqrt(L1 d2))^2 with d_i = kappa_1(P - N) and L_i the
        # sup of the normal density
        d = zm.kappa_r(zm.signed_diff(P, zm.normal()), 1.0).value
        self.rhs = 4.0 * checks.INV_SQRT_2PI * d    # both factors are P against N

    def items(self):
        zm, M = self.zm, self.M
        out = [("zeta_1", lambda: zm.zeta_r(M, 1, engine="quadrature").value),
               ("zeta_3", lambda: zm.zeta_r(M, 3, engine="quadrature").value),
               ("zeta_4", lambda: zm.zeta_r(M, 4, engine="quadrature").value),
               ("kappa_2", lambda: zm.kappa_r(M, 2.0, engine="quadrature").value)]
        out += [(f"conv2_cdf({x})", lambda x=x: float(self.PP.cdf(x)))
                for x in self.points]
        out.append(("uniform_quadrature_n2",
                    lambda: zm.clt_lhs(self.U, 2, mode="quadrature_n2").value))
        return out

    def checks(self, outputs):
        for name in checks.ZOLOTAREV_CLOSED_FORMS:
            if name in outputs:
                yield (name, *checks.check_zolotarev(name, outputs[name]))
        for x in self.points:
            v = outputs.get(f"conv2_cdf({x})")
            if v is not None:
                yield (f"conv2_cdf({x}) vs quad", *checks.check_conv2_point(x, self.EPS, v))
                yield (f"conv2_cdf({x}) inequality",
                       *checks.check_conv2_inequality(x, v, self.rhs))
        if "uniform_quadrature_n2" in outputs:
            yield ("uniform_quadrature_n2",
                   *checks.check_uniform_n2(outputs["uniform_quadrature_n2"]))


class PaperGate:
    """``zm paper-tables`` for every table: the reproduction gate."""

    name = "paper_gate"
    setups = 5
    ROWS = {"example_1_4": 15, "zolotarev_M": 12, "subbotin": 3, "constants": 16}

    def __init__(self, seed):
        # the tables have no inputs; the seed only sets their order
        self.order = random.Random(seed).sample(sorted(self.ROWS), len(self.ROWS))

    def setup(self):
        from zetametrics import paper_tables
        self.paper_tables = paper_tables

    def _item(self, table):
        rows, ok = self.paper_tables.compute(table)
        return {"ok": ok, "rows": [(r["quantity"], r["computed"], r["quoted"]) for r in rows]}

    def items(self):
        return [(t, lambda t=t: self._item(t)) for t in self.order]

    def checks(self, outputs):
        for table, out in outputs.items():
            yield (f"{table} gate flag", out["ok"] is True, f"ok={out['ok']}")
            yield (f"{table} row count", len(out["rows"]) == self.ROWS[table],
                   f"{len(out['rows'])} rows, want {self.ROWS[table]}")
            for quantity, computed, quoted in out["rows"]:
                yield (f"{table} {quantity}",
                       *checks.check_paper_row(quantity, computed, quoted))


WORKLOADS = {w.name: w for w in (ProfileCorpus, CltLargeN, QuadratureEngine, PaperGate)}
