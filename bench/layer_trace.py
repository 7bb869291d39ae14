"""Per-layer counters for the traced run, installed from outside the program.

``Tracer.install`` wraps the public functions of each zetametrics module in
place.  The modules import each other's names (``from .numerics import
integrate``), so a wrapper replaces the function in every loaded
zetametrics module and in module-level dicts that hold it (the
``paper_tables`` registry).  ``uninstall`` puts the originals back.

For a layer ``L``, ``L.calls`` counts invocations and ``L.self_s`` is the
time inside a call minus the time in the traced calls it made; ``points``
counts array elements passed in, ``entries`` output lattice entries, and
``declined`` the ``zeta3_cut_criterion`` calls that returned None.
"""

import importlib
import sys
import time
from collections import defaultdict

import numpy as np


def _points(args, kwargs, out):
    return np.size(args[0])


def _method_points(args, kwargs, out):
    return np.size(args[1])


def _entries(args, kwargs, out):
    return out.weights.size


def _declined(args, kwargs, out):
    return out is None


# (module, attribute, layer name, extra counter, its function)
FUNCTIONS = [
    ("numerics", "std_normal_cdf", "numerics.std_normal_cdf", "points", _points),
    ("numerics", "integrate", "numerics.integrate", None, None),
    ("numerics", "cumulative_integral", "numerics.cumulative_integral", None, None),
    ("numerics", "find_root", "numerics.find_root", None, None),
    ("numerics", "golden_section", "numerics.golden_section", None, None),
    ("numerics", "reg_incomplete_gamma", "numerics.reg_incomplete_gamma", None, None),
    ("metrics", "kappa_r", "metrics.kappa_r", None, None),
    ("metrics", "zeta_r", "metrics.zeta_r", None, None),
    ("metrics", "kolmogorov", "metrics.kolmogorov", None, None),
    ("metrics", "nu_r_signed", "metrics.nu_r_signed", None, None),
    ("metrics", "zeta3_cut_criterion", "metrics.zeta3_cut_criterion", "declined", _declined),
    ("convolve", "power_lattice", "convolve.power_lattice", None, None),
    ("convolve", "convolve_atomic", "convolve.convolve_atomic", "entries", _entries),
    ("convolve", "clt_lhs", "convolve.clt_lhs", None, None),
    ("bounds", "distance_profile", "bounds.distance_profile", None, None),
    ("bounds", "all_bounds", "bounds.all_bounds", None, None),
    ("bounds", "xi", "bounds.xi", None, None),
    ("paper_tables", "example_1_4", "paper_tables.example_1_4", None, None),
    ("paper_tables", "zolotarev_M", "paper_tables.zolotarev_M", None, None),
    ("paper_tables", "subbotin_table", "paper_tables.subbotin", None, None),
    ("paper_tables", "constants_table", "paper_tables.constants", None, None),
]
CONV2_CDF = "measures.Conv2.cdf"
CLOSED_STACK = "metrics.closed_stack"

# every per-layer metric, in report order, with its unit
METRICS = []
for _m, _a, _layer, _extra, _f in FUNCTIONS:
    if _layer.startswith("paper_tables."):
        METRICS.append((f"{_layer}.self_s", "s"))
        continue
    METRICS.append((f"{_layer}.calls", "count"))
    if _extra:
        METRICS.append((f"{_layer}.{_extra}", "count"))
    METRICS.append((f"{_layer}.self_s", "s"))
for _layer in (CONV2_CDF, CLOSED_STACK):
    METRICS += [(f"{_layer}.calls", "count"), (f"{_layer}.points", "count"),
                (f"{_layer}.self_s", "s")]
METRICS += [("trace.pass_s", "s"), ("trace.overhead_s", "s")]


def _layer_metrics(*layers, fields=("calls", "self_s")):
    return [f"{layer}.{f}" for layer in layers for f in fields]


# The layer metrics that each workload must move (README, "Layer map"); a
# traced run checks that each is non-zero on its workload.
EXPECTED_NONZERO = {
    "profile_corpus": (
        _layer_metrics("numerics.integrate", "numerics.find_root",
                       "numerics.golden_section", "numerics.reg_incomplete_gamma",
                       "metrics.kappa_r", "metrics.nu_r_signed",
                       "bounds.distance_profile", "bounds.all_bounds", "bounds.xi")
        + _layer_metrics(CLOSED_STACK, fields=("calls", "points", "self_s"))
        + _layer_metrics("metrics.zeta3_cut_criterion",
                         fields=("calls", "declined", "self_s"))),
    "clt_large_n": (
        _layer_metrics("numerics.std_normal_cdf", fields=("calls", "points", "self_s"))
        + _layer_metrics("numerics.reg_incomplete_gamma", "convolve.power_lattice",
                         "convolve.clt_lhs", "bounds.distance_profile")
        + _layer_metrics("convolve.convolve_atomic", fields=("calls", "entries", "self_s"))),
    "quadrature_engine": (
        _layer_metrics("numerics.integrate", "numerics.cumulative_integral",
                       "numerics.golden_section", "metrics.zeta_r", "metrics.kolmogorov")
        + _layer_metrics(CONV2_CDF, fields=("calls", "points", "self_s"))),
    "paper_gate": (
        _layer_metrics("numerics.find_root", "metrics.zeta_r")
        + _layer_metrics(CLOSED_STACK, fields=("calls", "points", "self_s"))
        + [f"paper_tables.{t}.self_s"
           for t in ("example_1_4", "zolotarev_M", "subbotin", "constants")]),
}


class Tracer:
    def __init__(self):
        self.stats = defaultdict(float)
        self._children = []          # traced time of the callees of each open call
        self._patches = []           # (container, key, original, wrapper)

    def wrap(self, layer, fn, extra=None, count=None):
        stats, children = self.stats, self._children

        def traced(*args, **kwargs):
            children.append(0.0)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stats[f"{layer}.self_s"] += dt - children.pop()
                if children:
                    children[-1] += dt
                stats[f"{layer}.calls"] += 1
            if extra:
                stats[f"{layer}.{extra}"] += count(args, kwargs, out)
            return out
        return traced

    def _replace_everywhere(self, original, wrapper):
        found = False
        for name, mod in list(sys.modules.items()):
            if name != "zetametrics" and not name.startswith("zetametrics."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((vars(mod), key, original, wrapper))
                    found = True
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if v is original:
                            self._patches.append((value, k, original, wrapper))
        if not found:
            raise RuntimeError(f"no zetametrics module holds {original!r}")

    def install(self):
        from zetametrics import measures, metrics
        for modname, attr, layer, extra, count in FUNCTIONS:
            original = getattr(importlib.import_module(f"zetametrics.{modname}"), attr)
            self._replace_everywhere(original, self.wrap(layer, original, extra, count))
        conv2_cdf = measures.Conv2.cdf
        self._patches.append((measures.Conv2, "cdf", conv2_cdf,
                              self.wrap(CONV2_CDF, conv2_cdf, "points", _method_points)))
        factory = metrics.closed_measure_stack

        def closed_measure_stack(*args, **kwargs):
            ev = factory(*args, **kwargs)
            return None if ev is None else self.wrap(CLOSED_STACK, ev, "points", _points)
        self._replace_everywhere(factory, closed_measure_stack)
        self._apply(installing=True)

    def uninstall(self):
        self._apply(installing=False)
        self._patches = []

    def _apply(self, installing):
        for container, key, original, wrapper in self._patches:
            value = wrapper if installing else original
            if isinstance(container, dict):
                container[key] = value
            else:
                setattr(container, key, value)

    def report(self):
        return {name: int(self.stats[name]) if unit == "count" else self.stats[name]
                for name, unit in METRICS if not name.startswith("trace.")}
