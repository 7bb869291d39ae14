"""Command-line front end.

Subcommands: ``metric`` (distances between two laws), ``bounds`` (RHS
table for one law and sample count), ``clt`` (exact or quadrature CLT
left-hand sides, with sweeps), and ``paper-tables`` (recompute the
published example values against their quoted digits; nonzero exit on
any tolerance breach, which makes it the reproduction gate).

Law specs are JSON, inline or @file:
    {"family":"rounded","eta":0.1,"alpha":0.0,
     "base":{"family":"normal","mu":0,"sigma":1}}
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from typing import Dict, List, Optional

from .numerics import DomainError, Tolerance
from .measures import (LawSpec, MeasureError, law_from_dict, signed_diff,
                       STANDARD_NORMAL)
from .metrics import (MassNotZeroError, MetricError, MomentConditionError,
                      kappa_r, kolmogorov, nu_r_signed, zeta_r)
from .convolve import ConvolveError, ModeError, clt_lhs
from .bounds import ALL_BOUND_IDS, all_bounds, distance_profile
from . import paper_tables

EXIT_OK = 0
EXIT_REPRODUCTION = 1
EXIT_PARSE = 2
EXIT_PRECONDITION = 3


def resolve_tol(tol: Optional[float]) -> Tolerance:
    """--tol if given, else $ZM_TOL if set, else the default tolerance.

    Raises ValueError naming the source when the value is not a positive
    number."""
    text = tol if tol is not None else (os.environ.get("ZM_TOL") or None)
    if text is None:
        return Tolerance()
    try:
        return Tolerance(abs_tol=float(text))
    except (ValueError, DomainError):
        source = "--tol" if tol is not None else "ZM_TOL"
        raise ValueError(f"{source} must be a positive number, got {text!r}") from None


def parse_spec(text: str) -> LawSpec:
    if text.startswith("@"):
        with open(text[1:], "r", encoding="utf-8") as fh:
            text = fh.read()
    try:
        return law_from_dict(json.loads(text))
    except (json.JSONDecodeError, KeyError, TypeError, MeasureError) as exc:
        raise SpecParseError(str(exc)) from exc


class SpecParseError(Exception):
    pass


def _fmt(x: float, json_mode: bool = False) -> str:
    if x is None:
        return ""
    if isinstance(x, float) and math.isinf(x):
        return "inf"
    return f"{x:.12g}" if json_mode else f"{x:.6g}"


def _round12(v):
    if isinstance(v, float) and math.isfinite(v):
        return float(f"{v:.12g}")
    return v


def _emit_rows(rows: List[Dict], args, out=None):
    out = out if out is not None else sys.stdout
    if getattr(args, "json", False):
        slim = [{k: _round12(v) for k, v in r.items()} for r in rows]
        json.dump(slim, out, indent=2, default=str)
        out.write("\n")
        return
    if getattr(args, "csv", False):
        w = csv.DictWriter(out, fieldnames=list(rows[0].keys()))
        w.writeheader()
        for r in rows:
            w.writerow({k: (_fmt(v) if isinstance(v, float) else v)
                        for k, v in r.items()})
        return
    cols = list(rows[0].keys())
    widths = {c: max(len(c), *(len(_fmt(r[c]) if isinstance(r[c], float)
                                   else str(r[c])) for r in rows)) for c in cols}
    out.write("  ".join(c.ljust(widths[c]) for c in cols) + "\n")
    for r in rows:
        out.write("  ".join(
            (_fmt(r[c]) if isinstance(r[c], float) else str(r[c])).ljust(widths[c])
            for c in cols) + "\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_metric(args) -> int:
    P = parse_spec(args.spec)
    Q = parse_spec(args.spec2) if args.spec2 else STANDARD_NORMAL
    M = signed_diff(P, Q)
    r = args.r
    name = args.metric
    if name == "K":
        mv = kolmogorov(M, args.tol)
    elif name == "nu_r":
        mv = nu_r_signed(M, int(r), args.tol)
    elif name == "kappa_r":
        mv = kappa_r(M, float(r), args.tol)
    elif name == "zeta_r":
        mv = zeta_r(M, int(r), args.tol)
    else:
        raise SpecParseError(f"unknown metric {name!r}")
    row = {"metric": name, "r": r, "value": mv.value, "err_est": mv.err_est,
           "method": mv.method,
           "certificate": json.dumps(mv.certificate) if mv.certificate else ""}
    _emit_rows([row], args)
    return EXIT_OK


def cmd_bounds(args) -> int:
    P = parse_spec(args.spec)
    prof = distance_profile(P, args.tol)
    if args.bounds and not args.all_bounds:
        wanted = args.bounds.split(",")
    else:
        wanted = list(ALL_BOUND_IDS)
    reports = all_bounds(prof, args.n, args.tol)
    rows = []
    lhs_val: Optional[float] = None
    lhs_reason = ""
    try:
        lhs_val = clt_lhs(P, args.n, mode="exact_lattice").value
    except (ConvolveError, ValueError) as exc:
        lhs_reason = str(exc)
    for bid in wanted:
        if bid not in reports:
            raise SpecParseError(f"unknown bound id {bid!r}; known: "
                                 + ",".join(ALL_BOUND_IDS))
        rep = reports[bid]
        rows.append({"bound": rep.bound_id, "rhs": rep.rhs,
                     "applicable": rep.applicable, "reason": rep.reason,
                     "clt_lhs": lhs_val if lhs_val is not None else "",
                     "clt_lhs_reason": lhs_reason})
    if not any(r["applicable"] for r in rows):
        print("no applicable bound", file=sys.stderr)
        return EXIT_PRECONDITION
    _emit_rows(rows, args)
    return EXIT_OK


def cmd_clt(args) -> int:
    P = parse_spec(args.spec)
    ns = [int(v) for v in args.sweep.split(",")] if args.sweep else [args.n]
    rows = []
    for n in ns:
        mv = clt_lhs(P, n, mode=args.mode, eta=args.eta, alpha=args.alpha,
                     tol=args.tol)
        rows.append({"n": n, "lhs": mv.value, "sqrt_n_lhs": math.sqrt(n) * mv.value,
                     "err_est": mv.err_est, "method": mv.method})
    _emit_rows(rows, args)
    return EXIT_OK


def cmd_paper_tables(args) -> int:
    which = args.table
    rows, ok = paper_tables.compute(which)
    _emit_rows(rows, args)
    if not ok:
        print(f"table {which}: tolerance breach", file=sys.stderr)
        return EXIT_REPRODUCTION
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="zm", description="probability metrics and Berry-Esseen bound "
                               "evaluation on the real line")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--tol", type=float, default=None,
                        help="absolute tolerance (default 1e-10 or $ZM_TOL)")
        sp.add_argument("--json", action="store_true")
        sp.add_argument("--csv", action="store_true")

    sp = sub.add_parser("metric", help="distance between two laws")
    sp.add_argument("--spec", required=True, help="law JSON (or @file)")
    sp.add_argument("--spec2", default=None,
                    help="second law (default standard normal)")
    sp.add_argument("--metric", required=True,
                    choices=["K", "nu_r", "kappa_r", "zeta_r"])
    sp.add_argument("--r", type=float, default=1)
    common(sp)
    sp.set_defaults(func=cmd_metric)

    sp = sub.add_parser("bounds", help="bound RHS table for one law")
    sp.add_argument("--spec", required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--all", action="store_true", dest="all_bounds")
    sp.add_argument("--bounds", default=None,
                    help="comma-separated bound ids (default: all)")
    common(sp)
    sp.set_defaults(func=cmd_bounds)

    sp = sub.add_parser("clt", help="exact / quadrature CLT left-hand side")
    sp.add_argument("--spec", required=True)
    sp.add_argument("--n", type=int, default=2)
    sp.add_argument("--mode", default="exact_lattice",
                    choices=["exact_lattice", "quadrature_n2", "lattice_approx"])
    sp.add_argument("--eta", type=float, default=None)
    sp.add_argument("--alpha", type=float, default=0.0)
    sp.add_argument("--sweep", default=None, help="comma-separated n values")
    common(sp)
    sp.set_defaults(func=cmd_clt)

    sp = sub.add_parser("paper-tables", help="recompute published values "
                                             "(the reproduction gate)")
    sp.add_argument("table", choices=["example_1_4", "zolotarev_M",
                                      "subbotin", "constants"])
    common(sp)
    sp.set_defaults(func=cmd_paper_tables)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.tol = resolve_tol(args.tol)
    except ValueError as exc:
        print(f"bad tolerance: {exc}", file=sys.stderr)
        return EXIT_PARSE
    try:
        return args.func(args)
    except SpecParseError as exc:
        print(f"spec parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (MomentConditionError, MassNotZeroError, ModeError) as exc:
        print(f"precondition failed: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (MetricError, ConvolveError, MeasureError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
