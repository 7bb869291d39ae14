"""CLI surface: exit codes, output shapes, spec parsing."""

import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from zetametrics import cli, paper_tables

NORMAL = '{"family":"normal"}'
NORMAL2 = '{"family":"normal","mu":0,"sigma":2}'
BERN = '{"family":"bernoulli","p":0.5}'
ZETA1_BOUNDS = ("zolotarev_zeta1", "goldstein_tyurin")


# the directory holding the zetametrics package these tests import
SRC = str(Path(cli.__file__).resolve().parents[1])


def run_cli(args, env=None):
    """Run ``python -m zetametrics.cli`` on the package these tests import."""
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "zetametrics.cli"] + args,
                          capture_output=True, text=True, env=env)


class TestMetricCommand:
    def test_kolmogorov_normal_pair(self, capsys):
        rc = cli.main(["metric", "--spec", NORMAL, "--spec2", NORMAL2,
                       "--metric", "K", "--json"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert abs(float(out[0]["value"]) - 0.161337284417384) < 1e-8

    def test_zeta4_zolotarev_spec(self, capsys):
        spec = json.dumps({
            "family": "mixture",
            "parts": [[0.5, {"family": "dirac", "a": -1.0}],
                      [0.5, {"family": "dirac", "a": 1.0}]]})
        spec2 = json.dumps({"family": "uniform", "a": -math.sqrt(3),
                            "b": math.sqrt(3)})
        rc = cli.main(["metric", "--spec", spec, "--spec2", spec2,
                       "--metric", "zeta_r", "--r", "4", "--json"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert abs(float(out[0]["value"]) - 1.0 / 30.0) < 1e-7

    def test_zeta1_example_table_value(self, capsys):
        import zetametrics as zm
        R = zm.rounded(0.1, 0.0, zm.normal())
        spec = json.dumps({"family": "affine", "c": 1.0 / R.std, "d": 0.0,
                           "base": {"family": "rounded", "eta": 0.1, "alpha": 0.0,
                                    "base": {"family": "normal"}}})
        rc = cli.main(["metric", "--spec", spec, "--metric", "zeta_r",
                       "--r", "1", "--json"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert abs(float(out[0]["value"]) - 0.0249) < 1.5e-4

    @pytest.mark.parametrize("metric,r", [("nu_r", "5"), ("kappa_r", "4.5")])
    def test_order_above_four_against_default_normal(self, capsys, metric, r):
        # the default --spec2 is the standard normal, whose moments of order
        # above 4 come by quadrature
        rc = cli.main(["metric", "--spec", '{"family":"uniform","a":-1,"b":1}',
                       "--metric", metric, "--r", r, "--json"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert math.isfinite(float(out[0]["value"]))

    @pytest.mark.parametrize("r", ["2.9", "inf"])
    @pytest.mark.parametrize("metric", ["nu_r", "zeta_r"])
    def test_non_integer_order_exit_2(self, capsys, metric, r):
        # nu_r and zeta_r take integer orders: 2.9 is not read as 2
        rc = cli.main(["metric", "--spec", '{"family":"uniform","a":-1,"b":1}',
                       "--metric", metric, "--r", r])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert f"integer --r, got {r}" in captured.err

    def test_parse_error_exit_2(self):
        assert cli.main(["metric", "--spec", "not-json", "--metric", "K"]) == 2

    @pytest.mark.parametrize("spec", [
        '{"family":"uniform","a":1,"b":0}',
        '{"family":"truncated","a":50,"b":60,"base":{"family":"normal"}}',
        '{"family":"truncated_normal_left","t":-40}'])
    def test_spec_outside_domain_exit_2(self, capsys, spec):
        assert cli.main(["metric", "--spec", spec, "--metric", "K"]) == 2
        assert "spec parse error" in capsys.readouterr().err

    def test_rounding_over_cell_budget_exit_2(self, capsys):
        # the inverse square root of a gamma(1/2) law reaches 1e14 at 1e-14
        # of its mass; rounded at 0.01 that is some 4e16 cells
        spec = json.dumps({"family": "rounded", "eta": 0.01, "alpha": 0,
                           "base": {"family": "gamma_power", "alpha": 0.5, "beta": -2}})
        assert cli.main(["metric", "--spec", spec, "--metric", "K"]) == 2
        assert "cells" in capsys.readouterr().err

    def test_precondition_exit_3(self, capsys):
        # zeta_4 of a skewed standardised law violates mu_3 = 0
        spec = json.dumps({"family": "affine",
                           "c": 1 / math.sqrt(0.21), "d": -0.3 / math.sqrt(0.21),
                           "base": {"family": "bernoulli", "p": 0.3}})
        rc = cli.main(["metric", "--spec", spec, "--metric", "zeta_r", "--r", "4"])
        err = capsys.readouterr().err
        assert rc == 3
        assert "mu_3" in err

    def test_numerics_error_exit_3(self):
        # the inverse gamma's kappa_1 ends in a ConvergenceError: one error
        # line, no traceback, and not exit 1, the reproduction-gate code
        spec = '{"family":"gamma_power","alpha":2,"lambda":1,"beta":-1}'
        proc = run_cli(["metric", "--spec", spec, "--metric", "kappa_r", "--r", "1"])
        assert proc.returncode == 3
        assert proc.stderr.splitlines() == ["error: quadrature did not converge"]


class TestBoundsCommand:
    def test_table_and_lhs(self, capsys):
        rc = cli.main(["bounds", "--spec", BERN, "--n", "16", "--csv"])
        out = capsys.readouterr().out
        assert rc == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert {"bound", "rhs", "applicable", "reason", "clt_lhs", "clt_lhs_reason"} \
            == set(rows[0].keys())
        k_rows = [row for row in rows if row["bound"] not in ZETA1_BOUNDS]
        lhs = float(k_rows[0]["clt_lhs"])
        assert all(row["clt_lhs_reason"] == "" for row in k_rows)
        for row in k_rows:
            if row["applicable"] == "True":
                assert float(row["rhs"]) >= lhs
        for row in rows:
            if row["bound"] in ZETA1_BOUNDS:
                assert row["clt_lhs"] == ""
                assert row["clt_lhs_reason"] == cli.ZETA1_LHS_REASON

    def test_normal_all_zero(self, capsys):
        rc = cli.main(["bounds", "--spec", NORMAL, "--n", "4", "--json"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        for row in out:
            if row["bound"] in ("be_main", "be_kappa", "shiganov_combined"):
                assert float(row["rhs"]) < 1e-8

    def test_lhs_failure_reason(self, capsys):
        # a normal law has no lattice power: the cell stays empty and the
        # reason says why
        rc = cli.main(["bounds", "--spec", NORMAL, "--n", "4", "--csv"])
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert rc == 0
        for row in rows:
            assert row["clt_lhs"] == ""
            assert row["clt_lhs_reason"] == (
                cli.ZETA1_LHS_REASON if row["bound"] in ZETA1_BOUNDS
                else "lattice_of needs a purely atomic law")

    def test_zeta1_rows_leave_kolmogorov_lhs_empty(self, capsys):
        # both bound zeta_1(P~^{*n} - N): the Kolmogorov clt_lhs is no left side
        rc = cli.main(["bounds", "--spec", '{"family":"bernoulli","p":0.3}', "--n", "16",
                       "--bounds", ",".join(ZETA1_BOUNDS), "--json"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert [(r["bound"], r["clt_lhs"], r["clt_lhs_reason"]) for r in out] == \
            [(b, "", cli.ZETA1_LHS_REASON) for b in ZETA1_BOUNDS]

    @pytest.mark.parametrize("wanted,calls", [(ZETA1_BOUNDS, 0),
                                              (("be_main",) + ZETA1_BOUNDS, 1)])
    def test_kolmogorov_lhs_only_when_printed(self, capsys, monkeypatch, wanted, calls):
        # the Kolmogorov clt_lhs is computed only when a K row prints it
        seen, real = [], cli.clt_lhs

        def counted(*args, **kwargs):
            seen.append(args)
            return real(*args, **kwargs)
        monkeypatch.setattr(cli, "clt_lhs", counted)
        rc = cli.main(["bounds", "--spec", '{"family":"bernoulli","p":0.3}', "--n", "100000",
                       "--bounds", ",".join(wanted)])
        assert rc == 0
        assert len(seen) == calls

    @pytest.mark.parametrize("spec", ['{"family":"dirac","a":1}', BERN])
    def test_unknown_bound_id_before_profile(self, capsys, monkeypatch, spec):
        def no_profile(*args, **kwargs):
            raise AssertionError("distance_profile called")
        monkeypatch.setattr(cli, "distance_profile", no_profile)
        rc = cli.main(["bounds", "--spec", spec, "--n", "4", "--bounds", "be_main,nope"])
        assert rc == 2
        assert "unknown bound id 'nope'" in capsys.readouterr().err

    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_n_below_one_exit_3(self, capsys, n):
        rc = cli.main(["bounds", "--spec", BERN, "--n", n])
        assert rc == 3
        assert f"bounds need n >= 1, got n = {n}" in capsys.readouterr().err

    def test_lhs_value_error_not_swallowed(self, capsys, monkeypatch):
        # only a law without a lattice power (a ConvolveError) leaves the
        # clt_lhs cell empty; any other error reaches the exit code
        def broken(*args, **kwargs):
            raise ValueError("clt_lhs broke")
        monkeypatch.setattr(cli, "clt_lhs", broken)
        rc = cli.main(["bounds", "--spec", BERN, "--n", "4"])
        assert rc == 3
        assert "clt_lhs broke" in capsys.readouterr().err

    def test_rounded_normal_table_mirrors_example(self, capsys):
        # n = 2 slice of the discretised-normal example: the zeta-based
        # RHS is 9 * 0.0249.../sqrt(2), far below the classical one
        rc = cli.main(["bounds", "--spec",
                       '{"family":"rounded","eta":0.1,"alpha":0.0,'
                       '"base":{"family":"normal"}}',
                       "--n", "2", "--json"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        rows = {r["bound"]: r for r in out}
        assert abs(float(rows["be_main"]["rhs"]) - 0.2249 / math.sqrt(2)) < 2e-4
        assert float(rows["be_main"]["rhs"]) < float(rows["be_classical"]["rhs"])

    def test_tol_goes_through_the_profile(self, capsys):
        import zetametrics as zm
        spec = '{"family":"rounded","eta":0.5,"alpha":0.0,"base":{"family":"normal"}}'
        rc = cli.main(["bounds", "--spec", spec, "--n", "4", "--tol", "1e-6", "--json"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        reports = zm.all_bounds(zm.distance_profile(cli.parse_spec(spec),
                                                    zm.Tolerance(1e-6)), 4)
        assert [(r["bound"], r["rhs"], r["applicable"], r["reason"]) for r in out] == \
            [(b, cli._round12(rep.rhs), rep.applicable, rep.reason)
             for b, rep in reports.items()]

    def test_degenerate_law_reported_before_n(self, capsys):
        rc = cli.main(["bounds", "--spec", '{"family":"dirac","a":1}', "--n", "0"])
        assert rc == 3
        assert "standardise needs" in capsys.readouterr().err

    @pytest.mark.parametrize("args", [
        ["clt", "--spec", BERN, "--n", "4", "--tol", "1e-3"],
        ["paper-tables", "constants", "--tol", "1e-3"],
        ["bounds", "--spec", BERN, "--n", "4", "--all"]])
    def test_removed_options_exit_2(self, capsys, args):
        # --tol only where a tolerance is read; --all selected what the default does
        with pytest.raises(SystemExit) as exc:
            cli.main(args)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestCltCommand:
    def test_sweep(self, capsys):
        rc = cli.main(["clt", "--spec", BERN, "--sweep", "25,100,400", "--json"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        traj = [float(r["sqrt_n_lhs"]) for r in out]
        assert abs(traj[-1] - 1 / math.sqrt(2 * math.pi)) < 0.05 / math.sqrt(2 * math.pi)

    def test_mode_mismatch_exit_3(self):
        assert cli.main(["clt", "--spec", BERN, "--n", "3",
                         "--mode", "quadrature_n2"]) == 3

    def test_normal_quadrature_zero(self, capsys):
        rc = cli.main(["clt", "--spec", NORMAL, "--n", "2",
                       "--mode", "quadrature_n2", "--json"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0 and float(out[0]["lhs"]) < 1e-9


class TestPaperTables:
    @pytest.mark.parametrize("table", ["constants", "subbotin", "rounding"])
    def test_fast_tables_pass(self, capsys, table):
        assert cli.main(["paper-tables", table]) == 0

    def test_rounding_rows_exact(self, capsys):
        # three laws at three widths, a mu_2, mu_3 and zeta_1 gap each
        rc = cli.main(["paper-tables", "rounding", "--json"])
        rows = json.loads(capsys.readouterr().out)
        assert rc == 0 and len(rows) == 27
        assert all(float(r["abs_diff"]) <= 1e-7 for r in rows)

    def test_unknown_table_lists_the_registry(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["paper-tables", "nope"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert all(repr(t) in err for t in paper_tables.TABLES)

    def test_csv_column_count_stable(self, capsys):
        rc = cli.main(["paper-tables", "constants", "--csv"])
        out = capsys.readouterr().out
        rows = list(csv.reader(io.StringIO(out)))
        width = len(rows[0])
        assert all(len(r) == width for r in rows)


class TestSpecRoundTrip:
    @pytest.mark.parametrize("spec", [
        NORMAL, BERN,
        '{"family":"rounded","eta":0.1,"alpha":0.0,"base":{"family":"normal"}}',
        '{"family":"mixture","parts":[[0.5,{"family":"uniform","a":0,"b":1}],'
        '[0.5,{"family":"dirac","a":2}]]}',
    ])
    def test_print_and_reparse(self, spec):
        law = cli.parse_spec(spec)
        text = json.dumps(law.to_dict())
        law2 = cli.parse_spec(text)
        assert law2.to_dict() == law.to_dict()

    def test_at_file(self, tmp_path):
        f = tmp_path / "law.json"
        f.write_text(BERN)
        law = cli.parse_spec(f"@{f}")
        assert law.to_dict()["family"] == "bernoulli"


class TestEnvTol:
    def test_zm_tol_respected(self):
        r = run_cli(["metric", "--spec", NORMAL, "--spec2", NORMAL2,
                     "--metric", "K"], env={**os.environ, "ZM_TOL": "1e-6"})
        assert r.returncode == 0

    @pytest.mark.parametrize("value", ["-1", "abc"])
    def test_bad_zm_tol_exit_2(self, value):
        r = run_cli(["metric", "--spec", BERN, "--metric", "K"],
                    env={**os.environ, "ZM_TOL": value})
        assert r.returncode == 2
        assert r.stderr.strip().splitlines() == [
            f"bad tolerance: ZM_TOL must be a positive number, got {value!r}"]

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_bad_tol_flag_exit_2(self, capsys, value):
        # --tol 0 is rejected, not replaced by the default
        rc = cli.main(["metric", "--spec", BERN, "--metric", "K", "--tol", value])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.strip().splitlines() == [
            f"bad tolerance: --tol must be a positive number, got {float(value)!r}"]

    def test_zm_tol_unread_by_clt(self, monkeypatch, capsys):
        # clt reads no tolerance, so a malformed ZM_TOL does not stop it
        monkeypatch.setenv("ZM_TOL", "abc")
        assert cli.main(["clt", "--spec", BERN, "--n", "4"]) == 0

    def test_tol_flag_overrides_env(self, monkeypatch):
        monkeypatch.setenv("ZM_TOL", "abc")
        args = cli.build_parser().parse_args(["metric", "--spec", BERN,
                                              "--metric", "K", "--tol", "1e-6"])
        assert cli.resolve_tol(args.tol).abs_tol == 1e-6


class TestSubprocessEntry:
    def test_module_entry_point(self):
        r = run_cli(["paper-tables", "constants"])
        assert r.returncode == 0
        assert "alpha_Z" in r.stdout
