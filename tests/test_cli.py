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

from zetametrics import cli

NORMAL = '{"family":"normal"}'
NORMAL2 = '{"family":"normal","mu":0,"sigma":2}'
BERN = '{"family":"bernoulli","p":0.5}'


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

    def test_parse_error_exit_2(self):
        assert cli.main(["metric", "--spec", "not-json", "--metric", "K"]) == 2

    def test_precondition_exit_3(self, capsys):
        # zeta_4 of a skewed standardised law violates mu_3 = 0
        spec = json.dumps({"family": "affine",
                           "c": 1 / math.sqrt(0.21), "d": -0.3 / math.sqrt(0.21),
                           "base": {"family": "bernoulli", "p": 0.3}})
        rc = cli.main(["metric", "--spec", spec, "--metric", "zeta_r", "--r", "4"])
        err = capsys.readouterr().err
        assert rc == 3
        assert "mu_3" in err


class TestBoundsCommand:
    def test_table_and_lhs(self, capsys):
        rc = cli.main(["bounds", "--spec", BERN, "--n", "16", "--csv"])
        out = capsys.readouterr().out
        assert rc == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert {"bound", "rhs", "applicable", "reason", "clt_lhs", "clt_lhs_reason"} \
            == set(rows[0].keys())
        lhs = float(rows[0]["clt_lhs"])
        assert all(row["clt_lhs_reason"] == "" for row in rows)
        for row in rows:
            if row["applicable"] == "True" and row["bound"] not in (
                    "zolotarev_zeta1", "goldstein_tyurin"):
                assert float(row["rhs"]) >= lhs

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
            assert row["clt_lhs_reason"] == "lattice_of needs a purely atomic law"

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
    @pytest.mark.parametrize("table", ["constants", "subbotin"])
    def test_fast_tables_pass(self, capsys, table):
        assert cli.main(["paper-tables", table]) == 0

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
