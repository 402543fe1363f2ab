"""Command-line interface: subcommands, report formats, exit codes."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hypergamma
from hypergamma.catalog import CANARY_CATALOG
from hypergamma.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_runs_as_a_module(capsys):
    """`python -m hypergamma` from a checkout (the package on PYTHONPATH, not
    installed) exits as `cli.main` returns and prints what it prints."""
    argv = ["eval", "--a", "1/2", "--b", "1/3", "--c", "5/4", "--z", "1/2", "--digits", "30"]
    src = str(Path(hypergamma.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-m", "hypergamma", *argv], env=env, capture_output=True, text=True
    )
    code, out, err = run(capsys, *argv)
    assert (done.returncode, done.stdout, done.stderr) == (code, out, err) == (0, out, "")
    assert out.startswith("1.0883748443235895093662642772")


class TestEval:
    def test_classic_value(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--a", "1/2", "--b", "2/3", "--c", "1/6",
            "--z", "1/4", "--digits", "30",
        )
        assert code == 0
        assert out.startswith("1.67989473319316421968961414")
        assert "±" in out

    def test_negative_argument_equals_form(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--a", "1/2", "--b", "3/2", "--c", "13/6",
            "--z=-1/3", "--digits", "25",
        )
        assert code == 0
        assert out.startswith("0.903141602701081232")

    def test_json_report(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--a", "1/8", "--b", "3/8", "--c", "1/2",
            "--z", "2400/2401", "--digits", "25", "--report", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["command"] == "eval"
        assert data["value"].startswith("1.763834207")

    def test_strategy_flag(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--a", "1/2", "--b", "1/2", "--c", "3/2",
            "--z", "1/4", "--digits", "20", "--strategy", "integral",
        )
        assert code == 0
        assert out.startswith("1.047197551196597746"[:12])

    def test_auto_prints_the_series_value(self, capsys):
        argv = ("eval", "--a", "2/5", "--b", "1/4", "--c", "23/20", "--z=-1/2")
        code, auto, _ = run(capsys, *argv)
        assert code == 0
        code, series, _ = run(capsys, *argv, "--strategy", "series")
        assert code == 0
        assert auto == series

    def test_negative_rational_equals_form(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--a", "1/2", "--b", "1/2", "--c=-3/2", "--z", "1/4",
            "--digits", "20", "--report", "json",
        )
        assert code == 0
        assert json.loads(out)["params"]["c"] == "-3/2"
        # without "=", argparse reads "-3/2" as an option, not a value
        code, _, err = run(
            capsys, "eval", "--a", "1/2", "--b", "1/2", "--c", "-3/2", "--z", "1/4"
        )
        assert code == 3
        assert "usage error" in err

    def test_bad_rational_is_usage_error(self, capsys):
        code, _, err = run(
            capsys, "eval", "--a", "x/y", "--b", "1", "--c", "1", "--z", "0"
        )
        assert code == 3
        assert "usage error" in err

    def test_below_minus_nine_with_integer_a_minus_b(self, capsys):
        # no Euler ordering; Pfaff's transform has c - a - b = b - a = 1
        code, out, _ = run(
            capsys, "eval", "--a", "1/2", "--b", "3/2", "--c=-1/4",
            "--z=-20", "--digits", "20",
        )
        assert code == 0
        assert out.startswith("0.30725376227687097")

    def test_below_minus_nine_with_integer_c_minus_a_minus_b(self, capsys):
        # a - b = 1/6: not the log connection formula but the integral, with
        # c > b > 0
        code, out, _ = run(
            capsys, "eval", "--a", "1/2", "--b", "1/3", "--c", "11/6",
            "--z=-20", "--digits", "20",
        )
        assert code == 0
        assert out.startswith("0.64048530741452467689")

    def test_infeasible_evaluation_fails(self, capsys):
        # in the domain, but no route: z > 9/10 and c < min(a, b), so no
        # Euler ordering
        code, _, err = run(
            capsys, "eval", "--a", "1/2", "--b", "1/2", "--c", "1/3",
            "--z", "19/20", "--digits", "20",
        )
        assert code == 1
        assert err.startswith("evaluation failed: no Euler-integral parameter ordering")

    @pytest.mark.parametrize(
        "a, b, c, z, message",
        [
            ("1", "1", "0", "1/2", "lower parameter 0 is a nonpositive integer"),
            ("1/2", "1/3", "1/4", "2", "z = 2 > 1 and the series does not terminate"),
            ("1/2", "2/3", "1/6", "3/2", "z = 3/2 > 1 and the series does not terminate"),
            ("1/2", "2/3", "1/6", "1", "z = 1 and c - a - b = -1 <= 0"),
        ],
        ids=["lower-pole", "z-2", "z-3/2", "z-1-divergent"],
    )
    def test_input_outside_the_domain_is_argument_error(self, capsys, a, b, c, z, message):
        code, _, err = run(capsys, "eval", "--a", a, "--b", b, "--c", c, "--z", z)
        assert code == 3
        assert err.startswith(f"argument error: {message}"), err

    def test_missing_subcommand_is_usage_error(self, capsys):
        code, _, err = run(capsys)
        assert code == 3


class TestVerify:
    def test_single_record(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--only", "campbell-levrie", "--digits", "40"
        )
        assert code == 0
        assert "PASS" in out and "campbell-levrie" in out

    def test_canary_catalog_fails(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--catalog", str(CANARY_CATALOG), "--digits", "60"
        )
        assert code == 1
        assert "FAIL" in out

    def test_json_report(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--only", "zucker-joyce-25-27", "--digits", "40",
            "--report", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["counts"]["pass"] == 1

    def test_missing_catalog_is_usage_error(self, capsys):
        code, _, err = run(capsys, "verify", "--catalog", "/nonexistent.json")
        assert code == 3
        assert "catalog error" in err


class TestDeriveChain:
    def test_chain_with_trace(self, capsys, tmp_path):
        trace_path = tmp_path / "trace.json"
        code, out, _ = run(
            capsys, "derive-chain", "--digits", "40", "--trace", str(trace_path)
        )
        assert code == 0
        assert "29884728384/34239431521" in out
        assert "(7/48, 31/48; 9/8)" in out
        assert "equal-within-bounds" in out
        data = json.loads(trace_path.read_text())
        assert data["final_argument"] == "29884728384/34239431521"
        assert len(data["steps"]) == 3

    def test_unwritable_trace_is_usage_error(self, capsys, tmp_path, monkeypatch):
        def no_derivation(prec):
            raise AssertionError("the trace path is checked before the derivation")

        monkeypatch.setattr("hypergamma.cli.derive_main", no_derivation)
        trace_path = tmp_path / "missing" / "trace.json"
        code, _, err = run(
            capsys, "derive-chain", "--digits", "20", "--trace", str(trace_path)
        )
        assert code == 3
        assert err.startswith("usage error: cannot write trace") and err.count("\n") == 1

    def test_json_report(self, capsys):
        code, out, _ = run(capsys, "derive-chain", "--digits", "30", "--report", "json")
        assert code == 0
        data = json.loads(out)
        assert data["verdict"] == "equal-within-bounds"


class TestProofCheck:
    def test_all_steps_pass(self, capsys):
        code, out, _ = run(capsys, "proof-check", "--b", "5/8", "--digits", "30")
        assert code == 0
        assert out.count("equal-within-bounds") == 5
        # each verdict is followed by how its step was checked
        methods = [line.split()[-1] for line in out.splitlines()]
        assert methods == ["estimated", "exact", "exact", "exact", "numeric"]

    def test_out_of_range_b_is_usage_error(self, capsys):
        code, _, err = run(capsys, "proof-check", "--b", "1/4", "--digits", "30")
        assert code == 3

    def test_json_report(self, capsys):
        code, out, _ = run(
            capsys, "proof-check", "--b", "3/4", "--digits", "30", "--report", "json"
        )
        assert code == 0
        data = json.loads(out)
        assert len(data["steps"]) == 5
        assert set(data["steps"].values()) == {"equal-within-bounds"}
        assert data["methods"] == {
            "euler-transform-integral": "estimated",
            "substitution": "exact",
            "cyclotomic": "exact",
            "cube-substitution": "exact",
            "reflection-closed-form": "numeric",
        }


class TestQuadcheck:
    def test_beta_mode(self, capsys):
        code, out, _ = run(
            capsys, "quadcheck", "--expr", "beta", "--samples", "3",
            "--digits", "25", "--seed", "5",
        )
        assert code == 0
        assert out.count("equal-within-bounds") == 3

    def test_euler_mode_json(self, capsys):
        code, out, _ = run(
            capsys, "quadcheck", "--expr", "euler", "--samples", "3",
            "--digits", "25", "--seed", "5", "--report", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert len(data["cases"]) == 3
        assert all(c["verdict"] == "equal-within-bounds" for c in data["cases"])


@pytest.mark.parametrize(
    "argv",
    [
        ("eval", "--a", "1/2", "--b", "1/2", "--c", "1", "--z", "1/4", "--digits", "0"),
        ("verify", "--digits", "-5"),
        ("derive-chain", "--digits", "0"),
        ("proof-check", "--b", "5/8", "--digits", "-1"),
        ("quadcheck", "--expr", "beta", "--digits", "0"),
        ("quadcheck", "--expr", "beta", "--samples", "0"),
        ("quadcheck", "--expr", "euler", "--samples", "two"),
        ("eval", "--a", "1/2", "--b", "1", "--c", "2", "--z", "1/2",
         "--digits", "99999999999999999999"),
    ],
)
def test_nonpositive_count_is_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert err.startswith("usage error:")
    assert out == ""
