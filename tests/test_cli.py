"""End-to-end behavior of the command-line front end.

Most checks run in process through ``cli.main`` with captured stdout; the
byte-stability checks shell out so they cover the real entry point. Stderr
of a run is never compared byte for byte because third-party imports may
warn there; the parser checks compare the parse's own help and errors.
"""

import argparse
import collections
import errno
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from biascube import _kernels, booleans, bounds, cli, suites, threshold
from biascube.booleans import BooleanFunction
from biascube.mc import RNG_ID
from biascube.measure import level_means


# how a refused verify override names the cap it stopped at
CAP = "(the arity cap, BIASCUBE_MAX_ARITY)"


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


class TestAnalyze:
    def test_or_function_closed_forms(self, capsys):
        payload = run_json(
            capsys, "analyze", "--family", "or", "--n", "8", "--p", "0.3"
        )
        assert payload["version"] == "0.1.0"
        assert payload["command"] == "analyze"
        assert payload["seed"] is None and payload["rng"] is None
        assert payload["config"] == {"family": "or_all:n=8", "p": 0.3}
        assert payload["mu"] == pytest.approx(1.0 - 0.7**8, rel=1e-14)
        assert payload["derivative"] == pytest.approx(8 * 0.7**7, rel=1e-12)
        for value in payload["influences"]:
            assert value == pytest.approx(0.7**7, rel=1e-12)
        assert payload["max_influence_bound"]["pass"] is True

    def test_dictator_influences(self, capsys):
        payload = run_json(
            capsys, "analyze", "--family", "dictator", "--n", "4", "--p", "0.4"
        )
        assert payload["influences"] == [1.0, 0.0, 0.0, 0.0]
        assert payload["mu"] == 0.4

    def test_explicit_table(self, capsys):
        payload = run_json(capsys, "analyze", "--table", "n=2:hex=E", "--p", "0.5")
        assert payload["n"] == 2
        assert payload["mu"] == 0.75

    def test_arity_one_skips_bound(self, capsys):
        payload = run_json(
            capsys, "analyze", "--family", "dictator", "--n", "1", "--p", "0.5"
        )
        assert payload["max_influence_bound"] is None
        assert payload["bound_note"] == "influence bound needs arity at least 2"

    def test_family_and_table_conflict(self, capsys):
        code, _, err = run_cli(
            capsys, "analyze", "--family", "or", "--n", "3",
            "--table", "n=2:hex=E", "--p", "0.5",
        )
        assert code == 2
        assert "not both" in err

    def test_no_target(self, capsys):
        code, _, _ = run_cli(capsys, "analyze", "--p", "0.5")
        assert code == 2

    def test_arity_cap_error_mentions_mc(self, capsys):
        # rule-backed families build no table, but keep the cap
        for argv in (("analyze", "--family", "or", "--n", "30", "--p", "0.5"),
                     ("threshold", "--family", "majority", "--n", "25", "--eps", "0.1"),
                     ("sweep", "--family", "majority", "--n", "25", "--grid", "0.1:0.9:0.1")):
            code, _, err = run_cli(capsys, *argv)
            assert code == 2
            assert "dense-table cap" in err
            assert "the mc subcommands sample at any arity" in err


class TestRuleFamiliesBuildNoTable:
    """Majority's counts come from its weight rule, so analyze, threshold and
    sweep never build, pack or count its table."""

    CALLS = (
        ("analyze", "--family", "majority", "--n", "19", "--p", "0.3"),
        ("threshold", "--family", "majority", "--n", "21", "--eps", "0.1"),
        ("sweep", "--family", "majority", "--n", "19", "--grid", "0.02:0.98:0.02"),
    )

    def test_same_output_with_table_building_refused(self, capsys, monkeypatch):
        before = [run_cli(capsys, *argv) for argv in self.CALLS]
        # the same analysis of majority's table, counted from the table
        table = BooleanFunction(19, np.bitwise_count(np.arange(1 << 19)) >= 10)
        counted = run_json(capsys, "analyze", "--table", table.to_table_string(), "--p", "0.3")

        def refuse(*args):
            raise AssertionError("a table was built")

        monkeypatch.setattr(booleans, "popcounts", refuse)
        monkeypatch.setattr(_kernels, "pack_tables", refuse)
        for argv, expected in zip(self.CALLS, before):
            assert expected[0] == 0, argv
            assert run_cli(capsys, *argv) == expected, argv
        ruled = json.loads(before[0][1])
        assert {**ruled, "config": None} == {**counted, "config": None}


class TestTableStringBuildsNoTable:
    """A --table string is read into packed words, so analyze counts from
    them and never builds, validates or packs a 0/1 table."""

    def test_same_output_with_table_building_refused(self, capsys, monkeypatch):
        table = np.random.default_rng(16).integers(0, 2, size=1 << 16, dtype=np.uint8)
        argv = ("analyze", "--table", BooleanFunction(16, table).to_table_string(),
                "--p", "0.3")
        before = run_cli(capsys, *argv)
        assert before[0] == 0

        def refuse(*args):
            raise AssertionError("a table was built")

        monkeypatch.setattr(_kernels, "pack_tables", refuse)
        monkeypatch.setattr(booleans, "popcounts", refuse)
        monkeypatch.setattr(BooleanFunction, "__post_init__", refuse)
        assert run_cli(capsys, *argv) == before


class TestSweep:
    def test_constant_sweep_preamble_and_rows(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--func", "cls", "--grid", "0.25:0.75:0.25"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "# version: 0.1.0"
        assert lines[1] == "# seed: none"
        assert lines[2] == "# rng: none"
        assert lines[3] == '# config: {"func":"cls","grid":"0.25:0.75:0.25"}'
        assert lines[4] == "p,mu,dmu_dp,c_ls,pqcls,thm41_rhs,pass"
        assert len(lines) == 8
        # the constant has its minimum 2 exactly at p = 1/2
        assert lines[6] == "0.5,,,2,0.5,,"
        for row in (lines[5], lines[7]):
            c = float(row.split(",")[3])
            assert c > 2.0

    def test_family_sweep_fills_bound_columns(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--family", "majority", "--n", "9",
            "--grid", "0.1:0.9:0.2",
        )
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[5:]]
        assert len(rows) == 5
        mus = [float(r[1]) for r in rows]
        assert all(a < b for a, b in zip(mus, mus[1:]))
        for r in rows:
            assert r[5] != "" and r[6] == "true"

    def test_bound_columns_next_to_one_read_the_counts(self, capsys):
        # mu rounds to 1 from p = 0.93 on, but OR is never constant there; the
        # rhs holds without the 1e-9 tolerance, as 1 - mu taken from mu did not
        for n, grid in ((20, "0.9:0.99:0.03"), (4, "0.9999999:0.9999999:0.1")):
            code, out, _ = run_cli(capsys, "sweep", "--family", "or", "--n", str(n),
                                   "--grid", grid)
            assert code == 0
            f = booleans.or_all(n)
            for line in out.splitlines()[5:]:
                p, mu, dmu, _, _, rhs, verdict = line.split(",")
                assert verdict == "true"
                assert 0.0 < float(rhs) <= float(dmu)
                assert float(rhs) == bounds.derivative_bound_rhs(
                    n, float(p), *level_means(f, float(p)))

    def test_parity_leaves_bound_columns_empty(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--family", "parity", "--n", "3",
            "--grid", "0.2:0.8:0.3",
        )
        assert code == 0
        for line in out.splitlines()[5:]:
            assert line.endswith(",,")

    @pytest.mark.parametrize(
        "grid", ["0.5:0.4:0.1", "0:0.9:0.1", "abc", "0.1:0.9", "0.5:0.9:-0.1"]
    )
    def test_bad_grids(self, capsys, grid):
        code, _, err = run_cli(capsys, "sweep", "--func", "cls", "--grid", grid)
        assert code == 2
        assert err.startswith("error:")

    # 1e-320 is a finite step whose point count overflows
    @pytest.mark.parametrize(
        "grid", ["0.1:inf:0.1", "0.1:0.9:1e-320", "nan:0.5:0.1", "0.1:0.9:nan"]
    )
    def test_non_finite_grids_are_malformed(self, capsys, grid):
        code, out, err = run_cli(capsys, "sweep", "--func", "cls", "--grid", grid)
        assert code == 2 and out == ""
        assert err == f"error: malformed grid {grid!r}, expected start:stop:step\n"

    def test_arity_one_leaves_bound_columns_empty(self, capsys):
        code, out, err = run_cli(
            capsys, "sweep", "--family", "or", "--n", "1", "--grid", "0.1:0.3:0.1"
        )
        assert code == 0, err
        rows = out.splitlines()[5:]
        assert len(rows) == 3
        for line in rows:
            assert line.endswith(",,")

    def test_func_and_family_are_exclusive(self, capsys):
        code, _, _ = run_cli(
            capsys, "sweep", "--func", "cls", "--family", "or", "--n", "4",
            "--grid", "0.2:0.8:0.2",
        )
        assert code == 2
        code, _, _ = run_cli(capsys, "sweep", "--grid", "0.2:0.8:0.2")
        assert code == 2

    def test_out_file_matches_stdout_with_lf_endings(self, capsys, tmp_path):
        argv = ["sweep", "--family", "or", "--n", "6", "--grid", "0.1:0.9:0.1"]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        target = tmp_path / "sweep.csv"
        code2, _, _ = run_cli(capsys, *argv, "--out", str(target))
        assert code2 == 0
        data = target.read_bytes()
        assert b"\r" not in data
        assert data.decode() == out

    @pytest.mark.parametrize("where, errno_code", [
        ("missing-dir", errno.ENOENT),
        ("directory", errno.EISDIR),
    ], ids=["missing-dir", "directory"])
    def test_out_path_that_cannot_be_written_is_one_error_line(self, capsys, tmp_path,
                                                               where, errno_code):
        target = tmp_path / "missing" / "x.csv" if where == "missing-dir" else tmp_path
        code, out, err = run_cli(capsys, "sweep", "--func", "cls", "--grid", "0.25:0.75:0.25",
                                 "--out", str(target))
        assert code == 2 and out == ""
        assert err == f"error: cannot write {target}: {os.strerror(errno_code)}\n"

    @pytest.mark.parametrize("argv, message", [
        (("--family", "or", "--n", "30", "--grid", "0.1:0.9:0.1"), "dense-table cap"),
        (("--family", "or", "--n", "4", "--grid", "abc"), "malformed grid"),
    ])
    def test_refused_sweep_leaves_the_out_file_as_it_was(self, capsys, monkeypatch, tmp_path,
                                                         argv, message):
        monkeypatch.delenv(booleans.ARITY_CAP_ENV, raising=False)
        target = tmp_path / "keep.csv"
        target.write_text("kept\n")
        code, out, err = run_cli(capsys, "sweep", *argv, "--out", str(target))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and message in err
        assert target.read_text() == "kept\n"


class TestThreshold:
    def test_or_width_and_bounds(self, capsys):
        payload = run_json(
            capsys, "threshold", "--family", "or", "--n", "10", "--eps", "0.1"
        )
        assert payload["result"]["width"] == 0.19519102348255796
        bounds = payload["width_bounds"]
        assert bounds["scaled_constant"]["pass"] is True
        assert bounds["rate"]["pass"] is True

    def test_bisects_each_level_once(self, capsys, monkeypatch):
        calls = []

        def counting(curve, alpha, tol):
            calls.append(alpha)
            return bisect(curve, alpha, tol)

        bisect = threshold._bisect
        monkeypatch.setattr(threshold, "_bisect", counting)
        payload = run_json(
            capsys, "threshold", "--family", "majority", "--n", "9", "--eps", "0.1"
        )
        assert payload["width_bounds"]["rate"]["pass"] is True
        assert calls == [0.1, 0.9]

    def test_dictator_width_without_symmetric_bound(self, capsys):
        payload = run_json(
            capsys, "threshold", "--family", "dictator", "--n", "5", "--eps", "0.1"
        )
        assert payload["result"]["width"] == pytest.approx(0.8, abs=1e-9)
        assert payload["width_bounds"] is None
        assert "bound_note" in payload

    def test_arity_one_notes_the_gate(self, capsys):
        payload = run_json(
            capsys, "threshold", "--family", "or", "--n", "1", "--eps", "0.1"
        )
        assert payload["result"]["width"] == pytest.approx(0.8, abs=1e-9)
        assert payload["width_bounds"] is None
        assert payload["bound_note"] == "the bound needs arity at least 2"

    def test_parity_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "threshold", "--family", "parity", "--n", "4", "--eps", "0.1"
        )
        assert code == 2
        assert "monotone" in err

    def test_eps_range(self, capsys):
        code, _, _ = run_cli(
            capsys, "threshold", "--family", "or", "--n", "4", "--eps", "0.6"
        )
        assert code == 2


class TestVerify:
    def test_passing_suite_exits_zero(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "exhaustive-n4", "--p", "0.5"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["command"] == "verify"
        assert payload["seed"] == 0
        assert payload["rng"] == RNG_ID
        assert payload["result"]["pass"] is True
        assert payload["result"]["functions_checked"] == 1 << 16

    @pytest.mark.parametrize("p", ("1e-6", "0.9999999"))
    def test_exhaustive_n4_passes_in_the_tails(self, capsys, p):
        # at 1e-6 the constant-1 table read a variance of 1.1e-16, not 0, and
        # failed the bound with lhs 0 against rhs 1.47e-12
        code, out, _ = run_cli(capsys, "verify", "--suite", "exhaustive-n4", "--p", p)
        assert code == 0
        assert json.loads(out)["result"]["failures"] == []

    def test_unknown_suite_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--suite", "bogus")
        assert code == 2
        assert "sn-claims" in err

    def test_unread_overrides_are_usage_errors(self, capsys):
        code, out, err = run_cli(
            capsys, "verify", "--suite", "thm41", "--trials", "3", "--p", "0.9"
        )
        assert code == 2
        assert out == ""
        assert err == "error: suite 'thm41' does not read trials, p; it accepts n_max\n"

    @pytest.fixture
    def no_draws(self, monkeypatch):
        """Fail the test if a suite draws a random instance or lists its
        family schedule."""
        def refuse(*_args, **_kwargs):
            raise AssertionError("the suite started before its overrides were checked")

        monkeypatch.setattr(suites, "_suite_rng", refuse)
        monkeypatch.setattr(suites, "_family_schedule", refuse)

    @pytest.mark.parametrize("argv, accepted", [
        (("lsi", "--trials", "0"), "trials >= 1, got 0"),
        (("lsi", "--trials", "-3"), "trials >= 1, got -3"),
        (("poincare", "--trials", "0"), "trials >= 1, got 0"),
        (("poincare", "--trials", "-3"), "trials >= 1, got -3"),
        (("adjoint", "--trials", "0"), "trials >= 1, got 0"),
        (("thm42", "--trials", "0"), "trials >= 1, got 0"),
        (("lsi", "--n-max", "1"), f"n_max from 2 to 24 {CAP}, got 1"),
        (("moment", "--n-max", "1"), f"n_max from 2 to 24 {CAP}, got 1"),
        (("thm41", "--n-max", "0"), f"n_max from 2 to 24 {CAP}, got 0"),
        (("cor43", "--n-max", "1"), f"n_max from 2 to 24 {CAP}, got 1"),
        (("thm42", "--n-max", "4"), f"n_max from 5 to 24 {CAP}, got 4"),
        (("sn-claims", "--n-max", "1"), "n_max >= 2, got 1"),
    ])
    def test_empty_or_too_small_overrides_are_refused(self, capsys, no_draws, argv, accepted):
        code, out, err = run_cli(capsys, "verify", "--suite", *argv)
        assert code == 2
        assert out == ""
        assert err == f"error: suite {argv[0]!r} accepts {accepted}\n"

    @pytest.mark.parametrize("suite", [
        "russo", "moment", "adjoint", "lsi", "poincare", "martingale", "thm42", "thm41", "cor43",
    ])
    def test_n_max_past_the_arity_cap_is_refused(self, capsys, monkeypatch, no_draws, suite):
        monkeypatch.setenv("BIASCUBE_MAX_ARITY", "6")
        code, out, err = run_cli(capsys, "verify", "--suite", suite, "--n-max", "7")
        assert code == 2
        assert out == ""
        low = 5 if suite == "thm42" else 2
        assert err == f"error: suite {suite!r} accepts n_max from {low} to 6 {CAP}, got 7\n"

    @pytest.mark.parametrize("argv, got", [
        (("--trials", "5000"), "5000 * 2**12"),
        (("--trials", "2", "--n-max", "24"), "2 * 2**24"),
    ])
    def test_thm42_batch_past_the_arity_cap_is_refused(self, capsys, no_draws, argv, got):
        code, out, err = run_cli(capsys, "verify", "--suite", "thm42", *argv)
        assert code == 2
        assert out == ""
        assert err == (
            f"error: suite 'thm42' accepts trials * 2**n_max up to 2**24 {CAP}, got {got}\n"
        )

    def test_thm42_batch_at_the_arity_cap_runs(self, capsys, monkeypatch):
        monkeypatch.setenv("BIASCUBE_MAX_ARITY", "6")
        payload = run_json(capsys, "verify", "--suite", "thm42", "--n-max", "6", "--trials", "1")
        assert payload["result"]["pass"] is True
        code, out, err = run_cli(capsys, "verify", "--suite", "thm42", "--n-max", "6",
                                 "--trials", "2")
        assert (code, out) == (2, "")
        assert err.endswith(f"up to 2**6 {CAP}, got 2 * 2**6\n")

    def test_n_max_at_the_arity_cap_runs(self, capsys, monkeypatch):
        monkeypatch.setenv("BIASCUBE_MAX_ARITY", "6")
        payload = run_json(capsys, "verify", "--suite", "lsi", "--n-max", "6", "--trials", "2")
        assert payload["result"]["pass"] is True

    def test_failing_suite_exits_one(self, capsys, monkeypatch):
        def always_red(seed=0, **_):
            return {"suite": "always-red", "pass": False, "config": {},
                    "checks": [], "failures": [{"why": "stub"}]}

        monkeypatch.setitem(cli.suites._SUITES, "always-red", always_red)
        code, out, _ = run_cli(capsys, "verify", "--suite", "always-red")
        assert code == 1
        assert json.loads(out)["result"]["pass"] is False


class TestMonteCarlo:
    def test_mu_report_shape(self, capsys):
        payload = run_json(
            capsys, "mc", "mu", "--family", "dictator", "--n", "100",
            "--samples", "20000",
        )
        assert payload["command"] == "mc mu"
        assert payload["seed"] == 0
        assert payload["rng"] == RNG_ID
        assert payload["n"] == 100
        assert payload["workers"] >= 1
        est = payload["estimate"]
        assert est["ci_lo"] <= est["mean"] <= est["ci_hi"]
        assert abs(est["mean"] - 0.5) <= 4.0 * est["stderr"]

    def test_influence_of_dictator_coordinates(self, capsys):
        # for dictator, --i names both the deciding coordinate and the one
        # probed, so the estimate is exactly 1 whichever value it takes
        for i in ("1", "2"):
            payload = run_json(
                capsys, "mc", "influence", "--family", "dictator", "--n", "100",
                "--i", i, "--samples", "2000",
            )
            assert payload["config"]["family"] == f"dictator:n=100,i={i}"
            assert payload["estimate"]["mean"] == 1.0

    def test_influence_coordinate_is_not_a_family_parameter(self, capsys):
        payload = run_json(
            capsys, "mc", "influence", "--family", "or", "--n", "50",
            "--i", "3", "--samples", "1000",
        )
        assert payload["config"]["family"] == "or_all:n=50"
        assert payload["config"]["i"] == 3

    def test_influence_requires_coordinate(self, capsys):
        code, _, err = run_cli(
            capsys, "mc", "influence", "--family", "or", "--n", "8"
        )
        assert code == 2
        assert "--i" in err

    def test_threshold_search_pinned(self, capsys):
        payload = run_json(
            capsys, "mc", "threshold", "--family", "connectivity", "--m", "16",
            "--alpha", "0.5", "--seed", "7",
        )
        # connectivity echoes its spec string, as every other kind does
        assert payload["config"]["family"] == "connectivity:m=16"
        result = payload["result"]
        assert result["p_hat"] == 0.19091796875
        assert result["flagged"] is False
        assert result["steps"] == 10
        est = result["estimate"]
        assert est["ci_lo"] <= 0.5 <= est["ci_hi"]

    @pytest.mark.parametrize("argv", [
        ("threshold", "--eps", "0.1"),
        ("mc", "mu"),
        ("mc", "influence", "--i", "2"),
        ("mc", "threshold", "--alpha", "0.5"),
    ])
    def test_missing_family_names_its_flag(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err == "error: --family is required\n"

    def test_connectivity_requires_m(self, capsys):
        code, _, err = run_cli(
            capsys, "mc", "mu", "--family", "connectivity", "--samples", "100"
        )
        assert code == 2
        assert "--m" in err

    def test_missing_tribes_parameter_names_its_flag(self, capsys):
        code, out, err = run_cli(
            capsys, "threshold", "--family", "tribes", "--k", "2", "--eps", "0.1"
        )
        assert code == 2 and out == ""
        assert err == "error: family 'tribes' needs --m\n"

    def test_bias_validated(self, capsys):
        code, _, _ = run_cli(
            capsys, "mc", "mu", "--family", "or", "--n", "8", "--p", "1.5"
        )
        assert code == 2

    def test_repeat_runs_identical(self, capsys):
        argv = ["mc", "mu", "--family", "or", "--n", "40", "--p", "0.02",
                "--samples", "5000", "--seed", "3"]
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second


class TestErrors:
    def test_out_of_memory_is_one_error_line(self, capsys, monkeypatch):
        def exhausted(args, out):
            raise MemoryError

        monkeypatch.setitem(cli._DISPATCH, "analyze", exhausted)
        code, out, err = run_cli(capsys, "analyze", "--family", "or", "--n", "3", "--p", "0.5")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("value", ["abc", "0", "-3", "2.5", ""])
    @pytest.mark.parametrize("name, argv", [
        ("BIASCUBE_WORKERS", ("mc", "mu", "--family", "or", "--n", "8", "--p", "0.5",
                              "--samples", "100")),
        ("BIASCUBE_MAX_ARITY", ("analyze", "--family", "or", "--n", "4", "--p", "0.5")),
    ], ids=["workers", "max-arity"])
    def test_refused_environment_value_names_its_variable(self, capsys, monkeypatch,
                                                          name, argv, value):
        monkeypatch.setenv(name, value)
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err == f"error: {name} must be a positive integer, got {value!r}\n"


class TestFamilyParameters:
    """Values that name no function are refused on every path: dense,
    closed-form and sampled."""

    @pytest.mark.parametrize("argv, message", [
        (("threshold", "--family", "dictator", "--n", "5", "--i", "9", "--eps", "0.1"),
         "coordinate 9 out of range for arity 5"),
        (("mc", "mu", "--family", "majority", "--n", "4"), "majority requires odd arity"),
        (("mc", "mu", "--family", "dictator", "--n", "5", "--i", "0"),
         "coordinate 0 out of range for arity 5"),
        (("mc", "mu", "--family", "or", "--n", "0"), "arity must be at least 1"),
        (("mc", "threshold", "--family", "tribes", "--k", "2", "--m", "0", "--alpha", "0.5"),
         "tribes requires k >= 1 and m >= 1"),
        (("mc", "mu", "--family", "cyclic_run", "--n", "4", "--len", "6"),
         "run length must satisfy 1 <= length <= n"),
        (("threshold", "--family", "tribes", "--k", "0", "--m", "3", "--eps", "0.1"),
         "tribes requires k >= 1 and m >= 1"),
        (("threshold", "--family", "and", "--n", "-3", "--eps", "0.1"),
         "arity must be at least 1"),
    ])
    def test_invalid_values_exit_two_with_one_line(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"


class TestStrayFamilyFlags:
    """A family flag the kind does not take is refused as a flag, before a
    left-out flag takes its default, on every subcommand that names a family."""

    @pytest.mark.parametrize("argv, message", [
        (("analyze", "--family", "dictator", "--n", "4", "--k", "2", "--p", "0.3"),
         "family 'dictator' does not take --k; it takes --n, --i"),
        (("sweep", "--family", "or", "--n", "4", "--m", "2", "--len", "3",
          "--grid", "0.1:0.9:0.1"),
         "family 'or' does not take --m, --len; it takes --n"),
        (("threshold", "--family", "tribes", "--k", "2", "--m", "3", "--n", "6",
          "--eps", "0.1"),
         "family 'tribes' does not take --n; it takes --k, --m"),
        (("mc", "mu", "--family", "or", "--n", "8", "--i", "2"),
         "family 'or' does not take --i; it takes --n"),
        (("mc", "influence", "--family", "majority", "--n", "5", "--k", "2", "--i", "1"),
         "family 'majority' does not take --k; it takes --n"),
        (("mc", "threshold", "--family", "connectivity", "--m", "5", "--n", "10",
          "--alpha", "0.5"),
         "family 'connectivity' does not take --n; it takes --m"),
    ], ids=["analyze", "sweep", "threshold", "mc-mu", "mc-influence", "mc-threshold"])
    def test_stray_flag_is_named(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("argv, message", [
        (("analyze", "--table", "n=2:hex=E", "--n", "5", "--k", "3", "--p", "0.5"),
         "--table takes no family flags, got --n, --k"),
        (("sweep", "--func", "cls", "--n", "4", "--grid", "0.1:0.9:0.1"),
         "--func takes no family flags, got --n"),
        (("threshold", "--n", "6", "--m", "2", "--eps", "0.1"),
         "--family is required for --n, --m"),
    ], ids=["analyze-table", "sweep-func", "threshold-no-family"])
    def test_flag_without_a_family_is_named(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"


def exit_of(capsys, parse, argv):
    """Exit code, stdout and stderr of a parse that exits."""
    with pytest.raises(SystemExit) as exc:
        parse(list(argv))
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


FULL_USAGE = "usage: biascube [-h] {analyze,sweep,threshold,verify,mc} ...\n"


class TestParser:
    def test_missing_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 2
        capsys.readouterr()

    @pytest.mark.parametrize("argv", [
        ("--help",),
        (),
        ("bogus",),
        ("--bogus", "analyze"),
        ("analyze", "--help"),
        ("sweep", "--help"),
        ("threshold", "--help"),
        ("verify", "--help"),
        ("mc", "--help"),
        ("mc", "mu", "--help"),
        ("mc", "influence", "--help"),
        ("mc", "threshold", "--help"),
        ("mc",),
        ("mc", "bogus"),
        ("analyze", "--family", "or", "--n", "3"),
        ("mc", "threshold", "--family", "or", "--n", "3"),
        ("analyze", "--family", "or", "--n", "three", "--p", "0.3"),
        ("verify", "--suite", "russo", "--seed", "one"),
        ("sweep", "--func", "bad", "--grid", "0.1:0.2:0.1"),
        # the subcommand hands the flag back, so the top-level usage is printed
        ("analyze", "--family", "or", "--n", "3", "--p", "0.3", "--bogus"),
        ("mc", "threshold", "--family", "or", "--n", "3", "--alpha", "0.5", "--bogus"),
    ])
    def test_same_help_usage_and_errors_as_the_full_parser(self, capsys, argv):
        expected = exit_of(capsys, lambda a: cli.build_parser().parse_args(a), argv)
        # twice: the second call reuses the parser the first one built
        assert exit_of(capsys, cli.main, argv) == expected
        assert exit_of(capsys, cli.main, argv) == expected
        if "--bogus" in argv[1:]:
            assert expected[2].startswith(FULL_USAGE)

    def test_each_subcommand_parser_is_built_once(self, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            init(self, *args, **kwargs)
            built.append(self.prog)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        cli._parser.cache_clear()
        try:
            for argv in (("analyze", "--family", "or", "--n", "3", "--p", "0.3"),
                         ("analyze", "--family", "or", "--n", "4", "--p", "0.3"),
                         ("threshold", "--family", "or", "--n", "3", "--eps", "0.1"),
                         ("sweep", "--func", "cls", "--grid", "0.25:0.75:0.25")):
                assert run_cli(capsys, *argv)[0] == 0, argv
        finally:
            cli._parser.cache_clear()
        # one top-level parser per subcommand, each holding only that one
        assert collections.Counter(built) == {
            "biascube": 3, "biascube analyze": 1, "biascube threshold": 1, "biascube sweep": 1,
        }


class TestSubprocess:
    """Round trips through the real interpreter entry point."""

    def run(self, *argv):
        return subprocess.run(
            [sys.executable, "-m", "biascube", *argv],
            capture_output=True, timeout=120,
        )

    @pytest.mark.parametrize("argv, cut", [
        (("verify", "--suite", "thm41", "--seed", "1"), False),
        # 2 MB of rows, more than a pipe holds, so the write is always cut
        (("sweep", "--family", "or", "--n", "4", "--grid", "0.00005:0.99995:0.00005"), True),
    ])
    def test_closed_reader_exits_without_traceback(self, argv, cut):
        proc = subprocess.Popen([sys.executable, "-m", "biascube", *argv],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=120)
        proc.stderr.close()
        assert first.strip()
        assert b"Traceback" not in err and b"BrokenPipe" not in err, err
        if cut:
            assert code == cli.EXIT_CLOSED_PIPE
        else:  # the write may finish before the reader closes
            assert code in (0, cli.EXIT_CLOSED_PIPE)

    def test_sweep_byte_stable_across_runs(self):
        argv = ("sweep", "--family", "or", "--n", "8", "--grid", "0.05:0.95:0.05")
        first = self.run(*argv)
        second = self.run(*argv)
        assert first.returncode == 0 and second.returncode == 0
        assert first.stdout == second.stdout
        assert b"\r" not in first.stdout
