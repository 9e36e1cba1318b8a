"""Every named suite runs green at reduced sizes and is bit-reproducible."""

import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from biascube import bounds, martingale, suites
from biascube._kernels import pack_tables
from biascube.booleans import BooleanFunction, random_monotone_function
from biascube.measure import (
    CubeFunction,
    dirichlet_energy,
    expectation,
    influences,
    random_cube_function,
    variance,
)
from biascube.reports import BoundReport, checked
from biascube.suites import SUITE_NAMES, run_suite

# sizes small enough for CI but large enough to exercise every code path
TINY = {
    "russo": {"trials": 20, "n_max": 6},
    "moment": {"trials": 20, "n_max": 6},
    "adjoint": {"trials": 20, "n_max": 6},
    "lsi": {"trials": 30, "n_max": 5},
    "poincare": {"trials": 30, "n_max": 5},
    "martingale": {"trials": 20, "n_max": 6},
    "thm42": {"trials": 50, "n_max": 7},
    "thm41": {"n_max": 8},
    "cor43": {"n_max": 8},
    "sn-claims": {"n_max": 2000},
    "exhaustive-n4": {"p": 0.5},
}


def run_tiny(name, seed=0):
    return run_suite(name, seed=seed, **TINY[name])


class TestAllSuites:
    @pytest.mark.parametrize("name", SUITE_NAMES)
    def test_passes_and_has_shape(self, name):
        result = run_tiny(name)
        assert result["suite"] == name
        assert result["pass"] is True
        assert result["failures"] == []
        assert result["checks"], "a suite must report at least one check"
        for check in result["checks"]:
            assert {"label", "lhs", "rhs", "pass"} <= set(check)

    @pytest.mark.parametrize("name", SUITE_NAMES)
    def test_deterministic(self, name):
        a = json.dumps(run_tiny(name), sort_keys=True)
        b = json.dumps(run_tiny(name), sort_keys=True)
        assert a == b

    def test_seed_changes_random_suites(self):
        a = run_tiny("russo", seed=0)
        b = run_tiny("russo", seed=1)
        assert json.dumps(a) != json.dumps(b)

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            run_suite("nope")


class TestSuiteExtras:
    def test_martingale_reports_increment_sign(self):
        result = run_tiny("martingale")
        assert result["increment_signs_seen"] == ["plus"]

    def test_lsi_literal_form_is_reported_not_asserted(self):
        result = run_tiny("lsi")
        literal = result["literal_form"]
        assert literal["asserted"] is False
        assert literal["total"] == 30 * 5
        assert 0 <= literal["holds"] <= literal["total"]

    def test_exhaustive_covers_every_table(self):
        result = run_tiny("exhaustive-n4")
        assert result["functions_checked"] == 1 << 16

    def test_sn_claims_flags_discrepancies_instead_of_failing(self):
        result = run_suite("sn-claims", n_max=2000)
        assert result["pass"] is True
        assert result["crossover_first_n"] == 883
        by_label = {c["label"]: c for c in result["checks"]}
        trend = by_label["rate_to_log_trend"]
        assert trend["context"]["full_range_monotone"] is False
        crossover = by_label["rate_crossover_scan"]
        assert crossover["context"]["matches_expected"] is False
        assert crossover["context"]["constant_free_first_n"] == 275
        assert by_label["constant_at_half_exact"]["lhs"] == 2.0


# ---------------------------------------------------------------------------
# Agreement with the per-function checks. Each reference below walks the
# suite's own substream one trial at a time through the public functions of
# measure, bounds and martingale, and must give the suite's JSON byte for
# byte.
# ---------------------------------------------------------------------------


def _reference_russo(seed, trials, n_max):
    rng = suites._suite_rng("russo", seed)
    h = 1e-5
    failures = []
    worst = {p: 0.0 for p in suites.CHECK_BIASES}
    for t in range(trials):
        n = int(rng.integers(2, n_max + 1))
        f = random_monotone_function(n, rng)
        for p in suites.CHECK_BIASES:
            total = float(influences(f, p).sum())
            fd = (expectation(f, p + h) - expectation(f, p - h)) / (2.0 * h)
            rel = abs(total - fd) / max(1.0, abs(total))
            worst[p] = max(worst[p], rel)
            if rel > 1e-5:
                failures.append({"trial": t, "n": n, "p": p, "sum_influences": total,
                                 "fd": fd, "rel": rel})
    checks = [checked("russo_fd_agreement", worst[p], 1e-5, "le", 0.0, p=p, trials=trials)
              for p in suites.CHECK_BIASES]
    return suites._result("russo", {"seed": seed, "trials": trials, "n_max": n_max,
                                    "fd_step": h}, checks, failures)


def _reference_lsi(seed, trials, n_max):
    rng = suites._suite_rng("lsi", seed)
    checks, failures = [], []
    holds = total = 0
    for p in suites.CHECK_BIASES:
        violations, worst = 0, -np.inf
        for t in range(trials):
            n = int(rng.integers(2, n_max + 1))
            g = random_cube_function(n, rng)
            rep = bounds.log_sobolev_check(g, p)
            worst = max(worst, rep.lhs - rep.rhs)
            if not rep.passed:
                violations += 1
                failures.append({"p": p, "trial": t, "n": n, "lhs": rep.lhs, "rhs": rep.rhs})
            pos = random_cube_function(n, rng, positive=True)
            record = bounds.log_sobolev_literal_record(pos, p)
            total += 1
            holds += int(record["holds"])
        checks.append(checked("log_sobolev_squared_sweep", violations, 0, "le", 0.0, p=p,
                              trials=trials, worst_excess=worst))
        sup = bounds.log_sobolev_tightness_two_point(p)
        c = bounds.log_sobolev_constant(p)
        checks.append(BoundReport("two_point_tightness", lhs=sup, rhs=c,
                                  passed=bool(sup <= c + 1e-12 and abs(c - sup) <= 1e-3),
                                  orientation="le", tol=1e-3, context={"p": p, "gap": c - sup}))
    out = suites._result("lsi", {"seed": seed, "trials": trials, "n_max": n_max}, checks, failures)
    out["literal_form"] = {"label": "log_sobolev_literal_record", "asserted": False,
                           "holds": holds, "total": total}
    return out


def _reference_poincare(seed, trials, n_max):
    rng = suites._suite_rng("poincare", seed)
    checks, failures = [], []
    for p in suites.CHECK_BIASES:
        violations, worst = 0, -np.inf
        for t in range(trials):
            n = int(rng.integers(2, n_max + 1))
            rep = bounds.poincare_check(random_cube_function(n, rng), p)
            worst = max(worst, rep.lhs - rep.rhs)
            if not rep.passed:
                violations += 1
                failures.append({"p": p, "trial": t, "n": n, "lhs": rep.lhs, "rhs": rep.rhs})
        checks.append(checked("poincare_sweep", violations, 0, "le", 0.0, p=p, trials=trials,
                              worst_excess=worst))
        worst_eq = 0.0
        for _ in range(20):
            n = int(rng.integers(1, n_max + 1))
            i = int(rng.integers(1, n + 1))
            a, b = rng.normal(size=2)
            g = CubeFunction(n, a + b * (((np.arange(1 << n) >> (i - 1)) & 1).astype(np.float64)))
            worst_eq = max(worst_eq, abs(variance(g, p) - dirichlet_energy(g, p)))
        checks.append(checked("poincare_one_coordinate_equality", worst_eq, 1e-12, "le", 0.0, p=p))
    return suites._result("poincare", {"seed": seed, "trials": trials, "n_max": n_max},
                          checks, failures)


def _reference_martingale(seed, trials, n_max):
    rng = suites._suite_rng("martingale", seed)
    checkers = (martingale.check_telescoping, martingale.check_orthogonality,
                martingale.check_pythagoras, martingale.check_energy_decomposition,
                martingale.check_increment_representation, martingale.check_contractions)
    worst, failures, signs = {}, [], set()
    for t in range(trials):
        n = int(rng.integers(2, n_max + 1))
        g = random_cube_function(n, rng)
        p = suites.CHECK_BIASES[t % len(suites.CHECK_BIASES)]
        for check in checkers:
            rep = check(g, p)
            err = abs(rep.slack) if rep.orientation == "eq" else rep.lhs
            worst[rep.label] = max(worst.get(rep.label, 0.0), err)
            if rep.label == "increment-representation":
                signs.add(rep.context.get("matched_sign"))
            suites._collect(failures, rep, trial=t, p=p)
    checks = [checked(label, value, 1e-12, "le", 0.0, trials=trials)
              for label, value in sorted(worst.items())]
    out = suites._result("martingale", {"seed": seed, "trials": trials, "n_max": n_max},
                         checks, failures)
    out["increment_signs_seen"] = sorted(str(s) for s in signs)
    return out


REFERENCES = {
    "russo": _reference_russo,
    "lsi": _reference_lsi,
    "poincare": _reference_poincare,
    "martingale": _reference_martingale,
}


class TestAgreementWithPerFunctionChecks:
    @pytest.mark.parametrize("seed", (0, 1))
    @pytest.mark.parametrize("name", sorted(REFERENCES))
    def test_suite_json_equals_per_function_reference(self, name, seed):
        expected = REFERENCES[name](seed, **TINY[name])
        got = run_tiny(name, seed=seed)
        assert json.dumps(got, sort_keys=True) == json.dumps(expected, sort_keys=True)


class TestRussoSides:
    def test_each_row_is_its_functions_influences_and_measures(self):
        # past the suite's n_max, and up to 12 (four words a table), every
        # summed influence and difference quotient of a counted batch is the
        # per-function value bit for bit
        h = 1e-5
        for n in range(2, 13):
            rng = np.random.default_rng(300 + n)
            tables = np.stack([random_monotone_function(n, rng).table for _ in range(40)])
            sides = suites._russo_sides(n, tables, h)
            assert len(sides) == len(tables)
            for table, (totals, fds) in zip(tables, sides):
                f = BooleanFunction(n, table)
                for p, total, fd in zip(suites.CHECK_BIASES, totals, fds):
                    assert type(total) is float and type(fd) is float
                    assert repr(total) == repr(float(influences(f, p).sum())), (n, p)
                    want = (expectation(f, p + h) - expectation(f, p - h)) / (2.0 * h)
                    assert repr(fd) == repr(want), (n, p)


class TestHeldRowsBounded:
    """russo, lsi and poincare evaluate their random rows in batches of
    bounded size, and where a batch ends changes no byte of their output."""

    @pytest.mark.parametrize("held", (1, 64))
    @pytest.mark.parametrize("seed", (0, 1))
    @pytest.mark.parametrize("name", ("lsi", "poincare", "russo"))
    def test_batch_boundaries_leave_output_unchanged(self, monkeypatch, name, seed, held):
        expected = json.dumps(run_tiny(name, seed=seed), sort_keys=True)
        monkeypatch.setattr(suites, "_HELD_ENTRIES", held)
        assert json.dumps(run_tiny(name, seed=seed), sort_keys=True) == expected

    @pytest.mark.parametrize("name, streams", [("lsi", 2), ("poincare", 1)])
    def test_each_batch_stops_at_the_trial_that_fills_it(self, monkeypatch, name, streams):
        budget, n_max = 1 << 8, 7
        monkeypatch.setattr(suites, "_HELD_ENTRIES", budget)
        evaluate_held = suites._evaluate_held
        sizes = []

        def recording(held, evaluate):
            sizes.append(sum(len(rows) << n for n, rows in held))
            return evaluate_held(held, evaluate)

        monkeypatch.setattr(suites, "_evaluate_held", recording)
        run_suite(name, seed=0, trials=200, n_max=n_max)
        assert len(sizes) > len(suites.CHECK_BIASES)
        assert max(sizes) < budget + (streams << n_max)

    def test_a_group_of_one_trial_is_a_view_of_its_rows(self):
        rows = (np.arange(8.0), np.arange(8.0) + 1.0)
        seen = []

        def evaluate(n, *stacks):
            seen.append(stacks)
            return [None] * stacks[0].shape[0]

        suites._evaluate_held([(3, rows), (2, (np.ones(4), np.ones(4))),
                               (2, (np.zeros(4), np.zeros(4)))], evaluate)
        one, two = sorted(seen, key=lambda stacks: stacks[0].shape[0])
        assert all(stack.shape == (1, 8) for stack in one)
        assert all(np.shares_memory(stack, row) for stack, row in zip(one, rows))
        assert all(stack.shape == (2, 4) for stack in two)

    @pytest.mark.parametrize("name", ("lsi", "poincare"))
    def test_peak_memory_does_not_grow_with_trials(self, monkeypatch, name):
        # 400 trials at n_max 10 hold about 2 MB (poincare) and 4 MB (lsi)
        # of rows when a whole bias is stacked at once
        monkeypatch.setattr(suites, "_HELD_ENTRIES", 1 << 12)
        run_suite(name, seed=0, trials=2, n_max=10)
        tracemalloc.start()
        try:
            run_suite(name, seed=0, trials=400, n_max=10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 8 * (1 << 12)


# ---------------------------------------------------------------------------
# The batch scans hold bounded blocks. thm42 draws its tables straight into
# packed words, exhaustive-n4 passes the 16-bit codes as words, and the
# sn-claims rate scans reduce one block of n at a time.
# ---------------------------------------------------------------------------


class TestBoundedBatchScans:
    @pytest.mark.parametrize("trials, n", [(t, n) for n in (5, 12) for t in (1, 15, 16, 17, 1000)]
                             + [(t, 17) for t in (1, 15, 16, 17)])
    def test_thm42_draw_packs_the_float_compare_bits(self, trials, n):
        # a fair coin is the bit-plane draw at k / 2**s = 1/2: each row of
        # 2**n coordinates takes ceil(2**n / 64) raw words, and a coordinate
        # is 1 where its lane bit is 0, so the packed tables are the
        # complemented words, cut to 32 coordinates at n = 5
        rng, reference = suites._suite_rng("thm42", 3), suites._suite_rng("thm42", 3)
        words = suites._random_words(rng, trials, n)
        groups = -(-(1 << n) // 64)
        raw = reference.bit_generator.random_raw(trials * groups).reshape(trials, groups)
        expected = ~raw & np.uint64(2 ** min(1 << n, 64) - 1)
        assert words.dtype == np.uint64
        assert np.array_equal(words, expected)
        # the generator is left where the one-array draw leaves it
        assert np.array_equal(rng.bit_generator.random_raw(4),
                              reference.bit_generator.random_raw(4))

    def test_exhaustive_n4_words_are_the_packed_tables(self, monkeypatch):
        scanned = []
        scan = bounds.max_influence_bound_scan
        monkeypatch.setattr(bounds, "max_influence_bound_scan",
                            lambda words, *a: scanned.append(words) or scan(words, *a))
        run_suite("exhaustive-n4", p=0.5)
        codes = np.arange(1 << 16, dtype=np.uint32)
        tables = ((codes[:, None] >> np.arange(16)) & 1).astype(np.uint8)
        [words] = scanned
        assert np.array_equal(words, pack_tables(tables))

    def test_suites_leave_numpy_ma_unimported(self):
        # importing numpy.ma (np.unique does, on first call) took about 12 ms,
        # a cost every verify process paid once
        code = ("import sys\n"
                "from biascube.suites import SUITE_NAMES, run_suite\n"
                "for name in SUITE_NAMES:\n"
                "    run_suite(name, **TINY[name])\n"
                "assert 'numpy.ma' not in sys.modules\n")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        result = subprocess.run([sys.executable, "-c", f"TINY = {TINY!r}\n{code}"],
                                capture_output=True, text=True, env=env)
        assert result.returncode == 0, result.stderr

    @pytest.mark.parametrize("name", ("thm42", "sn-claims", "exhaustive-n4"))
    def test_default_run_peak_memory(self, name):
        # the one-array scans peaked at 37 (thm42), 48 (sn-claims) and
        # 25 MiB (exhaustive-n4) under tracemalloc
        run_suite(name, seed=1)
        tracemalloc.start()
        try:
            run_suite(name, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20
