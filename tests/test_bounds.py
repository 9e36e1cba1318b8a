"""Constants, the rate sequence, and every inequality checker.

The rate oracle recomputes the sequence from its raw constants with
independent code; the two-point tightness figure is checked against the
closed constant it is supposed to approach.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from biascube import booleans, bounds
from biascube._kernels import level_counts, pack_tables, pivotal_counts
from biascube.booleans import (
    BooleanFunction,
    PermutationGenerators,
    build_family,
    dictator,
    family_spec,
    family_symmetry,
    majority,
    or_all,
    parity,
)
from biascube.bounds import (
    derivative_bound_check,
    derivative_bound_rhs,
    log_sobolev_check,
    log_sobolev_constant,
    log_sobolev_literal_record,
    log_sobolev_tightness_two_point,
    max_influence_bound_check,
    max_influence_bound_scan,
    poincare_check,
    prior_constants_table,
    rate_value,
    scaled_log_sobolev_constant,
    scan_constant_floor,
    scan_rate_crossover,
    scan_rate_positive,
    scan_scaled_constant_cap,
    width_bound_check,
    width_bounds,
)
from biascube.measure import (
    CubeFunction,
    dirichlet_energy,
    entropy,
    level_means,
    level_weights,
    variance,
)
from biascube.suites import _family_schedule, run_suite
from biascube.threshold import ThresholdResult, supremum_on_interval, threshold_width

BIASES = (0.1, 0.25, 0.5, 0.75, 0.9)


def rate_oracle(n):
    # written from the raw constants rather than the module's helpers
    log_c = (2 + 4 / math.e) - (5 + 4 / math.e) * math.log(2)
    power = 3 + 4 / math.e
    ln = math.log(n)
    envelope = log_c + power * math.log(math.log(n / ln**2))
    return ln - max(envelope, 2 * math.log(ln))


def closed_form_supremum(a, b):
    """The supremum of p(1-p)c(p) over [a, b] that ``width_bounds`` reports."""
    tight, _ = width_bounds(8, ThresholdResult(0.1, a, b, b - a, (0, 0)), 1e-9)
    return tight.context["sup_scaled_constant"]


def random_g(n, seed, positive=False):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=1 << n)
    return CubeFunction(n, np.exp(v) if positive else v)


class TestConstant:
    def test_quarter_point_closed_form(self):
        # log(3/4 / 1/4) / (1 - 1/2) = 2 log 3
        assert log_sobolev_constant(0.25) == pytest.approx(2 * math.log(3), rel=1e-15)

    def test_half_is_exactly_two(self):
        assert log_sobolev_constant(0.5) == 2.0

    def test_symmetry(self):
        for p in (0.03, 0.2, 0.41):
            assert log_sobolev_constant(p) == pytest.approx(
                log_sobolev_constant(1 - p), rel=1e-14
            )

    def test_series_branch_continuity(self):
        # straddle the branch switch at |1-2p| = 1e-7; the reference value
        # needs log1p, the naive quotient loses seven digits here
        for u in (9.9e-8, 1.01e-7):
            below = log_sobolev_constant((1 - u) / 2)
            direct = (math.log1p(u) - math.log1p(-u)) / u
            assert below == pytest.approx(direct, abs=1e-12)

    def test_scaled_peak(self):
        assert scaled_log_sobolev_constant(0.5) == 0.5
        for p in (0.1, 0.3, 0.49):
            assert scaled_log_sobolev_constant(p) < 0.5

    def test_floor_scan(self):
        rep = scan_constant_floor()
        assert rep.passed
        assert rep.lhs >= 2.0
        assert rep.context["argmin_p"] == pytest.approx(0.5, abs=1e-4)

    def test_cap_scan_equality_only_at_half(self):
        rep = scan_scaled_constant_cap()
        assert rep.passed
        assert rep.context["equality_points"] == [0.5]
        assert rep.context["increasing_to_half"] is True


class TestRateSequence:
    @pytest.mark.parametrize(
        "n,frozen",
        [
            (2, 0.11997883244261309),
            (4, 0.7330258411633287),
            (1000, 2.946635698164294),
        ],
    )
    def test_frozen_values(self, n, frozen):
        value = rate_value(n).value
        assert value == pytest.approx(frozen, rel=1e-15)
        assert value == pytest.approx(rate_oracle(n), rel=1e-14)

    def test_branch_bookkeeping(self):
        rv = rate_value(10)
        assert rv.value == math.log(10) - max(rv.envelope_term, rv.double_log_term)

    def test_rejects_tiny_n(self):
        with pytest.raises(ValueError):
            rate_value(1)

    def test_positive_scan_to_million(self):
        rep = scan_rate_positive(10**6)
        assert rep.passed
        assert rep.context["argmin_n"] == 2

    def test_crossover_scan_flags_mismatch(self):
        stable_n, rep = scan_rate_crossover(10**6)
        assert rep.passed  # a stable crossover exists
        assert stable_n == 883
        assert rep.context["first_true_n"] == 2
        assert rep.context["matches_expected"] is False
        assert rep.context["constant_free_first_n"] == 275

    def test_asymptotic_ratio_below_one(self):
        for k in (3, 4, 5, 6):
            assert 0 < rate_value(10**k).value / (k * math.log(10)) < 1


class TestFunctionalInequalities:
    @pytest.mark.parametrize("p", BIASES)
    def test_log_sobolev_random(self, p):
        for seed in range(20):
            rep = log_sobolev_check(random_g(5, seed), p)
            assert rep.passed, rep.to_dict()

    @pytest.mark.parametrize("p", BIASES)
    def test_poincare_random(self, p):
        for seed in range(20):
            rep = poincare_check(random_g(5, seed), p)
            assert rep.passed, rep.to_dict()

    def test_poincare_tight_on_one_coordinate(self):
        # g = a + b x_i has all its variance in one coordinate
        values = 2.0 + 3.0 * np.array([x & 1 for x in range(16)], dtype=float)
        g = CubeFunction(4, values)
        p = 0.3
        assert variance(g, p) == pytest.approx(dirichlet_energy(g, p), rel=1e-12)

    def test_entropy_energy_direct(self):
        g, p = random_g(4, 77, positive=True), 0.25
        sq = CubeFunction(4, g.values**2)
        assert entropy(sq, p) <= log_sobolev_constant(p) * dirichlet_energy(g, p) + 1e-12

    def test_literal_record_never_asserts(self):
        rec = log_sobolev_literal_record(random_g(3, 5, positive=True), 0.3)
        assert set(rec) == {"n", "p", "lhs", "rhs", "holds"}
        assert isinstance(rec["holds"], bool)
        with pytest.raises(ValueError):
            log_sobolev_literal_record(random_g(3, 5), 0.3)

    @pytest.mark.parametrize("p", BIASES)
    def test_two_point_tightness(self, p):
        c = log_sobolev_constant(p)
        sup = log_sobolev_tightness_two_point(p)
        assert sup <= c + 1e-12
        assert c - sup <= 1e-3

    def test_two_point_ratio_branch_continuity(self):
        # the series branch hands over at |y^2 - 1| = 1e-3; values from the
        # two sides of the switch must agree to the truncation error
        for p in (0.2, 0.5, 0.8):
            for sign in (1.0, -1.0):
                series = bounds._two_point_ratio(math.sqrt(1 + sign * 0.99e-3), p)
                direct = bounds._two_point_ratio(math.sqrt(1 + sign * 1.01e-3), p)
                assert series == pytest.approx(direct, rel=1e-4)

    def test_two_point_ratio_capped_by_constant(self):
        for p in (0.1, 0.5, 0.9):
            c = log_sobolev_constant(p)
            for y in (1e-3, 0.5, 0.999, 1.001, 3.0, 1e3):
                assert bounds._two_point_ratio(y, p) <= c + 1e-12


class TestInfluenceBounds:
    def test_dictator_rhs_closed_form(self):
        p = 0.5
        rep = max_influence_bound_check(dictator(2, 1), p)
        # Var = p(1-p), so the bound collapses to s(2) / (2 c(p))
        expected = rate_value(2).value / (2 * log_sobolev_constant(p))
        assert rep.rhs == pytest.approx(expected, rel=1e-14)
        assert rep.rhs == pytest.approx(0.029994708110653273, rel=1e-14)
        assert rep.lhs == 1.0
        assert rep.passed

    def test_scan_matches_single_checks(self):
        rng = np.random.default_rng(3)
        tables = (rng.random((50, 32)) < 0.5).astype(np.uint8)
        [rep] = max_influence_bound_scan(pack_tables(tables), 5, [0.25])
        assert rep.passed
        assert rep.context["count"] == 50
        single = max_influence_bound_check(
            BooleanFunction(5, tables[7]), 0.25
        )
        assert single.passed
        # every row of the scan, scanned alone, is the check on its table
        # bit for bit, and so is the worst row of the whole batch: random
        # tables of every density at n = 2..12, and every 97th n = 4 table
        batches = [(n, (rng.random((24, 1 << n)) < rng.random((24, 1))).astype(np.uint8))
                   for n in range(2, 13)]
        codes = np.arange(0, 1 << 16, 97, dtype=np.uint64)
        batches.append((4, ((codes[:, None] >> np.arange(16, dtype=np.uint64)) & 1)
                        .astype(np.uint8)))
        for n, tables in batches:
            words = pack_tables(tables)
            functions = [BooleanFunction(n, t) for t in tables]
            for p in (1e-3, 0.1, 0.3, 0.5, 0.77, 0.999):
                checks = [(c.lhs, c.rhs) for c in
                          (max_influence_bound_check(f, p) for f in functions)]
                rows = [(r.lhs, r.rhs) for r in
                        (max_influence_bound_scan(words[t : t + 1], n, [p])[0]
                         for t in range(len(tables)))]
                assert rows == checks, (n, p)
                [whole] = max_influence_bound_scan(words, n, [p])
                assert (whole.lhs, whole.rhs) == checks[whole.context["worst_index"]]

    def test_scan_counts_once_for_all_biases(self, monkeypatch):
        rng = np.random.default_rng(5)
        tables = (rng.random((40, 64)) < 0.5).astype(np.uint8)
        biases = (0.25, 0.5, 0.75)
        words = pack_tables(tables)
        one_at_a_time = [max_influence_bound_scan(words, 6, [p])[0] for p in biases]
        passes = []
        counts = bounds._kernels.pivotal_counts
        monkeypatch.setattr(
            bounds._kernels, "pivotal_counts", lambda *a: passes.append(1) or counts(*a)
        )
        reports = max_influence_bound_scan(words, 6, biases)
        assert len(passes) == 1
        assert [r.to_dict() for r in reports] == [r.to_dict() for r in one_at_a_time]

    def test_rejects_arity_one(self):
        with pytest.raises(ValueError):
            max_influence_bound_check(dictator(1, 1), 0.5)

    def test_scan_refuses_an_empty_batch(self):
        with pytest.raises(ValueError, match="at least one table"):
            max_influence_bound_scan(np.empty((0, 1), dtype=np.uint64), 4, [0.5])


# ---------------------------------------------------------------------------
# The scans run in bounded blocks. Each reference below is the one-array form
# the blocked scan replaced: it holds the whole batch (or every n) at once,
# and the blocked scan must give the same report, field for field.
# ---------------------------------------------------------------------------


def _whole_batch_scan(words, n, biases, tol=1e-12):
    pivotal = pivotal_counts(words, n)
    level = level_counts(words, n + 1)
    empty = np.array([math.comb(n, k) for k in range(n + 1)]) - level
    reports = []
    for p in biases:
        pv = bounds.bias_value(p)
        lhs = (pivotal @ level_weights(n - 1, pv)).max(axis=1)
        w = level_weights(n, pv)
        var = np.vecdot(level, w) * np.vecdot(empty, w)
        rhs = var * rate_value(n).value / (n * pv * (1.0 - pv) * log_sobolev_constant(pv))
        slack = lhs - rhs
        worst = int(slack.argmin())
        failures = int((slack < -tol).sum())
        reports.append(bounds.BoundReport(
            "max_influence_lower_bound_scan", lhs=float(lhs[worst]), rhs=float(rhs[worst]),
            passed=failures == 0, orientation="ge", tol=tol,
            context={"n": int(n), "p": pv, "count": int(words.shape[0]), "failures": failures,
                     "worst_index": worst}))
    return reports


def _one_array_rate_positive(n_max):
    ns = np.arange(2, n_max + 1, dtype=np.float64)
    ln, envelope, double_log = bounds._rate_terms(ns)
    values = ln - np.maximum(envelope, double_log)
    worst = int(values.argmin())
    return bounds.BoundReport(
        "rate_positive_scan", lhs=float(values[worst]), rhs=0.0,
        passed=bool(values[worst] > 0.0), orientation="ge", tol=0.0,
        context={"n_max": int(n_max), "argmin_n": int(ns[worst])})


def _one_array_rate_crossover(n_max, expected_first_n=275):
    ns = np.arange(2, n_max + 1, dtype=np.float64)
    _, envelope, double_log = bounds._rate_terms(ns)
    diff = envelope - double_log
    ok = diff >= 0.0

    def first_stable(mask):
        if not mask[-1]:
            return None
        false_idx = np.flatnonzero(~mask)
        return 2 if false_idx.size == 0 else int(false_idx[-1]) + 3

    stable_n = first_stable(ok)
    constant_free = first_stable((envelope - bounds._LOG_ENVELOPE_C) - double_log >= 0.0)
    first_true = int(np.flatnonzero(ok)[0]) + 2 if ok.any() else None
    tail_min = float(diff[stable_n - 2:].min()) if stable_n is not None else float(diff.max())
    return stable_n, bounds.BoundReport(
        "rate_crossover_scan", lhs=tail_min, rhs=0.0, passed=stable_n is not None,
        orientation="ge", tol=0.0,
        context={"n_max": int(n_max), "expected_first_n": int(expected_first_n),
                 "first_stable_n": stable_n, "first_true_n": first_true,
                 "matches_expected": stable_n == expected_first_n,
                 "constant_free_first_n": constant_free})


def _coin_flip_words(count, n, seed):
    rng = np.random.default_rng(seed)
    return pack_tables((rng.random((count, 1 << n)) < 0.5).astype(np.uint8))


class TestBlockedInfluenceScan:
    BIASES = (0.1, 0.3, 0.5)

    @pytest.mark.parametrize("n", (4, 6, 8))
    @pytest.mark.parametrize("count", (1, 7, 8, 9, 15, 16, 17, 23, 24, 25, 40))
    def test_equals_whole_batch(self, monkeypatch, count, n):
        words = _coin_flip_words(count, n, seed=count * 31 + n)
        expected = [r.to_dict() for r in _whole_batch_scan(words, n, self.BIASES)]
        monkeypatch.setattr(bounds, "_SCAN_ROWS", 8)
        got = [r.to_dict() for r in max_influence_bound_scan(words, n, self.BIASES)]
        assert got == expected

    @pytest.mark.parametrize("rows", ((5, 11), (11, 19), (2, 3), (8, 16)))
    def test_first_worst_row_wins_across_blocks(self, monkeypatch, rows):
        # the zero table sits exactly on the bound (lhs = rhs = 0.0), below
        # every nonconstant table, so two copies of it tie for the worst row
        words = _coin_flip_words(24, 6, seed=7)
        words[list(rows)] = 0
        expected = [r.to_dict() for r in _whole_batch_scan(words, 6, self.BIASES)]
        assert [r["context"]["worst_index"] for r in expected] == [rows[0]] * 3
        monkeypatch.setattr(bounds, "_SCAN_ROWS", 8)
        got = [r.to_dict() for r in max_influence_bound_scan(words, 6, self.BIASES)]
        assert got == expected

    @pytest.mark.parametrize("p, tol", ((0.1, -0.75), (0.3, -0.55), (0.5, -0.52)))
    def test_failures_counted_over_blocks(self, monkeypatch, p, tol):
        # a negative tolerance fails the rows whose lhs - rhs is below -tol
        words = _coin_flip_words(37, 7, seed=11)
        [expected] = _whole_batch_scan(words, 7, [p], tol=tol)
        assert 0 < expected.context["failures"] < 37
        monkeypatch.setattr(bounds, "_SCAN_ROWS", 8)
        [got] = max_influence_bound_scan(words, 7, [p], tol=tol)
        assert got.to_dict() == expected.to_dict()

    @pytest.mark.parametrize("p", (0.1, 0.3))
    def test_exhaustive_n4_blocks_equal_whole_batch(self, p):
        words = np.arange(1 << 16, dtype=np.uint64)[:, None]
        assert words.shape[0] > 4 * bounds._SCAN_ROWS
        [expected] = _whole_batch_scan(words, 4, [p])
        [got] = max_influence_bound_scan(words, 4, [p])
        assert got.to_dict() == expected.to_dict()


class TestBlockedRateScans:
    @pytest.mark.parametrize("n_max", (275, (1 << 15) + 1, (1 << 15) + 2, 10**6))
    def test_equal_one_array_forms(self, n_max):
        assert scan_rate_positive(n_max).to_dict() == _one_array_rate_positive(n_max).to_dict()
        stable_n, rep = scan_rate_crossover(n_max)
        expected_n, expected = _one_array_rate_crossover(n_max)
        assert stable_n == expected_n
        assert rep.to_dict() == expected.to_dict()

    @pytest.mark.parametrize("points", (1, 7, 100, 600))
    @pytest.mark.parametrize("n_max", (275, 883, 884, 2000))
    def test_block_size_leaves_scans_unchanged(self, monkeypatch, points, n_max):
        # small blocks put the failures of the crossover test in many blocks
        expected = (scan_rate_positive(n_max).to_dict(),
                    _one_array_rate_crossover(n_max)[1].to_dict())
        monkeypatch.setattr(bounds, "_SCAN_POINTS", points)
        assert (scan_rate_positive(n_max).to_dict(),
                scan_rate_crossover(n_max)[1].to_dict()) == expected


# ---------------------------------------------------------------------------
# A Boolean variance is mu * (1 - mu) with both measures summed from the
# level counts. Taking 1 - mu from mu next to 1 kept no correct digit and
# failed true bounds at p = 1e-6 and p = 1 - 1e-7.
# ---------------------------------------------------------------------------

NEAR_ONE = 1.0 - 1e-7
# 1 except at the top point: its 0-set weighs p**4
NOT_AND_4 = BooleanFunction(4, np.array([1] * 15 + [0], dtype=np.uint8))


def exact_variance(f, p):
    p = Fraction(p)
    mu = sum(int(a) * p**k * (1 - p) ** (f.n - k) for k, a in enumerate(f.level_counts))
    return float(mu * (1 - mu))


class TestVarianceFromBothSides:
    @pytest.mark.parametrize("p", (1e-6, 0.3, NEAR_ONE))
    def test_constants_have_zero_variance(self, p):
        for value in (0, 1):
            assert variance(BooleanFunction(4, np.full(16, value, dtype=np.uint8)), p) == 0.0

    @pytest.mark.parametrize("f, p", [(NOT_AND_4, 1e-6), (NOT_AND_4, 7.2e-9),
                                      (or_all(16), NEAR_ONE), (majority(9), NEAR_ONE),
                                      (majority(9), 0.3)])
    def test_matches_exact_variance(self, f, p):
        assert variance(f, p) == pytest.approx(exact_variance(f, p), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("f, p", [(NOT_AND_4, 1e-6), (NOT_AND_4, 7.2e-9),
                                      (majority(9), NEAR_ONE)])
    def test_influence_bound_holds_in_the_tails(self, f, p):
        assert max_influence_bound_check(f, p).passed
        words = pack_tables(f.table)[None]
        [scan] = max_influence_bound_scan(words, f.n, [p])
        assert scan.passed and scan.rhs == pytest.approx(max_influence_bound_check(f, p).rhs,
                                                         rel=1e-12)

    def test_derivative_bound_holds_next_to_one(self):
        rep = derivative_bound_check(or_all(16), NEAR_ONE, tol=1e-12)
        assert rep.passed, rep.to_dict()
        mu_bar = (1.0 - NEAR_ONE) ** 16
        assert 0.0 < rep.rhs <= rep.lhs
        assert rep.rhs == pytest.approx(derivative_bound_rhs(16, NEAR_ONE, 1.0, mu_bar),
                                        rel=1e-12)

    def test_exhaustive_n4_passes_at_one_in_a_million(self):
        result = run_suite("exhaustive-n4", seed=0, p=1e-6)
        assert result["pass"] and result["failures"] == []


class TestDerivativeBound:
    def test_or_table_on_grid(self):
        f = or_all(8)  # fully symmetric, so no generators needed
        for p in np.linspace(0.05, 0.95, 19):
            rep = derivative_bound_check(f, float(p))
            assert rep.passed, rep.to_dict()

    def test_rhs_helper_consistent(self):
        rep = derivative_bound_check(majority(7), 0.35)
        assert rep.rhs == pytest.approx(
            derivative_bound_rhs(7, 0.35, *level_means(majority(7), 0.35)), rel=1e-14
        )

    def test_hypothesis_errors_name_the_failure(self):
        shift4 = PermutationGenerators(4, (tuple(i % 4 + 1 for i in range(1, 5)),))
        with pytest.raises(ValueError, match="monotone"):
            derivative_bound_check(parity(4), 0.5, gens=shift4)
        with pytest.raises(ValueError, match="invariant"):
            derivative_bound_check(dictator(4, 1), 0.5, gens=shift4)
        with pytest.raises(ValueError, match="permutations"):
            derivative_bound_check(dictator(4, 1), 0.5)
        trivial = BooleanFunction(4, np.zeros(16, dtype=np.uint8))
        with pytest.raises(ValueError, match="trivial"):
            derivative_bound_check(trivial, 0.5, gens=shift4)
        stuck = PermutationGenerators(4, ((1, 2, 3, 4),))  # identity only
        with pytest.raises(ValueError, match="transitively"):
            derivative_bound_check(or_all(4), 0.5, gens=stuck)


def hypothesis_verdict(check, target, gens=None):
    """None when the bound's hypotheses hold, else the refusal message."""
    try:
        check(target, 0.25, gens=gens)
    except ValueError as exc:
        return str(exc)
    return None


class TestHypothesisVerdicts:
    """The verdict and message of the bound hypotheses, pinned case by case,
    on the dense path (``derivative_bound_check``) and the family path
    (``width_bound_check``)."""

    SHIFT4 = PermutationGenerators(4, (tuple(i % 4 + 1 for i in range(1, 5)),))
    SWAP4 = PermutationGenerators(4, ((2, 1, 4, 3),))  # two orbits, {1,2} and {3,4}

    def test_schedule_families_meet_the_hypotheses_on_both_paths(self):
        for spec in _family_schedule(16):
            _, gens = family_symmetry(spec)
            assert hypothesis_verdict(derivative_bound_check, build_family(spec), gens) is None
            assert hypothesis_verdict(width_bound_check, spec) is None

    def test_refusals_name_the_failed_hypothesis(self):
        zeros = BooleanFunction(4, np.zeros(16, dtype=np.uint8))
        ones = BooleanFunction(4, np.ones(16, dtype=np.uint8))
        cases = [
            (derivative_bound_check, dictator(6, 2), None,
             "hypothesis failed: not invariant under all coordinate permutations "
             "and no generators were supplied"),
            (derivative_bound_check, parity(6), None, "hypothesis failed: the set is not monotone"),
            (width_bound_check, family_spec("dictator", n=6, i=2), None,
             "hypothesis failed: the family carries no transitive symmetry"),
            (width_bound_check, family_spec("parity", n=6), None,
             "hypothesis failed: the family is not monotone"),
            (derivative_bound_check, zeros, self.SHIFT4, "hypothesis failed: the set is trivial"),
            (derivative_bound_check, ones, None, "hypothesis failed: the set is trivial"),
            (derivative_bound_check, dictator(4, 1), self.SHIFT4,
             "hypothesis failed: not invariant under the supplied generators"),
            (width_bound_check, family_spec("dictator", n=4, i=1), self.SHIFT4,
             "hypothesis failed: not invariant under the supplied generators"),
            (derivative_bound_check, or_all(4), self.SWAP4,
             "hypothesis failed: the supplied generators do not act transitively"),
            (width_bound_check, family_spec("or_all", n=4), self.SWAP4,
             "hypothesis failed: the supplied generators do not act transitively"),
            (derivative_bound_check, dictator(1, 1), None, "the bound needs arity at least 2"),
        ]
        for check, target, gens, message in cases:
            assert hypothesis_verdict(check, target, gens) == message, (check.__name__, target)


class TestBoundHypotheses:
    def test_gate_returns_the_arity_on_both_paths(self):
        spec = family_spec("tribes", k=3, m=4)
        _, gens = family_symmetry(spec)
        assert bounds.bound_hypotheses(spec) == 12
        assert bounds.bound_hypotheses(build_family(spec), gens) == 12
        assert bounds.bound_hypotheses(family_spec("or_all", n=500)) == 500

    def test_family_path_needs_arity_two(self):
        for spec in (family_spec("or_all", n=1), family_spec("majority", n=1),
                     family_spec("tribes", k=1, m=1)):
            with pytest.raises(ValueError, match="^the bound needs arity at least 2$"):
                bounds.bound_hypotheses(spec)

    def test_rejects_other_targets(self):
        with pytest.raises(TypeError, match="BooleanFunction or FamilySpec"):
            bounds.bound_hypotheses("or_all:n=4")

    def test_grid_of_checks_gathers_each_generator_once(self, monkeypatch):
        # thm41 checks each set at 19 biases; the invariance gather runs
        # once per generator, not once per bias
        f = build_family(family_spec("cyclic_run", n=12, len=3))
        _, gens = family_symmetry(family_spec("cyclic_run", n=12, len=3))
        gathers = []
        point_map = booleans.permutation_point_map
        monkeypatch.setattr(
            booleans, "permutation_point_map", lambda *a: gathers.append(a) or point_map(*a)
        )
        for k in range(1, 20):
            assert derivative_bound_check(f, 0.05 * k, gens=gens, tol=1e-9).passed
        assert len(gathers) == len(gens.perms) == 1

    @pytest.mark.parametrize("spec", [family_spec("cyclic_run", n=12, len=3),
                                      family_spec("majority", n=9)],
                             ids=lambda s: s.kind)
    def test_grid_of_checks_decides_the_gate_once(self, monkeypatch, spec):
        # the whole verdict is cached per generator set, so the count-based
        # tests and the orbit run once for 19 biases
        f = build_family(spec)
        _, gens = family_symmetry(spec)
        calls = []
        for name in ("is_fully_symmetric", "is_transitive", "is_monotone"):
            test = getattr(bounds, name)
            monkeypatch.setattr(bounds, name, lambda *a, t=test, n=name: calls.append(n) or t(*a))
        is_constant = type(f).is_constant
        monkeypatch.setattr(type(f), "is_constant",
                            lambda self: calls.append("is_constant") or is_constant(self))
        for k in range(1, 20):
            assert derivative_bound_check(f, 0.05 * k, gens=gens, tol=1e-9).passed
        symmetry = "is_fully_symmetric" if gens is None else "is_transitive"
        assert sorted(calls) == sorted(["is_constant", "is_monotone", symmetry])

    def test_cached_failure_keeps_raising(self):
        f = build_family(family_spec("parity", n=6))
        for _ in range(2):
            with pytest.raises(ValueError, match="^hypothesis failed: the set is not monotone$"):
                derivative_bound_check(f, 0.3)


class TestWidthBounds:
    def test_tight_below_plain(self):
        for n in (3, 8, 14):
            for eps in (0.05, 0.25, 0.4):
                tight, plain = width_bound_check(family_spec("or_all", n=n), eps)
                assert tight.passed and plain.passed
                assert tight.rhs <= plain.rhs + 1e-15

    def test_or8_closed_width(self):
        tight, plain = width_bound_check(family_spec("or_all", n=8), 0.1)
        expected = 0.9 ** (1 / 8) - 0.1 ** (1 / 8)
        assert tight.lhs == pytest.approx(expected, abs=1e-9)
        assert tight.lhs == pytest.approx(0.23702207203312237, abs=1e-9)

    def test_quarter_variant_recorded_and_false_for_small_unions(self):
        tight, _ = width_bound_check(family_spec("or_all", n=3), 0.4)
        assert tight.passed
        assert tight.context["quarter_variant_holds"] is False
        assert tight.context["quarter_variant_rhs"] == pytest.approx(
            tight.rhs / 4, rel=1e-12
        )

    def test_boolean_path_needs_generators(self):
        shift = PermutationGenerators(5, (tuple(i % 5 + 1 for i in range(1, 6)),))
        tight, plain = width_bound_check(or_all(5), 0.2, gens=shift)
        assert tight.passed and plain.passed

    def test_rejects_non_monotone_family(self):
        with pytest.raises(ValueError, match="monotone"):
            width_bound_check(family_spec("parity", n=4), 0.2)

    def test_supremum_agrees_with_numeric_search_on_measured_brackets(self):
        # every bracket the cor43 schedule measures, plus brackets below,
        # above, straddling and ending at 1/2: never below the grid and
        # golden-section search, and at most one double above it
        results = [
            threshold_width(spec, eps)
            for spec in _family_schedule(16)
            for eps in (0.05, 0.1, 0.25, 0.4)
        ]
        brackets = [(r.p_low, r.p_high) for r in results] + [
            (1e-6, 1e-3), (0.01, 0.2), (0.3, 0.45), (0.6, 0.95), (0.9, 1 - 1e-6),
            (0.3, 0.7), (0.1, 0.5), (0.5, 0.9), (0.25, 0.25), (0.5 - 1e-9, 0.5),
            (0.5, 0.5 + 1e-9), (0.5 - 1e-12, 0.5 + 1e-12),
        ]
        for a, b in brackets:
            numeric = supremum_on_interval(scaled_log_sobolev_constant, a, b)
            closed = closed_form_supremum(a, b)
            assert numeric <= closed <= math.nextafter(numeric, math.inf), (a, b)

    def test_supremum_within_rounding_where_flat(self):
        # Where p(1-p)c(p) is flat to within its rounding error (a bracket
        # ending within about 1e-3 of 1/2, or narrower than about 1e-10),
        # the search's maximum over rounded values can land a few doubles
        # above the rounded value at the true argmax. Each evaluation is a
        # handful of correctly rounded operations, so allow 8 doubles there.
        rng = np.random.default_rng(43)
        brackets = [(0.5 - 1e-4, 0.5 - 1e-6), (0.5 - 1e-7, 0.5 - 1e-8),
                    (0.5 - 6e-8, 0.5 - 4e-8), (0.5 + 1e-8, 0.5 + 1e-7)]
        for _ in range(60):
            a, b = sorted(rng.random(2))
            brackets.append((float(a), float(b)))
            brackets.append((0.4 * float(rng.random()), 0.5 - 10.0 ** -rng.integers(1, 9)))
            mid = 0.5 + float(rng.normal()) * 10.0 ** -rng.integers(2, 9)
            half = float(rng.random()) * 10.0 ** -rng.integers(3, 13)
            brackets.append((mid - half, mid + half))
        for a, b in brackets:
            numeric = supremum_on_interval(scaled_log_sobolev_constant, a, b)
            closed = closed_form_supremum(a, b)
            assert numeric - 8 * math.ulp(numeric) <= closed, (a, b)
            assert closed <= math.nextafter(numeric, math.inf), (a, b)


def test_prior_constants_table_shape():
    rows = prior_constants_table()
    assert len(rows) == 4
    assert rows[0]["c"] == 120.0
    assert rows[-1]["c_prime"] == 1.0
