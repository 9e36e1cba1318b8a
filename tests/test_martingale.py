"""Coordinate-revealing martingale: structure and identities."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biascube import martingale
from biascube.booleans import dictator, majority, or_all
from biascube.martingale import MartingaleDecomposition, decompose
from biascube.measure import (
    CubeFunction,
    _as_values,
    _average,
    _center,
    bias_value,
    expectation,
    variance,
    weights,
)
from biascube.reports import BoundReport, checked
from biascube.suites import CHECK_BIASES


def random_g(n, seed):
    rng = np.random.default_rng(seed)
    return CubeFunction(n, rng.normal(size=1 << n))


def conditioned(values, n, p, j):
    """``martingale._condition`` into a fresh row: the average over
    coordinates j+1..n."""
    out = np.empty(1 << n)
    martingale._condition(values, n, p, j, out)
    return out


class TestConditionalExpectation:
    def test_prefix_zero_is_mean(self):
        g, p = random_g(4, 1), 0.3
        c0 = conditioned(g.values, 4, p, 0)
        assert np.allclose(c0, expectation(g, p), atol=1e-14)

    def test_prefix_n_is_identity(self):
        g, p = random_g(4, 2), 0.3
        cn = conditioned(g.values, 4, p, 4)
        assert np.allclose(cn, g.values, atol=1e-14)

    def test_depends_only_on_prefix(self):
        g, p, j = random_g(5, 3), 0.7, 2
        c = conditioned(g.values, 5, p, j)
        # same low j bits, any high bits: equal values
        for x in range(1 << 5):
            assert math.isclose(c[x], c[x & 0b11], abs_tol=1e-14)

    def test_tower_property(self):
        g, p = random_g(5, 4), 0.4
        outer = conditioned(conditioned(g.values, 5, p, 4), 5, p, 2)
        direct = conditioned(g.values, 5, p, 2)
        assert np.allclose(outer, direct, atol=1e-13)


class TestDecomposition:
    def test_shapes_and_mean(self):
        g, p = random_g(4, 5), 0.25
        dec = decompose(g, p)
        assert len(dec.increments) == 4
        assert math.isclose(dec.base_mean, expectation(g, p), abs_tol=1e-14)

    def test_increments_have_mean_zero(self):
        g, p = random_g(5, 6), 0.6
        for inc in decompose(g, p).increments:
            assert abs(expectation(inc, p)) < 1e-13

    @given(st.integers(2, 6), st.integers(0, 5000), st.sampled_from((0.1, 0.5, 0.9)))
    @settings(max_examples=30, deadline=None)
    def test_pythagoras_property(self, n, seed, p):
        g = random_g(n, seed)
        dec = decompose(g, p)
        w = weights(n, p)
        total = sum(float(w @ (inc.values**2)) for inc in dec.increments)
        assert math.isclose(total, variance(g, p), abs_tol=1e-11)


class TestCheckers:
    # each check on a fresh decomposition, at the suite's tolerance
    @pytest.mark.parametrize("check", martingale._CHECKS, ids=lambda c: "check" + c.__name__)
    def test_pass_on_random_functions(self, check):
        for seed, p in ((1, 0.2), (2, 0.5), (3, 0.8)):
            rep = check(decompose(random_g(5, seed), p), 1e-12)
            assert rep.passed, rep.to_dict()

    @pytest.mark.parametrize("check", martingale._CHECKS, ids=lambda c: "check" + c.__name__)
    def test_pass_on_boolean_functions(self, check):
        for f in (or_all(4), majority(5), dictator(3, 2)):
            rep = check(decompose(f, 0.35), 1e-12)
            assert rep.passed, rep.to_dict()


class TestIncrementSign:
    def test_positive_sign_matches(self):
        rep = martingale._increment_representation(decompose(random_g(5, 11), 0.3), 1e-12)
        assert rep.passed
        assert rep.context["matched_sign"] == "plus"

    def test_negative_sign_fails_for_dictator(self):
        # f = x_1 gives V_1 = x_1 - p; the negated projection misses by 2|V_1|
        rep = martingale._increment_representation(decompose(dictator(3, 1), 0.4), 1e-12)
        assert rep.context["matched_sign"] == "plus"
        assert rep.context["residual_minus"] > 0.1
        assert rep.context["residual_plus"] <= 1e-12


# ---------------------------------------------------------------------------
# The per-pair and per-coordinate loops the stacked checks replaced, kept as
# references: every stacked check must give the same report, lhs, rhs and
# context included, on the same decomposition.
# ---------------------------------------------------------------------------


def _orthogonality(f, p, tol: float, dec: MartingaleDecomposition) -> BoundReport:
    n, _ = _as_values(f)
    p = bias_value(p)
    w = weights(n, p)
    worst_plain = 0.0
    worst_avg = 0.0
    averaged = [
        [_average(inc.values, n, p, i) for inc in dec.increments]
        for i in range(1, n + 1)
    ]
    for j in range(n):
        for k in range(j + 1, n):
            cross = abs(float(w @ (dec.increments[j].values * dec.increments[k].values)))
            worst_plain = max(worst_plain, cross)
            for i in range(n):
                cross_avg = abs(float(w @ (averaged[i][j] * averaged[i][k])))
                worst_avg = max(worst_avg, cross_avg)
    worst = max(worst_plain, worst_avg)
    return checked(
        "orthogonality",
        worst,
        tol,
        orientation="le",
        tol=0.0,
        max_cross=worst_plain,
        max_cross_fiber_averaged=worst_avg,
        n=n,
    )


def _pythagoras(f, p, tol: float, dec: MartingaleDecomposition) -> BoundReport:
    n, _ = _as_values(f)
    p = bias_value(p)
    w = weights(n, p)
    total = sum(float(w @ (inc.values**2)) for inc in dec.increments)
    return checked("pythagoras", total, variance(f, p), orientation="eq", tol=tol, n=n)


def _energy_decomposition(f, p, tol: float, dec: MartingaleDecomposition) -> BoundReport:
    n, v = _as_values(f)
    p = bias_value(p)
    w = weights(n, p)
    worst = 0.0
    for i in range(1, n + 1):
        direct = float(w @ (v * _center(v, n, p, i)))
        split = sum(
            float(w @ (inc.values * _center(inc.values, n, p, i)))
            for inc in dec.increments
        )
        worst = max(worst, abs(split - direct))
    return checked("energy-decomposition", worst, tol, orientation="le", tol=0.0, n=n)


def _increment_representation(f, p, tol: float, dec: MartingaleDecomposition) -> BoundReport:
    n, v = _as_values(f)
    p = bias_value(p)
    residual_plus = 0.0
    residual_minus = 0.0
    for j in range(1, n + 1):
        projected = _conditional(_center(v, n, p, j), n, p, j)
        inc = dec.increments[j - 1].values
        residual_plus = max(residual_plus, float(np.max(np.abs(inc - projected))))
        residual_minus = max(residual_minus, float(np.max(np.abs(inc + projected))))
    best = min(residual_plus, residual_minus)
    if residual_plus <= tol and residual_minus <= tol:
        matched = "both"
    elif residual_plus <= tol:
        matched = "plus"
    elif residual_minus <= tol:
        matched = "minus"
    else:
        matched = "neither"
    return checked(
        "increment-representation",
        best,
        tol,
        orientation="le",
        tol=0.0,
        matched_sign=matched,
        residual_plus=residual_plus,
        residual_minus=residual_minus,
        n=n,
    )


def _contractions(f, p, tol: float, dec: MartingaleDecomposition) -> BoundReport:
    n, v = _as_values(f)
    p = bias_value(p)
    w = weights(n, p)
    worst = 0.0
    for j in range(1, n + 1):
        centered = _center(v, n, p, j)
        inc = dec.increments[j - 1].values
        l2_gap = float(w @ (inc**2)) - float(w @ (centered**2))
        l1_gap = float(w @ np.abs(inc)) - float(w @ np.abs(centered))
        worst = max(worst, l2_gap, l1_gap)
    return checked("contractions", worst, tol, orientation="le", tol=0.0, n=n)


def _conditional(v, n, p, j):
    """The tiled per-prefix product ``decompose`` once built each row from."""
    return np.tile(weights(n - j, p) @ v.reshape(1 << (n - j), 1 << j), 1 << (n - j))


LOOP_REFERENCES = {
    "orthogonality": (martingale._orthogonality, _orthogonality),
    "pythagoras": (martingale._pythagoras, _pythagoras),
    "energy-decomposition": (martingale._energy_decomposition, _energy_decomposition),
    "increment-representation": (martingale._increment_representation,
                                 _increment_representation),
    "contractions": (martingale._contractions, _contractions),
}


def _agreement_cases():
    for n in range(1, 9):
        for seed in range(3):
            for p in CHECK_BIASES:
                yield random_g(n, 7000 + 10 * n + seed), p
    # Boolean inputs, a dictator among them, whose increments vanish exactly
    for f in (or_all(4), majority(5), dictator(3, 2), dictator(1, 1)):
        for p in CHECK_BIASES:
            yield f, p


class TestStackedChecksAgreeWithLoops:
    @pytest.mark.parametrize("label", sorted(LOOP_REFERENCES))
    def test_same_report_as_the_loop(self, label):
        stacked, reference = LOOP_REFERENCES[label]
        for g, p in _agreement_cases():
            for tol in (1e-12, 0.0):
                dec = decompose(g, p)
                got, expected = stacked(dec, tol), reference(g, p, tol, dec)
                assert got.label == label
                # repr also tells -0.0 from 0.0, which == does not
                assert got == expected and repr(got) == repr(expected), (g.n, p, tol)

    def test_decomposition_is_the_per_prefix_loop(self):
        for g, p in _agreement_cases():
            n, v = _as_values(g)
            dec = decompose(g, p)
            conds = [_conditional(v, n, p, j) for j in range(n + 1)]
            assert dec.base_mean == float(conds[0][0])
            assert dec.stacked.shape == (n, 1 << n)
            for j in range(1, n + 1):
                assert dec.stacked[j - 1].tobytes() == (conds[j] - conds[j - 1]).tobytes()
                assert dec.increments[j - 1].values.tobytes() == dec.stacked[j - 1].tobytes()
            for j in range(n + 1):
                assert conditioned(v, n, p, j).tobytes() == conds[j].tobytes()

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_an_increment_that_overflows_is_refused(self):
        # 0.1 * -1.7e308 + 0.9 * 1.7e308 is finite; -1.7e308 minus it is not
        with pytest.raises(ValueError, match="values must be finite"):
            decompose(CubeFunction(1, np.array([-1.7e308, 1.7e308])), 0.9)

    def test_one_coordinate_has_no_pairs(self):
        rep = martingale._orthogonality(decompose(random_g(1, 3), 0.25), 1e-12)
        assert rep.context["max_cross"] == 0.0
        assert rep.context["max_cross_fiber_averaged"] == 0.0

    @pytest.mark.parametrize("label", sorted(LOOP_REFERENCES))
    def test_public_check_runs_the_stacked_body(self, label):
        # the martingale suite's one entry, on one shared decomposition
        _, reference = LOOP_REFERENCES[label]
        for n in (2, 5, 8):
            g = random_g(n, 90 + n)
            reports = {rep.label: rep for rep in martingale._all_checks(g, 0.75)}
            assert repr(reports[label]) == repr(reference(g, 0.75, 1e-12, decompose(g, 0.75)))
