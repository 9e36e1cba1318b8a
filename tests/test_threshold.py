"""Measure curves, bisection, widths. Closed-form inverses are the oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biascube import threshold
from biascube.booleans import (
    BooleanFunction,
    and_all,
    build_family,
    family_spec,
    or_all,
    parity,
    tribes,
)
from biascube.measure import expectation
from biascube.threshold import (
    MuCurve,
    bias_at_level,
    choose_tribe_count,
    dense_curve,
    family_curve,
    or_all_sharpness_ratio,
    set_measure,
    supremum_on_interval,
    threshold_width,
    tribes_width_trend,
    width_from_derivative_check,
)


def or_level(n, alpha):
    return 1.0 - (1.0 - alpha) ** (1.0 / n)


class TestSetMeasure:
    def test_family_closed_forms(self):
        for p in (0.2, 0.5, 0.8):
            assert math.isclose(
                set_measure(family_spec("or_all", n=7), p), 1 - (1 - p) ** 7, rel_tol=1e-12
            )
            assert math.isclose(
                set_measure(family_spec("and_all", n=7), p), p**7, rel_tol=1e-12
            )
            assert math.isclose(
                set_measure(family_spec("dictator", n=4, i=2), p), p, rel_tol=1e-14
            )

    def test_tribes_two_by_two_at_half(self):
        assert math.isclose(set_measure(family_spec("tribes", k=2, m=2), 0.5), 7 / 16,
                            rel_tol=1e-14)

    @given(st.sampled_from((0.1, 0.3, 0.5, 0.7, 0.9)))
    @settings(deadline=None)
    def test_tribes_closed_form_matches_dense(self, p):
        k, m = 2, 3
        closed = set_measure(family_spec("tribes", k=k, m=m), p)
        dense = set_measure(tribes(k, m), p)
        assert math.isclose(closed, dense, abs_tol=1e-12)

    def test_trivial_sets_allowed(self):
        zeros = BooleanFunction(3, np.zeros(8, dtype=np.uint8))
        ones = BooleanFunction(3, np.ones(8, dtype=np.uint8))
        assert set_measure(zeros, 0.3) == 0.0
        # full-set weights sum to 1 only up to float addition order
        assert set_measure(ones, 0.3) == pytest.approx(1.0, abs=1e-14)

    def test_non_monotone_allowed(self):
        # measure is defined for any set; only inversion needs monotonicity
        assert math.isclose(set_measure(parity(3), 0.5), 0.5, abs_tol=1e-14)

    @pytest.mark.parametrize("spec", [
        family_spec("majority", n=7),
        family_spec("parity", n=6),
        family_spec("cyclic_run", n=7, len=3),
    ], ids=lambda s: s.to_string())
    def test_spec_without_closed_form_is_the_built_function(self, spec):
        # a spec whose kind has no closed form is measured off the built
        # function, parity included, though it has no monotone curve
        f = build_family(spec)
        for p in (0.05, 0.3, 0.5, 0.77, 0.95):
            assert set_measure(spec, p) == expectation(f, p)


class TestBisection:
    @pytest.mark.parametrize("n", (2, 10, 100, 1000))
    def test_or_against_closed_inverse(self, n):
        spec = family_spec("or_all", n=n)
        for alpha in (0.1, 0.5, 0.9):
            assert math.isclose(
                bias_at_level(spec, alpha), or_level(n, alpha), abs_tol=1e-9
            )

    def test_dense_path_agrees_with_closed_form(self):
        f = or_all(6)
        spec = family_spec("or_all", n=6)
        for alpha in (0.25, 0.75):
            assert math.isclose(
                bias_at_level(f, alpha), bias_at_level(spec, alpha), abs_tol=1e-9
            )

    def test_rejects_non_monotone(self):
        with pytest.raises(ValueError):
            dense_curve(parity(3))

    def test_rejects_constant(self):
        with pytest.raises(ValueError):
            dense_curve(BooleanFunction(2, np.zeros(4, dtype=np.uint8)))

    def test_level_validation(self):
        with pytest.raises(ValueError):
            bias_at_level(family_spec("or_all", n=4), 1.5)

    @pytest.mark.parametrize("target", (family_spec("or_all", n=4), or_all(4)))
    def test_rejects_tolerance_that_rounds_the_bracket_to_one(self, target):
        # 1 - 1e-17 == 1.0: the closed form would hit log(0), the dense
        # curve a bias of 1.0
        for tol in (1e-17, 5e-17, 0.0, 0.5):
            with pytest.raises(ValueError, match="tolerance"):
                bias_at_level(target, 0.5, tol=tol)
            with pytest.raises(ValueError, match="tolerance"):
                threshold_width(target, 0.1, tol=tol)
        assert 1.0 - 1e-16 < 1.0
        assert math.isclose(bias_at_level(target, 0.5, tol=1e-16), or_level(4, 0.5),
                            abs_tol=1e-15)

    def test_stops_when_the_bracket_is_two_adjacent_doubles(self):
        calls = []

        def step(p):  # never within tol of the level, so only the bracket can stop it
            calls.append(p)
            return 0.25 if p < 0.7 else 0.75

        # doubles next to 0.7 lie 1.1e-16 apart, so hi - lo never drops to tol
        p = bias_at_level(MuCurve(mu=step), 0.5, tol=1e-16)
        assert abs(p - 0.7) <= math.ulp(0.7)
        assert len(calls) < 100

    @pytest.mark.parametrize("alpha, tol", ((0.5, 1e-16), (0.5, 1e-12), (0.3, 1e-12)))
    def test_evaluates_the_curve_twice_plus_once_per_iteration(self, alpha, tol):
        # the bracket's two ends, then one point per step, at each exit: the
        # step curve runs the bracket down to adjacent doubles (tol 1e-16)
        # or to tol, the linear one lands within tol of the level
        calls = []
        for mu in (lambda p: 0.25 if p < 0.7 else 0.75, lambda p: p):
            calls.clear()
            iterations = threshold._bisect(
                MuCurve(mu=lambda p: calls.append(p) or mu(p)), alpha, tol)[1]
            assert len(calls) == 2 + iterations


class TestWidth:
    def test_or10_closed_form(self):
        result = threshold_width(family_spec("or_all", n=10), 0.1)
        expected = or_level(10, 0.9) - or_level(10, 0.1)
        assert math.isclose(result.width, expected, abs_tol=1e-9)
        # pinned bisection output; equality documents byte-stability
        assert result.width == 0.19519102348255796

    def test_dictator_width(self):
        result = threshold_width(family_spec("dictator", n=5, i=1), 0.1)
        assert math.isclose(result.width, 0.8, abs_tol=1e-9)

    def test_majority_self_dual(self):
        result = threshold_width(family_spec("majority", n=7), 0.2)
        assert math.isclose(result.p_low + result.p_high, 1.0, abs_tol=1e-9)

    def test_and_mirrors_or(self):
        a = threshold_width(family_spec("and_all", n=8), 0.15)
        b = threshold_width(family_spec("or_all", n=8), 0.15)
        assert math.isclose(a.width, b.width, abs_tol=1e-9)

    def test_width_shrinks_with_arity(self):
        widths = [threshold_width(family_spec("or_all", n=n), 0.1).width
                  for n in (4, 16, 64)]
        assert widths[0] > widths[1] > widths[2]

    def test_eps_validation(self):
        with pytest.raises(ValueError):
            threshold_width(family_spec("or_all", n=4), 0.6)


class TestSupremum:
    def test_interior_maximum(self):
        # p(1-p) peaks at 1/2
        assert math.isclose(
            supremum_on_interval(lambda p: p * (1 - p), 0.2, 0.8), 0.25, abs_tol=1e-10
        )

    def test_endpoint_maximum(self):
        assert math.isclose(
            supremum_on_interval(lambda p: p, 0.2, 0.8), 0.8, abs_tol=1e-12
        )

    def test_degenerate_interval(self):
        assert supremum_on_interval(lambda p: p * p, 0.4, 0.4) == pytest.approx(0.16)


class TestDerivativeWidthTransfer:
    def test_families_pass(self):
        curve = family_curve(family_spec("or_all", n=8))
        # a = inf of p q c(p) scaled derivative ... use a modest constant that
        # the union family satisfies on the grid, with g = 1
        rep = width_from_derivative_check(
            curve, 0.5, lambda p: 1.0, alpha_grid=(0.1, 0.3, 0.5, 0.7, 0.9)
        )
        assert rep.passed, rep.to_dict()
        assert rep.context["part_i_pass"]
        assert rep.context["pairs_checked"] == 15

    def test_part_ii_skipped_when_part_i_fails(self):
        curve = family_curve(family_spec("dictator", n=4, i=1))
        rep = width_from_derivative_check(
            curve, 50.0, lambda p: 1.0, alpha_grid=(0.2, 0.8)
        )
        assert not rep.passed
        assert not rep.context["part_i_pass"]
        assert rep.context["pairs_checked"] == 0

    def test_rejects_bad_constant(self):
        curve = family_curve(family_spec("or_all", n=4))
        with pytest.raises(ValueError):
            width_from_derivative_check(curve, 0.0, lambda p: 1.0, alpha_grid=(0.5,))


class TestSharpnessDiagnostics:
    def test_ratio_approaches_one_from_above(self):
        for eps in (0.1, 0.3):
            r5 = or_all_sharpness_ratio(10**5, eps)
            r6 = or_all_sharpness_ratio(10**6, eps)
            assert r5 > 1.0 and r6 > 1.0
            assert abs(r6 - 1.0) < abs(r5 - 1.0)

    def test_choose_tribe_count_small_cases(self):
        # brute force the best m over a wide range
        for k in (2, 3, 4):
            q = math.log1p(-(2.0**-k))
            best = min(range(1, 200), key=lambda m: (abs(-math.expm1(m * q) - 0.5), m))
            assert choose_tribe_count(k) == best

    def test_trend_rows(self):
        report = tribes_width_trend(0.1)
        rows = report.rows
        assert [r.k for r in rows] == [2, 3, 4]
        assert [r.m for r in rows] == [2, 5, 11]
        target = abs(report.constant)
        gaps = [abs(r.width_times_log_n - target) for r in rows]
        assert gaps[0] > gaps[1] > gaps[2]
        for r in rows[1:]:
            assert abs(r.mu_half - 0.5) <= 0.05
        # smallest tribe size cannot hit the half-measure window at all
        assert abs(rows[0].mu_half - 0.5) == pytest.approx(0.0625)
