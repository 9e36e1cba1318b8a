"""Acceptance gate: one test per shipped claim, each with a pinned tolerance
and a runtime budget, each emitting a single PASS/FAIL verdict line.

The finite-size ratio check pins the exact law of the union family's
normalized derivative ratio. With L = -log(1-eps) the ratio is
1 + log(1/L)/log n + O(1/n), so it enters the 5% band around 1 only at
n = L**-20 (about 3.5e19 for eps=0.1 and 9.0e8 for eps=0.3); at n = 1e5 it is
1.195 and 1.090. The test checks the value against a 50-digit reference, the
logarithmic law, and the band entry on both sides of L**-20.
"""

import json
import math
from decimal import Decimal, localcontext
from time import perf_counter

import pytest
from conftest import ACCEPTANCE_LINES

from biascube import cli, mc
from biascube.booleans import build_family, family_spec
from biascube.measure import expectation, expectation_derivative, influences
from biascube.suites import SUITE_NAMES, run_suite
from biascube.threshold import (
    bias_at_level,
    or_all_sharpness_ratio,
    tribes_width_trend,
)


def verdict(tag: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" [{detail}]"
    ACCEPTANCE_LINES.append(line)
    print(line)


def test_criterion_01_influence_sum_matches_derivative():
    start = perf_counter()
    result = run_suite("russo", seed=0, trials=200, n_max=10)
    elapsed = perf_counter() - start
    ok = result["pass"] and elapsed <= 30.0
    verdict("01 influence-sum-vs-derivative", ok, f"{elapsed:.1f}s")
    assert result["pass"] is True and result["failures"] == []
    assert elapsed <= 30.0


def test_criterion_02_exact_identities():
    start = perf_counter()
    results = [
        run_suite(name, seed=0, trials=100, n_max=8)
        for name in ("moment", "adjoint", "martingale")
    ]
    elapsed = perf_counter() - start
    worst = max(c["lhs"] for r in results for c in r["checks"])
    ok = all(r["pass"] for r in results) and worst <= 1e-12 and elapsed <= 30.0
    verdict("02 exact-identities", ok, f"worst residual {worst:.2e}, {elapsed:.1f}s")
    for r in results:
        assert r["pass"] is True and r["failures"] == []
    assert worst <= 1e-12
    assert elapsed <= 30.0


def test_criterion_03_functional_inequalities():
    start = perf_counter()
    lsi = run_suite("lsi", seed=0, trials=500, n_max=8)
    poincare = run_suite("poincare", seed=0, trials=500, n_max=8)
    elapsed = perf_counter() - start
    tight = [c for c in lsi["checks"] if c["label"] == "two_point_tightness"]
    gaps_ok = len(tight) == 5 and all(
        c["pass"] and c["context"]["gap"] <= 1e-3 for c in tight
    )
    ok = lsi["pass"] and poincare["pass"] and gaps_ok and elapsed <= 60.0
    verdict("03 functional-inequalities", ok, f"{elapsed:.1f}s")
    assert lsi["pass"] is True and lsi["failures"] == []
    assert poincare["pass"] is True and poincare["failures"] == []
    assert gaps_ok
    assert elapsed <= 60.0


def test_criterion_04_max_influence_bound():
    start = perf_counter()
    exhaustive = run_suite("exhaustive-n4", seed=0)
    sampled = run_suite("thm42", seed=0, trials=1000, n_max=12)
    elapsed = perf_counter() - start
    ok = exhaustive["pass"] and sampled["pass"] and elapsed <= 300.0
    verdict("04 max-influence-bound", ok, f"{elapsed:.1f}s")
    assert exhaustive["functions_checked"] == 1 << 16
    assert exhaustive["pass"] is True and exhaustive["failures"] == []
    # 8 arities (5..12), 3 biases each
    assert len(sampled["checks"]) == 24
    assert sampled["pass"] is True and sampled["failures"] == []
    assert elapsed <= 300.0


def test_criterion_05_family_bounds():
    start = perf_counter()
    derivative = run_suite("thm41", seed=0, n_max=16)
    width = run_suite("cor43", seed=0, n_max=16)
    elapsed = perf_counter() - start
    ok = derivative["pass"] and width["pass"] and elapsed <= 300.0
    verdict("05 family-bounds", ok, f"{elapsed:.1f}s")
    # 15 unions + 7 majorities + 19 tribes shapes + 13 cyclic runs
    assert len(derivative["checks"]) == 54
    assert len(width["checks"]) == 54
    assert derivative["pass"] is True and derivative["failures"] == []
    assert width["pass"] is True and width["failures"] == []
    assert elapsed <= 300.0


def test_criterion_06_numeric_claims():
    start = perf_counter()
    result = run_suite("sn-claims", seed=0, n_max=1_000_000)
    elapsed = perf_counter() - start
    by_label = {c["label"]: c for c in result["checks"]}
    crossover = by_label["rate_crossover_scan"]
    ok = result["pass"] and elapsed <= 60.0
    verdict(
        "06 numeric-claims",
        ok,
        f"crossover at n={crossover['context']['first_stable_n']}, {elapsed:.1f}s",
    )
    assert result["pass"] is True and result["failures"] == []
    assert by_label["constant_at_half_exact"]["lhs"] == 2.0
    assert by_label["scaled_constant_cap"]["context"]["equality_points"] == [0.5]
    assert by_label["rate_positive_scan"]["pass"] is True
    # The scan's stable crossover, 883, disagrees with the expected 275; the
    # discrepancy is flagged in the report rather than failed, and 275 shows
    # up as the first n where positivity no longer needs the additive
    # constant. Both numbers are pinned here so any drift is caught.
    assert crossover["pass"] is True
    assert crossover["context"]["matches_expected"] is False
    assert crossover["context"]["first_stable_n"] == 883
    assert crossover["context"]["constant_free_first_n"] == 275
    assert elapsed <= 60.0


def test_criterion_07_closed_forms():
    start = perf_counter()
    worst_bisect = 0.0
    for n in (2, 10, 100, 1000):
        spec = family_spec("or_all", n=n)
        for alpha in (0.1, 0.5, 0.9):
            exact = 1.0 - (1.0 - alpha) ** (1.0 / n)
            got = bias_at_level(spec, alpha)
            worst_bisect = max(worst_bisect, abs(got - exact))
    worst_rel = 0.0
    for n in range(2, 17):
        f = build_family(family_spec("or_all", n=n))
        for k in range(1, 20):
            p = 0.05 * k
            exact = n * (1.0 - p) ** (n - 1)
            got = expectation_derivative(f, p)
            worst_rel = max(worst_rel, abs(got - exact) / exact)
    closer = all(
        abs(or_all_sharpness_ratio(10**6, eps) - 1.0)
        < abs(or_all_sharpness_ratio(10**5, eps) - 1.0)
        for eps in (0.1, 0.3)
    )
    elapsed = perf_counter() - start
    ok = worst_bisect <= 1e-9 and worst_rel <= 1e-9 and closer and elapsed <= 10.0
    verdict("07 closed-forms", ok, f"{elapsed:.1f}s")
    assert worst_bisect <= 1e-9
    assert worst_rel <= 1e-9
    assert closer
    assert elapsed <= 10.0


def _or_all_ratio_reference(n: int, eps: float) -> Decimal:
    """The union family's normalized derivative ratio at 50 digits.

    Same closed forms as the package: p = 1 - (1-eps)**(1/n) and
    mu' = n (1-eps)**((n-1)/n), evaluated with ``decimal`` from the exact
    binary value of eps.
    """
    with localcontext() as ctx:
        ctx.prec = 50
        one, n_d = Decimal(1), Decimal(n)
        log1me = (one - Decimal(eps)).ln()
        p = one - (log1me / n_d).exp()
        dmu = n_d * ((n_d - one) / n_d * log1me).exp()
        norm = (one - Decimal(eps)) * -log1me
        return dmu / n_d.ln() * p * (one / p).ln() / norm


def test_criterion_07_finite_size_ratio_within_5pct():
    # The expansion is in the or_all_sharpness_ratio docstring: with
    # L = -log(1-eps) the ratio is 1 + log(1/L)/log n plus a term below L/n,
    # so it meets 1.05 where log(1/L)/log n = 0.05, i.e. at n5 = L**-20.
    start = perf_counter()
    ratios = {}  # eps -> ratio at n = 1e5
    worst_gap = 0.0
    worst_law = 0.0  # residual over its bound L/n; must stay <= 1
    band = {}
    for eps in (0.1, 0.3):
        L = -math.log1p(-eps)
        for n in (10**5, 10**6):
            got = or_all_sharpness_ratio(n, eps)
            if n == 10**5:
                ratios[eps] = got
            ref = _or_all_ratio_reference(n, eps)
            worst_gap = max(worst_gap, float(abs(Decimal(got) - ref) / ref))
            law = 1.0 + math.log(1.0 / L) / math.log(n)
            worst_law = max(worst_law, abs(got - law) / (L / n))
        n5 = L**-20
        band[eps] = (
            or_all_sharpness_ratio(math.floor(n5 / 1.01), eps) > 1.05,
            or_all_sharpness_ratio(math.ceil(1.01 * n5), eps) <= 1.05,
        )
    elapsed = perf_counter() - start
    outside_at_1e5 = all(r > 1.05 for r in ratios.values())
    band_ok = all(below and above for below, above in band.values())
    ok = (
        worst_gap <= 1e-12
        and worst_law <= 1.0
        and outside_at_1e5
        and band_ok
        and elapsed <= 10.0
    )
    verdict(
        "07 finite-size-ratio-5pct",
        ok,
        f"ratio(1e5, 0.1)={ratios[0.1]:.4f}, ratio(1e5, 0.3)={ratios[0.3]:.4f}, "
        f"reference gap {worst_gap:.1e}, law residual {worst_law:.2f} x L/n",
    )
    assert elapsed <= 10.0
    assert worst_gap <= 1e-12, (
        "or_all_sharpness_ratio differs from the 50-digit reference by "
        f"{worst_gap:.3e} relative"
    )
    assert worst_law <= 1.0, (
        f"the ratio leaves 1 + log(1/L)/log n by {worst_law:.3f} x L/n; the "
        "next term of the expansion is below L/n"
    )
    assert outside_at_1e5, (
        f"the ratio at n=1e5 is {ratios[0.1]:.6f} at eps=0.1 and "
        f"{ratios[0.3]:.6f} at eps=0.3; the log n law puts both above 1.05"
    )
    assert band_ok, (
        "the ratio must be above 1.05 at n = L**-20 / 1.01 and at most 1.05 "
        f"at 1.01 * L**-20 (above, at-most per eps: {band})"
    )


def test_criterion_08_tribes_width_trend():
    start = perf_counter()
    trend = tribes_width_trend(0.1)
    elapsed = perf_counter() - start
    rows = trend.rows
    target = abs(trend.constant)
    gaps = [abs(row.width_times_log_n - target) for row in rows]
    within = all(target / 3.0 <= row.width_times_log_n <= target * 3.0 for row in rows)
    ok = (
        within
        and all(a > b for a, b in zip(gaps, gaps[1:]))
        and elapsed <= 10.0
    )
    verdict("08 tribes-width-trend", ok, f"{elapsed:.1f}s")
    assert [row.k for row in rows] == [2, 3, 4]
    assert [row.m for row in rows] == [2, 5, 11]
    # The fair-coin measure premise (within 0.05 of 1/2) is achievable only
    # from k=3 up; at k=2 the best tribe count leaves 7/16, a gap of exactly
    # 0.0625, pinned here so the limitation stays visible.
    assert abs(rows[0].mu_half - 0.5) == 0.0625
    for row in rows[1:]:
        assert abs(row.mu_half - 0.5) <= 0.05
    assert within
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    assert elapsed <= 10.0


def test_criterion_09_monte_carlo_calibration():
    start = perf_counter()
    oracle = mc.family_oracle(family_spec("or_all", n=50))
    found = mc.mc_p_of_alpha(oracle, 0.5, 4096, 1e-3, 0)
    exact = 1.0 - 0.5 ** (1.0 / 50.0)
    level_ok = abs(found.p_hat - exact) <= 2e-3

    coverage = {}
    cases = (
        (family_spec("majority", n=9), 0.3),
        (family_spec("or_all", n=12), 0.1),
        (family_spec("tribes", k=3, m=4), 0.5),
    )
    for spec, p in cases:
        f = build_family(spec)
        sampler = mc.family_oracle(spec)
        mu_exact = expectation(f, p)
        inf_exact = float(influences(f, p)[0])
        cov_mu = cov_inf = 0
        for seed in range(100):
            est = mc.estimate_mu(sampler, p, 8192, seed)
            cov_mu += est.ci_lo <= mu_exact <= est.ci_hi
            est_i = mc.estimate_influence(sampler, p, 1, 8192, seed)
            cov_inf += est_i.ci_lo <= inf_exact <= est_i.ci_hi
        coverage[spec.to_string()] = (cov_mu, cov_inf)

    graphs = [mc.family_oracle(family_spec("connectivity", m=m)) for m in (8, 12, 16)]
    p_hats = [mc.mc_p_of_alpha(oracle, 0.5, 4096, 1e-3, 7).p_hat for oracle in graphs]
    decreasing = all(a > b for a, b in zip(p_hats, p_hats[1:]))
    elapsed = perf_counter() - start

    cov_ok = all(mu >= 93 and inf >= 93 for mu, inf in coverage.values())
    ok = level_ok and cov_ok and decreasing and elapsed <= 300.0
    worst_cov = min(min(v) for v in coverage.values())
    verdict(
        "09 monte-carlo-calibration",
        ok,
        f"worst coverage {worst_cov}/100, {elapsed:.1f}s",
    )
    assert level_ok, (found.p_hat, exact)
    for key, (mu, inf) in coverage.items():
        assert mu >= 93, (key, mu)
        assert inf >= 93, (key, inf)
    assert decreasing, p_hats
    assert elapsed <= 300.0


REDUCED = {
    "russo": {"trials": 25, "n_max": 6},
    "moment": {"trials": 25, "n_max": 6},
    "adjoint": {"trials": 25, "n_max": 6},
    "lsi": {"trials": 40, "n_max": 5},
    "poincare": {"trials": 40, "n_max": 5},
    "martingale": {"trials": 25, "n_max": 6},
    "thm42": {"trials": 60, "n_max": 7},
    "thm41": {"n_max": 9},
    "cor43": {"n_max": 9},
    "sn-claims": {"n_max": 5000},
    "exhaustive-n4": {"p": 0.25},
}

MC_COMMANDS = (
    ["mc", "mu", "--family", "or", "--n", "32", "--p", "0.03",
     "--samples", "20000", "--seed", "11"],
    ["mc", "influence", "--family", "or", "--n", "32", "--i", "2", "--p", "0.03",
     "--samples", "20000", "--seed", "11"],
    ["mc", "threshold", "--family", "connectivity", "--m", "12",
     "--alpha", "0.5", "--seed", "11"],
)


def test_criterion_10_determinism(capsys):
    start = perf_counter()
    for name in SUITE_NAMES:
        first = json.dumps(run_suite(name, seed=0, **REDUCED[name]), sort_keys=True)
        second = json.dumps(run_suite(name, seed=0, **REDUCED[name]), sort_keys=True)
        assert first == second, f"suite {name} not reproducible"

    for argv in MC_COMMANDS:
        assert cli.main(list(argv)) == 0
        first = capsys.readouterr().out
        assert cli.main(list(argv)) == 0
        second = capsys.readouterr().out
        assert first == second, f"command {argv} not reproducible"
    elapsed = perf_counter() - start
    verdict("10 determinism", True, f"{elapsed:.1f}s")
