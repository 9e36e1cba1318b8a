"""Named verification suites: each re-derives one slice of the library's
claims from scratch and reports structured pass/fail records.

Every suite is deterministic for a fixed seed; no timestamps, no ambient
randomness. Random instances come from Philox substreams so repeated runs
are byte-identical and suites never share a stream with the Monte Carlo
estimators.
"""

from __future__ import annotations

import inspect

import numpy as np

from . import bounds, martingale
from ._kernels import level_counts, pack_tables, pivotal_counts
from .booleans import (
    ARITY_CAP_ENV,
    FamilySpec,
    arity_cap,
    build_family,
    family_spec,
    family_symmetry,
    _random_monotone_table,
    random_function,
)
from .measure import (
    CubeFunction,
    _as_values,
    _center,
    _random_values,
    center_projection_sides,
    dirichlet_energy,
    level_weights,
    moment_identity,
    random_cube_function,
    variance,
)
from .mc import _bernoulli, substream
from .reports import BoundReport, checked

CHECK_BIASES = (0.1, 0.25, 0.5, 0.75, 0.9)

# substream tags; must stay clear of the monte_carlo module's 0..4 range
_TAG_BASE = 100


def _suite_rng(name: str, seed: int) -> np.random.Generator:
    return substream(seed, _TAG_BASE + SUITE_NAMES.index(name))


def _result(name: str, config: dict, checks: list[BoundReport], failures: list[dict]) -> dict:
    return {
        "suite": name,
        "pass": all(c.passed for c in checks) and not failures,
        "config": config,
        "checks": [c.to_dict() for c in checks],
        "failures": failures,
    }


def _collect(failures: list[dict], report: BoundReport, **extra) -> None:
    if not report.passed:
        record = report.to_dict()
        record["context"] = {**report.context, **extra}
        failures.append(record)


def _russo_sides(n: int, tables: np.ndarray, h: float) -> list[tuple[list, list]]:
    """Per table of a (T, 2**n) stack of monotone tables: its summed
    influences and its central difference of the measure, one per bias of
    ``CHECK_BIASES``.

    The stack is counted once. Each influence vector is its row's own
    product with the level weights, as ``influences`` takes it, and each
    measure its row's own dot, as ``expectation`` takes it.
    """
    words = pack_tables(tables)
    pivotal = pivotal_counts(words, n)
    level = level_counts(words, n + 1)
    totals, fds = [], []
    for p in CHECK_BIASES:
        totals.append((pivotal @ level_weights(n - 1, p)).sum(axis=-1).tolist())
        up = np.vecdot(level, level_weights(n, p + h))
        down = np.vecdot(level, level_weights(n, p - h))
        fds.append(((up - down) / (2.0 * h)).tolist())
    return list(zip(zip(*totals), zip(*fds)))


def suite_russo(seed: int, trials: int = 200, n_max: int = 10) -> dict:
    """Summed influences against a central finite difference of the measure.

    Each trial draws an arity and a random monotone table; held trials of
    one arity are counted together (``_by_arity``).
    """
    rng = _suite_rng("russo", seed)
    h = 1e-5
    checks, failures = [], []
    worst = {p: 0.0 for p in CHECK_BIASES}
    draws = _random_monotone_rows(rng, trials, n_max)
    sweep = _by_arity(draws, lambda n, tables: _russo_sides(n, tables, h))
    for t, (n, (totals, fds)) in enumerate(sweep):
        for p, total, fd in zip(CHECK_BIASES, totals, fds):
            rel = abs(total - fd) / max(1.0, abs(total))
            if rel > worst[p]:
                worst[p] = rel
            if rel > 1e-5:
                failures.append(
                    {"trial": t, "n": n, "p": p, "sum_influences": total, "fd": fd, "rel": rel}
                )
    for p in CHECK_BIASES:
        checks.append(
            checked("russo_fd_agreement", worst[p], 1e-5, "le", 0.0, p=p, trials=trials)
        )
    return _result(
        "russo", {"seed": seed, "trials": trials, "n_max": n_max, "fd_step": h}, checks, failures
    )


def suite_moment(seed: int, trials: int = 100, n_max: int = 8) -> dict:
    """Centering-versus-gradient moment identity at alpha 1 and 2."""
    rng = _suite_rng("moment", seed)
    checks, failures = [], []
    worst = {1.0: 0.0, 2.0: 0.0}
    for t in range(trials):
        n = int(rng.integers(2, n_max + 1))
        f = random_function(n, rng)
        p = CHECK_BIASES[t % len(CHECK_BIASES)]
        i = int(rng.integers(1, n + 1))
        for alpha in (1.0, 2.0):
            lhs, rhs = moment_identity(f, p, i, alpha)
            err = abs(lhs - rhs)
            worst[alpha] = max(worst[alpha], err)
            if err > 1e-12:
                failures.append({"trial": t, "n": n, "p": p, "i": i, "alpha": alpha, "err": err})
    for alpha in (1.0, 2.0):
        checks.append(
            checked("moment_identity", worst[alpha], 1e-12, "le", 0.0, alpha=alpha, trials=trials)
        )
    return _result("moment", {"seed": seed, "trials": trials, "n_max": n_max}, checks, failures)


def suite_adjoint(seed: int, trials: int = 100, n_max: int = 8) -> dict:
    """Self-adjointness and idempotence of the centering operator."""
    rng = _suite_rng("adjoint", seed)
    checks, failures = [], []
    worst_pair = 0.0
    worst_idem = 0.0
    for t in range(trials):
        n = int(rng.integers(2, n_max + 1))
        f = random_cube_function(n, rng)
        g = random_cube_function(n, rng)
        p = CHECK_BIASES[t % len(CHECK_BIASES)]
        i = int(rng.integers(1, n + 1))
        lhs, rhs = center_projection_sides(f, g, p, i)
        err = abs(lhs - rhs)
        worst_pair = max(worst_pair, err)
        if err > 1e-12:
            failures.append({"trial": t, "n": n, "p": p, "i": i, "kind": "pairing", "err": err})
        _, gv = _as_values(g)
        once = _center(gv, n, p, i)
        twice = _center(once, n, p, i)
        idem = float(np.max(np.abs(twice - once)))
        worst_idem = max(worst_idem, idem)
        if idem > 1e-12:
            failures.append({"trial": t, "n": n, "p": p, "i": i, "kind": "idempotence", "err": idem})
    checks.append(checked("centering_self_adjoint", worst_pair, 1e-12, "le", 0.0, trials=trials))
    checks.append(checked("centering_idempotent", worst_idem, 1e-12, "le", 0.0, trials=trials))
    return _result("adjoint", {"seed": seed, "trials": trials, "n_max": n_max}, checks, failures)


# Random entries a sweep holds before it evaluates them, over all of its
# streams (8 MiB of float64 for lsi and poincare, 1 MiB of 0/1 tables for
# russo). A default run holds far fewer, so it evaluates each arity once (per
# bias, for lsi and poincare). A larger trials or n_max evaluates whenever
# this many are held, so its memory stays within one such batch plus one
# trial.
_HELD_ENTRIES = 1 << 20


def _random_monotone_rows(rng: np.random.Generator, trials: int, n_max: int):
    """Per trial, an arity n in 2..n_max and the 0/1 table of a random
    monotone function of that arity."""
    for _ in range(trials):
        n = int(rng.integers(2, n_max + 1))
        yield n, (_random_monotone_table(n, rng),)


def _random_rows(rng: np.random.Generator, trials: int, n_max: int, lognormal: bool):
    """Per trial, an arity n in 2..n_max and a normal row of 2**n values,
    then a lognormal row of the same arity when ``lognormal`` is set."""
    for _ in range(trials):
        n = int(rng.integers(2, n_max + 1))
        rows = (_random_values(n, rng),)
        if lognormal:
            rows += (_random_values(n, rng, positive=True),)
        yield n, rows


def _by_arity(draws, evaluate):
    """Yield each trial's arity and result, in trial order.

    ``draws`` yields a trial's arity n and its rows, one per stream; held
    trials of one arity are stacked per stream and passed as
    ``evaluate(n, *stacks)``, which returns one result per row. A row's
    result does not depend on the stack it is in, so where the held rows
    are flushed does not change any result.
    """
    held, entries = [], 0
    for n, rows in draws:
        held.append((n, rows))
        entries += len(rows) << n
        if entries >= _HELD_ENTRIES:
            yield from _evaluate_held(held, evaluate)
            held, entries = [], 0
    yield from _evaluate_held(held, evaluate)


def _evaluate_held(held: list, evaluate) -> list:
    out = [None] * len(held)
    for n in {n for n, _ in held}:
        trials = [t for t, (m, _) in enumerate(held) if m == n]
        # np.stack would copy a lone trial's rows; a view holds them once
        stacks = [column[0][None] if len(column) == 1 else np.stack(column)
                  for column in zip(*(held[t][1] for t in trials))]
        for t, result in zip(trials, evaluate(n, *stacks)):
            out[t] = (n, result)
    return out


def _tally(p: float, t: int, n: int, rep: BoundReport, failures: list[dict]) -> bool:
    """Whether trial t's report is a violation; one is appended to ``failures``."""
    if not rep.passed:
        failures.append({"p": p, "trial": t, "n": n, "lhs": rep.lhs, "rhs": rep.rhs})
    return not rep.passed


def suite_lsi(seed: int, trials: int = 500, n_max: int = 8) -> dict:
    """Entropy-energy inequality in squared form, plus two-point sharpness.

    The literal (unsquared) form is tallied for nonnegative instances and
    reported, but never asserted; only the squared form is a claim here.
    """
    rng = _suite_rng("lsi", seed)
    checks, failures = [], []
    literal_holds = 0
    literal_total = 0
    for p in CHECK_BIASES:
        # each trial draws its arity, a normal g, then a lognormal instance
        draws = _random_rows(rng, trials, n_max, lognormal=True)

        def evaluate(n, squared, literal):
            return zip(bounds._log_sobolev_checks(squared, n, p),
                       bounds._log_sobolev_literal_records(literal, n, p))

        violations = 0
        worst = -np.inf
        for t, (n, (rep, record)) in enumerate(_by_arity(draws, evaluate)):
            worst = max(worst, rep.lhs - rep.rhs)
            violations += _tally(p, t, n, rep, failures)
            literal_total += 1
            literal_holds += int(record["holds"])
        checks.append(
            checked("log_sobolev_squared_sweep", violations, 0, "le", 0.0, p=p, trials=trials,
                    worst_excess=worst)
        )
        sup = bounds.log_sobolev_tightness_two_point(p)
        c = bounds.log_sobolev_constant(p)
        below = sup <= c + 1e-12
        close = abs(c - sup) <= 1e-3
        checks.append(
            BoundReport(
                "two_point_tightness",
                lhs=sup,
                rhs=c,
                passed=bool(below and close),
                orientation="le",
                tol=1e-3,
                context={"p": p, "gap": c - sup},
            )
        )
    literal = {
        "label": "log_sobolev_literal_record",
        "asserted": False,
        "holds": literal_holds,
        "total": literal_total,
    }
    out = _result("lsi", {"seed": seed, "trials": trials, "n_max": n_max}, checks, failures)
    out["literal_form"] = literal
    return out


def suite_poincare(seed: int, trials: int = 500, n_max: int = 8) -> dict:
    """Variance below energy, with equality on one-coordinate functions."""
    rng = _suite_rng("poincare", seed)
    checks, failures = [], []
    for p in CHECK_BIASES:
        violations = 0
        worst = -np.inf
        draws = _random_rows(rng, trials, n_max, lognormal=False)
        sweep = _by_arity(draws, lambda n, rows: bounds._poincare_checks(rows, n, p))
        for t, (n, rep) in enumerate(sweep):
            worst = max(worst, rep.lhs - rep.rhs)
            violations += _tally(p, t, n, rep, failures)
        checks.append(
            checked("poincare_sweep", violations, 0, "le", 0.0, p=p, trials=trials,
                    worst_excess=worst)
        )
        # one-coordinate functions a + b x_i saturate the inequality
        worst_eq = 0.0
        for t in range(20):
            n = int(rng.integers(1, n_max + 1))
            i = int(rng.integers(1, n + 1))
            a, b = rng.normal(size=2)
            values = a + b * (((np.arange(1 << n) >> (i - 1)) & 1).astype(np.float64))
            g = CubeFunction(n, values)
            worst_eq = max(worst_eq, abs(variance(g, p) - dirichlet_energy(g, p)))
        checks.append(checked("poincare_one_coordinate_equality", worst_eq, 1e-12, "le", 0.0, p=p))
    return _result("poincare", {"seed": seed, "trials": trials, "n_max": n_max}, checks, failures)


def suite_martingale(seed: int, trials: int = 100, n_max: int = 8) -> dict:
    """Every identity of the coordinate-revealing decomposition."""
    rng = _suite_rng("martingale", seed)
    worst: dict[str, float] = {}
    failures = []
    signs = set()
    for t in range(trials):
        n = int(rng.integers(2, n_max + 1))
        g = random_cube_function(n, rng)
        p = CHECK_BIASES[t % len(CHECK_BIASES)]
        for rep in martingale._all_checks(g, p):
            # residual-style checks carry the residual in lhs; the
            # equality-style one carries both sides, so take |slack|
            err = abs(rep.slack) if rep.orientation == "eq" else rep.lhs
            worst[rep.label] = max(worst.get(rep.label, 0.0), err)
            if rep.label == "increment-representation":
                signs.add(rep.context.get("matched_sign"))
            _collect(failures, rep, trial=t, p=p)
    checks = [
        checked(label, value, 1e-12, "le", 0.0, trials=trials)
        for label, value in sorted(worst.items())
    ]
    out = _result("martingale", {"seed": seed, "trials": trials, "n_max": n_max}, checks, failures)
    out["increment_signs_seen"] = sorted(str(s) for s in signs)
    return out


def _random_words(rng: np.random.Generator, trials: int, n: int) -> np.ndarray:
    """(trials, ceil(2**n / 64)) packed tables of fair coin flips.

    The bits of ``rng.random((trials, 2**n)) < 0.5``, with the generator
    left in the same state, drawn about 2**16 coordinates at a time so that
    only the packed words of the whole batch are held.
    """
    rows = max(1, (1 << 16) >> n)
    words = np.empty((trials, -(-(1 << n) // 64)), dtype=np.uint64)
    for start in range(0, trials, rows):
        block = words[start : start + rows]
        block[...] = pack_tables(_bernoulli(rng, block.shape[0], 1 << n, 0.5))
    return words


def suite_thm42(seed: int, trials: int = 1000, n_max: int = 12) -> dict:
    """Max-influence lower bound on batches of random Boolean functions."""
    # all trials of an arity are held as one batch of packed words, so the
    # batch, not just its arity, is held to one table at the cap
    cap = arity_cap()
    if trials << n_max > 1 << cap:
        raise ValueError(
            f"suite 'thm42' accepts trials * 2**n_max up to 2**{cap} "
            f"(the arity cap, {ARITY_CAP_ENV}), got {trials} * 2**{n_max}"
        )
    rng = _suite_rng("thm42", seed)
    checks, failures = [], []
    biases = (0.25, 0.5, 0.75)
    for n in range(5, n_max + 1):
        words = _random_words(rng, trials, n)
        for p, rep in zip(biases, bounds.max_influence_bound_scan(words, n, biases)):
            checks.append(rep)
            _collect(failures, rep, n=n, p=p)
    return _result("thm42", {"seed": seed, "trials": trials, "n_max": n_max}, checks, failures)


def _family_schedule(n_max: int = 16) -> list[FamilySpec]:
    specs = [family_spec("or_all", n=n) for n in range(2, n_max + 1)]
    specs += [family_spec("majority", n=n) for n in range(3, min(n_max, 15) + 1, 2)]
    specs += [
        family_spec("tribes", k=k, m=m)
        for k in range(2, n_max // 2 + 1)
        for m in range(2, n_max // k + 1)
        if k * m <= n_max
    ]
    specs += [family_spec("cyclic_run", n=n, len=3) for n in range(4, n_max + 1)]
    return specs


def suite_thm41(seed: int, n_max: int = 16) -> dict:
    """Derivative lower bound across the symmetric family schedule."""
    grid = [round(0.05 * k, 2) for k in range(1, 20)]
    checks, failures = [], []
    for spec in _family_schedule(n_max):
        f = build_family(spec)
        _, gens = family_symmetry(spec)
        # for "ge" reports the slack is rhs - lhs, so the worst grid point
        # is the one with the LARGEST slack
        worst = -np.inf
        for p in grid:
            rep = bounds.derivative_bound_check(f, p, gens=gens, tol=1e-9)
            worst = max(worst, rep.slack)
            _collect(failures, rep, family=spec.to_string())
        checks.append(
            checked("derivative_lower_bound_grid", worst, 0.0, "le", 1e-9,
                    family=spec.to_string(), grid_points=len(grid))
        )
    return _result("thm41", {"seed": seed, "n_max": n_max, "grid": grid}, checks, failures)


def suite_cor43(seed: int, n_max: int = 16) -> dict:
    """Both threshold-width ceilings across families and epsilon levels."""
    eps_levels = (0.05, 0.1, 0.25, 0.4)
    checks, failures = [], []
    for spec in _family_schedule(n_max):
        worst = np.inf
        failed_before = len(failures)
        for eps in eps_levels:
            for rep in bounds.width_bound_check(spec, eps, tol=1e-9):
                worst = min(worst, rep.slack)
                _collect(failures, rep, family=spec.to_string())
        checks.append(
            BoundReport(
                "width_bounds_family",
                lhs=-worst,
                rhs=0.0,
                passed=len(failures) == failed_before,
                orientation="le",
                tol=1e-9,
                context={"family": spec.to_string(), "eps_levels": list(eps_levels)},
            )
        )
    return _result("cor43", {"seed": seed, "n_max": n_max, "eps_levels": list(eps_levels)}, checks, failures)


def suite_sn_claims(seed: int, n_max: int = 1_000_000) -> dict:
    """Scans behind the printed numeric claims about the rate and constants."""
    checks = [
        checked("constant_at_half_exact", bounds.log_sobolev_constant(0.5), 2.0, "eq", 0.0),
        checked(
            "constant_limit_continuity",
            max(
                abs(bounds.log_sobolev_constant(0.5 + 1e-8) - 2.0),
                abs(bounds.log_sobolev_constant(0.5 - 1e-8) - 2.0),
            ),
            1e-6,
            "le",
            0.0,
        ),
        bounds.scan_constant_floor(),
        bounds.scan_scaled_constant_cap(),
        bounds.scan_rate_positive(n_max),
    ]
    first_n, crossover = bounds.scan_rate_crossover(max(n_max, 275))
    checks.append(crossover)
    # Ratio of the rate to log n over the decade grid. A full monotone climb
    # over all four decades is what one would expect from the asymptotic
    # equivalence, but the computed values dip between 10^3 and 10^4; like
    # the crossover above, the discrepancy is flagged in the context rather
    # than failed, and the check asserts only what the numbers support:
    # increasing from 10^4 on, and still below 1.
    ratios = [float(bounds.rate_value(10**k).value / (k * np.log(10.0))) for k in (3, 4, 5, 6)]
    tail_monotone = all(a < b for a, b in zip(ratios[1:], ratios[2:]))
    full_monotone = all(a < b for a, b in zip(ratios, ratios[1:]))
    checks.append(
        BoundReport(
            "rate_to_log_trend",
            lhs=ratios[-1],
            rhs=1.0,
            passed=bool(tail_monotone and ratios[-1] < 1.0),
            orientation="le",
            tol=0.0,
            context={"ratios": ratios, "full_range_monotone": full_monotone},
        )
    )
    failures = [c.to_dict() for c in checks if not c.passed]
    out = _result("sn-claims", {"seed": seed, "n_max": n_max}, checks, failures)
    out["crossover_first_n"] = first_n
    return out


def suite_exhaustive_n4(seed: int, p=None) -> dict:
    """Max-influence bound over every Boolean function on four coordinates."""
    biases = (0.25, 0.5) if p is None else (float(p),)
    # a 4-bit table packed little-endian is its own 16-bit code
    words = np.arange(1 << 16, dtype=np.uint64)[:, None]
    checks, failures = [], []
    for pv, rep in zip(biases, bounds.max_influence_bound_scan(words, 4, biases)):
        checks.append(rep)
        _collect(failures, rep, p=pv)
    out = _result("exhaustive-n4", {"seed": seed, "p": list(biases)}, checks, failures)
    out["functions_checked"] = int(words.shape[0])
    return out


_SUITES = {
    "russo": suite_russo,
    "moment": suite_moment,
    "adjoint": suite_adjoint,
    "lsi": suite_lsi,
    "poincare": suite_poincare,
    "martingale": suite_martingale,
    "thm42": suite_thm42,
    "thm41": suite_thm41,
    "cor43": suite_cor43,
    "sn-claims": suite_sn_claims,
    "exhaustive-n4": suite_exhaustive_n4,
}

# dispatch order fixes each suite's substream tag in _suite_rng
SUITE_NAMES = tuple(_SUITES)

# The smallest n_max with a check to make: thm42 scans arities 5..n_max, and
# the other suites draw or list arities from 2 (sn-claims scans the rate
# from n = 2). Every n_max but sn-claims' is the largest arity of a dense
# table the suite builds, so it is capped like any table.
_N_MAX_FLOOR = {"thm42": 5}


def run_suite(name: str, seed: int = 0, trials: int | None = None,
              p: float | None = None, n_max: int | None = None) -> dict:
    """Run one named suite; unknown names raise KeyError for the CLI to map,
    and overrides the suite does not read, or reads outside their range,
    raise ValueError."""
    if name not in _SUITES:
        raise KeyError(name)
    suite = _SUITES[name]
    overrides = {k: v for k, v in {"trials": trials, "p": p, "n_max": n_max}.items() if v is not None}
    accepted = [key for key in inspect.signature(suite).parameters if key != "seed"]
    refused = [key for key in overrides if key not in accepted]
    if refused:
        raise ValueError(
            f"suite {name!r} does not read {', '.join(refused)}; "
            f"it accepts {', '.join(accepted)}"
        )
    for key in ("trials", "n_max"):
        if key not in overrides:
            continue
        value = overrides[key]
        low = 1 if key == "trials" else _N_MAX_FLOOR.get(name, 2)
        high = arity_cap() if key == "n_max" and name != "sn-claims" else None
        if value < low or (high is not None and value > high):
            span = f">= {low}" if high is None else (
                f"from {low} to {high} (the arity cap, {ARITY_CAP_ENV})")
            raise ValueError(f"suite {name!r} accepts {key} {span}, got {value}")
    return suite(seed=seed, **overrides)
