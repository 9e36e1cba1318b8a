"""Sharp-threshold constants and the inequality checks built on them.

Everything is evaluated in double precision straight from the defining
formulas; the exponents 2 + 4/e, 5 + 4/e, 3 + 4/e are computed at runtime,
never hand-rounded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from . import _kernels
from .booleans import (
    BooleanFunction,
    FamilySpec,
    PermutationGenerators,
    _binomials,
    build_family,
    family_symmetry,
    is_fully_symmetric,
    is_invariant,
    is_monotone,
    is_transitive,
)
from .measure import (
    CubeFunction,
    _as_values,
    _energies,
    _entropies,
    _variances,
    bias_value,
    dirichlet_energy,
    entropy,
    expectation_derivative,
    level_means,
    level_weights,
    variance,
)
from .reports import BoundReport, checked
from .threshold import ThresholdResult, supremum_on_interval, threshold_width

SERIES_SWITCH = 1e-7
WIDTH_TOL = 1e-9

_LOG_ENVELOPE_C = (2.0 + 4.0 / math.e) - (5.0 + 4.0 / math.e) * math.log(2.0)
_ENVELOPE_POWER = 3.0 + 4.0 / math.e


def log_sobolev_constant(p) -> float:
    """Optimal constant of the one-coordinate log-Sobolev inequality.

    log((1-p)/p)/(1-2p), with the removable singularity at p = 1/2 filled
    by its limit 2. Below the switch threshold the direct quotient loses
    digits to 0/0 cancellation, so an even Taylor series in u = 1-2p takes
    over; the two branches agree to well under 1e-9 at the switch point.
    """
    pv = bias_value(p)
    u = 1.0 - 2.0 * pv
    if abs(u) < SERIES_SWITCH:
        uu = u * u
        return 2.0 * (1.0 + uu / 3.0 + uu * uu / 5.0)
    return math.log1p(u / pv) / u


def scaled_log_sobolev_constant(p) -> float:
    """p(1-p) times the log-Sobolev constant; capped at 1/2, cap hit only at 1/2."""
    pv = bias_value(p)
    return pv * (1.0 - pv) * log_sobolev_constant(pv)


def _constant_grid(p: np.ndarray) -> np.ndarray:
    p = np.asarray(p, dtype=np.float64)
    u = 1.0 - 2.0 * p
    out = np.empty_like(p)
    near = np.abs(u) < SERIES_SWITCH
    if near.any():
        uu = u[near] ** 2
        out[near] = 2.0 * (1.0 + uu / 3.0 + uu * uu / 5.0)
    far = ~near
    out[far] = np.log1p(u[far] / p[far]) / u[far]
    return out


@dataclass(frozen=True)
class RateValue:
    """One evaluation of the rate sequence, with both max-branch terms kept."""

    n: int
    envelope_term: float
    double_log_term: float
    value: float


def rate_value(n: int) -> RateValue:
    """Rate sequence log n - max(envelope term, 2 log log n).

    The envelope term is log of (e^(2+4/e)/2^(5+4/e)) * (log(n/(log n)^2))^(3+4/e).
    Natural logarithms throughout. Positive for every n >= 2 (the scan below
    checks this rather than assuming it), and asymptotically equivalent to
    log n.
    """
    if n < 2:
        raise ValueError("rate sequence is defined for n >= 2")
    ln = math.log(n)
    envelope = _LOG_ENVELOPE_C + _ENVELOPE_POWER * math.log(math.log(n / (ln * ln)))
    double_log = 2.0 * math.log(ln)
    return RateValue(n, envelope, double_log, ln - max(envelope, double_log))


def _rate_terms(ns: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    ln = np.log(ns)
    envelope = _LOG_ENVELOPE_C + _ENVELOPE_POWER * np.log(np.log(ns / (ln * ln)))
    double_log = 2.0 * np.log(ln)
    return ln, envelope, double_log


# Points of n the rate scans evaluate at once (256 KiB per float64 term).
_SCAN_POINTS = 1 << 15


def _rate_blocks(n_max: int):
    """``(ns, ln, envelope, double_log)`` over n = 2..n_max, in consecutive
    blocks of ``_SCAN_POINTS`` points; only one block is held at a time."""
    for start in range(2, n_max + 1, _SCAN_POINTS):
        ns = np.arange(start, min(start + _SCAN_POINTS, n_max + 1), dtype=np.float64)
        yield (ns, *_rate_terms(ns))


def scan_rate_positive(n_max: int) -> BoundReport:
    """Exhaustively check rate > 0 on [2, n_max]; reports the minimum."""
    if n_max < 2:
        raise ValueError("scan needs n_max >= 2")
    min_value, argmin_n = np.inf, None
    for ns, ln, envelope, double_log in _rate_blocks(n_max):
        values = ln - np.maximum(envelope, double_log)
        worst = int(values.argmin())
        # strictly smaller, so the first minimum over the whole scan wins
        if values[worst] < min_value:
            min_value, argmin_n = float(values[worst]), int(ns[worst])
    return BoundReport(
        "rate_positive_scan",
        lhs=min_value,
        rhs=0.0,
        passed=bool(min_value > 0.0),
        orientation="ge",
        tol=0.0,
        context={"n_max": int(n_max), "argmin_n": argmin_n},
    )


def scan_rate_crossover(n_max: int, expected_first_n: int = 275) -> tuple[int | None, BoundReport]:
    """Find where the envelope term takes over the max, scanning every n.

    Returns the smallest n from which envelope >= 2 log log n holds all the
    way to n_max, plus a report comparing it against ``expected_first_n``.
    A mismatch is flagged in the context, not failed: the report passes iff
    a stable crossover exists at all. Monotonicity of the difference is not
    assumed anywhere; the scan is exhaustive, one block of n at a time.
    """
    if n_max < 275:
        raise ValueError("crossover scan needs n_max >= 275")
    # the last failing n of each test (0 while none has failed), the first
    # n that holds, min(diff) after the last failure, and max(diff)
    last_fail = last_fail_constant_free = 0
    first_true = None
    tail_min, max_diff = np.inf, -np.inf
    for ns, _, envelope, double_log in _rate_blocks(n_max):
        diff = envelope - double_log
        ok = diff >= 0.0
        fails = np.flatnonzero(~ok)
        if fails.size:
            last_fail, tail_min = int(ns[fails[-1]]), np.inf
        tail = diff[fails[-1] + 1 :] if fails.size else diff
        tail_min = np.minimum(tail_min, tail.min(initial=np.inf))
        max_diff = np.maximum(max_diff, diff.max())
        # same test with the additive constant dropped from the envelope term
        constant_free_fails = np.flatnonzero(~((envelope - _LOG_ENVELOPE_C) - double_log >= 0.0))
        if constant_free_fails.size:
            last_fail_constant_free = int(ns[constant_free_fails[-1]])
        if first_true is None and ok.any():
            first_true = int(ns[ok.argmax()])

    def first_stable(last: int) -> int | None:
        return None if last == n_max else last + 1 if last else 2

    stable_n = first_stable(last_fail)
    constant_free = first_stable(last_fail_constant_free)
    tail_min = float(tail_min if stable_n is not None else max_diff)
    report = BoundReport(
        "rate_crossover_scan",
        lhs=tail_min,
        rhs=0.0,
        passed=stable_n is not None,
        orientation="ge",
        tol=0.0,
        context={
            "n_max": int(n_max),
            "expected_first_n": int(expected_first_n),
            "first_stable_n": stable_n,
            "first_true_n": first_true,
            "matches_expected": stable_n == expected_first_n,
            "constant_free_first_n": constant_free,
        },
    )
    return stable_n, report


def scan_constant_floor(points: int = 10001) -> BoundReport:
    """log-Sobolev constant >= 2 on an interior grid of (0,1)."""
    grid = np.arange(1, points + 1, dtype=np.float64) / (points + 1.0)
    vals = _constant_grid(grid)
    worst = int(vals.argmin())
    return BoundReport(
        "log_sobolev_constant_floor",
        lhs=float(vals[worst]),
        rhs=2.0,
        passed=bool(vals[worst] >= 2.0),
        orientation="ge",
        tol=0.0,
        context={"points": int(points), "argmin_p": float(grid[worst])},
    )


@lru_cache(maxsize=8)
def scan_scaled_constant_cap(points: int = 10001) -> BoundReport:
    """p(1-p) c(p) <= 1/2 on the grid, equality only at p = 1/2, strictly
    increasing up to 1/2 and strictly decreasing after it."""
    grid = np.arange(1, points + 1, dtype=np.float64) / (points + 1.0)
    vals = grid * (1.0 - grid) * _constant_grid(grid)
    worst = int(vals.argmax())
    eq = grid[np.abs(vals - 0.5) <= 1e-12]
    steps = np.diff(vals)
    rising = grid[1:] <= 0.5
    increasing_to_half = bool((steps[rising] > 0).all() and (steps[~rising] < 0).all())
    passed = (
        bool(vals[worst] <= 0.5) and eq.size == 1 and float(eq[0]) == 0.5 and increasing_to_half
    )
    return BoundReport(
        "scaled_constant_cap",
        lhs=float(vals[worst]),
        rhs=0.5,
        passed=passed,
        orientation="le",
        tol=1e-12,
        context={
            "points": int(points),
            "argmax_p": float(grid[worst]),
            "equality_points": [float(x) for x in eq],
            "increasing_to_half": increasing_to_half,
        },
    )


def _squared(g) -> CubeFunction:
    n, v = _as_values(g)
    return CubeFunction(n, v * v)


def log_sobolev_check(g, p, tol: float = 1e-12) -> BoundReport:
    """Ent(g^2) <= c(p) * Dirichlet energy of g, the form the variance
    decomposition argument actually consumes."""
    pv = bias_value(p)
    n, _ = _as_values(g)
    c = log_sobolev_constant(pv)
    return _log_sobolev_report(n, pv, c, entropy(_squared(g), pv), dirichlet_energy(g, pv), tol)


def log_sobolev_literal_record(g, p) -> dict:
    """Entropy of g itself (not g^2) against c(p) times the energy.

    Recorded for evidence only, never asserted: whether the inequality in
    this literal form holds for every nonnegative g is left open here. The
    squared form above is the one the package guarantees.
    """
    n, v = _as_values(g)
    _literal_domain(v)
    pv = bias_value(p)
    c = log_sobolev_constant(pv)
    return _literal_record(n, pv, c, entropy(g, pv), dirichlet_energy(g, pv))


# One report or record from a function's two sides, shared by the checks on
# a single function and by their stacked forms below, so each check's label,
# right-hand side and pass rule live in one place. c is log_sobolev_constant
# at pv, passed in so that a stack computes it once.


def _log_sobolev_report(n: int, pv: float, c: float, lhs: float, energy: float,
                        tol: float) -> BoundReport:
    return checked("log_sobolev_squared", lhs, c * energy, "le", tol, n=n, p=pv)


def _literal_domain(values: np.ndarray) -> None:
    if (values < 0).any():
        raise ValueError("literal form needs a nonnegative function")


def _literal_record(n: int, pv: float, c: float, lhs: float, energy: float) -> dict:
    rhs = c * energy
    return {"n": n, "p": pv, "lhs": lhs, "rhs": rhs, "holds": bool(lhs <= rhs + 1e-12)}


def _poincare_report(n: int, pv: float, var: float, energy: float, tol: float) -> BoundReport:
    return checked("poincare", var, energy, "le", tol, n=n, p=pv)


# The checks above and ``poincare_check`` on a (T, 2**n) stack of real rows,
# one result per row, through measure's stacked forms. Row t equals the
# check on CubeFunction(n, values[t]) bit for bit, since the public measure
# functions are the stacked forms on a batch of one.


def _log_sobolev_checks(values: np.ndarray, n: int, pv: float,
                        tol: float = 1e-12) -> list[BoundReport]:
    c = log_sobolev_constant(pv)
    return [
        _log_sobolev_report(n, pv, c, lhs, energy, tol)
        for lhs, energy in zip(_entropies(values * values, n, pv), _energies(values, n, pv))
    ]


def _log_sobolev_literal_records(values: np.ndarray, n: int, pv: float) -> list[dict]:
    _literal_domain(values)
    c = log_sobolev_constant(pv)
    return [
        _literal_record(n, pv, c, lhs, energy)
        for lhs, energy in zip(_entropies(values, n, pv), _energies(values, n, pv))
    ]


def _poincare_checks(values: np.ndarray, n: int, pv: float,
                     tol: float = 1e-12) -> list[BoundReport]:
    return [
        _poincare_report(n, pv, var, energy, tol)
        for var, energy in zip(_variances(values, n, pv), _energies(values, n, pv))
    ]


def _two_point_ratio(y: float, p: float) -> float:
    # Ent(g^2) / energy(g) on {0,1} with g(0) = 1, g(1) = y > 0.
    # Writing s = y^2 - 1, the entropy is p*phi(s) - phi(p*s) with
    # phi(x) = (1+x)log(1+x). Near y = 1 that difference cancels to
    # O(s^2) while each term is O(s), so the direct form is hopeless
    # there; expanding phi gives a series in s whose k-th coefficient
    # is (1 - p^(k-1))/(k(k+1)), used below the switch point.
    s = (y - 1.0) * (y + 1.0)
    q = 1.0 - p
    if abs(s) < 1e-3:
        acc = q / 2.0
        sign, sk = -1.0, s
        for k in range(2, 7):
            acc += sign * (1.0 - p**k) * sk / (k * (k + 1.0))
            sign, sk = -sign, sk * s
        return (y + 1.0) ** 2 * acc / q
    ent = p * (1.0 + s) * math.log1p(s) - (1.0 + p * s) * math.log1p(p * s)
    return ent / (p * q * (y - 1.0) ** 2)


def log_sobolev_tightness_two_point(p) -> float:
    """Best Ent(g^2)/energy ratio found on the two-point space.

    One free parameter after normalization: g(0) = 1, g(1) = y. A log grid
    over y plus a golden-section refinement around the grid argmax. The
    result approaches the log-Sobolev constant from below; at p = 1/2 the
    optimum sits in the y -> 1 limit, so the grid carries near-1 points.
    """
    pv = bias_value(p)
    ys = np.exp(np.linspace(math.log(1e-4), math.log(1e4), 2049))
    near_one = [1.0 - 10.0**-k for k in range(1, 7)]
    near_one += [1.0 + 10.0**-k for k in range(1, 7)]
    # sorted and deduplicated as np.unique would, which imports numpy.ma
    ys = np.sort(np.concatenate([ys, [1.0], near_one]))
    ys = ys[np.concatenate(([True], ys[1:] != ys[:-1]))]
    ratios = np.array([_two_point_ratio(float(y), pv) for y in ys])
    best = int(ratios.argmax())
    sup = float(ratios[best])

    lo = math.log(ys[max(best - 1, 0)])
    hi = math.log(ys[min(best + 1, len(ys) - 1)])
    refined = supremum_on_interval(
        lambda t: _two_point_ratio(math.exp(t), pv), lo, hi, grid_points=64
    )
    return max(sup, refined)


def poincare_check(g, p, tol: float = 1e-12) -> BoundReport:
    """Variance <= Dirichlet energy."""
    pv = bias_value(p)
    n, _ = _as_values(g)
    return _poincare_report(n, pv, variance(g, pv), dirichlet_energy(g, pv), tol)


def max_influence_bound_check(f: BooleanFunction, p, tol: float = 1e-12) -> BoundReport:
    """Largest influence >= Var(f) * rate / (n p(1-p) c(p)).

    The context carries the two internal quantities the proof pivots on:
    the summed and the largest squared centered-difference norms, which for
    Boolean f are p(1-p) times total and maximal influence.
    """
    if f.n < 2:
        raise ValueError("influence bound needs arity at least 2")
    pv = bias_value(p)
    [infl], [var], [rhs] = _influence_bound_sides(
        f.pivotal_counts[None], f.level_counts[None], f.complement_counts[None], f.n, pv)
    lhs = float(infl.max())
    pq = pv * (1.0 - pv)
    return checked("max_influence_lower_bound", lhs, float(rhs), "ge", tol, n=f.n, p=pv,
                   variance=float(var), rate=rate_value(f.n).value,
                   center_norm_sq_sum=pq * float(infl.sum()), center_norm_sq_max=pq * lhs)


def _influence_bound_sides(pivotal: np.ndarray, level: np.ndarray, complement: np.ndarray,
                           n: int, pv: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Influences, variance and right-hand side of the max-influence bound,
    one row per table, from stacked (T, n, n) pivotal counts and (T, n + 1)
    level counts of the 1-set and the 0-set.

    mu and 1 - mu are one dot per row each, as ``level_means`` takes them,
    and the influences one matrix-vector product per table, so a row's
    digits do not depend on the stack it sits in.
    """
    w = level_weights(n, pv)
    var = np.vecdot(level, w) * np.vecdot(complement, w)  # Var f = mu (1 - mu) on 0/1 values
    rhs = var * rate_value(n).value / (n * pv * (1.0 - pv) * log_sobolev_constant(pv))
    return pivotal @ level_weights(n - 1, pv), var, rhs


# Rows the influence scan counts at once: a block's pivotal and level counts
# are held while every bias is checked on them, then dropped.
_SCAN_ROWS = 4096


def max_influence_bound_scan(words, n: int, biases, tol: float = 1e-12) -> list[BoundReport]:
    """Same bound checked over a whole batch of Boolean tables.

    ``words`` is a (count, ceil(2**n / 64)) uint64 array of packed tables
    (``_kernels.pack_tables``). Each block of ``_SCAN_ROWS`` rows is counted
    once (pivotal and level counts) for all of ``biases``, then dropped.
    Every row is ``max_influence_bound_check`` on its table, bit for bit.
    One report per bias: its lhs/rhs are the worst instance's (the first,
    on a tie); the context counts failures.
    """
    if n < 2:
        raise ValueError("influence bound needs arity at least 2")
    count = words.shape[0]
    if not count:
        raise ValueError("the influence scan needs at least one table")
    biases = [bias_value(p) for p in biases]
    # per bias: the worst slack with its lhs, rhs and row, and the failures
    worst = [None] * len(biases)
    failures = [0] * len(biases)
    for start in range(0, count, _SCAN_ROWS):
        block = words[start : start + _SCAN_ROWS]
        pivotal = _kernels.pivotal_counts(block, n)
        level = _kernels.level_counts(block, n + 1)
        # the 0-set's counts, so that 1 - mu is summed, not subtracted
        complement = _binomials(n) - level
        for j, pv in enumerate(biases):
            infl, _, rhs = _influence_bound_sides(pivotal, level, complement, n, pv)
            lhs = infl.max(axis=1)
            slack = lhs - rhs
            i = int(slack.argmin())
            if worst[j] is None or slack[i] < worst[j][0]:
                worst[j] = (slack[i], float(lhs[i]), float(rhs[i]), start + i)
            failures[j] += int((slack < -tol).sum())
    return [
        BoundReport(
            "max_influence_lower_bound_scan",
            lhs=lhs,
            rhs=rhs,
            passed=fails == 0,
            orientation="ge",
            tol=tol,
            context={"n": int(n), "p": pv, "count": int(count), "failures": fails,
                     "worst_index": row},
        )
        for pv, (_, lhs, rhs, row), fails in zip(biases, worst, failures)
    ]


def bound_hypotheses(target, gens: PermutationGenerators | None = None) -> int:
    """Arity of a set meeting the hypotheses of the derivative bound and the
    width ceilings; raises on the first that fails.

    The set must have arity at least 2, be nontrivial and monotone, and be
    invariant under a transitive group: every coordinate permutation when
    ``gens`` is None, else the group ``gens`` generates. A FamilySpec without
    ``gens`` brings its own symmetry evidence, so closed-form families work
    above the dense arity cap. A table's verdict is cached on the function
    per generator set, so a set checked at many biases is decided once.
    """
    if isinstance(target, FamilySpec) and gens is None:
        if target.arity < 2:
            raise ValueError("the bound needs arity at least 2")
        if not target.monotone:
            raise ValueError("hypothesis failed: the family is not monotone")
        if family_symmetry(target)[0] is None:
            raise ValueError("hypothesis failed: the family carries no transitive symmetry")
        return target.arity
    if isinstance(target, FamilySpec):
        target = build_family(target)
    if not isinstance(target, BooleanFunction):
        raise TypeError(f"expected a BooleanFunction or FamilySpec, got {type(target).__name__}")
    if gens not in target._hypotheses:
        target._hypotheses[gens] = _failed_hypothesis(target, gens)
    failed = target._hypotheses[gens]
    if failed is not None:
        raise ValueError(failed)
    return target.n


def _failed_hypothesis(f: BooleanFunction, gens: PermutationGenerators | None) -> str | None:
    """The first of ``bound_hypotheses``' tests that a table fails, or None."""
    if f.n < 2:
        return "the bound needs arity at least 2"
    if f.is_constant():
        return "hypothesis failed: the set is trivial"
    if not is_monotone(f):
        return "hypothesis failed: the set is not monotone"
    if gens is None:
        if not is_fully_symmetric(f):
            return (
                "hypothesis failed: not invariant under all coordinate "
                "permutations and no generators were supplied"
            )
    elif not is_invariant(f, gens):
        return "hypothesis failed: not invariant under the supplied generators"
    elif not is_transitive(gens):
        return "hypothesis failed: the supplied generators do not act transitively"
    return None


def derivative_bound_check(
    A: BooleanFunction,
    p,
    gens: PermutationGenerators | None = None,
    tol: float = 1e-12,
) -> BoundReport:
    """Russo derivative >= rate/(p(1-p)c(p)) * mu(1-mu) for symmetric monotone sets.

    Without ``gens`` the set must be invariant under every coordinate
    permutation; with ``gens`` it must be invariant under them and the
    generated group must act transitively on coordinates. A failed
    hypothesis raises and names itself: the bound is simply not claimed
    there.
    """
    bound_hypotheses(A, gens)
    pv = bias_value(p)
    mu, mu_bar = level_means(A, pv)
    lhs = expectation_derivative(A, pv)
    rhs = derivative_bound_rhs(A.n, pv, mu, mu_bar)
    rate = rate_value(A.n).value
    return checked("derivative_lower_bound", lhs, rhs, "ge", tol, n=A.n, p=pv, mu=mu, rate=rate)


def derivative_bound_rhs(n: int, p, mu: float, mu_bar: float) -> float:
    """Right-hand side of the derivative bound, for the check and the sweep.

    ``mu`` and ``mu_bar`` are the measures of the set and of its complement,
    each from its own level counts (``level_means``): next to mu = 1,
    1 - mu keeps no correct digit and inflates the bound.
    """
    pv = bias_value(p)
    return rate_value(n).value / (pv * (1.0 - pv) * log_sobolev_constant(pv)) * mu * mu_bar


def width_bound_check(
    target,
    eps: float,
    gens: PermutationGenerators | None = None,
    tol: float = WIDTH_TOL,
) -> tuple[BoundReport, BoundReport]:
    """Threshold width against its two closed-form ceilings (``width_bounds``),
    once the set has passed ``bound_hypotheses``: hypotheses come first."""
    n = bound_hypotheses(target, gens)
    return width_bounds(n, threshold_width(target, eps), tol)


def width_bounds(n: int, result: ThresholdResult, tol: float) -> tuple[BoundReport, BoundReport]:
    """A measured threshold width against its two closed-form ceilings.

    The tighter one multiplies 2 log((1-eps)/eps)/rate by the supremum of
    p(1-p)c(p) over the bracket the threshold itself occupies. Integrating
    the derivative bound from p(eps) to p(1-eps) turns the log-odds of each
    endpoint into that combined log term, with the supremum pulled out of
    the integral; the factor 2 is log((1-eps)^2/eps^2) collapsing. The
    simpler ceiling is log((1-eps)/eps)/rate outright, which follows from
    the first via the 1/2 cap on p(1-p)c(p), so tight <= plain always.

    The supremum is p(1-p)c(p) at the point of the bracket nearest 1/2.
    For p < 1/2 put t = (1-p)/p > 1; then p(1-p)c(p) = t log t / (t^2 - 1),
    whose t-derivative has the sign of t^2 - 1 - (t^2 + 1) log t < 0,
    because log s > 2(s-1)/(s+1) for s = t^2 > 1. So the function rises
    strictly on (0, 1/2] and is symmetric under p <-> 1-p. The cap and this
    shape are re-asserted on a grid and folded into the first report.
    """
    rate = rate_value(n).value
    log_odds = math.log((1.0 - result.eps) / result.eps)
    sup_scaled = scaled_log_sobolev_constant(min(max(0.5, result.p_low), result.p_high))
    cap = scan_scaled_constant_cap()

    shared = {
        "n": int(n),
        "eps": float(result.eps),
        "rate": rate,
        "p_low": result.p_low,
        "p_high": result.p_high,
    }
    tight = checked(
        "width_scaled_constant_bound",
        result.width,
        2.0 * sup_scaled * log_odds / rate,
        "le",
        tol,
        sup_scaled_constant=sup_scaled,
        scaled_cap_ok=cap.passed,
        # A quarter of the asserted bound circulates in print; it fails on
        # small disjunctions, so it is recorded here but never asserted.
        quarter_variant_rhs=sup_scaled * log_odds / (2.0 * rate),
        quarter_variant_holds=bool(
            result.width <= sup_scaled * log_odds / (2.0 * rate) + tol
        ),
        **shared,
    )
    if not cap.passed:
        tight = replace(tight, passed=False)
    plain = checked("width_rate_bound", result.width, log_odds / rate, "le", tol, **shared)
    return tight, plain


def prior_constants_table() -> tuple[dict, ...]:
    """Published constants for the width-versus-log n phenomenon.

    C multiplies log(1/eps)/log n in two-sided forms, C' the one-sided
    log((1-eps)/eps)/log n form. The last row is this package's bound with
    the rate sequence replaced by its log n asymptotic: coefficient exactly
    one. Documentation output only; nothing here is asserted.
    """
    return (
        {"source": "Talagrand 1994", "c": 120.0, "c_prime": None},
        {"source": "via Friedgut-Kalai", "c": 5.66, "c_prime": 7.03},
        {"source": "via BKS 2003", "c": None, "c_prime": 3.0},
        {"source": "rate bound here, asymptotically", "c": None, "c_prime": 1.0},
    )
