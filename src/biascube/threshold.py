"""Locating levels of monotone set measures and measuring threshold widths.

The measure of a monotone nontrivial set is continuous and strictly
increasing in the bias, so every level alpha in (0,1) is hit at a unique
bias p(alpha). The engine finds it by bisection (never Newton: dense measure
curves can be extremely flat near the endpoints). The threshold width at
level eps is p(1-eps) - p(eps).

Works either on a BooleanFunction, whose measure is read off its level
counts, or on a MuCurve, a thin wrapper for closed-form families whose
measure is known analytically and therefore has no arity limit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .booleans import BooleanFunction, FamilySpec, build_family, is_monotone
from .measure import bias_value, expectation, expectation_derivative
from .reports import BoundReport, checked

DEFAULT_BISECTION_TOL = 1e-12
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(eq=False)
class MuCurve:
    """Measure-versus-bias curve of a monotone nontrivial set."""

    mu: Callable[[float], float]
    derivative: Callable[[float], float] | None = None


def dense_curve(f: BooleanFunction) -> MuCurve:
    """Curve of a Boolean function, read off its level counts at O(n) per
    bias; requires monotone and nontrivial."""
    if f.is_constant():
        raise ValueError("the set is trivial: its measure is constant in p")
    if not is_monotone(f):
        raise ValueError("bisection requires a monotone set")
    return MuCurve(mu=lambda p: expectation(f, p),
                   derivative=lambda p: expectation_derivative(f, p))


def family_curve(spec: FamilySpec) -> MuCurve:
    """The kind's closed-form curve when its record has one, level counts
    otherwise.

    A closed form (the kind's ``mu`` and ``derivative`` in
    ``booleans._KINDS``; or_all, and_all, tribes and dictator today) works at
    any arity. Every other kind is read off a BooleanFunction's level
    counts, from its rule or its dense table, and so is subject to the arity
    cap: larger instances must go through the Monte Carlo estimators.
    """
    record, values = spec._record, spec._values
    if record.mu is None:
        return dense_curve(build_family(spec))
    return MuCurve(mu=functools.partial(record.mu, *values),
                   derivative=functools.partial(record.derivative, *values))


def _as_curve(target) -> MuCurve:
    if isinstance(target, MuCurve):
        return target
    if isinstance(target, BooleanFunction):
        return dense_curve(target)
    if isinstance(target, FamilySpec):
        return family_curve(target)
    raise TypeError(
        f"expected a BooleanFunction, FamilySpec, or MuCurve, got {type(target).__name__}"
    )


def set_measure(target, p) -> float:
    """Measure of the set at bias p.

    Defined for any Boolean function, trivial and non-monotone included;
    only the inverse operations below need a monotone nontrivial set.
    """
    pv = bias_value(p)
    if isinstance(target, BooleanFunction):
        return expectation(target, pv)
    if isinstance(target, FamilySpec) and target._record.mu is None:
        return expectation(build_family(target), pv)
    return float(_as_curve(target).mu(pv))


def _check_tol(tol: float) -> None:
    """Bisection tolerances must leave the bracket [tol, 1 - tol] inside (0,1)."""
    if not 0.0 < tol < 0.5 or 1.0 - tol == 1.0:
        raise ValueError(
            f"tolerance must lie in (0, 0.5) with 1 - tol below 1.0, got {tol}"
        )


def _bisect(curve: MuCurve, alpha: float, tol: float) -> tuple[float, int, float]:
    lo, hi = tol, 1.0 - tol
    mu_lo, mu_hi = curve.mu(lo), curve.mu(hi)
    if not mu_lo <= alpha <= mu_hi:
        raise ValueError(
            f"level {alpha} is not bracketed by the measure on [{lo}, {hi}] "
            f"(got [{mu_lo}, {mu_hi}])"
        )
    iterations = 0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):  # lo and hi are adjacent doubles: no bracket is narrower
            break
        value = curve.mu(mid)
        iterations += 1
        if abs(value - alpha) <= tol:
            return mid, iterations, abs(value - alpha)
        if value < alpha:
            lo = mid
        else:
            hi = mid
    mid = 0.5 * (lo + hi)
    return mid, iterations, abs(curve.mu(mid) - alpha)


def bias_at_level(target, alpha: float, tol: float = DEFAULT_BISECTION_TOL) -> float:
    """The bias at which the measure reaches level alpha."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"level must lie in (0,1), got {alpha}")
    _check_tol(tol)
    curve = _as_curve(target)
    p, _, _ = _bisect(curve, alpha, tol)
    return p


@dataclass(frozen=True)
class ThresholdResult:
    eps: float
    p_low: float
    p_high: float
    width: float
    iterations: tuple[int, int]

    def to_dict(self) -> dict:
        return {
            "eps": self.eps,
            "p_low": self.p_low,
            "p_high": self.p_high,
            "width": self.width,
            "iterations": list(self.iterations),
        }


def threshold_width(target, eps: float, tol: float = DEFAULT_BISECTION_TOL) -> ThresholdResult:
    """Width of the window where the measure climbs from eps to 1-eps."""
    if not 0.0 < eps < 0.5:
        raise ValueError(f"eps must lie in (0, 0.5), got {eps}")
    _check_tol(tol)
    curve = _as_curve(target)
    p_low, it_low, _ = _bisect(curve, eps, tol)
    p_high, it_high, _ = _bisect(curve, 1.0 - eps, tol)
    return ThresholdResult(eps, p_low, p_high, p_high - p_low, (it_low, it_high))


def supremum_on_interval(fn, lo: float, hi: float, grid_points: int = 1024) -> float:
    """Supremum of a scalar function: grid scan seeding a golden-section refine.

    The golden-section result only counts when it does not fall below the
    grid scan; the max of the two is returned.
    """
    if hi < lo:
        raise ValueError("empty interval")
    if hi == lo:
        return float(fn(lo))
    xs = np.linspace(lo, hi, grid_points)
    vals = np.array([fn(x) for x in xs])
    best = int(np.argmax(vals))
    grid_val = float(vals[best])
    a = xs[max(best - 1, 0)]
    b = xs[min(best + 1, grid_points - 1)]
    x1 = b - GOLDEN * (b - a)
    x2 = a + GOLDEN * (b - a)
    f1, f2 = fn(x1), fn(x2)
    while b - a > 1e-13 * max(1.0, abs(a) + abs(b)):
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + GOLDEN * (b - a)
            f2 = fn(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - GOLDEN * (b - a)
            f1 = fn(x1)
    gold_val = float(max(f1, f2))
    return max(grid_val, gold_val)


def width_from_derivative_check(
    A,
    a: float,
    g: Callable[[float], float],
    alpha_grid,
    p_grid=None,
    tol: float = 1e-9,
) -> BoundReport:
    """Derivative lower bounds transfer to width upper bounds.

    Part (i): on a bias grid, d(mu)/dp >= a * mu(1-mu) / g(p) for the supplied
    constant a and positive continuous g. Part (ii), asserted only once (i)
    holds: for every pair alpha <= beta from the level grid,
    p(beta) - p(alpha) <= sup g over [p(alpha), p(beta)] / a * log of the odds
    ratio beta(1-alpha) / (alpha(1-beta)).
    """
    if a <= 0:
        raise ValueError("the constant a must be positive")
    curve = _as_curve(A)
    if p_grid is None:
        p_grid = np.linspace(0.01, 0.99, 99)
    worst_i = 0.0
    worst_i_at = None
    for p in p_grid:
        p = float(p)
        gp = float(g(p))
        if gp <= 0:
            raise ValueError(f"g must be positive on the grid; g({p}) = {gp}")
        mu = curve.mu(p)
        if curve.derivative is None:
            raise ValueError("the curve must provide a derivative for part (i)")
        deriv = curve.derivative(p)
        violation = (a / gp) * mu * (1.0 - mu) - deriv
        if violation > worst_i:
            worst_i, worst_i_at = violation, p
    part_i_ok = worst_i <= tol
    worst_ii = 0.0
    worst_pair = None
    pairs = 0
    if part_i_ok:
        alphas = sorted(float(x) for x in alpha_grid)
        locations = {alpha: bias_at_level(curve, alpha) for alpha in alphas}
        for ia, alpha in enumerate(alphas):
            for beta in alphas[ia:]:
                if beta < alpha:
                    continue
                pairs += 1
                p_a, p_b = locations[alpha], locations[beta]
                sup_g = supremum_on_interval(g, p_a, p_b)
                odds = math.log(beta * (1.0 - alpha) / (alpha * (1.0 - beta)))
                violation = (p_b - p_a) - sup_g / a * odds
                if violation > worst_ii:
                    worst_ii, worst_pair = violation, (alpha, beta)
    worst = max(worst_i, worst_ii)
    return checked(
        "derivative-width-equivalence",
        worst,
        tol,
        orientation="le",
        tol=0.0,
        part_i_max_violation=worst_i,
        part_i_worst_p=worst_i_at,
        part_i_pass=part_i_ok,
        part_ii_max_violation=worst_ii,
        part_ii_worst_pair=list(worst_pair) if worst_pair else None,
        pairs_checked=pairs,
    )


def or_all_sharpness_ratio(n: int, eps: float) -> float:
    """Finite-n value of the normalized derivative ratio for the union family.

    Uses the exact level location p(n) = 1 - (1-eps)**(1/n) and the closed-form
    derivative n(1-p)**(n-1); the ratio tends to 1 as n grows, but only
    logarithmically. With L = -log(1-eps) and a = log(1/L)/log n,

        ratio = 1 + a + (L/2n)(1 + a + 1/log n) + O(n**-2),

    so the leading deviation from 1 is log(1/L)/log n, and the ratio enters
    the 5% band around 1 only at n = L**-20 (about 3.5e19 for eps=0.1 and
    9.0e8 for eps=0.3). At n = 1e5 it is 1.1955 and 1.0895.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0,1), got {eps}")
    log1me = math.log1p(-eps)
    p = -math.expm1(log1me / n)
    dmu = n * math.exp((n - 1) / n * log1me)
    return dmu * (1.0 / math.log(n)) * (p * math.log(1.0 / p)) / ((1.0 - eps) * math.log(1.0 / (1.0 - eps)))


def choose_tribe_count(k: int) -> int:
    """Tribe count m making the fair-coin measure of tribes closest to 1/2."""
    if k < 1:
        raise ValueError("need k >= 1")
    rate = -math.log1p(-(2.0**-k))
    target = math.log(2.0) / rate
    candidates = {max(1, math.floor(target)), math.ceil(target)}
    return min(
        candidates,
        key=lambda m: (abs(-math.expm1(m * math.log1p(-(2.0**-k))) - 0.5), m),
    )


@dataclass(frozen=True)
class TribesTrendRow:
    k: int
    m: int
    n: int
    mu_half: float
    width: float
    width_times_log_n: float


@dataclass(frozen=True)
class TribesTrendReport:
    eps: float
    constant: float
    rows: tuple[TribesTrendRow, ...]


def tribes_width_trend(eps: float, k_values=(2, 3, 4)) -> TribesTrendReport:
    """Width times log(arity) for a schedule of tribe sizes, next to the
    asymptotic constant log 2 * (loglog(1/(1-eps)) - loglog(1/eps)).

    The constant is evaluated from that printed formula as-is; for eps < 1/2
    it is negative, so trend comparisons should use absolute values.
    """
    if not 0.0 < eps < 0.5:
        raise ValueError(f"eps must lie in (0, 0.5), got {eps}")
    constant = math.log(2.0) * (
        math.log(math.log(1.0 / (1.0 - eps))) - math.log(math.log(1.0 / eps))
    )
    rows = []
    for k in k_values:
        m = choose_tribe_count(k)
        n = k * m
        mu_half = -math.expm1(m * math.log1p(-(2.0**-k)))

        def location(alpha):
            return math.exp(math.log(-math.expm1(math.log1p(-alpha) / m)) / k)

        width = location(1.0 - eps) - location(eps)
        rows.append(
            TribesTrendRow(k, m, n, mu_half, width, width * math.log(n))
        )
    return TribesTrendReport(eps, constant, tuple(rows))
