"""Coordinate-revealing martingale decomposition under biased measures.

Revealing coordinates 1..j (the j lowest bits of the point index) defines a
filtration; the j-th increment is the conditional expectation given the first
j coordinates minus the one given the first j-1. Increments telescope to
f minus its mean, are pairwise orthogonal, and their squared norms sum to the
variance. Each increment also equals the conditional expectation of the j-th
coordinate centering of f given the first j coordinates; the sign of that
representation is checked both ways rather than assumed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .measure import (
    CubeFunction,
    _as_values,
    _center,
    _average,
    bias_value,
    variance,
    weights,
)
from .reports import BoundReport, checked


def conditional_expectation(g, p, j: int) -> CubeFunction:
    """Average out coordinates j+1..n, leaving a function of the first j."""
    n, v = _as_values(g)
    if not 0 <= j <= n:
        raise ValueError(f"prefix length {j} out of range for arity {n}")
    p = bias_value(p)
    tail_weights = weights(n - j, p)
    r = v.reshape(1 << (n - j), 1 << j)
    cond = tail_weights @ r
    return CubeFunction(n, np.tile(cond, 1 << (n - j)))


@dataclass(eq=False)
class MartingaleDecomposition:
    n: int
    p: float
    base_mean: float
    increments: list[CubeFunction]


def decompose(f, p) -> MartingaleDecomposition:
    """All n increments of the coordinate-revealing martingale."""
    n, _ = _as_values(f)
    p = bias_value(p)
    prev = conditional_expectation(f, p, 0)
    base_mean = float(prev.values[0])
    increments = []
    for j in range(1, n + 1):
        cur = conditional_expectation(f, p, j)
        increments.append(CubeFunction(n, cur.values - prev.values))
        prev = cur
    return MartingaleDecomposition(n, p, base_mean, increments)


def _all_checks(f, p, tol: float = 1e-12) -> list[BoundReport]:
    """The six checks below, in order, on one shared decomposition."""
    dec = decompose(f, p)
    return [check(f, p, tol, dec) for check in _CHECKS]


def check_telescoping(f, p, tol: float = 1e-12) -> BoundReport:
    """Increments sum to f minus its mean."""
    return _telescoping(f, p, tol, decompose(f, p))


def check_orthogonality(f, p, tol: float = 1e-12) -> BoundReport:
    """Pairwise orthogonality of increments, plain and after averaging both
    increments over any one coordinate fiber."""
    return _orthogonality(f, p, tol, decompose(f, p))


def check_pythagoras(f, p, tol: float = 1e-12) -> BoundReport:
    """Squared increment norms sum to the variance."""
    return _pythagoras(f, p, tol, decompose(f, p))


def check_energy_decomposition(f, p, tol: float = 1e-12) -> BoundReport:
    """Per-coordinate energy splits across increments.

    For every i, the sum over j of the inner product of the j-th increment
    with its own i-th centering equals the inner product of f with its i-th
    centering.
    """
    return _energy_decomposition(f, p, tol, decompose(f, p))


def check_increment_representation(f, p, tol: float = 1e-12) -> BoundReport:
    """Increment j versus the conditional expectation of the j-th centering.

    Both signs are tried; the report records which one matches. (Direct
    computation gives the positive sign.)
    """
    return _increment_representation(f, p, tol, decompose(f, p))


def check_contractions(f, p, tol: float = 1e-12) -> BoundReport:
    """Conditional expectation contracts: increment norms are bounded by the
    corresponding centering norms, in L2 and in L1."""
    return _contractions(f, p, tol, decompose(f, p))


def _telescoping(f, p, tol: float, dec: MartingaleDecomposition) -> BoundReport:
    n, v = _as_values(f)
    total = np.zeros_like(v) + dec.base_mean
    for inc in dec.increments:
        total += inc.values
    residual = float(np.max(np.abs(total - v)))
    return checked("telescoping", residual, tol, orientation="le", tol=0.0, n=n)


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
        projected = conditional_expectation(
            CubeFunction(n, _center(v, n, p, j)), p, j
        ).values
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


_CHECKS = (
    _telescoping,
    _orthogonality,
    _pythagoras,
    _energy_decomposition,
    _increment_representation,
    _contractions,
)
