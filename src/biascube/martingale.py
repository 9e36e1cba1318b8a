"""Coordinate-revealing martingale decomposition under biased measures.

Revealing coordinates 1..j (the j lowest bits of the point index) defines a
filtration; the j-th increment is the conditional expectation given the first
j coordinates minus the one given the first j-1. Increments telescope to
f minus its mean, are pairwise orthogonal, and their squared norms sum to the
variance. Each increment also equals the conditional expectation of the j-th
coordinate centering of f given the first j coordinates; the sign of that
representation is checked both ways rather than assumed.

The decomposition holds the increments as one (n, 2**n) stack, and the
function's coordinate centerings as another. The checks run elementwise work
on a whole stack and take each weighted inner product as one 1-D dot per row
(``np.vecdot``), as a loop over pairs and coordinates would, because a
stacked matrix product rounds differently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

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
    out = np.empty(1 << n)
    _condition(v, n, bias_value(p), j, out)
    return CubeFunction(n, out)


def _condition(values: np.ndarray, n: int, p: float, j: int, out: np.ndarray) -> None:
    """Write the average of ``values`` over coordinates j+1..n into ``out``,
    a contiguous row of 2**n, repeated over those coordinates."""
    shape = (1 << (n - j), 1 << j)
    out.reshape(shape)[...] = weights(n - j, p) @ values.reshape(shape)


@dataclass(eq=False)
class MartingaleDecomposition:
    n: int
    p: float
    base_mean: float
    # (n, 2**n): increment j's values in row j - 1
    stacked: np.ndarray
    # the decomposed function's values
    values: np.ndarray = field(repr=False)

    @cached_property
    def increments(self) -> list[CubeFunction]:
        """Increment j in position j - 1, viewing its row of ``stacked``."""
        return [CubeFunction(self.n, row) for row in self.stacked]

    @cached_property
    def centerings(self) -> np.ndarray:
        """(n, 2**n): the function's j-th coordinate centering in row j - 1."""
        out = np.empty((self.n, 1 << self.n))
        for j in range(1, self.n + 1):
            out[j - 1] = _center(self.values, self.n, self.p, j)
        return out


def decompose(f, p) -> MartingaleDecomposition:
    """All n increments of the coordinate-revealing martingale."""
    n, v = _as_values(f)
    p = bias_value(p)
    # row j: the conditional expectation given the first j coordinates
    cond = np.empty((n + 1, 1 << n))
    for j in range(n + 1):
        _condition(v, n, p, j, cond[j])
    increments = cond[1:] - cond[:-1]
    if not np.isfinite(increments).all():
        raise ValueError("values must be finite")
    return MartingaleDecomposition(n, p, float(cond[0, 0]), increments, v)


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
    for inc in dec.stacked:
        total += inc
    residual = float(np.max(np.abs(total - v)))
    return checked("telescoping", residual, tol, orientation="le", tol=0.0, n=n)


def _max_abs(values: np.ndarray) -> float:
    return float(np.abs(values).max(initial=0.0))


def _orthogonality(f, p, tol: float, dec: MartingaleDecomposition) -> BoundReport:
    n, _ = _as_values(f)
    p = bias_value(p)
    w = weights(n, p)
    # every pair j < k of increments, one row of products each
    j, k = np.triu_indices(n, 1)
    worst_plain = _max_abs(np.vecdot(dec.stacked[j] * dec.stacked[k], w))
    worst_avg = 0.0
    for i in range(1, n + 1):
        # every increment averaged over the coordinate-i fibers
        averaged = _average(dec.stacked, n, p, i)
        worst_avg = max(worst_avg, _max_abs(np.vecdot(averaged[j] * averaged[k], w)))
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
    total = sum(np.vecdot(dec.stacked**2, w).tolist())
    return checked("pythagoras", total, variance(f, p), orientation="eq", tol=tol, n=n)


def _energy_decomposition(f, p, tol: float, dec: MartingaleDecomposition) -> BoundReport:
    n, v = _as_values(f)
    p = bias_value(p)
    w = weights(n, p)
    # row 0 is the function, rows 1..n its increments
    rows = np.concatenate((v[None], dec.stacked))
    worst = 0.0
    for i in range(1, n + 1):
        direct, *split = np.vecdot(rows * _center(rows, n, p, i), w).tolist()
        worst = max(worst, abs(sum(split) - direct))
    return checked("energy-decomposition", worst, tol, orientation="le", tol=0.0, n=n)


def _increment_representation(f, p, tol: float, dec: MartingaleDecomposition) -> BoundReport:
    n, _ = _as_values(f)
    p = bias_value(p)
    projected = np.empty_like(dec.centerings)
    for j in range(1, n + 1):
        # the j-th centering given the first j coordinates
        _condition(dec.centerings[j - 1], n, p, j, projected[j - 1])
    residual_plus = float(np.abs(dec.stacked - projected).max())
    residual_minus = float(np.abs(dec.stacked + projected).max())
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
    n, _ = _as_values(f)
    p = bias_value(p)
    w = weights(n, p)
    incs, centered = dec.stacked, dec.centerings
    l2_gaps = np.vecdot(incs**2, w) - np.vecdot(centered**2, w)
    l1_gaps = np.vecdot(np.abs(incs), w) - np.vecdot(np.abs(centered), w)
    worst = max(0.0, *l2_gaps.tolist(), *l1_gaps.tolist())
    return checked("contractions", worst, tol, orientation="le", tol=0.0, n=n)


_CHECKS = (
    _telescoping,
    _orthogonality,
    _pythagoras,
    _energy_decomposition,
    _increment_representation,
    _contractions,
)
