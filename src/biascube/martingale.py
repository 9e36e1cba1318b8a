"""Coordinate-revealing martingale decomposition under biased measures.

Revealing coordinates 1..j (the j lowest bits of the point index) defines a
filtration; the j-th increment is the conditional expectation given the first
j coordinates minus the one given the first j-1. Increments telescope to
f minus its mean, are pairwise orthogonal, and their squared norms sum to the
variance. Each increment also equals the conditional expectation of the j-th
coordinate centering of f given the first j coordinates; the sign of that
representation is checked both ways rather than assumed.

The decomposition holds the increments as one (n, 2**n) stack, and the
function's coordinate centerings as another. Each check takes only the
decomposition and a tolerance: it reads n, p, the function's values, its
variance and the point weights from there, and ``_all_checks`` runs all six
on one decomposition. The checks run elementwise work on a whole stack and
take each weighted inner product as one 1-D dot per row (``np.vecdot``), as
a loop over pairs and coordinates would, because a stacked matrix product
rounds differently.
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
    # ``measure.variance`` of the decomposed function, so a Boolean one keeps
    # the digits of its level counts
    variance: float
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

    @cached_property
    def point_weights(self) -> np.ndarray:
        """The weight of each of the 2**n points at bias p."""
        return weights(self.n, self.p)


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
    return MartingaleDecomposition(n, p, float(cond[0, 0]), variance(f, p), increments, v)


def _all_checks(f, p) -> list[BoundReport]:
    """The six checks below, in order, on one shared decomposition, at
    tolerance 1e-12."""
    dec = decompose(f, p)
    return [check(dec, 1e-12) for check in _CHECKS]


def _telescoping(dec: MartingaleDecomposition, tol: float) -> BoundReport:
    """Increments sum to f minus its mean."""
    total = np.zeros_like(dec.values) + dec.base_mean
    for inc in dec.stacked:
        total += inc
    residual = float(np.max(np.abs(total - dec.values)))
    return checked("telescoping", residual, tol, orientation="le", tol=0.0, n=dec.n)


def _max_abs(values: np.ndarray) -> float:
    return float(np.abs(values).max(initial=0.0))


def _orthogonality(dec: MartingaleDecomposition, tol: float) -> BoundReport:
    """Pairwise orthogonality of increments, plain and after averaging both
    increments over any one coordinate fiber."""
    n, w = dec.n, dec.point_weights
    # every pair j < k of increments, one row of products each
    j, k = np.triu_indices(n, 1)
    worst_plain = _max_abs(np.vecdot(dec.stacked[j] * dec.stacked[k], w))
    worst_avg = 0.0
    for i in range(1, n + 1):
        # every increment averaged over the coordinate-i fibers
        averaged = _average(dec.stacked, n, dec.p, i)
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


def _pythagoras(dec: MartingaleDecomposition, tol: float) -> BoundReport:
    """Squared increment norms sum to the variance."""
    total = sum(np.vecdot(dec.stacked**2, dec.point_weights).tolist())
    return checked("pythagoras", total, dec.variance, orientation="eq", tol=tol, n=dec.n)


def _energy_decomposition(dec: MartingaleDecomposition, tol: float) -> BoundReport:
    """Per-coordinate energy splits across increments.

    For every i, the sum over j of the inner product of the j-th increment
    with its own i-th centering equals the inner product of f with its i-th
    centering.
    """
    n, p = dec.n, dec.p
    # row 0 is the function, rows 1..n its increments
    rows = np.concatenate((dec.values[None], dec.stacked))
    worst = 0.0
    for i in range(1, n + 1):
        direct, *split = np.vecdot(rows * _center(rows, n, p, i), dec.point_weights).tolist()
        worst = max(worst, abs(sum(split) - direct))
    return checked("energy-decomposition", worst, tol, orientation="le", tol=0.0, n=n)


def _increment_representation(dec: MartingaleDecomposition, tol: float) -> BoundReport:
    """Increment j versus the conditional expectation of the j-th centering.

    Both signs are tried; the report records which one matches. (Direct
    computation gives the positive sign.)
    """
    n = dec.n
    projected = np.empty_like(dec.centerings)
    for j in range(1, n + 1):
        # the j-th centering given the first j coordinates
        _condition(dec.centerings[j - 1], n, dec.p, j, projected[j - 1])
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


def _contractions(dec: MartingaleDecomposition, tol: float) -> BoundReport:
    """Conditional expectation contracts: increment norms are bounded by the
    corresponding centering norms, in L2 and in L1."""
    w = dec.point_weights
    incs, centered = dec.stacked, dec.centerings
    l2_gaps = np.vecdot(incs**2, w) - np.vecdot(centered**2, w)
    l1_gaps = np.vecdot(np.abs(incs), w) - np.vecdot(np.abs(centered), w)
    worst = max(0.0, *l2_gaps.tolist(), *l1_gaps.tolist())
    return checked("contractions", worst, tol, orientation="le", tol=0.0, n=dec.n)


_CHECKS = (
    _telescoping,
    _orthogonality,
    _pythagoras,
    _energy_decomposition,
    _increment_representation,
    _contractions,
)
