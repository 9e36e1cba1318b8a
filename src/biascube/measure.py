"""Calculus for real functions on the cube under biased product measures.

The measure with bias p puts weight p**w(x) * (1-p)**(n-w(x)) on each point x,
where w is the Hamming weight. All logarithms are natural.

Two first-order operators act along a coordinate i:

* the discrete gradient, f(x with x_i=1) - f(x with x_i=0), constant on each
  fiber, and
* the centering operator, f minus its one-coordinate fiber mean; on the upper
  point of a fiber it equals (1-p) times the gradient and on the lower point
  -p times the gradient.

The Dirichlet energy is the sum over coordinates of the integrated squared
centering operator.

Per-point weights come from ``level_weights``, which reads k and m - k from
read-only exponent vectors built once per arity, so a call is two powers and
a product. ``bias_value`` takes a Python float inside (0, 1) as it is; any
other bias goes through ``Bias``, which validates it.

A Boolean function's measure is a polynomial in p with integer coefficients,
its level counts a_k (``BooleanFunction.level_counts``). Its expectation,
variance, entropy and Russo derivative are therefore read off those n+1
counts at O(n) cost per bias; the variance mu(1-mu) takes 1-mu from the
complementary counts C(n,k) - a_k, not by subtraction from mu, and so does
the entropy -mu log mu where mu > 1/2. Its
influences, and with them its Dirichlet energy, are read off the integer
pivotal counts (``BooleanFunction.pivotal_counts``) at O(n**2) cost per
bias. Only real-valued ``CubeFunction`` arguments are summed over the dense
table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .booleans import INT64_COUNT_ARITY, BooleanFunction, _check_arity, is_monotone, popcounts


@dataclass(frozen=True)
class Bias:
    """Bernoulli parameter, strictly inside (0,1). Endpoints are rejected."""

    p: float

    def __post_init__(self):
        p = float(self.p)
        if not np.isfinite(p) or not 0.0 < p < 1.0:
            raise ValueError(f"bias must lie strictly in (0,1), got {self.p!r}")
        object.__setattr__(self, "p", p)


def bias_value(p) -> float:
    """Accept a Bias or bare float, returning the validated float.

    A Python float inside (0, 1) is returned as it is, without building a
    ``Bias``; every other input (an endpoint, nan, an int, a numpy scalar, a
    ``Bias``) goes through ``Bias`` and gets its value or its error.
    """
    if type(p) is float and 0.0 < p < 1.0:
        return p
    if isinstance(p, Bias):
        return p.p
    return Bias(p).p


@dataclass(eq=False)
class CubeFunction:
    """A real-valued function on {0,1}^n, stored densely."""

    n: int
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if self.n < 1:
            raise ValueError("arity must be at least 1")
        if values.shape != (1 << self.n,):
            raise ValueError(f"values length {values.shape} does not match 2**{self.n}")
        if not np.isfinite(values).all():
            raise ValueError("values must be finite")
        object.__setattr__(self, "values", np.ascontiguousarray(values))


def _as_values(g) -> tuple[int, np.ndarray]:
    if isinstance(g, BooleanFunction):
        return g.n, g.table.astype(np.float64)
    if isinstance(g, CubeFunction):
        return g.n, g.values
    raise TypeError(f"expected a BooleanFunction or CubeFunction, got {type(g).__name__}")


def _level_exponents(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only float64 k and m - k, k = 0..m."""
    k = np.arange(m + 1, dtype=np.float64)
    rest = m - k
    k.flags.writeable = rest.flags.writeable = False
    return k, rest


# the exponents of every arity up to the cap, built once
_LEVEL_EXPONENTS = tuple(_level_exponents(m) for m in range(INT64_COUNT_ARITY + 1))


def level_weights(m: int, p) -> np.ndarray:
    """Weight p**k * (1-p)**(m-k) of one point of level k in {0,1}^m, k = 0..m."""
    p = bias_value(p)
    k, rest = _LEVEL_EXPONENTS[m] if 0 <= m <= INT64_COUNT_ARITY else _level_exponents(m)
    return p**k * (1.0 - p) ** rest


def weights(n: int, p) -> np.ndarray:
    """Dense weight vector over all 2**n points."""
    return level_weights(n, p)[popcounts(n)]


def level_means(f: BooleanFunction, p) -> tuple[float, float]:
    """The measures of a Boolean function's 1-set and 0-set, mu and 1 - mu.

    Each is summed from its own level counts: a_k points of level k for the
    1-set, C(n, k) - a_k for the 0-set. So either keeps full relative
    precision when it is small, where 1 - mu taken from mu next to 1 keeps
    no correct digit, and a constant function reads exactly 0 on one side.
    """
    w = level_weights(f.n, p)
    return float(w @ f.level_counts), float(w @ f.complement_counts)


def expectation(g, p) -> float:
    if isinstance(g, BooleanFunction):
        return float(level_weights(g.n, p) @ g.level_counts)
    n, v = _as_values(g)
    return float(weights(n, p) @ v)


def variance(g, p) -> float:
    """Variance; mu(1-mu) for a Boolean function, both factors from its
    level counts (``level_means``), the two-pass formula E[(g - mu)^2] for
    a real one."""
    if isinstance(g, BooleanFunction):
        mu, mu_bar = level_means(g, p)
        return mu * mu_bar
    n, v = _as_values(g)
    return _variances(v[None], n, p)[0]


def entropy(g, p) -> float:
    """Entropy functional: int g log g - (int g) log(int g), with 0 log 0 = 0."""
    if isinstance(g, BooleanFunction):
        # g log g vanishes on {0,1}, leaving -mu log mu. Above 1/2, log mu is
        # log1p(-mu_bar) with mu_bar from the 0-set's counts (``level_means``),
        # which keeps its digits where mu rounds to 1. 0.0 - keeps the sign
        # of a zero entropy at mu = 1.
        mu, mu_bar = level_means(g, p)
        if mu <= 0.0:
            return 0.0
        return 0.0 - mu * (math.log1p(-mu_bar) if mu > 0.5 else math.log(mu))
    n, v = _as_values(g)
    return _entropies(v[None], n, p)[0]


# raw-array fiber helpers; the public wrappers below add the CubeFunction skin


def _fiber_split(values: np.ndarray, n: int, i: int):
    if not 1 <= i <= n:
        raise ValueError(f"coordinate {i} out of range for arity {n}")
    return _kernels._fibers(values, i - 1)


def _fill_fibers(n: int, i: int, lower_vals, upper_vals) -> np.ndarray:
    # a stack of rows fills a stack of the same depth
    out = np.empty(np.shape(lower_vals)[:-2] + (1 << n,), dtype=np.float64)
    lower, upper = _kernels._fibers(out, i - 1)
    lower[...] = lower_vals
    upper[...] = upper_vals
    return out


def _gradient(values: np.ndarray, n: int, i: int) -> np.ndarray:
    lower, upper = _fiber_split(values, n, i)
    diff = upper - lower
    return _fill_fibers(n, i, diff, diff)


def _average(values: np.ndarray, n: int, p: float, i: int) -> np.ndarray:
    lower, upper = _fiber_split(values, n, i)
    mean = (1.0 - p) * lower + p * upper
    return _fill_fibers(n, i, mean, mean)


def _center(values: np.ndarray, n: int, p: float, i: int) -> np.ndarray:
    return values - _average(values, n, p, i)


def coordinate_gradient(g, i: int) -> CubeFunction:
    """Discrete gradient along coordinate i, constant on each fiber."""
    n, v = _as_values(g)
    return CubeFunction(n, _gradient(v, n, i))


def coordinate_average(g, p, i: int) -> CubeFunction:
    """One-coordinate fiber mean, constant on each fiber."""
    n, v = _as_values(g)
    return CubeFunction(n, _average(v, n, bias_value(p), i))


def coordinate_center(g, p, i: int) -> CubeFunction:
    """g minus its fiber mean along coordinate i."""
    n, v = _as_values(g)
    return CubeFunction(n, _center(v, n, bias_value(p), i))


def coordinate_center_case_form(g, p, i: int) -> CubeFunction:
    """Centering operator in case form: (1-p)*gradient on the upper point of
    each fiber, -p*gradient on the lower point. Agrees with
    ``coordinate_center`` to machine tolerance."""
    n, v = _as_values(g)
    p = bias_value(p)
    lower, upper = _fiber_split(v, n, i)
    diff = upper - lower
    return CubeFunction(n, _fill_fibers(n, i, -p * diff, (1.0 - p) * diff))


def generator_apply(g, p) -> CubeFunction:
    """Markov generator: minus the sum of the coordinate centering operators."""
    n, v = _as_values(g)
    p = bias_value(p)
    acc = np.zeros_like(v)
    for i in range(1, n + 1):
        acc -= _center(v, n, p, i)
    return CubeFunction(n, acc)


def _squared_difference(lower, upper):
    diff = upper - lower
    return np.multiply(diff, diff, out=diff)


def dirichlet_energy(g, p) -> float:
    """Sum over coordinates of the integrated squared centering operator."""
    p = bias_value(p)
    if isinstance(g, BooleanFunction):
        # on 0/1 values the squared gradient is the pivotal indicator
        return p * (1.0 - p) * float(influences(g, p).sum())
    n, v = _as_values(g)
    return _energies(v[None], n, p)[0]


# Batched forms for a (T, 2**n) stack of real rows, one result per row. Only
# the elementwise work runs on the whole stack; every reduction is one 1-D
# product or sum per row, and every scalar tail runs per row in the order of
# a single function. So a row's result does not depend on the batch it is
# in, and the public functions above are these forms on a batch of one.


def _variances(values: np.ndarray, n: int, p) -> list[float]:
    w = weights(n, p)
    means = np.vecdot(values, w)
    return np.vecdot((values - means[:, None]) ** 2, w).tolist()


def _entropies(values: np.ndarray, n: int, p) -> list[float]:
    if (values < 0).any():
        raise ValueError("entropy requires a nonnegative function")
    w = weights(n, p)
    means = np.vecdot(values, w)
    full = (values > 0).all(axis=-1)
    integrands = np.empty(len(values))
    if full.any():
        rows = values[full]
        integrands[full] = np.vecdot(rows * np.log(rows), w)
    for t in np.flatnonzero(~full):
        # a row with zeros sums over its positive points only: 0 log 0 = 0
        v = values[t]
        pos = v > 0
        integrands[t] = w[pos] @ (v[pos] * np.log(v[pos]))
    return [
        0.0 if mean <= 0.0 else integrand - mean * np.log(mean)
        for mean, integrand in zip(means.tolist(), integrands.tolist())
    ]


def _energies(values: np.ndarray, n: int, p: float) -> list[float]:
    # A fiber's centering is -p and 1-p times its gradient at points weighing
    # 1-p and p times the base weight: p(1-p) times the squared gradient.
    sums = _kernels._fiber_sums(values, n, weights(n - 1, p), _squared_difference)
    # a sum along the last, contiguous axis adds each row as its own 1-D sum
    return (p * (1.0 - p) * sums.sum(axis=-1)).tolist()


def moment_identity(f, p, i: int, alpha: float) -> tuple[float, float]:
    """Both sides of the gradient moment identity, evaluated independently.

    Left: integrated |centering|**alpha. Right: the bias factor
    p(1-p)**alpha + (1-p)p**alpha times the integrated |gradient|**alpha.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    n, v = _as_values(f)
    p = bias_value(p)
    w = weights(n, p)
    lhs = float(w @ np.abs(_center(v, n, p, i)) ** alpha)
    factor = p * (1.0 - p) ** alpha + (1.0 - p) * p**alpha
    rhs = factor * float(w @ np.abs(_gradient(v, n, i)) ** alpha)
    return lhs, rhs


def center_projection_sides(f, g, p, i: int) -> tuple[float, float]:
    """Both sides of the self-adjointness identity for the centering operator.

    The i-th centering is an orthogonal projection, so pairing f against the
    centered g equals pairing the two centered functions. Returned as
    (lhs, rhs) for the caller to compare.
    """
    n, fv = _as_values(f)
    ng, gv = _as_values(g)
    if n != ng:
        raise ValueError("arity mismatch")
    p = bias_value(p)
    w = weights(n, p)
    cg = _center(gv, n, p, i)
    lhs = float(w @ (fv * cg))
    rhs = float(w @ (_center(fv, n, p, i) * cg))
    return lhs, rhs


def influence(f: BooleanFunction, p, i: int) -> float:
    """Probability, over the remaining coordinates, that coordinate i is pivotal."""
    if not 1 <= i <= f.n:
        raise ValueError(f"coordinate {i} out of range for arity {f.n}")
    return float(influences(f, p)[i - 1])


def influences(f: BooleanFunction, p) -> np.ndarray:
    """All coordinate influences of a Boolean function.

    Read off its pivotal counts (``BooleanFunction.pivotal_counts``): the
    influence of coordinate i is ``sum_k b[i-1, k] p**k (1-p)**(n-1-k)``, so
    the table is counted once and each bias costs an n-by-n product.
    """
    if not isinstance(f, BooleanFunction):
        raise TypeError("influences are defined for Boolean functions")
    return f.pivotal_counts @ level_weights(f.n - 1, p)


def expectation_derivative(g, p) -> float:
    """d/dp of the expectation: the sum of integrated coordinate gradients."""
    if isinstance(g, BooleanFunction):
        return float(level_weights(g.n - 1, p) @ g.derivative_counts)
    n, v = _as_values(g)
    # the gradient is constant on a fiber, whose two points weigh its base weight
    sums = _kernels._fiber_sums(v, n, weights(n - 1, p), lambda lower, upper: upper - lower)
    return float(sums.sum())


def energy_derivative_sides(f: BooleanFunction, p) -> tuple[float, float]:
    """For monotone Boolean f: (d/dp expectation, energy / (p(1-p))).

    The two agree; both sides are computed independently so the identity can
    be asserted by callers.
    """
    if not isinstance(f, BooleanFunction):
        raise TypeError("energy_derivative_sides is defined for Boolean functions")
    if not is_monotone(f):
        raise ValueError("requires a monotone function (no negative gradients)")
    p = bias_value(p)
    lhs = expectation_derivative(f, p)
    # the energy by its definition, not from the level counts the derivative uses
    _, v = _as_values(f)
    w = weights(f.n, p)
    energy = sum(float(w @ _center(v, f.n, p, i) ** 2) for i in range(1, f.n + 1))
    return lhs, energy / (p * (1.0 - p))


def random_cube_function(n: int, rng: np.random.Generator) -> CubeFunction:
    """Seeded random real function with standard normal values."""
    _check_arity(n)
    return CubeFunction(n, _random_values(n, rng))


def _random_values(n: int, rng: np.random.Generator, positive: bool = False) -> np.ndarray:
    """The 2**n values ``random_cube_function`` draws, without the wrapper;
    their exponentials (lognormal values) when positive is set."""
    values = rng.normal(size=1 << n)
    return np.exp(values) if positive else values
