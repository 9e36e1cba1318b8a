"""Biased product measure, coordinate operators, and their exact identities.

The expectation oracle recomputes everything point by point in plain Python
from p**w * (1-p)**(n-w); operator tests check definitions on explicitly
flipped points before trusting any identity built on top of them.
"""

import functools
import itertools
import json
import math
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from conftest import AGREEMENT_BIASES, boolean_cases
from hypothesis import given, settings
from hypothesis import strategies as st

from biascube import _kernels, cli, measure
from biascube.booleans import (
    BooleanFunction,
    dictator,
    majority,
    or_all,
    parity,
    random_monotone_function,
    with_coordinate,
)
from biascube.measure import (
    Bias,
    CubeFunction,
    bias_value,
    center_projection_sides,
    coordinate_average,
    coordinate_center,
    coordinate_center_case_form,
    coordinate_gradient,
    dirichlet_energy,
    energy_derivative_sides,
    entropy,
    expectation,
    expectation_derivative,
    generator_apply,
    influence,
    influences,
    level_weights,
    moment_identity,
    random_cube_function,
    variance,
    weights,
)
from biascube.threshold import threshold_width

BIASES = (0.1, 0.25, 0.5, 0.75, 0.9)


def slow_expectation(values, n, p):
    total = 0.0
    for x in range(1 << n):
        w = bin(x).count("1")
        total += values[x] * p**w * (1 - p) ** (n - w)
    return total


def random_g(n, seed):
    rng = np.random.default_rng(seed)
    return CubeFunction(n, rng.normal(size=1 << n))


def peak_bytes(fn, *args):
    """Peak of the memory traced while fn(*args) runs."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestWeights:
    @pytest.mark.parametrize("p", BIASES)
    def test_sum_to_one(self, p):
        for n in (1, 4, 7):
            assert math.isclose(float(weights(n, p).sum()), 1.0, abs_tol=1e-14)

    def test_pointwise_closed_form(self):
        n, p = 5, 0.3
        w = weights(n, p)
        for x in (0, 7, 21, 31):
            k = bin(x).count("1")
            assert math.isclose(w[x], p**k * (1 - p) ** (n - k), rel_tol=1e-14)

    @pytest.mark.parametrize("p", BIASES)
    def test_dense_vector_indexes_level_weights(self, p):
        for n in (1, 6, 11):
            levels = level_weights(n, p)
            assert levels.shape == (n + 1,)
            assert np.array_equal(weights(n, p), levels[[bin(x).count("1") for x in range(1 << n)]])

    def test_bias_validation(self):
        for bad in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(ValueError):
                Bias(bad)
        assert bias_value(Bias(0.3)) == 0.3
        assert bias_value(0.3) == 0.3

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.0, math.nan, math.inf, -math.inf, 1.5, True, 1,
                                   np.float64(0.3), np.float32(0.3), Bias(0.25), 0.3,
                                   5e-324, 1.0 - 2.0**-53], ids=repr)
    def test_bias_value_is_the_bias_value(self, p):
        # a Python float inside (0, 1) skips the Bias; nothing else may
        # notice: the same value and type, or the same error
        try:
            expected = p.p if isinstance(p, Bias) else Bias(p).p
        except ValueError as error:
            with pytest.raises(ValueError) as raised:
                bias_value(p)
            assert str(raised.value) == str(error)
        else:
            got = bias_value(p)
            assert type(got) is type(expected) is float
            assert got == expected

    @pytest.mark.parametrize("p", [1e-300, 1e-6, 0.1, 0.5, 0.9, 1.0 - 1e-12])
    def test_level_weights_are_the_closed_form_bit_for_bit(self, p):
        # past the arity cap (61) the exponents are made per call
        for m in (*range(62), 62, 100):
            k = np.arange(m + 1, dtype=np.float64)
            want = p**k * (1 - p) ** (m - k)
            got = level_weights(m, p)
            assert got.dtype == np.float64 and got.tobytes() == want.tobytes(), m

    def test_level_exponents_cannot_be_written(self):
        for m, (k, rest) in enumerate(measure._LEVEL_EXPONENTS):
            assert np.array_equal(k + rest, np.full(m + 1, m))
            for vector in (k, rest):
                with pytest.raises(ValueError):
                    vector[0] = 1.0
        # weights handed out are the caller's to write
        level_weights(5, 0.3)[0] = 2.0
        assert measure._LEVEL_EXPONENTS[5][0][0] == 0.0


class TestExpectation:
    @pytest.mark.parametrize("p", BIASES)
    def test_against_slow_oracle(self, p):
        g = random_g(6, seed=11)
        assert math.isclose(
            expectation(g, p), slow_expectation(g.values, 6, p), abs_tol=1e-12
        )

    def test_variance_definition(self):
        g, p = random_g(5, seed=3), 0.4
        mean = expectation(g, p)
        second = expectation(CubeFunction(5, g.values**2), p)
        assert math.isclose(variance(g, p), second - mean**2, abs_tol=1e-12)

    def test_or_closed_form(self):
        for n in (2, 5, 9):
            for p in BIASES:
                assert math.isclose(
                    expectation(or_all(n), p), 1 - (1 - p) ** n, rel_tol=1e-12
                )


class TestOperators:
    def test_gradient_is_flip_difference(self):
        g = random_g(4, seed=5)
        for i in (1, 3):
            grad = coordinate_gradient(g, i)
            for x in range(16):
                hi = g.values[with_coordinate(x, i, 1)]
                lo = g.values[with_coordinate(x, i, 0)]
                assert math.isclose(grad.values[x], hi - lo, abs_tol=1e-14)

    def test_center_is_g_minus_average(self):
        g, p, i = random_g(4, seed=8), 0.3, 2
        avg = coordinate_average(g, p, i)
        cen = coordinate_center(g, p, i)
        assert np.allclose(cen.values, g.values - avg.values, atol=1e-14)
        # the average must not depend on coordinate i
        for x in range(16):
            assert math.isclose(
                avg.values[with_coordinate(x, i, 0)],
                avg.values[with_coordinate(x, i, 1)],
                abs_tol=1e-14,
            )

    def test_center_case_form_agrees(self):
        g, p, i = random_g(5, seed=2), 0.7, 4
        a = coordinate_center(g, p, i)
        b = coordinate_center_case_form(g, p, i)
        assert np.allclose(a.values, b.values, atol=1e-12)

    @given(st.integers(2, 6), st.integers(0, 10_000), st.sampled_from(BIASES))
    @settings(max_examples=40, deadline=None)
    def test_center_idempotent(self, n, seed, p):
        g = random_g(n, seed)
        i = seed % n + 1
        once = coordinate_center(g, p, i)
        twice = coordinate_center(once, p, i)
        assert np.allclose(once.values, twice.values, atol=1e-12)

    @given(st.integers(2, 6), st.integers(0, 10_000), st.sampled_from(BIASES))
    @settings(max_examples=40, deadline=None)
    def test_center_self_adjoint(self, n, seed, p):
        f = random_g(n, seed)
        g = random_g(n, seed + 1)
        i = seed % n + 1
        lhs, rhs = center_projection_sides(f, g, p, i)
        assert math.isclose(lhs, rhs, abs_tol=1e-12)

    def test_generator_sums_centerings(self):
        g, p = random_g(5, seed=9), 0.25
        total = np.zeros_like(g.values)
        for i in range(1, 6):
            total -= coordinate_center(g, p, i).values
        assert np.allclose(generator_apply(g, p).values, total, atol=1e-12)

    def test_energy_two_definitions(self):
        for n, p in itertools.product(range(1, 11), BIASES):
            g = random_g(n, seed=13 + n)
            w = weights(n, p)
            by_centerings = sum(
                float(w @ coordinate_center(g, p, i).values ** 2) for i in range(1, n + 1)
            )
            against_generator = -float(w @ (g.values * generator_apply(g, p).values))
            e = dirichlet_energy(g, p)
            assert math.isclose(e, by_centerings, abs_tol=1e-12)
            assert math.isclose(e, against_generator, abs_tol=1e-12)

    def test_energy_allocates_no_dense_array_per_coordinate(self):
        g = random_g(20, seed=4)
        assert peak_bytes(dirichlet_energy, g, 0.3) < 16 << 20


class TestMomentIdentity:
    @given(
        st.integers(2, 6),
        st.integers(0, 10_000),
        st.sampled_from(BIASES),
        st.sampled_from((1.0, 2.0, 0.7, 3.5)),
    )
    @settings(max_examples=60, deadline=None)
    def test_holds_for_any_real_function(self, n, seed, p, alpha):
        g = random_g(n, seed)
        i = seed % n + 1
        lhs, rhs = moment_identity(g, p, i, alpha)
        assert math.isclose(lhs, rhs, abs_tol=1e-12)

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            moment_identity(random_g(3, 0), 0.5, 1, 0.0)


class TestInfluence:
    def test_dictator(self):
        # the deciding coordinate's fiber weights sum to 1 only up to
        # float addition order
        f = dictator(4, 2)
        assert influences(f, 0.3) == pytest.approx([0.0, 1.0, 0.0, 0.0], abs=1e-14)

    @pytest.mark.parametrize("p", BIASES)
    def test_or_closed_form(self, p):
        n = 6
        expected = (1 - p) ** (n - 1)
        for i in range(1, n + 1):
            assert math.isclose(influence(or_all(n), p, i), expected, rel_tol=1e-12)

    def test_majority3(self):
        p = 0.3
        assert math.isclose(influence(majority(3), p, 1), 2 * p * (1 - p), rel_tol=1e-12)

    def test_parity_always_pivotal(self):
        assert np.allclose(influences(parity(5), 0.2), 1.0)

    def test_batch_matches_single(self):
        f, p = majority(5), 0.4
        batch = influences(f, p)
        for i in range(1, 6):
            assert math.isclose(batch[i - 1], influence(f, p, i), abs_tol=1e-14)


class TestDerivative:
    def test_or_closed_form(self):
        for n in (2, 8, 16):
            for p in BIASES:
                assert math.isclose(
                    expectation_derivative(or_all(n), p),
                    n * (1 - p) ** (n - 1),
                    rel_tol=1e-9,
                )

    @pytest.mark.parametrize("p", (0.2, 0.5, 0.8))
    def test_finite_difference_any_function(self, p):
        # the gradient-sum formula needs no monotonicity
        g = random_g(6, seed=21)
        h = 1e-6
        fd = (expectation(g, p + h) - expectation(g, p - h)) / (2 * h)
        assert math.isclose(expectation_derivative(g, p), fd, rel_tol=1e-6, abs_tol=1e-8)

    def test_gradient_sum_definition(self):
        for n, p in itertools.product(range(1, 11), BIASES):
            g = random_g(n, seed=31 + n)
            w = weights(n, p)
            by_gradients = sum(
                float(w @ coordinate_gradient(g, i).values) for i in range(1, n + 1)
            )
            assert math.isclose(
                expectation_derivative(g, p), by_gradients, rel_tol=1e-12, abs_tol=1e-12
            )

    def test_allocates_no_dense_array_per_coordinate(self):
        g = random_g(20, seed=5)
        assert peak_bytes(expectation_derivative, g, 0.3) < 16 << 20

    def test_energy_derivative_sides_agree(self):
        for seed, p in ((1, 0.3), (2, 0.5), (3, 0.85)):
            f = or_all(5) if seed == 1 else majority(5)
            lhs, rhs = energy_derivative_sides(f, p)
            assert math.isclose(lhs, rhs, abs_tol=1e-12)


class TestEntropy:
    def test_zero_for_constant(self):
        g = CubeFunction(3, np.full(8, 2.5))
        assert entropy(g, 0.3) == pytest.approx(0.0, abs=1e-14)

    def test_zero_values_use_zero_log_zero(self):
        f = or_all(3)  # indicator takes the value 0
        p = 0.4
        mu = expectation(f, p)
        expected = -mu * math.log(mu)  # sum f log f vanishes on {0,1}
        assert math.isclose(entropy(f, p), expected, rel_tol=1e-12)

    def test_degree_one_homogeneous(self):
        g = CubeFunction(4, np.abs(random_g(4, seed=17).values) + 0.1)
        for c in (0.5, 3.0):
            scaled = CubeFunction(4, c * g.values)
            assert math.isclose(entropy(scaled, 0.3), c * entropy(g, 0.3), rel_tol=1e-11)

    def test_rejects_negative(self):
        g = CubeFunction(2, np.array([1.0, -0.5, 0.2, 0.3]))
        with pytest.raises(ValueError):
            entropy(g, 0.5)

    @pytest.mark.parametrize("f, p", [(or_all(16), 1.0 - 1e-7), (majority(9), 1.0 - 1e-7),
                                      (or_all(20), 0.95)])
    def test_boolean_entropy_next_to_one_reads_the_zero_set(self, f, p):
        # mu rounds to 1 here; -mu log mu is about the 0-set's measure mu_bar
        q = Fraction(p)
        mu_bar = float(sum((math.comb(f.n, k) - int(a)) * q**k * (1 - q) ** (f.n - k)
                           for k, a in enumerate(f.level_counts)))
        expected = -(1.0 - mu_bar) * math.log1p(-mu_bar)
        assert 0.0 < expected < 1e-25
        assert entropy(f, p) == pytest.approx(expected, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("value", (0, 1))
    def test_boolean_constants_have_positive_zero_entropy(self, value):
        f = BooleanFunction(3, np.full(8, value, dtype=np.uint8))
        for p in (1e-7, 0.3, 1.0 - 1e-7):
            assert math.copysign(1.0, entropy(f, p)) == 1.0 and entropy(f, p) == 0.0


BOOLEAN_QUANTITIES = (expectation, variance, entropy, expectation_derivative, dirichlet_energy)


class TestBooleanAgreesWithDense:
    """A Boolean function and the same table as a real function give the
    same measure, variance, entropy, derivative and energy."""

    @pytest.mark.parametrize("n", range(1, 15))
    def test_five_quantities(self, n):
        for f in boolean_cases(n):
            dense = CubeFunction(f.n, f.table)
            for p in AGREEMENT_BIASES:
                for quantity in BOOLEAN_QUANTITIES:
                    a, b = quantity(f, p), quantity(dense, p)
                    assert abs(a - b) <= 1e-12 * max(1.0, abs(b)), (
                        quantity.__name__, f.to_table_string()[:40], p, a, b)


class TestInfluencesAgreeWithFiberSweep:
    """Influences, and the Boolean energy p(1-p) times their sum, against the
    dense fiber sweep over the truth table."""

    @pytest.mark.parametrize("n", [*range(1, 15), 20])
    def test_influences_and_energy(self, n):
        for f in boolean_cases(n):
            for p in AGREEMENT_BIASES:
                swept = _kernels._fiber_sums(f.table, n, weights(n - 1, p), np.not_equal)
                got = influences(f, p)
                assert np.all(np.abs(got - swept) <= 1e-12 * np.abs(swept)), (
                    f.to_table_string()[:40], p, got, swept)
                energy = p * (1 - p) * float(swept.sum())
                assert abs(dirichlet_energy(f, p) - energy) <= 1e-12 * energy, (
                    f.to_table_string()[:40], p)


def test_derivative_counts_nonnegative_for_monotone():
    rng = np.random.default_rng(17)
    for n in range(1, 15):
        for _ in range(6):
            counts = random_monotone_function(n, rng).derivative_counts
            assert counts.shape == (n,)
            assert (counts >= 0).all()
    # a non-monotone function has a negative coefficient: parity(2) is 0,1,1,0
    assert list(parity(2).derivative_counts) == [2, -2]


def test_measures_read_the_cached_counts():
    # the derivative and the 0-set's measure read the counts cached on the
    # function, so a check at many biases counts them once
    f = majority(5)
    f.__dict__["derivative_counts"] = np.zeros(5, dtype=np.int64)
    f.__dict__["complement_counts"] = np.zeros(6, dtype=np.int64)
    assert expectation_derivative(f, 0.3) == 0.0
    assert measure.level_means(f, 0.3) == (expectation(f, 0.3), 0.0)


@pytest.fixture
def rescans(monkeypatch):
    """Counts dense weight-vector builds, and level-count and pivotal-count
    passes per function."""
    seen = {"weights": 0, "level_counts": [], "pivotal_counts": []}
    dense = measure.weights

    def counting_weights(n, p):
        seen["weights"] += 1
        return dense(n, p)

    for name, module in list(sys.modules.items()):
        if name.startswith("biascube") and getattr(module, "weights", None) is dense:
            monkeypatch.setattr(module, "weights", counting_weights)

    for counts in ("level_counts", "pivotal_counts"):
        count = BooleanFunction.__dict__[counts].func

        def counting(f, count=count, passes=seen[counts]):
            passes.append(f)
            return count(f)

        cached = functools.cached_property(counting)
        cached.__set_name__(BooleanFunction, counts)
        monkeypatch.setattr(BooleanFunction, counts, cached)
    return seen


class TestNoRescan:
    """The p-curve of a Boolean function comes from at most one pass over its
    table, and from none for a family whose counts follow from its rule."""

    def test_threshold_width(self, rescans):
        counted = BooleanFunction(15, majority(15).table)
        for f in (counted, majority(15)):
            threshold_width(f, 0.1)
        assert rescans["weights"] == 0
        assert rescans["level_counts"] == [counted]

    def test_sweep(self, rescans, capsys):
        for family in (["majority", "--n", "13"], ["cyclic_run", "--n", "13", "--len", "3"]):
            code = cli.main(["sweep", "--family", *family, "--grid", "0.05:0.95:0.05"])
            assert code == 0
            assert capsys.readouterr().out.count("\n") == 5 + 19
        assert rescans["weights"] == 0
        # cyclic_run is counted once; majority's counts come from its rule
        assert len(rescans["level_counts"]) == 1

    def test_analyze(self, rescans, capsys):
        # influences, the energy and the influence bound all read the
        # pivotal counts of the one table
        for family in (["majority", "--n", "13"], ["cyclic_run", "--n", "13", "--len", "3"]):
            code = cli.main(["analyze", "--family", *family, "--p", "0.3"])
            assert code == 0
            assert len(json.loads(capsys.readouterr().out)["influences"]) == 13
        assert rescans["weights"] == 0
        assert len(rescans["pivotal_counts"]) == 1
        assert rescans["level_counts"] == rescans["pivotal_counts"]


def test_random_cube_function_positive_flag():
    rng = np.random.default_rng(0)
    g = random_cube_function(4, rng, positive=True)
    assert (g.values > 0).all()


# The single-function formulas the batched forms replaced, kept as the
# reference they must equal bit for bit: one 1-D product per reduction and
# the scalar tail in the same order.


def scalar_variance(v, n, p):
    w = weights(n, p)
    mean = float(w @ v)
    return float(w @ (v - mean) ** 2)


def scalar_entropy(v, n, p):
    w = weights(n, p)
    mean = float(w @ v)
    pos = v > 0
    integrand = float(w[pos] @ (v[pos] * np.log(v[pos])))
    if mean <= 0.0:
        return 0.0
    return integrand - mean * np.log(mean)


def scalar_energy(v, n, p):
    base = weights(n - 1, p)
    sums = np.empty(n)
    for b in range(n):
        pairs = v.reshape(-1, 2, 1 << b)
        sums[b] = ((pairs[:, 1, :] - pairs[:, 0, :]) ** 2).ravel() @ base
    return p * (1.0 - p) * float(sums.sum())


class TestBatchedFormsRowIndependent:
    """Each row of a batched energy, entropy and variance equals, bit for
    bit, the public function on that row alone and the single-function
    formula above, at any batch size; and each row's fiber sums are its own
    1-D products with the base weights."""

    @staticmethod
    def stacks(n, batch):
        rng = np.random.default_rng(1000 * n + batch)
        values = rng.normal(size=(batch, 1 << n))
        positive = np.exp(values)
        positive[batch // 2, rng.integers(1 << n)] = 0.0  # a row with 0 log 0
        return values, positive

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("batch", (1, 3, 257))
    def test_rows_equal_scalar_formulas(self, n, batch):
        values, positive = self.stacks(n, batch)
        for p in (0.1, 0.3, 0.5, 0.9):
            energies = measure._energies(values, n, p)
            variances = measure._variances(values, n, p)
            entropies = measure._entropies(positive, n, p)
            for t in range(batch):
                assert energies[t] == scalar_energy(values[t], n, p)
                assert variances[t] == scalar_variance(values[t], n, p)
                assert entropies[t] == scalar_entropy(positive[t], n, p)

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("batch", (1, 3, 257))
    def test_rows_equal_single_function(self, n, batch):
        values, positive = self.stacks(n, batch)
        for p in (0.1, 0.3, 0.5, 0.9):
            energies = measure._energies(values, n, p)
            variances = measure._variances(values, n, p)
            entropies = measure._entropies(positive, n, p)
            for t in range(batch):
                g = CubeFunction(n, values[t])
                assert energies[t] == dirichlet_energy(g, p)
                assert variances[t] == variance(g, p)
                assert entropies[t] == entropy(CubeFunction(n, positive[t]), p)

    @pytest.mark.parametrize("n", (9, 12, 15))
    def test_energy_rows_past_eight_coordinates(self, n):
        # rows of n >= 8 fiber sums are added pairwise, as one row alone is
        values, _ = self.stacks(n, 33)
        for p in (0.1, 0.5):
            energies = measure._energies(values, n, p)
            for t in range(33):
                assert energies[t] == scalar_energy(values[t], n, p)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_fiber_sums_are_per_row_dots(self, n):
        rng = np.random.default_rng(n)
        values = rng.normal(size=(257, 1 << n))
        base = weights(n - 1, 0.3)
        sums = _kernels._fiber_sums(values, n, base, measure._squared_difference)
        for t, row in enumerate(values):
            for b in range(n):
                lower, upper = _kernels._fibers(row, b)
                assert sums[t, b] == measure._squared_difference(lower, upper).ravel() @ base
