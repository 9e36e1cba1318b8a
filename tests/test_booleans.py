"""Truth tables, families, encodings, and symmetry evidence.

Oracles here are deliberately dumb: per-point Python loops over explicit
bit strings, compared against the vectorized implementations.
"""

import math
import re
import tracemalloc
from functools import partial

import numpy as np
import pytest
from conftest import boolean_cases
from hypothesis import given, settings
from hypothesis import strategies as st

from biascube import _kernels, booleans
from biascube._kernels import _fibers
from biascube.booleans import (
    FAMILY_NAMES,
    INT64_COUNT_ARITY,
    arity_cap,
    and_all,
    BooleanFunction,
    FamilySpec,
    build_family,
    cyclic_run,
    dictator,
    family_spec,
    family_symmetry,
    is_fully_symmetric,
    is_invariant,
    is_invariant_and_transitive,
    is_monotone,
    is_transitive,
    majority,
    make_from_table,
    or_all,
    parity,
    parse_family_string,
    parse_table_string,
    permutation_point_map,
    popcounts,
    PermutationGenerators,
    random_function,
    random_monotone_function,
    tribes,
)
from biascube.measure import random_cube_function
from biascube.suites import _family_schedule


def bits_of(x: int, n: int) -> list[int]:
    return [(x >> (i - 1)) & 1 for i in range(1, n + 1)]


def test_popcounts_matches_bin():
    for n in (0, 1, 3, 7):
        expected = [bin(x).count("1") for x in range(1 << n)]
        assert popcounts(n).tolist() == expected


def test_coordinate_is_lsb_first():
    # x = 0b0110 has coordinates (0, 1, 1, 0) in order 1..4
    assert bits_of(6, 4) == [0, 1, 1, 0]
    assert [dictator(4, i).table[6] for i in (1, 2, 3, 4)] == [0, 1, 1, 0]
    # coordinate 1 is bit 0: dictator 1 is 1 on the odd points
    assert np.flatnonzero(dictator(3, 1).table).tolist() == [1, 3, 5, 7]
    assert np.flatnonzero(dictator(3, 3).table).tolist() == [4, 5, 6, 7]


class TestFamilies:
    def test_or_and_tables(self):
        f, g = or_all(3), and_all(3)
        for x in range(8):
            assert f.table[x] == (1 if x else 0)
            assert g.table[x] == (1 if x == 7 else 0)

    def test_dictator_reads_one_bit(self):
        f = dictator(4, 3)
        for x in range(16):
            assert f.table[x] == bits_of(x, 4)[2]

    def test_majority_by_weight(self):
        f = majority(5)
        for x in range(32):
            assert f.table[x] == (1 if bin(x).count("1") >= 3 else 0)

    def test_majority_rejects_even_arity(self):
        with pytest.raises(ValueError):
            majority(4)

    def test_parity_by_weight(self):
        f = parity(4)
        for x in range(16):
            assert f.table[x] == bin(x).count("1") % 2

    def test_tribes_block_oracle(self):
        k, m = 2, 3
        f = tribes(k, m)
        for x in range(1 << (k * m)):
            b = bits_of(x, k * m)
            blocks = [all(b[j * k : (j + 1) * k]) for j in range(m)]
            assert f.table[x] == int(any(blocks))

    def test_cyclic_run_wraps(self):
        f = cyclic_run(5, 2)
        for x in range(32):
            b = bits_of(x, 5)
            hit = any(b[j] and b[(j + 1) % 5] for j in range(5))
            assert f.table[x] == int(hit)

    def test_cyclic_run_length_bounds(self):
        with pytest.raises(ValueError):
            cyclic_run(4, 0)
        with pytest.raises(ValueError):
            cyclic_run(4, 5)

    def test_monotonicity_flags(self):
        assert is_monotone(or_all(4))
        assert is_monotone(and_all(4))
        assert is_monotone(majority(5))
        assert is_monotone(tribes(2, 3))
        assert is_monotone(cyclic_run(5, 2))
        assert not is_monotone(parity(3))
        # each family's declared flag matches its table
        for text in ("dictator:n=5,i=2", "and_all:n=5", "or_all:n=5", "majority:n=5",
                     "parity:n=5", "tribes:k=2,m=3", "cyclic_run:n=6,len=3"):
            spec = parse_family_string(text)
            assert spec.monotone == is_monotone(build_family(spec)), text

    def test_full_symmetry(self):
        assert is_fully_symmetric(majority(5))
        assert is_fully_symmetric(parity(4))
        assert not is_fully_symmetric(dictator(3, 1))
        assert not is_fully_symmetric(tribes(2, 2))


class TestSerialization:
    def test_parse_table_or2(self):
        f = parse_table_string("n=2:hex=E")
        assert f.table.tolist() == [0, 1, 1, 1]

    def test_parse_table_rejects_garbage(self):
        for bad in ("n=2", "hex=E", "n=two:hex=E", "n=2:hex=ZZ"):
            with pytest.raises(ValueError):
                parse_table_string(bad)

    def test_parse_table_rejects_overflow(self):
        # 2**2 bits admit at most 0xF
        with pytest.raises(ValueError):
            parse_table_string("n=2:hex=1F")

    @given(st.integers(1, 6), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_table_string_roundtrip(self, n, rnd):
        bits = [rnd.randint(0, 1) for _ in range(1 << n)]
        value = sum(b << j for j, b in enumerate(bits))
        f = parse_table_string(f"n={n}:hex={value:X}")
        assert f.table.tolist() == bits

    @pytest.mark.parametrize("text, message", [
        ("n=2", "malformed table string 'n=2', expected n=<arity>:hex=<hex>"),
        ("hex=E", "malformed table string"),
        ("n=two:hex=E", "malformed table string"),
        ("n=2:hex=ZZ", "malformed table string"),
        ("n=2:hex=-1", r"hex table does not fit 2\*\*2 bits"),
        ("n=2:hex=1F", r"hex table does not fit 2\*\*2 bits"),
        ("n=7:hex=1" + "0" * 32, r"hex table does not fit 2\*\*7 bits"),
        ("n=0:hex=1", "arity must be at least 1"),
        ("n=25:hex=1", "exceeds the dense-table cap"),
    ])
    def test_malformed_table_strings_keep_their_messages(self, text, message):
        with pytest.raises(ValueError, match=message):
            parse_table_string(text)

    @pytest.mark.parametrize("text", [
        "n=2:hex=0x_E", "n=2:hex= e ", "n= 2:hex=E", "n=+2:hex=+E",
        "n=2:hex=0xE", "n=2:hex=E_", "n=2:hex=_E", "n=2:hex=+E", "n=+2:hex=E",
        "n=2 :hex=E", "n=2:hex=E\n", "n=2:hex=\tE", "n=2:hex=", "n=2:hex=-", "n=:hex=E",
        "n=-2:hex=E", "n=\u0662:hex=E", "n=2:hex=\u0665", "n=1_0:hex=E",
    ])
    def test_only_the_written_digits_parse(self, text):
        # int() reads signs, spaces, underscores and a 0x prefix;
        # to_table_string writes none of them
        with pytest.raises(ValueError, match="malformed table string"):
            parse_table_string(text)

    @pytest.mark.parametrize("text, table", [
        ("n=2:hex=e", [0, 1, 1, 1]),
        ("n=2:hex=0E", [0, 1, 1, 1]),
        ("n=3:hex=E8", [0, 0, 0, 1, 0, 1, 1, 1]),
        ("n=1:hex=0", [0, 0]),
        ("n=01:hex=2", [0, 1]),
    ])
    def test_hex_digits_of_either_case_and_length_parse(self, text, table):
        assert parse_table_string(text).table.tolist() == table

    def test_minus_sign_is_a_table_that_does_not_fit(self):
        for text in ("n=2:hex=-0", "n=2:hex=-E"):
            with pytest.raises(ValueError, match=r"hex table does not fit 2\*\*2 bits"):
                parse_table_string(text)


    def test_family_string_roundtrip(self):
        for text in ("or_all:n=8", "tribes:k=2,m=3", "cyclic_run:n=5,len=2"):
            spec = parse_family_string(text)
            assert spec.to_string() == text
            build_family(spec)

    def test_family_aliases(self):
        assert family_spec("or", n=4).kind == "or_all"
        assert family_spec("and", n=4).kind == "and_all"

    def test_family_param_validation(self):
        with pytest.raises(ValueError):
            family_spec("tribes", n=4)
        with pytest.raises(ValueError):
            family_spec("nosuch", n=4)
        with pytest.raises(ValueError):
            parse_family_string("tribes:k=2")

    @pytest.mark.parametrize("kind, params, message", [
        ("dictator", {"n": 5, "i": 9}, "coordinate 9 out of range for arity 5"),
        ("dictator", {"n": 5, "i": 0}, "coordinate 0 out of range for arity 5"),
        ("majority", {"n": 4}, "majority requires odd arity"),
        ("tribes", {"k": 2, "m": 0}, "tribes requires k >= 1 and m >= 1"),
        ("tribes", {"k": 0, "m": 3}, "tribes requires k >= 1 and m >= 1"),
        ("cyclic_run", {"n": 4, "len": 6}, "run length must satisfy 1 <= length <= n"),
        ("or_all", {"n": 0}, "arity must be at least 1"),
        ("and_all", {"n": -3}, "arity must be at least 1"),
        ("parity", {"n": 0}, "arity must be at least 1"),
    ])
    def test_spec_refuses_functions_that_do_not_exist(self, kind, params, message):
        # the spec holds every value rule, so no path (dense, closed-form
        # or sampled) sees a family that does not exist
        with pytest.raises(ValueError, match=f"^{message}$"):
            family_spec(kind, **params)

    @pytest.mark.parametrize("kind, params, message", [
        ("majority", (("n", 5), ("x", 1)),
         "family 'majority' takes parameters ('n',), got ('n', 'x')"),
        ("tribes", (("n", 4),), "family 'tribes' takes parameters ('k', 'm'), got ('n',)"),
        ("or_all", (("m", 3),), "family 'or_all' takes parameters ('n',), got ('m',)"),
        ("tribes", (("m", 3), ("k", 2)),
         "family 'tribes' takes parameters ('k', 'm'), got ('m', 'k')"),
    ])
    def test_spec_checks_parameter_names_and_order(self, kind, params, message):
        # a spec built directly takes the names family_spec takes, in
        # serialization order, so its string always parses back
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            FamilySpec(kind, params)

    def test_family_string_with_invalid_values_is_malformed(self):
        with pytest.raises(ValueError, match="malformed family string"):
            parse_family_string("majority:n=4")


class TestTableStringReadsWords:
    """A parsed table string is backed by the words its hex digits spell: it
    counts, judges monotonicity and serializes as the same table given
    densely would, and builds its 0/1 table only when that is read."""

    @staticmethod
    def tables(n):
        rng = np.random.default_rng(700 + n)
        yield rng.integers(0, 2, size=1 << n, dtype=np.uint8)
        yield random_monotone_function(n, rng).table
        yield np.zeros(1 << n, dtype=np.uint8)
        yield np.ones(1 << n, dtype=np.uint8)

    @pytest.mark.parametrize("n", [*range(1, 13), 20])
    def test_matches_the_dense_table(self, n):
        for table in self.tables(n):
            # below n = 6 the digits are the zero-padded start of one word
            value = int.from_bytes(np.packbits(table, bitorder="little").tobytes(), "little")
            text = f"n={n}:hex={value:X}"
            dense = BooleanFunction(n, table)
            f = parse_table_string(text)
            assert f._words.dtype == dense._words.dtype
            assert np.array_equal(f._words, dense._words)
            assert np.array_equal(f.level_counts, dense.level_counts)
            assert np.array_equal(f.pivotal_counts, dense.pivotal_counts)
            assert is_monotone(f) == is_monotone(dense)
            assert f.to_table_string() == dense.to_table_string() == text
            assert "table" not in vars(f)
            assert f.table.dtype == np.uint8
            assert np.array_equal(f.table, table)
            assert not f.table.flags.writeable

    def test_read_table_is_validated(self, monkeypatch):
        checked = []
        original = BooleanFunction.__post_init__
        monkeypatch.setattr(BooleanFunction, "__post_init__",
                            lambda self: checked.append(self.n) or original(self))
        f = parse_table_string("n=3:hex=E8")
        f.level_counts, f.pivotal_counts, is_monotone(f), f.to_table_string()
        assert checked == []
        assert f.evaluate(3) == 1 and checked == [3]

    def test_peak_memory_is_about_the_words(self):
        value = int.from_bytes(np.random.default_rng(22).bytes(1 << 19), "little")
        text = f"n=22:hex={value:X}"
        tracemalloc.start()
        try:
            f = parse_table_string(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert f._words.nbytes == 1 << 19
        # the 512 KiB of words, the parsed integer and its bytes
        assert peak < 4 << 20

class TestSymmetryEvidence:
    def test_dictator_under_shift(self):
        n = 4
        shift = tuple(i % n + 1 for i in range(1, n + 1))
        gens = PermutationGenerators(n, (shift,))
        f = dictator(n, 1)
        assert not is_invariant(f, gens)
        assert is_transitive(gens)
        assert not is_invariant_and_transitive(f, gens)

    def test_cyclic_run_under_shift(self):
        n = 5
        shift = tuple(i % n + 1 for i in range(1, n + 1))
        gens = PermutationGenerators(n, (shift,))
        assert is_invariant_and_transitive(cyclic_run(n, 2), gens)

    def test_family_symmetry_kinds(self):
        assert family_symmetry(family_spec("or_all", n=6))[0] == "full"
        assert family_symmetry(family_spec("dictator", n=6, i=2)) == (None, None)
        mode, gens = family_symmetry(family_spec("tribes", k=2, m=3))
        assert mode == "generators"
        assert is_transitive(gens)
        assert is_invariant(tribes(2, 3), gens)
        mode, gens = family_symmetry(family_spec("cyclic_run", n=6, len=3))
        assert mode == "generators"
        assert is_invariant_and_transitive(cyclic_run(6, 3), gens)

    def test_permutation_map_permutes_bits(self):
        # swap coordinates 1 and 2 on n = 3
        mapping = permutation_point_map((2, 1, 3), 3)
        for x in range(8):
            b = bits_of(x, 3)
            y = b[1] | (b[0] << 1) | (b[2] << 2)
            assert mapping[x] == y


def test_level_counts_by_weight():
    f = majority(7)
    assert f.level_counts.dtype == np.int64
    assert list(f.level_counts) == [0, 0, 0, 0, 35, 21, 7, 1]
    assert f.level_counts is f.level_counts
    assert not f.level_counts.flags.writeable
    rng = np.random.default_rng(3)
    g = random_monotone_function(6, rng)
    by_hand = [sum(g(x) for x in range(64) if bin(x).count("1") == k) for k in range(7)]
    assert list(g.level_counts) == by_hand


def test_random_monotone_is_monotone():
    rng = np.random.default_rng(7)
    for _ in range(25):
        f = random_monotone_function(int(rng.integers(2, 7)), rng)
        assert is_monotone(f)


def reference_tribes(k, m):
    """tribes' table as one loop over its blocks, kept as the reference."""
    n = k * m
    points = np.arange(1 << n, dtype=np.uint64)
    table = np.zeros(1 << n, dtype=np.uint8)
    block = (1 << k) - 1
    for t in range(m):
        mask = np.uint64(block << (t * k))
        table |= ((points & mask) == mask).astype(np.uint8)
    return table


def reference_cyclic_run(n, length):
    """cyclic_run's table as an AND of bit tables per window, kept as the
    reference."""
    points = np.arange(1 << n, dtype=np.uint64)
    bits = [((points >> np.uint64(b)) & np.uint64(1)).astype(np.uint8) for b in range(n)]
    table = np.zeros(1 << n, dtype=np.uint8)
    for start in range(n):
        acc = np.ones(1 << n, dtype=np.uint8)
        for off in range(length):
            acc &= bits[(start + off) % n]
        table |= acc
    return table


def reference_random_monotone(n, rng):
    """random_monotone_function's draw and table, kept as the reference."""
    seeds = rng.integers(0, 1 << n, size=int(rng.integers(1, 4)))
    points = np.arange(1 << n, dtype=np.uint32)
    table = np.zeros(1 << n, dtype=np.uint8)
    for s in seeds:
        s = np.uint32(s)
        table |= ((points & s) == s).astype(np.uint8)
    return table


class TestUpSetTables:
    """tribes, cyclic_run and random monotone tables against the per-family
    loops kept above."""

    def test_tribes_agree(self):
        for k in range(1, 17):
            for m in range(1, 16 // k + 1):
                f = tribes(k, m)
                assert f.table.dtype == np.uint8
                assert np.array_equal(f.table, reference_tribes(k, m)), (k, m)

    def test_cyclic_run_agrees(self):
        for n in range(1, 17):
            for length in range(1, n + 1):
                assert np.array_equal(cyclic_run(n, length).table,
                                      reference_cyclic_run(n, length)), (n, length)

    def test_random_monotone_agrees_and_leaves_the_stream_in_step(self):
        for seed in range(5):
            got, want = np.random.default_rng(seed), np.random.default_rng(seed)
            for n in range(1, 17):
                assert np.array_equal(random_monotone_function(n, got).table,
                                      reference_random_monotone(n, want)), (seed, n)
            assert got.integers(0, 1 << 62) == want.integers(0, 1 << 62)

    @pytest.mark.parametrize("build", [lambda: cyclic_run(20, 3), lambda: tribes(4, 5)],
                             ids=["cyclic_run", "tribes"])
    def test_build_peak_is_about_ten_bytes_a_point(self, build):
        # 2**20 points: one bit table per coordinate peaked at 36 MiB for
        # cyclic_run, and uint64 points at 18 MiB for tribes
        tracemalloc.start()
        try:
            f = build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert f.n == 20
        assert peak < 12 << 20


def test_table_entries_above_one_rejected():
    # packing maps every nonzero byte to 1, so the table check must see the 2
    table = np.zeros(8, dtype=np.uint8)
    table[5] = 2
    with pytest.raises(ValueError, match="0 or 1"):
        BooleanFunction(3, table)


def fiber_is_monotone(f):
    """No coordinate fiber has its lower point above its upper point,
    read off the unpacked table."""
    for b in range(f.n):
        lower, upper = _fibers(f.table, b)
        if (lower > upper).any():
            return False
    return True


def test_is_monotone_agrees_with_fiber_definition():
    rng = np.random.default_rng(11)
    for n in range(1, 15):
        cases = list(boolean_cases(n))
        # one flipped point breaks a monotone table along a few coordinates only
        for _ in range(4):
            table = random_monotone_function(n, rng).table.copy()
            table[rng.integers(0, 1 << n)] ^= 1
            cases.append(BooleanFunction(n, table))
        for f in cases:
            assert is_monotone(f) == fiber_is_monotone(f), f.to_table_string()[:40]


def test_is_monotone_reads_the_table_once(monkeypatch):
    # majority's and parity's verdicts come from their rule; the counted
    # tables next to them are scanned once
    cases = [majority(7), parity(5), cyclic_run(7, 3), BooleanFunction(5, parity(5).table)]
    verdicts = [True, False, True, False]
    assert [is_monotone(f) for f in cases] == verdicts

    def rescan(*args):
        raise AssertionError("the monotone verdict was recomputed")

    monkeypatch.setattr(_kernels, "_word_fibers", rescan)
    assert [is_monotone(f) for f in cases] == verdicts


@pytest.mark.parametrize("perms, n, transitive", [
    (((2, 3, 4, 1),), 4, True),
    (((2, 1, 4, 3),), 4, False),
    (((2, 1, 3, 4), (1, 3, 2, 4), (1, 2, 4, 3)), 4, True),
    (((1, 2, 3),), 3, False),
    ((), 1, True),
    ((), 2, False),
    (((1, 3, 2),), 3, False),  # coordinate 1 is fixed though 2 and 3 swap
])
def test_is_transitive_is_one_orbit(perms, n, transitive):
    assert is_transitive(PermutationGenerators(n, perms)) is transitive


def table_is_constant(f):
    """Every table entry equals the first, read off the table."""
    return bool((f.table == f.table[0]).all())


def table_is_fully_symmetric(f):
    """Every Hamming-weight class of the table is constant."""
    weight = popcounts(f.n)
    for k in range(f.n + 1):
        cls = f.table[weight == k]
        if cls.size and not (cls == cls[0]).all():
            return False
    return True


def test_structure_checks_agree_with_table_definitions():
    rng = np.random.default_rng(17)
    cases = [build_family(spec) for spec in _family_schedule(16)]
    for n in range(1, 15):
        cases += boolean_cases(n)
        cases.append(random_function(n, rng))
        # weight-determined tables, then the same with one point flipped
        by_weight = rng.integers(0, 2, size=n + 1)[popcounts(n)]
        cases.append(BooleanFunction(n, by_weight))
        flipped = by_weight.copy()
        flipped[rng.integers(0, 1 << n)] ^= 1
        cases.append(BooleanFunction(n, flipped))
        # a single one, and a single zero
        one = np.zeros(1 << n, dtype=np.uint8)
        one[rng.integers(0, 1 << n)] = 1
        cases += [BooleanFunction(n, one), BooleanFunction(n, 1 - one)]
    for f in cases:
        label = f.to_table_string()[:40]
        assert f.is_constant() == table_is_constant(f), label
        assert is_fully_symmetric(f) == table_is_fully_symmetric(f), label


def rule_cases():
    """Each rule-backed family next to its table, built here from the family
    definition point by point."""
    for n in range(1, 22):
        points = np.arange(1 << n, dtype=np.uint32)
        weight = np.bitwise_count(points)
        if n <= 16:
            yield f"or_all n={n}", or_all(n), weight > 0
            yield f"and_all n={n}", and_all(n), weight == n
            yield f"parity n={n}", parity(n), weight % 2
            for i in sorted({1, n}):
                yield f"dictator n={n} i={i}", dictator(n, i), (points >> (i - 1)) & 1
        if n % 2:
            yield f"majority n={n}", majority(n), 2 * weight > n


def test_rule_counts_agree_with_counted_tables():
    for label, f, table in rule_cases():
        counted = BooleanFunction(f.n, table)
        for name in ("level_counts", "pivotal_counts"):
            ruled, swept = getattr(f, name), getattr(counted, name)
            assert ruled.dtype == swept.dtype and np.array_equal(ruled, swept), (label, name)
            assert not ruled.flags.writeable
        assert is_monotone(f) == is_monotone(counted), label
        assert f.is_constant() == counted.is_constant(), label
        assert is_fully_symmetric(f) == is_fully_symmetric(counted), label
        assert "table" not in vars(f), f"{label}: the checks above built the table"
        assert f.table.dtype == counted.table.dtype, label
        assert np.array_equal(f.table, counted.table), label
        assert not f.table.flags.writeable
        assert f.to_table_string() == counted.to_table_string(), label


@pytest.mark.parametrize("n", (1, 2, 5, 8))
def test_derived_counts_are_cached_read_only_int64(n):
    for f in boolean_cases(n):
        a = [int(v) for v in f.level_counts]
        expected = {
            "complement_counts": [math.comb(n, k) - a[k] for k in range(n + 1)],
            "derivative_counts": [(k + 1) * a[k + 1] - (n - k) * a[k] for k in range(n)],
        }
        for name, values in expected.items():
            counts = getattr(f, name)
            assert counts.dtype == np.int64 and not counts.flags.writeable, name
            assert counts.tolist() == values, name
            assert getattr(f, name) is counts, name


def test_raised_cap_stops_where_counts_leave_int64(monkeypatch):
    # a raised cap lets a rule-backed family past any table size, not past int64
    monkeypatch.setenv("BIASCUBE_MAX_ARITY", "80")
    n = INT64_COUNT_ARITY
    assert arity_cap() == n
    h = (n - 1) // 2
    f = majority(n)
    exact = [(k + 1) * math.comb(n, k + 1) if k == h else 0 for k in range(n)]
    assert f.derivative_counts.tolist() == exact
    for build in (lambda: majority(n + 2), lambda: dictator(n + 1, 1),
                  lambda: random_function(n + 1, np.random.default_rng(0))):
        with pytest.raises(ValueError, match="dense-table cap 61"):
            build()


def test_arity_cap_env(monkeypatch):
    monkeypatch.setenv("BIASCUBE_MAX_ARITY", "6")
    assert arity_cap() == 6
    with pytest.raises(ValueError):
        make_from_table(7, np.zeros(128, dtype=np.uint8))
    monkeypatch.setenv("BIASCUBE_MAX_ARITY", "0")
    with pytest.raises(ValueError):
        arity_cap()


# one instance of each kind above a cap of 10
OVERSIZE = {
    "dictator": {"n": 24, "i": 1},
    "and_all": {"n": 24},
    "or_all": {"n": 24},
    "majority": {"n": 23},
    "parity": {"n": 24},
    "tribes": {"k": 4, "m": 6},
    "cyclic_run": {"n": 24, "len": 3},
    "connectivity": {"m": 8},
}


def test_oversize_tables_refused_before_allocation(monkeypatch):
    monkeypatch.setenv("BIASCUBE_MAX_ARITY", "10")
    assert set(OVERSIZE) == set(FAMILY_NAMES)
    rng = np.random.default_rng(0)
    builds = [lambda: parse_table_string("n=24:hex=1"), lambda: random_function(22, rng),
              lambda: random_monotone_function(22, rng), lambda: random_cube_function(22, rng)]
    for kind, params in OVERSIZE.items():
        # through the one gate, and through the kind's public constructor
        builds.append(partial(build_family, family_spec(kind, **params)))
        builds.append(partial(getattr(booleans, kind), *params.values()))
    for build in builds:
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="dense-table cap"):
                build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
