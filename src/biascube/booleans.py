"""Boolean functions on {0,1}^n, analysed through their integer counts.

Point encoding, fixed everywhere in this package including serialization: a
point is an integer x in [0, 2**n), and coordinate i (1-based) is bit (i-1)
of x. Coordinate 1 is the least significant bit. A truth table is indexed by
the point integer, so ``table[x]`` is f(x).

All of a function's dependence on the bias lies in its level counts and
pivotal counts. Explicit tables, random functions, tribes, cyclic_run and
connectivity are counted from their dense table, a parsed table string from
the packed words its hex digits spell; tribes, cyclic_run and random
monotone functions are unions of up-sets, all built by ``_up_set``, and
connectivity's table is filled from its sampling predicate. The fully
symmetric families (or, and, majority, parity) and the dictator get their
counts from an exact rule and build their table only when it is read.

All the package knows about a family kind is one ``_Kind`` record in the
``_KINDS`` table, and no other module reads it: they go through
``FamilySpec``, ``family_parameters``, ``build_family``, ``family_symmetry``,
``family_predicate`` and ``family_closed_form``. So adding a kind, or a
parameter, is one edit here; the CLI's flags follow. Connectivity of a graph
on m vertices is a kind like any other, with one coordinate per edge.

Functions are capped at ``arity_cap()`` coordinates (default 24, i.e. a
table of 16 Mi entries); larger instances go through the closed-form or
Monte Carlo paths instead. Every family is built through ``build_family``,
the one gate that checks the cap before a kind's builder allocates; the
table readers and random draws check it at their own entry.
"""

from __future__ import annotations

import binascii
import math
import os
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from typing import Callable

import numpy as np

from . import _kernels

DEFAULT_ARITY_CAP = 24
ARITY_CAP_ENV = "BIASCUBE_MAX_ARITY"
# The cap never exceeds the largest arity whose integer counts, and the
# derivative counts (k+1) a_{k+1} made from them, fit in int64. Only a
# rule-backed family gets near it: a table that large cannot be allocated.
INT64_COUNT_ARITY = 61


def positive_env_int(name: str, default: int) -> int:
    """The positive integer that environment variable ``name`` holds, or
    ``default`` when it is unset; any other value is refused by name."""
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value < 1:
        raise ValueError(f"{name} must be a positive integer, got {raw!r}")
    return value


def arity_cap() -> int:
    """Largest arity admitted for dense truth tables, at most
    ``INT64_COUNT_ARITY``."""
    return min(positive_env_int(ARITY_CAP_ENV, DEFAULT_ARITY_CAP), INT64_COUNT_ARITY)


def _check_arity(n: int) -> None:
    cap = arity_cap()
    if n > cap:
        raise ValueError(
            f"arity {n} exceeds the dense-table cap {cap}; use a closed-form "
            "family or the Monte Carlo estimators"
        )


@lru_cache(maxsize=32)
def popcounts(n: int) -> np.ndarray:
    """Hamming weight of every point of {0,1}^n, indexed by point integer."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    counts = np.zeros(1, dtype=np.uint8)
    for _ in range(n):
        counts = np.concatenate([counts, counts + 1])
    counts.flags.writeable = False
    return counts


def coordinate(x: int, i: int) -> int:
    """Value of coordinate i (1-based) at point x."""
    return (x >> (i - 1)) & 1


def with_coordinate(x: int, i: int, value: int) -> int:
    """Point x with coordinate i forced to value."""
    bit = 1 << (i - 1)
    return (x | bit) if value else (x & ~bit)


class BooleanFunction:
    """A Boolean function on {0,1}^n, analysed through its integer counts.

    A function comes from one of three sources:

    * a table: ``BooleanFunction(n, table)`` validates a dense 0/1 truth
      table, and its level counts, pivotal counts and monotone verdict are
      counted from the packed table on first use;
    * a rule: the family builders whose counts follow from an exact rule
      (the fully symmetric families and the dictator) set those counts and
      the verdict from the rule, and build the table only when something
      reads it (``table``, ``evaluate``, ``is_invariant``,
      ``to_table_string``);
    * a table string: ``parse_table_string`` reads the hex digits straight
      into the packed words, counts from them as a table would, and builds
      the table only when ``table``, ``evaluate`` or ``is_invariant`` reads
      it.

    Either way ``table`` is the same validated read-only table.
    """

    def __init__(self, n: int, table):
        self.n = n
        self.table = table
        self.__post_init__()

    def __post_init__(self):
        """Validate the table and freeze it. Every table built passes here,
        and ``perfbench/tracer.py`` counts the tables built at this name."""
        if self.n < 1:
            raise ValueError("arity must be at least 1")
        table = np.asarray(self.table, dtype=np.uint8)
        if table.shape != (1 << self.n,):
            raise ValueError(
                f"table length {table.shape} does not match 2**{self.n}"
            )
        if not (table <= 1).all():
            raise ValueError("table entries must be 0 or 1")
        table = np.ascontiguousarray(table)
        table.flags.writeable = False
        self.table = table

    @classmethod
    def _lazy(cls, n: int, build_table, **known) -> BooleanFunction:
        """A function whose table ``build_table()`` gives on first read;
        ``known`` fills cached properties (``_words``, the counts, the
        verdict) by name, and every array in it is made read-only."""
        f = cls.__new__(cls)
        f.n = n
        f._build_table = build_table
        for value in known.values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
        f.__dict__.update(known)
        return f

    @cached_property
    def table(self) -> np.ndarray:
        """Only a function without a table of its own (rule-backed, or read
        from a table string) gets here: its table is built on first read
        and validated like any other."""
        return BooleanFunction(self.n, self._build_table()).table

    @cached_property
    def _hypotheses(self) -> dict:
        """``bounds.bound_hypotheses``' verdicts (the failed hypothesis or
        None), one per generator set, None standing for every permutation."""
        return {}

    def evaluate(self, x: int) -> int:
        if not 0 <= x < (1 << self.n):
            raise ValueError(f"point {x} out of range for arity {self.n}")
        return int(self.table[x])

    __call__ = evaluate

    def is_constant(self) -> bool:
        """True iff f is 0 everywhere or 1 everywhere: the level counts sum
        to 0 or 2**n."""
        return int(self.level_counts.sum()) in (0, 1 << self.n)

    @cached_property
    def _words(self) -> np.ndarray:
        """The table packed into uint64 words (``_kernels.pack_tables``)."""
        return _kernels.pack_tables(self.table)

    @cached_property
    def _monotone(self) -> bool:
        """``is_monotone``'s verdict, cached like ``level_counts``."""
        return not any(
            _kernels._word_fibers(self._words, b, lambda lower, upper: lower & ~upper).any()
            for b in range(self.n)
        )

    @cached_property
    def level_counts(self) -> np.ndarray:
        """Read-only int64 ``a_k = #{x : f(x) = 1, |x| = k}`` for k = 0..n.

        The measure at any bias is ``sum_k a_k p**k (1-p)**(n-k)``, so these
        n+1 integers carry all of f's dependence on p. The table is
        read-only, so the cached counts cannot go stale.
        """
        counts = _kernels.level_counts(self._words, self.n + 1)
        counts.flags.writeable = False
        return counts

    @cached_property
    def pivotal_counts(self) -> np.ndarray:
        """Read-only int64 (n, n) ``b[i-1, k]``: the level-k points of the
        (n-1)-cube left after dropping coordinate i at which i is pivotal.

        The influence of coordinate i at any bias is
        ``sum_k b[i-1, k] p**k (1-p)**(n-1-k)``. Cached like ``level_counts``.
        """
        counts = _kernels.pivotal_counts(self._words, self.n)
        counts.flags.writeable = False
        return counts

    @cached_property
    def complement_counts(self) -> np.ndarray:
        """Read-only int64 ``C(n, k) - a_k``, the 0-set's level counts."""
        counts = _binomials(self.n) - self.level_counts
        counts.flags.writeable = False
        return counts

    @cached_property
    def derivative_counts(self) -> np.ndarray:
        """Read-only int64 ``c_k = (k+1) a_{k+1} - (n-k) a_k``, k = 0..n-1:
        the Russo derivative is ``sum_k c_k p**k (1-p)**(n-1-k)``.

        Every c_k is nonnegative for an up-set: each of the a_k points of
        level k has n-k upper neighbours, all in the set, and each point of
        level k+1 has only k+1 lower neighbours.
        """
        a, n = self.level_counts, self.n
        k = np.arange(n, dtype=np.int64)
        counts = (k + 1) * a[1:] - (n - k) * a[:-1]
        counts.flags.writeable = False
        return counts

    def to_table_string(self) -> str:
        value = int.from_bytes(self._words.tobytes(), "little")
        return f"n={self.n}:hex={value:X}"


def make_from_table(n: int, bits) -> BooleanFunction:
    """Build a BooleanFunction from an explicit table, enforcing the arity cap."""
    _check_arity(n)
    return BooleanFunction(n, np.asarray(bits))


def parse_table_string(text: str) -> BooleanFunction:
    """Parse the ``n=<arity>:hex=<table>`` serialization.

    The arity is ASCII decimal digits and the table ASCII hex digits; the
    signs, spaces, underscores and ``0x`` prefix that ``int()`` also reads
    make a string malformed, except that a leading minus is refused as a
    negative table that does not fit. The hex digits spell the table's
    packed words, so they are read straight into little-endian uint64 words;
    the counts and the monotone verdict come from those words, and the 0/1
    table is built only when read."""
    try:
        n_part, hex_part = text.split(":", 1)
        if not n_part.startswith("n=") or not hex_part.startswith("hex="):
            raise ValueError
        arity, digits = n_part[2:], hex_part[4:]
        if not (arity.isascii() and arity.isdigit()):
            raise ValueError
        n = int(arity)
        negative = digits.startswith("-")
        digits = digits[negative:]
        if not digits:
            raise ValueError
        # unhexlify reads pairs of hex digits and nothing else
        value = int.from_bytes(binascii.unhexlify("0" * (len(digits) % 2) + digits), "big")
    except ValueError:
        raise ValueError(f"malformed table string {text!r}, expected n=<arity>:hex=<hex>")
    if n < 1:
        raise ValueError("arity must be at least 1")
    _check_arity(n)
    if negative or value.bit_length() > (1 << n):
        raise ValueError(f"hex table does not fit 2**{n} bits")
    # read-only, as it views the bytes
    words = np.frombuffer(value.to_bytes(-(-(1 << n) // 64) * 8, "little"), dtype="<u8")
    return BooleanFunction._lazy(
        n, lambda: np.unpackbits(words.view(np.uint8), bitorder="little")[: 1 << n],
        _words=words,
    )


# ---------------------------------------------------------------------------
# families
# ---------------------------------------------------------------------------


@lru_cache(maxsize=64)
def _binomials(m: int) -> np.ndarray:
    """int64 C(m, k) for k = 0..m, read-only."""
    out = np.array([math.comb(m, k) for k in range(m + 1)], dtype=np.int64)
    out.flags.writeable = False
    return out


def _symmetric(n: int, value) -> BooleanFunction:
    """Worth v_k = ``value(k)`` at every point of weight k.

    a_k = C(n, k) v_k, and each coordinate is pivotal at the C(n-1, k) base
    points of level k exactly when v_k != v_{k+1}.
    """
    v = np.array([value(k) for k in range(n + 1)], dtype=np.uint8)
    pivotal = _binomials(n - 1) * (v[:-1] != v[1:])
    return BooleanFunction._lazy(
        n, lambda: v[popcounts(n)], level_counts=_binomials(n) * v,
        pivotal_counts=np.tile(pivotal, (n, 1)), _monotone=bool((v[:-1] <= v[1:]).all()))


def _dictator(n: int, i: int) -> BooleanFunction:
    pivotal = np.zeros((n, n), dtype=np.int64)
    pivotal[i - 1] = _binomials(n - 1)
    return BooleanFunction._lazy(
        n, lambda: (np.arange(1 << n, dtype=np.uint32) >> (i - 1)) & 1, _monotone=True,
        level_counts=np.concatenate(([0], _binomials(n - 1))), pivotal_counts=pivotal)


def dictator(n: int, i: int) -> BooleanFunction:
    """f(x) = x_i: a_k = C(n-1, k-1), and only coordinate i is pivotal, at
    every base point."""
    return build_family(family_spec("dictator", n=n, i=i))


def and_all(n: int) -> BooleanFunction:
    return build_family(family_spec("and_all", n=n))


def or_all(n: int) -> BooleanFunction:
    return build_family(family_spec("or_all", n=n))


def majority(n: int) -> BooleanFunction:
    return build_family(family_spec("majority", n=n))


def parity(n: int) -> BooleanFunction:
    return build_family(family_spec("parity", n=n))


def _up_set(n: int, masks) -> np.ndarray:
    """The 0/1 uint8 table that is 1 at every point containing all the
    coordinates of at least one mask: the union of the masks' up-sets.

    About 10 bytes per point at its peak: the points (4 bytes each while
    n <= 32), one masked copy of them, its comparison and the table."""
    points = np.arange(1 << n, dtype=np.uint32 if n <= 32 else np.uint64)
    table = np.zeros(1 << n, dtype=np.uint8)
    for mask in masks:
        mask = points.dtype.type(mask)
        table |= ((points & mask) == mask).view(np.uint8)
    return table


def _tribes(k: int, m: int) -> BooleanFunction:
    return BooleanFunction(k * m, _up_set(k * m, [((1 << k) - 1) << (t * k) for t in range(m)]))


def tribes(k: int, m: int) -> BooleanFunction:
    """OR of m disjoint ANDs over consecutive blocks of k coordinates."""
    return build_family(family_spec("tribes", k=k, m=m))


def _cyclic_run(n: int, length: int) -> BooleanFunction:
    windows = [sum(1 << ((start + off) % n) for off in range(length)) for start in range(n)]
    return BooleanFunction(n, _up_set(n, windows))


def cyclic_run(n: int, length: int) -> BooleanFunction:
    """1 iff some cyclic run of `length` consecutive coordinates is all ones."""
    return build_family(family_spec("cyclic_run", n=n, len=length))


@lru_cache(maxsize=32)
def _edges(m: int) -> tuple[np.ndarray, np.ndarray]:
    """0-based endpoint arrays (u, v), u < v, of the C(m, 2) edges of the
    complete graph on m vertices in lexicographic order: coordinate 1 is
    edge (1,2), coordinate 2 is (1,3), ..., coordinate C(m,2) is (m-1,m)."""
    u, v = np.triu_indices(m, 1)
    u.flags.writeable = v.flags.writeable = False
    return u, v


def _is_connected(m: int, b: np.ndarray) -> np.ndarray:
    """Connectivity of each row of a 0/1 batch, one column per edge of
    ``_edges(m)``. The kernel is looked up when called, so a wrapper put on
    its module name sees every call."""
    return _kernels.connected_batch(b, m, *_edges(m))


# points per block when a table is filled from a batch predicate
_POINT_BLOCK = 1 << 16


def _connectivity(m: int) -> BooleanFunction:
    n = m * (m - 1) // 2
    table = np.empty(1 << n, dtype=np.uint8)
    shifts = np.arange(n, dtype=np.uint32)
    for start in range(0, 1 << n, _POINT_BLOCK):
        points = np.arange(start, min(start + _POINT_BLOCK, 1 << n), dtype=np.uint32)
        bits = ((points[:, None] >> shifts) & 1).astype(np.uint8)
        table[start:start + len(points)] = _is_connected(m, bits)
    return BooleanFunction(n, table)


def connectivity(m: int) -> BooleanFunction:
    """1 iff the graph on m labelled vertices whose edges are the coordinates
    set to 1 is connected; one coordinate per edge, in ``_edges`` order.

    The table is filled from the sampling predicate, ``_POINT_BLOCK`` points
    at a time, so the default cap reaches m = 7 (21 edges)."""
    return build_family(family_spec("connectivity", m=m))


# ---------------------------------------------------------------------------
# structural checks
# ---------------------------------------------------------------------------


def is_monotone(f: BooleanFunction) -> bool:
    """True iff raising any single coordinate never lowers f.

    One word pass per counted table, none for a rule-backed family: the
    verdict is cached on f, so a check repeated at many biases reads the
    table at most once."""
    return f._monotone


def is_fully_symmetric(f: BooleanFunction) -> bool:
    """True iff f depends on the point only through its Hamming weight:
    every level count a_k is 0 or C(n, k)."""
    return all(int(a) in (0, math.comb(f.n, k)) for k, a in enumerate(f.level_counts))


@dataclass(frozen=True)
class PermutationGenerators:
    """Generating set of coordinate permutations, images 1-based.

    ``perms[g][i-1]`` is the image of coordinate i under generator g.
    """

    n: int
    perms: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        for perm in self.perms:
            if sorted(perm) != list(range(1, self.n + 1)):
                raise ValueError(f"{perm} is not a permutation of 1..{self.n}")


def permutation_point_map(perm: tuple[int, ...], n: int) -> np.ndarray:
    """Index map sending each point x to the point with permuted coordinates.

    The image point y has y_{perm[i-1]} = x_i.
    """
    points = np.arange(1 << n, dtype=np.uint32)
    out = np.zeros(1 << n, dtype=np.uint32)
    for i in range(1, n + 1):
        out |= ((points >> np.uint32(i - 1)) & np.uint32(1)) << np.uint32(perm[i - 1] - 1)
    return out


def is_invariant(f: BooleanFunction, gens: PermutationGenerators) -> bool:
    """True iff every generator maps f to itself."""
    if gens.n != f.n:
        raise ValueError("generator arity does not match the function")
    return all(
        (f.table[permutation_point_map(perm, f.n)] == f.table).all() for perm in gens.perms
    )


def is_transitive(gens: PermutationGenerators) -> bool:
    """True iff the orbit of coordinate 1 is every coordinate.

    Closing under the generators alone suffices because permutations of a
    finite set are invertible: some power of each generator is its inverse.
    """
    orbit, frontier = {1}, [1]
    while frontier:
        i = frontier.pop()
        for perm in gens.perms:
            j = perm[i - 1]
            if j not in orbit:
                orbit.add(j)
                frontier.append(j)
    return len(orbit) == gens.n


def is_invariant_and_transitive(f: BooleanFunction, gens: PermutationGenerators) -> bool:
    return is_invariant(f, gens) and is_transitive(gens)


# ---------------------------------------------------------------------------
# family kinds (one record each, in one table) and family specs, symbolic
# descriptions usable above the dense-table cap
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Kind:
    """All the package knows about one family kind. Every callable takes
    the kind's parameter values in ``params`` order, then its own argument
    if it has one, so ``functools.partial`` binds an instance."""

    params: tuple[str, ...]  # names, in serialization order
    build: Callable[..., BooleanFunction]  # from values build_family has checked and capped
    symmetry: Callable[..., tuple]  # family_symmetry's evidence
    predicate: Callable[..., np.ndarray]  # (*values, 0/1 batch): 0/1 or bool per row
    rule: tuple[Callable[..., bool], str] = (lambda *_: True, "")  # value rule, its message
    arity: Callable[..., int] = lambda n, *_: n
    monotone: bool = True  # monotone by construction at any arity
    mu: Callable[..., float] | None = None  # closed form, (*values, p)
    derivative: Callable[..., float] | None = None  # with mu, or neither
    defaults: tuple[tuple[str, int], ...] = ()  # (name, value) the CLI may leave out


def _full_symmetry(*_):
    return "full", None


def _cyclic_symmetry(n: int, length: int):
    shift = tuple(i % n + 1 for i in range(1, n + 1))
    return "generators", PermutationGenerators(n, (shift,))


def _tribes_symmetry(k: int, m: int):
    """A cycle inside the first block and a block rotation: together they act
    transitively on the coordinates and leave tribes invariant."""
    n = k * m
    if n == 1:
        return "full", None
    cycle = tuple((i % k + 1) if i <= k else i for i in range(1, n + 1))
    rotation = tuple((i - 1 + k) % n + 1 for i in range(1, n + 1))
    return "generators", PermutationGenerators(n, (cycle,) * (k > 1) + (rotation,) * (m > 1))


def _connectivity_symmetry(m: int):
    """The edge action of S_m, generated by the transposition of vertices 1
    and 2 and the m-cycle v -> v+1: it acts transitively on the edges and
    leaves connectivity invariant."""
    edges = list(zip(*(end.tolist() for end in _edges(m))))
    index = {edge: j + 1 for j, edge in enumerate(edges)}

    def induced(sigma):
        return tuple(index[tuple(sorted((sigma[a], sigma[b])))] for a, b in edges)

    transposition = (1, 0, *range(2, m))
    cycle = tuple((a + 1) % m for a in range(m))
    gens = (induced(transposition), induced(cycle))
    return "generators", PermutationGenerators(len(edges), gens)


def _count_dtype(n: int) -> type:
    """The narrowest accumulator that sums n 0/1 coordinates without
    wrapping; numpy reduces a narrower sum faster."""
    return np.uint16 if n < 1 << 16 else np.int64


def _has_cyclic_run(n: int, length: int, b: np.ndarray) -> np.ndarray:
    ext = np.concatenate([b, b[:, : length - 1]], axis=1)
    windows = np.lib.stride_tricks.sliding_window_view(ext, length, axis=1)
    return windows.all(axis=2).any(axis=1)


_KINDS = {
    "dictator": _Kind(
        ("n", "i"), build=_dictator, symmetry=lambda n, i: (None, None),
        predicate=lambda n, i, b: b[:, i - 1] != 0,
        rule=(lambda n, i: 1 <= i <= n, "coordinate {i} out of range for arity {n}"),
        mu=lambda n, i, p: p, derivative=lambda n, i, p: 1.0,
        # every coordinate gives the same curve
        defaults=(("i", 1),),
    ),
    "and_all": _Kind(
        ("n",), build=lambda n: _symmetric(n, lambda k: k == n), symmetry=_full_symmetry,
        predicate=lambda n, b: np.bitwise_and.reduce(b, axis=1),
        mu=lambda n, p: math.exp(n * math.log(p)),
        derivative=lambda n, p: n * math.exp((n - 1) * math.log(p)),
    ),
    "or_all": _Kind(
        ("n",), build=lambda n: _symmetric(n, lambda k: k > 0), symmetry=_full_symmetry,
        predicate=lambda n, b: np.bitwise_or.reduce(b, axis=1),
        mu=lambda n, p: -math.expm1(n * math.log1p(-p)),
        derivative=lambda n, p: n * math.exp((n - 1) * math.log1p(-p)),
    ),
    "majority": _Kind(
        ("n",), build=lambda n: _symmetric(n, lambda k: k > n // 2), symmetry=_full_symmetry,
        predicate=lambda n, b: b.sum(axis=1, dtype=_count_dtype(n)) > n // 2,
        rule=(lambda n: n % 2 == 1, "majority requires odd arity"),
    ),
    "parity": _Kind(
        ("n",), build=lambda n: _symmetric(n, lambda k: k % 2), symmetry=_full_symmetry,
        predicate=lambda n, b: np.bitwise_xor.reduce(b, axis=1),
        monotone=False,
    ),
    "tribes": _Kind(
        ("k", "m"), build=_tribes, symmetry=_tribes_symmetry,
        predicate=lambda k, m, b: np.bitwise_or.reduce(
            np.bitwise_and.reduce(b.reshape(b.shape[0], m, k), axis=2), axis=1),
        rule=(lambda k, m: k >= 1 and m >= 1, "tribes requires k >= 1 and m >= 1"),
        arity=lambda k, m: k * m,
        mu=lambda k, m, p: -math.expm1(m * math.log1p(-math.exp(k * math.log(p)))),
        derivative=lambda k, m, p: (m * math.exp((m - 1) * math.log1p(-math.exp(k * math.log(p))))
                                    * k * math.exp((k - 1) * math.log(p))),
    ),
    "cyclic_run": _Kind(
        ("n", "len"), build=_cyclic_run, symmetry=_cyclic_symmetry,
        predicate=_has_cyclic_run,
        rule=(lambda n, length: 1 <= length <= n, "run length must satisfy 1 <= length <= n"),
    ),
    "connectivity": _Kind(
        ("m",), build=_connectivity, symmetry=_connectivity_symmetry,
        predicate=_is_connected,
        rule=(lambda m: m >= 2, "connectivity needs at least 2 vertices"),
        arity=lambda m: m * (m - 1) // 2,
    ),
}
FAMILY_NAMES = tuple(_KINDS)

_FAMILY_ALIASES = {"or": "or_all", "and": "and_all"}


@dataclass(frozen=True)
class FamilySpec:
    """A named function family plus its integer parameters."""

    kind: str
    params: tuple[tuple[str, int], ...]

    def __post_init__(self):
        # names and value rules live here, so every path (dense, closed form, sampled) keeps them
        record = _KINDS.get(self.kind)
        if record is None:
            raise ValueError(f"unknown family {self.kind!r}")
        names = tuple(k for k, _ in self.params)
        if names != record.params:
            raise ValueError(f"family {self.kind!r} takes parameters {record.params}, got {names}")
        for name, value in self.params:
            if type(value) is not int:
                raise ValueError(f"family {self.kind!r} parameter {name} must be an int, "
                                 f"got {value!r}")
        holds, message = record.rule
        if not holds(*self._values):
            raise ValueError(message.format(**dict(self.params)))
        if self.arity < 1:
            raise ValueError("arity must be at least 1")

    @property
    def _record(self) -> _Kind:
        return _KINDS[self.kind]

    @property
    def _values(self) -> tuple[int, ...]:
        return tuple(v for _, v in self.params)

    @property
    def monotone(self) -> bool:
        """The kind's flag: monotone by construction at any arity (all but parity)."""
        return self._record.monotone

    @property
    def arity(self) -> int:
        return self._record.arity(*self._values)

    def to_string(self) -> str:
        inner = ",".join(f"{k}={v}" for k, v in self.params)
        return f"{self.kind}:{inner}"


def family_spec(kind: str, **params: int) -> FamilySpec:
    """The spec of a kind (or its alias), parameters given in any order."""
    kind = _FAMILY_ALIASES.get(kind, kind)
    record = _KINDS.get(kind)
    if record is not None and set(params) == set(record.params):
        # integers (numpy's too) become ints; any other value meets FamilySpec's check
        params = {k: int(params[k]) if isinstance(params[k], (int, np.integer))
                  and not isinstance(params[k], bool) else params[k] for k in record.params}
    return FamilySpec(kind, tuple(params.items()))


def family_parameters(kind: str) -> dict[str, int | None]:
    """Parameter names of a kind (or its alias), in serialization order, each
    with the value a left-out CLI flag takes (None: required; not in ``family_spec``)."""
    record = _KINDS.get(_FAMILY_ALIASES.get(kind, kind))
    if record is None:
        raise ValueError(f"unknown family {kind!r}")
    return {name: dict(record.defaults).get(name) for name in record.params}


def parse_family_string(text: str) -> FamilySpec:
    """Parse the ``name:key=val,...`` serialization, e.g. ``tribes:k=2,m=3``."""
    try:
        name, _, rest = text.partition(":")
        params = {}
        if rest:
            for item in rest.split(","):
                key, _, value = item.partition("=")
                params[key] = int(value)
        return family_spec(name, **params)
    except ValueError:
        raise ValueError(f"malformed family string {text!r}")


def build_family(spec: FamilySpec) -> BooleanFunction:
    """Dense truth table for a family instance. This is the one way into a
    kind's builder, and it refuses an arity over the cap before the builder
    allocates anything."""
    _check_arity(spec.arity)
    return spec._record.build(*spec._values)


def family_symmetry(spec: FamilySpec) -> tuple[str | None, PermutationGenerators | None]:
    """Symmetry evidence for a family: ('full', None), ('generators', gens), or (None, None)."""
    return spec._record.symmetry(*spec._values)


def family_predicate(spec: FamilySpec) -> Callable[[np.ndarray], np.ndarray]:
    """The family's truth on each row of a 0/1 batch (column j is coordinate j+1), at any arity."""
    return partial(spec._record.predicate, *spec._values)


def family_closed_form(spec: FamilySpec) -> tuple[Callable, Callable] | None:
    """Closed forms (mu, derivative) of p at any arity, or None if the kind has none."""
    record = spec._record
    if record.mu is None:
        return None
    return partial(record.mu, *spec._values), partial(record.derivative, *spec._values)


# ---------------------------------------------------------------------------
# seeded random instances (used by the verify suites)
# ---------------------------------------------------------------------------


def random_function(n: int, rng: np.random.Generator) -> BooleanFunction:
    """Uniformly random truth table."""
    _check_arity(n)
    return BooleanFunction(n, rng.integers(0, 2, size=1 << n))


def random_monotone_function(n: int, rng: np.random.Generator) -> BooleanFunction:
    """Random monotone function: union of up-sets of a few random points."""
    return BooleanFunction(n, _random_monotone_table(n, rng))


def _random_monotone_table(n: int, rng: np.random.Generator) -> np.ndarray:
    """The 0/1 table ``random_monotone_function`` draws, without the wrapper."""
    _check_arity(n)
    seeds = rng.integers(0, 1 << n, size=int(rng.integers(1, 4)))
    return _up_set(n, seeds)
