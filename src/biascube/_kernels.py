"""Hot numeric kernels, one pure-numpy implementation per operation.

A Boolean truth table is counted, not swept: ``pack_tables`` packs it into
uint64 words, and ``level_counts`` and ``pivotal_counts`` turn those words
into the integers that carry all of a Boolean function's dependence on the
bias (points of f by Hamming weight, and pivotal base points of each
coordinate by weight); a table of at most 6 bits is a single word, counted
with one masked popcount per level. ``_fiber_sums`` is the one weighted
sweep over coordinate fibers of a real-valued table, or of a stack of them
reduced one row at a time: the Russo derivative and the Dirichlet energy of
a real function run on it. ``connected_batch`` decides graph connectivity for a
batch of sampled edge sets with a breadth-first search on packed sample
lanes: 64 samples share each uint64 word, every edge is a column of words,
and one word operation advances the search in 64 samples at once. Each
step of the search is one sweep over the whole (vertex, vertex, lane)
adjacency array, two numpy calls whatever the vertex count, so a small
batch of rows costs about as much per row as a large one. The search is
exact for every vertex and sample count.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

# ---------------------------------------------------------------------------
# coordinate fibers
#
# Bit b of point x is coordinate b+1. Along its last axis a table splits into
# blocks of 2**(b+1) entries: 2**b points with bit b clear, then the same
# points with it set. The lower halves, read in order, list the 2**(n-1) base
# points left after dropping bit b, so one vector of base-point weights serves
# every coordinate.
# ---------------------------------------------------------------------------


def _fibers(values: np.ndarray, b: int) -> tuple[np.ndarray, np.ndarray]:
    """Writable (..., 2**(n-1-b), 2**b) views of the lower and upper points."""
    r = values.reshape(values.shape[:-1] + (-1, 2, 1 << b))
    return r[..., 0, :], r[..., 1, :]


def _fiber_sums(values: np.ndarray, n: int, base_weights: np.ndarray, term) -> np.ndarray:
    """``out[..., b] = term(lower, upper).ravel() @ base_weights`` over the bit-b
    fibers, one 1-D product per row of a stacked batch.

    A row's sums therefore do not depend on the batch around it. A stacked
    ``@`` would run one matrix-vector product, whose rounding differs from
    the per-row dot in the last bit on many rows.
    """
    lead = values.shape[:-1]
    out = np.empty(lead + (n,), dtype=np.float64)
    for b in range(n):
        out[..., b] = np.vecdot(term(*_fibers(values, b)).reshape(lead + (-1,)), base_weights)
    return out


# ---------------------------------------------------------------------------
# packed truth tables
#
# Point x of a table is bit (x & 63) of word (x >> 6), so its weight is
# popcount(x >> 6) + popcount(x & 63): the popcount of its word index plus
# its in-word level. Tables shorter than a word are zero-padded, and a padded
# bit is never set, so it counts nowhere. A table of at most 6 bits is thus a
# single word at word level 0, whose level counts are its masked popcounts.
# ---------------------------------------------------------------------------

# bit positions 0..63 of a word, by in-word level (their popcount, 0..6)
_IN_WORD_LEVELS = np.array(
    [sum(1 << q for q in range(64) if q.bit_count() == j) for j in range(7)], dtype=np.uint64
)
# bit positions with bit b clear, b = 0..5: the lower points of in-word fibers
_IN_WORD_LOWER = np.array(
    [sum(1 << q for q in range(64) if not q >> b & 1) for b in range(6)], dtype=np.uint64
)


def pack_tables(tables: np.ndarray) -> np.ndarray:
    """(..., ceil(2**n / 64)) uint64 words of (..., 2**n) 0/1 uint8 tables."""
    return _as_words(np.packbits(tables, axis=-1, bitorder="little"))


def _as_words(packed: np.ndarray) -> np.ndarray:
    """Little-endian uint64 words of bytes along the last axis, zero-padded."""
    pad = -packed.shape[-1] % 8
    if pad:
        packed = np.pad(packed, [(0, 0)] * (packed.ndim - 1) + [(0, pad)])
    return packed.view("<u8")


def _word_fibers(words: np.ndarray, b: int, term) -> np.ndarray:
    """``term(lower, upper)`` over the bit-b fibers of packed words.

    Bit j of word t of the result stands for the base point 64 t + j of the
    cube without bit b, at level popcount(t) + popcount(j). For b >= 6 the
    fiber halves are whole words and the result has half as many; for b < 6
    both halves sit in one word, and only its lower bit positions are kept.
    """
    if b >= 6:
        lower, upper = _fibers(words, b - 6)
        return term(lower, upper).reshape(words.shape[:-1] + (-1,))
    return term(words, words >> np.uint64(1 << b)) & _IN_WORD_LOWER[b]


@lru_cache(maxsize=32)
def _word_level_layout(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For 2**m words: their indices sorted by popcount, where each popcount
    starts in that order, and the 0/1 matrix adding in-word level j at word
    popcount l into level j + l."""
    word_levels = np.bitwise_count(np.arange(1 << m, dtype=np.uint64))
    order = np.argsort(word_levels, kind="stable")
    starts = np.searchsorted(word_levels[order], np.arange(m + 1))
    j, level = np.indices((7, m + 1))
    shift = np.zeros((7, m + 1, m + 7), dtype=np.int64)
    shift[j, level, j + level] = 1
    return order, starts, shift.reshape(-1, m + 7)


def level_counts(words: np.ndarray, size: int) -> np.ndarray:
    """(..., size) int64: the set bits of 2**m packed words at each level k.

    For a packed n-cube table, ``size = n + 1`` counts the points where it
    is 1. A table of at most 6 bits is one word (m = 0): its word level is
    0, so each level is one masked popcount of that word.
    """
    if words.shape[-1] == 1:
        return np.bitwise_count(words & _IN_WORD_LEVELS[:size]).astype(np.int64)
    m = words.shape[-1].bit_length() - 1
    order, starts, shift = _word_level_layout(m)
    rows = words.reshape(-1, 1 << m)
    by_level = np.empty((rows.shape[0], 7, m + 1), dtype=np.int64)
    # Each word is expanded 7 times, once per in-word level, so the rows are
    # counted about 2**13 words at a time; a single table or a small batch
    # still takes one pass.
    step = max(1, (1 << 13) >> m)
    for start in range(0, rows.shape[0], step):
        block = rows[start : start + step]
        bits = np.bitwise_count(block[:, None, order] & _IN_WORD_LEVELS[:, None])
        np.add.reduceat(bits, starts, axis=-1, dtype=np.int64, out=by_level[start : start + step])
    return by_level.reshape(words.shape[:-1] + (-1,)) @ shift[:, :size]


def pivotal_counts(words: np.ndarray, n: int) -> np.ndarray:
    """(..., n, n) int64: ``[..., b, k]`` counts the level-k base points of the
    (n-1)-cube at which coordinate b+1 of a packed table is pivotal."""
    out = np.empty(words.shape[:-1] + (n, n), dtype=np.int64)
    for b in range(n):
        out[..., b, :] = level_counts(_word_fibers(words, b, np.bitwise_xor), n)
    return out


# ---------------------------------------------------------------------------
# batch connectivity test
#
# present: (s, E) uint8, one row of edge indicators per sample. edge_u/edge_v:
# (E,) endpoints of distinct vertex pairs, vertices 0..m_vertices-1. Output:
# (s,) uint8, 1 where the spanning subgraph on all m_vertices is connected.
# The search runs on sample lanes: sample j is bit (j % 64) of word (j // 64)
# in every mask, so each word operation below acts on 64 samples at once.
# ---------------------------------------------------------------------------


# bit k of a packed byte comes from row k of eight: a 0/1 byte times 2**k
_OCTET_WEIGHTS = np.uint64(1) << np.arange(8, dtype=np.uint64)


def _sample_lanes(present: np.ndarray) -> np.ndarray:
    """(E, ceil(s/64)) uint64 per-edge columns of (s, E) 0/1 uint8 rows.

    The same words as ``pack_tables(present.T)``, packed 8 rows at a time so
    that only the packed bytes are transposed. The rows are copied into a
    zero block of whole lanes whose rows are whole uint64 words; each word
    holds 8 edges of one row, and weighting row k of every 8 by 2**k and
    summing packs them, as the 8 products hold different bits.
    """
    s, e = present.shape
    padded = np.zeros((-(-s // 64) * 64, -(-e // 8) * 8), dtype=np.uint8)
    padded[:s, :e] = present
    octets = _OCTET_WEIGHTS @ padded.view(np.uint64).reshape(-1, 8, padded.shape[1] // 8)
    return _as_words(np.ascontiguousarray(octets.view(np.uint8)[:, :e].T))


def connected_batch(
    present: np.ndarray, m_vertices: int, edge_u: np.ndarray, edge_v: np.ndarray
) -> np.ndarray:
    """Connectivity indicator for a batch of sampled edge sets.

    A breadth-first search from vertex 0 on lanes of 64 samples per word:
    ``reach[v] |= OR_w(adjacency[w, v] & reach[w])`` for all vertices at
    once, until a sweep adds nothing; the AND of the rows of ``reach`` marks
    the connected samples. The edges must be distinct vertex pairs.
    """
    present = np.ascontiguousarray(present, dtype=np.uint8)
    s = present.shape[0]
    columns = _sample_lanes(present)
    # adjacency[v, w]: the lanes holding edge {v, w}; symmetric, and all
    # lanes on the diagonal, so a sweep keeps what it has reached
    adjacency = np.zeros((m_vertices, m_vertices, columns.shape[1]), dtype=np.uint64)
    adjacency[edge_u, edge_v] = columns
    adjacency[edge_v, edge_u] = columns
    vertices = np.arange(m_vertices)
    adjacency[vertices, vertices] = ~np.uint64(0)
    # reach[v]: the lanes where vertex 0 reaches v. Sweep k reaches every
    # vertex within k edges, so it stops after the largest distance from
    # vertex 0 in any lane, plus one sweep that adds nothing.
    reach = np.zeros(adjacency.shape[1:], dtype=np.uint64)
    reach[0] = ~np.uint64(0)
    grown = np.empty_like(reach)
    scratch = np.empty_like(adjacency)
    while True:
        # row w of the symmetric adjacency lists the neighbours of w; the
        # reduction runs over the leading axis, in whole (vertex, lane) rows
        np.bitwise_and(adjacency, reach[:, None, :], out=scratch)
        np.bitwise_or.reduce(scratch, axis=0, out=grown)
        # comparing the bytes is the cheapest equality test at this size
        if grown.tobytes() == reach.tobytes():
            break
        reach, grown = grown, reach
    connected = np.bitwise_and.reduce(reach, axis=0)
    return np.unpackbits(connected.view(np.uint8), bitorder="little")[:s]
