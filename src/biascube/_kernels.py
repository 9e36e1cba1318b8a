"""Hot numeric kernels, one pure-numpy implementation per operation.

``_fiber_sums`` is the one weighted sweep over coordinate fibers: influences
(``batch_influences``), the Russo derivative and the Dirichlet energy run on
it. ``connected_batch`` decides graph connectivity for a batch of sampled
edge sets with a bit-parallel breadth-first search: every vertex holds a
bitmask of its neighbours in ``ceil(m/64)`` uint64 words per sample, and a
reach mask grown from vertex 0 is full exactly when the graph is connected.
The search is exact for every vertex count.
"""

from __future__ import annotations

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
    """``out[..., b] = base_weights @ term(lower, upper)`` over the bit-b fibers."""
    lead = values.shape[:-1]
    out = np.empty(lead + (n,), dtype=np.float64)
    for b in range(n):
        out[..., b] = term(*_fibers(values, b)).reshape(lead + (-1,)) @ base_weights
    return out


def batch_influences(tables: np.ndarray, n: int, base_weights: np.ndarray) -> np.ndarray:
    """(m, n) influence vectors of a batch of (m, 2**n) packed truth tables."""
    tables = np.ascontiguousarray(tables, dtype=np.uint8)
    base_weights = np.ascontiguousarray(base_weights, dtype=np.float64)
    return _fiber_sums(tables, n, base_weights, np.not_equal)


# ---------------------------------------------------------------------------
# batch connectivity test
#
# present: (s, E) uint8, one row of edge indicators per sample. edge_u/edge_v:
# (E,) endpoints, vertices 0..m_vertices-1. Output: (s,) uint8, 1 where the
# spanning subgraph on all m_vertices is connected. Vertex w is bit (w % 64)
# of word (w // 64) in every mask; masks run along the sample axis, so each
# word operation below acts on all s samples at once.
# ---------------------------------------------------------------------------


def connected_batch(
    present: np.ndarray, m_vertices: int, edge_u: np.ndarray, edge_v: np.ndarray
) -> np.ndarray:
    """Connectivity indicator for a batch of sampled edge sets."""
    present = np.ascontiguousarray(present, dtype=np.uint8)
    edge_u = np.asarray(edge_u, dtype=np.int64)
    edge_v = np.asarray(edge_v, dtype=np.int64)
    s = present.shape[0]
    words = -(-m_vertices // 64)
    columns = np.ascontiguousarray(present.T)
    ends = np.concatenate((edge_u, edge_v))
    others = np.concatenate((edge_v, edge_u))
    edge_ids = np.tile(np.arange(edge_u.size), 2)
    adjacency = np.zeros((m_vertices, words, s), dtype=np.uint64)
    for v in range(m_vertices):
        incident = ends == v
        edges = edge_ids[incident]
        neighbours = others[incident]
        for word in range(words):
            in_word = (neighbours >> 6) == word
            shifts = (neighbours[in_word] & 63).astype(np.uint64)
            adjacency[v, word] = np.bitwise_or.reduce(
                columns[edges[in_word]].astype(np.uint64) << shifts[:, None], axis=0
            )
    # Sweeps update the reach mask in place, so one sweep can follow a path
    # through several vertices. Once a sweep adds nothing, the reach mask is
    # the component of vertex 0.
    one = np.uint64(1)
    reach = np.zeros((words, s), dtype=np.uint64)
    reach[0] = one
    while True:
        before = reach.copy()
        for v in range(m_vertices):
            reached = (reach[v >> 6] >> np.uint64(v & 63)) & one
            reach |= adjacency[v] * reached
        if np.array_equal(reach, before):
            break
    full = np.full(words, np.iinfo(np.uint64).max, dtype=np.uint64)
    if m_vertices % 64:
        full[-1] = (one << np.uint64(m_vertices % 64)) - one
    return (reach == full[:, None]).all(axis=0).view(np.uint8)
