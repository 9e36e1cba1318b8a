"""The numpy kernels against pure-Python reference implementations."""

import math
import subprocess
import sys
import textwrap
import tracemalloc

import numpy as np
import pytest

from biascube._kernels import (
    _sample_lanes,
    connected_batch,
    level_counts,
    pack_tables,
    pivotal_counts,
)
from biascube.booleans import popcounts
from biascube.measure import level_weights


def brute_influences(table, n, p):
    """Flip each coordinate at every point with it unset and add the weight
    of the remaining n-1 coordinates wherever the value changes."""
    out = []
    for i in range(n):
        bit = 1 << i
        total = 0.0
        for x in range(1 << n):
            if not x & bit and table[x] != table[x | bit]:
                k = bin(x).count("1")
                total += p**k * (1 - p) ** (n - 1 - k)
        out.append(total)
    return out


def brute_connected(bits, m, edge_u, edge_v):
    adj = [set() for _ in range(m)]
    for e, present in enumerate(bits):
        if present:
            adj[edge_u[e]].add(edge_v[e])
            adj[edge_v[e]].add(edge_u[e])
    seen, stack = {0}, [0]
    while stack:
        v = stack.pop()
        for w in adj[v] - seen:
            seen.add(w)
            stack.append(w)
    return int(len(seen) == m)


def per_vertex_connected(present, m, edge_u, edge_v):
    """The lane search that ``connected_batch`` replaced: one Python step per
    vertex, each updating ``reach`` in place."""
    columns = _sample_lanes(present)
    adjacency = np.zeros((m, m, columns.shape[1]), dtype=np.uint64)
    adjacency[edge_u, edge_v] = columns
    adjacency[edge_v, edge_u] = columns
    reach = np.zeros(adjacency.shape[1:], dtype=np.uint64)
    reach[0] = ~np.uint64(0)
    while True:
        before = reach.copy()
        for v in range(m):
            reach[v] |= np.bitwise_or.reduce(adjacency[v] & reach, axis=0)
        if np.array_equal(reach, before):
            break
    connected = np.bitwise_and.reduce(reach, axis=0)
    return np.unpackbits(connected.view(np.uint8), bitorder="little")[: present.shape[0]]


class TestBatchInfluences:
    def test_numpy_matches_reference_implementation(self):
        # n < 6 fills one zero-padded word; n = 7 is the first arity with a
        # coordinate (bit 6) whose fiber halves are whole words
        rng = np.random.default_rng(0)
        for n in range(1, 10):
            tables = (rng.random((20, 1 << n)) < 0.5).astype(np.uint8)
            p = 0.35
            got = pivotal_counts(pack_tables(tables), n) @ level_weights(n - 1, p)
            for row in range(20):
                expected = brute_influences(tables[row], n, p)
                assert np.allclose(got[row], expected, rtol=0.0, atol=1e-14)


class TestLevelCounts:
    @staticmethod
    def counted(tables, n):
        """Points of each 0/1 table by Hamming weight, counted point by point."""
        onehot = np.arange(n + 1) == popcounts(n)[:, None]
        return tables.astype(np.int64) @ onehot

    @pytest.mark.parametrize("n, rows", [(3, 1), (9, 300), (12, 300), (14, 3), (19, 2)])
    def test_row_blocks_match_point_counts(self, n, rows):
        # rows are counted 2**13 words at a time: n = 12 gives blocks of 128
        # rows and a short last block, n = 19 (2**13 words) one row per block
        rng = np.random.default_rng(n * 1000 + rows)
        tables = (rng.random((rows, 1 << n)) < 0.4).astype(np.uint8)
        want = self.counted(tables, n)
        got = level_counts(pack_tables(tables), n + 1)
        assert got.dtype == np.int64 and np.array_equal(got, want)
        # leading axes and a single table are counted like the flat batch
        stacked = pack_tables(tables.reshape((1, rows, 1 << n)))
        assert np.array_equal(level_counts(stacked, n + 1)[0], want)
        assert np.array_equal(level_counts(pack_tables(tables[-1]), n + 1), want[-1])

    @staticmethod
    def bincounted(tables, n):
        """Level and pivotal counts of (T, 2**n) 0/1 tables, each an
        ``np.bincount`` of the Hamming weights of the points that count."""
        rows = tables.shape[0]
        weight = popcounts(n).astype(np.int64)
        t, x = np.nonzero(tables)
        level = np.bincount(t * (n + 1) + weight[x], minlength=rows * (n + 1))
        pivotal = np.empty((rows, n, n), dtype=np.int64)
        for b in range(n):
            lower = np.flatnonzero((np.arange(1 << n) >> b & 1) == 0)
            t, j = np.nonzero(tables[:, lower] != tables[:, lower | 1 << b])
            # a lower point's weight is the weight of its base point
            pivotal[:, b] = np.bincount(t * n + weight[lower][j],
                                        minlength=rows * n).reshape(rows, n)
        return level.reshape(rows, n + 1), pivotal

    def check_against_bincount(self, tables, n):
        level, pivotal = self.bincounted(tables, n)
        words = pack_tables(tables)
        for got, want in ((level_counts(words, n + 1), level), (pivotal_counts(words, n), pivotal)):
            assert got.dtype == np.int64 and got.shape == want.shape
            assert np.array_equal(got, want)
        # a single table keeps its own shape
        assert np.array_equal(level_counts(words[-1], n + 1), level[-1])
        assert np.array_equal(pivotal_counts(words[-1], n), pivotal[-1])

    def test_every_four_bit_table_is_one_word(self):
        codes = np.arange(1 << 16, dtype=np.uint64)
        tables = ((codes[:, None] >> np.arange(16, dtype=np.uint64)) & 1).astype(np.uint8)
        assert np.array_equal(pack_tables(tables), codes[:, None])
        self.check_against_bincount(tables, 4)

    @pytest.mark.parametrize("n", (1, 2, 3, 5, 6, 7))
    def test_seeded_batches_match_bincount(self, n):
        # n <= 6 is one word a table; n = 7 is two, and keeps the word path
        rng = np.random.default_rng(500 + n)
        tables = (rng.random((257, 1 << n)) < 0.45).astype(np.uint8)
        tables[0], tables[1] = 0, 1
        assert pack_tables(tables).shape[-1] == (1 if n <= 6 else 2)
        self.check_against_bincount(tables, n)

    def test_batch_peak_memory(self):
        # thm42's 1000 tables at n = 12: expanding all of their words seven
        # times at once peaked at 4.2 MiB
        words = pack_tables((np.random.default_rng(7).random((1000, 1 << 12)) < 0.5)
                            .astype(np.uint8))
        level_counts(words, 13)
        tracemalloc.start()
        try:
            level_counts(words, 13)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 << 19


class TestConnectedBatch:
    def edges(self, m):
        u, v = np.triu_indices(m, k=1)
        return u.astype(np.int32), v.astype(np.int32)

    def test_numpy_matches_brute_force(self):
        # 63, 64 and 65 vertices straddle the one-word/two-word mask boundary;
        # the biases bracket the connectivity threshold log(m)/m.
        rng = np.random.default_rng(2)
        for m in (2, 4, 6, 9, 63, 64, 65):
            edge_u, edge_v = self.edges(m)
            for factor in (0.5, 1.0, 2.0):
                p = factor * math.log(m) / m
                present = (rng.random((120, edge_u.size)) < p).astype(np.uint8)
                got = connected_batch(present, m, edge_u, edge_v)
                for row in range(120):
                    assert got[row] == brute_connected(present[row], m, edge_u, edge_v)

    @pytest.mark.parametrize("m", (2, 16, 65, 100))
    @pytest.mark.parametrize("samples", (1, 63, 64, 65, 130))
    def test_sample_counts_straddle_word_lanes(self, m, samples):
        # batches of one word of samples, less, more and two; each row has
        # its own bias around the threshold log(m)/m
        rng = np.random.default_rng(m * 1000 + samples)
        edge_u, edge_v = self.edges(m)
        p = np.array((2.0, 1.0, 0.5))[np.arange(samples) % 3] * math.log(m) / m
        present = (rng.random((samples, edge_u.size)) < p[:, None]).astype(np.uint8)
        got = connected_batch(present, m, edge_u, edge_v)
        assert got.dtype == np.uint8 and got.shape == (samples,)
        want = [brute_connected(row, m, edge_u, edge_v) for row in present]
        assert got.tolist() == want
        # the lanes are the transposed rows packed as truth tables
        lanes = _sample_lanes(present)
        assert np.array_equal(lanes, pack_tables(np.ascontiguousarray(present.T)))

    # the whole-array sweep against the per-vertex loop it replaced

    @staticmethod
    def graph_rows(m):
        """Graphs that take the sweep m - 1 steps or test one vertex, each
        under its own labels and 60 random relabellings."""
        index = {pair: e for e, pair in enumerate(zip(*np.triu_indices(m, k=1)))}

        def row(pairs):
            out = np.zeros(len(index), dtype=np.uint8)
            for a, b in pairs:
                out[index[min(a, b), max(a, b)]] = 1
            return out

        path = [(k, k + 1) for k in range(m - 1)]
        others = [(a, b) for a in range(m - 1) for b in range(a + 1, m - 1)]
        graphs = [
            path,  # vertex 0 at one end: m - 1 sweeps to reach the other
            [(0, m - 1)] + [(k, k + 1) for k in range(1, m - 1)],  # 0, m-1, ..., 1
            path[:-1],  # the far end cut off
            [(0, 1)] + path[2:],  # cut next to vertex 0
            [(c, m - 1) for c in range(m - 1)],  # star on vertex m - 1
            [(0, c) for c in range(1, m)],  # star on vertex 0
            [(0, c) for c in range(1, m - 1)],  # star with one leaf missing
            others,  # complete but for vertex m - 1, which is isolated
            [(a + 1, b + 1) for a, b in others],  # vertex 0 isolated
            others + [(0, m - 1)],  # one edge to the otherwise isolated vertex
            [],
            others + [(c, m - 1) for c in range(m - 1)],  # complete
        ]
        rng = np.random.default_rng(m)
        for _ in range(60):
            label = rng.permutation(m)
            graphs.append([(label[a], label[b]) for a, b in graphs[rng.integers(0, 12)]])
        return np.array([row(g) for g in graphs])

    @pytest.mark.parametrize("m", (16, 65, 100))
    def test_worst_case_graphs(self, m):
        edge_u, edge_v = self.edges(m)
        present = self.graph_rows(m)
        got = connected_batch(present, m, edge_u, edge_v)
        want = [brute_connected(row, m, edge_u, edge_v) for row in present]
        assert got.tolist() == want
        assert per_vertex_connected(present, m, edge_u, edge_v).tolist() == want
        assert want[:12] == [1, 1, 0, 0, 1, 1, 0, 0, 0, 1, 0, 1]

    def test_level_search_rows_of_the_benchmark(self):
        # every block of the seed-7 connectivity level search on 16 vertices,
        # the rows the benchmark's search evaluates
        from biascube import mc

        oracle = mc.connectivity_oracle(16)
        edge_u, edge_v = self.edges(16)
        rows = []

        def both(present):
            got = oracle.evaluate_batch(present)
            assert np.array_equal(got, per_vertex_connected(present, 16, edge_u, edge_v))
            rows.append(present.shape[0])
            return got

        checked = mc.OracleFunction(oracle.n, both, True, oracle.name)
        result = mc.mc_p_of_alpha(checked, 0.5, 4096, 1e-3, 7, workers=1)
        assert result.p_hat == 0.19091796875
        assert sum(rows) == 1_150_976


def test_runs_with_numpy_as_the_only_dependency():
    # The child refuses every import outside the standard library, numpy and
    # biascube itself, as if nothing else were installed.
    script = textwrap.dedent(
        """
        import sys

        class OnlyNumpy:
            def find_spec(self, name, path=None, target=None):
                top = name.partition(".")[0]
                if top not in sys.stdlib_module_names and top not in ("numpy", "biascube"):
                    raise ImportError(f"{name} is not installed")
                return None

        sys.meta_path.insert(0, OnlyNumpy())
        from biascube import build_family, cli, family_spec, influences
        influences(build_family(family_spec("majority", n=5)), 0.3)
        sys.exit(cli.main(["mc", "mu", "--family", "connectivity", "--m", "12"]))
        """
    )
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
