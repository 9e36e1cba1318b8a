"""Sampled estimators: correctness against closed forms, reproducibility.

Statistical assertions use wide margins (4+ standard errors) on fixed seeds,
so they are deterministic rerun to rerun; coverage-style checks live in the
acceptance tests.
"""

import functools
import math
import re
import sys
import tracemalloc

import numpy as np
import pytest

from biascube import mc
from biascube.booleans import family_spec, parse_family_string
from biascube.mc import (
    OracleFunction,
    RNG_ID,
    estimate_influence,
    estimate_mu,
    family_oracle,
    mc_p_of_alpha,
    substream,
    wilson_estimate,
    worker_count,
)


def wilson_oracle(k, n):
    z = 1.959963984540054
    phat = k / n
    denom = 1 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = z * math.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n)) / denom
    return center - half, center + half


class TestSubstreams:
    def test_same_path_same_bytes(self):
        a = substream(7, 1, 2).integers(0, 2**63, size=8)
        b = substream(7, 1, 2).integers(0, 2**63, size=8)
        assert (a == b).all()

    def test_different_paths_differ(self):
        a = substream(7, 1, 2).integers(0, 2**63, size=8)
        b = substream(7, 1, 3).integers(0, 2**63, size=8)
        c = substream(8, 1, 2).integers(0, 2**63, size=8)
        assert not (a == b).all()
        assert not (a == c).all()


class TestWilson:
    @pytest.mark.parametrize("k,n", [(0, 50), (50, 50), (17, 50), (500, 1000)])
    def test_matches_closed_form(self, k, n):
        est = wilson_estimate(k, n)
        lo, hi = wilson_oracle(k, n)
        assert est.ci_lo == pytest.approx(lo, abs=1e-12)
        assert est.ci_hi == pytest.approx(hi, abs=1e-12)
        assert est.mean == k / n
        assert 0.0 <= est.ci_lo <= est.ci_hi <= 1.0

    def test_interval_shrinks(self):
        narrow = wilson_estimate(5000, 10_000)
        wide = wilson_estimate(50, 100)
        assert narrow.ci_hi - narrow.ci_lo < wide.ci_hi - wide.ci_lo


class TestOracles:
    @pytest.mark.parametrize(
        "spec",
        [
            family_spec("or_all", n=9),
            family_spec("and_all", n=9),
            family_spec("majority", n=9),
            family_spec("parity", n=9),
            family_spec("dictator", n=9, i=4),
            family_spec("tribes", k=3, m=3),
            family_spec("cyclic_run", n=9, len=3),
        ],
        ids=lambda s: s.kind,
    )
    def test_matches_dense_table(self, spec):
        from biascube.booleans import build_family

        oracle = family_oracle(spec)
        table = build_family(spec).table
        rng = np.random.default_rng(5)
        points = (rng.random((300, 9)) < 0.5).astype(np.uint8)
        codes = points @ (1 << np.arange(9))
        assert (oracle.evaluate_batch(points) == table[codes]).all()

    def test_monotone_declarations(self):
        assert family_oracle(family_spec("or_all", n=4)).monotone_declared
        assert not family_oracle(family_spec("parity", n=4)).monotone_declared

    def test_connectivity_extremes(self):
        oracle = family_oracle(family_spec("connectivity", m=6))
        n_edges = 15
        full = np.ones((1, n_edges), dtype=np.uint8)
        empty = np.zeros((1, n_edges), dtype=np.uint8)
        # star: edges (1,j) come first in lexicographic pair order
        star = np.zeros((1, n_edges), dtype=np.uint8)
        star[0, :5] = 1
        assert oracle.evaluate_batch(full).tolist() == [1]
        assert oracle.evaluate_batch(empty).tolist() == [0]
        assert oracle.evaluate_batch(star).tolist() == [1]
        assert oracle.monotone_declared


class TestEstimators:
    def test_mu_deterministic_across_worker_counts(self):
        oracle = family_oracle(family_spec("or_all", n=30))
        one = estimate_mu(oracle, 0.05, 40_000, seed=11, workers=1)
        four = estimate_mu(oracle, 0.05, 40_000, seed=11, workers=4)
        again = estimate_mu(oracle, 0.05, 40_000, seed=11, workers=4)
        assert one.to_dict() == four.to_dict() == again.to_dict()

    def test_mu_covers_closed_form(self):
        n, p = 50, 0.0138
        oracle = family_oracle(family_spec("or_all", n=n))
        est = estimate_mu(oracle, p, 100_000, seed=3)
        mu = 1 - (1 - p) ** n
        assert abs(est.mean - mu) < 4 * est.stderr

    def test_influence_dictator_is_one(self):
        oracle = family_oracle(family_spec("dictator", n=100, i=1))
        est = estimate_influence(oracle, 0.5, 1, 2000, seed=0)
        assert est.mean == 1.0

    def test_influence_off_coordinate_is_zero(self):
        oracle = family_oracle(family_spec("dictator", n=100, i=1))
        est = estimate_influence(oracle, 0.5, 2, 2000, seed=0)
        assert est.mean == 0.0

    def test_influence_covers_closed_form(self):
        n, p = 30, 0.1
        oracle = family_oracle(family_spec("or_all", n=n))
        est = estimate_influence(oracle, p, 7, 60_000, seed=5)
        assert abs(est.mean - (1 - p) ** (n - 1)) < 4 * est.stderr

    def test_coordinate_validation(self):
        oracle = family_oracle(family_spec("or_all", n=5))
        with pytest.raises(ValueError):
            estimate_influence(oracle, 0.5, 6, 100, seed=0)

    @pytest.mark.parametrize("samples", [0, -1])
    @pytest.mark.parametrize("workers", [1, 4])
    def test_sample_count_below_one_is_refused_before_any_draw(self, samples, workers):
        def refuse(bits):
            raise AssertionError("the oracle was evaluated")

        oracle = OracleFunction(5, refuse, True, "refuse")
        for estimate in (lambda: estimate_mu(oracle, 0.5, samples, 0, workers=workers),
                         lambda: estimate_influence(oracle, 0.5, 2, samples, 0, workers=workers)):
            with pytest.raises(ValueError, match="needs at least one sample"):
                estimate()


class TestLevelSearch:
    def test_or50_lands_near_closed_form(self):
        oracle = family_oracle(family_spec("or_all", n=50))
        tol_p = 1e-3
        result = mc_p_of_alpha(oracle, 0.5, 4096, tol_p, seed=1)
        target = 1 - 0.5 ** (1 / 50)
        assert abs(result.p_hat - target) <= 2 * tol_p
        assert not result.flagged
        assert result.rng == RNG_ID

    def test_deterministic(self):
        oracle = family_oracle(family_spec("majority", n=51))
        a = mc_p_of_alpha(oracle, 0.3, 1024, 5e-3, seed=9)
        b = mc_p_of_alpha(oracle, 0.3, 1024, 5e-3, seed=9)
        assert a.to_dict() == b.to_dict()

    def test_rejects_non_monotone(self):
        with pytest.raises(ValueError):
            mc_p_of_alpha(family_oracle(family_spec("parity", n=8)), 0.5, 256, 1e-2, seed=0)

    def test_alpha_validation(self):
        oracle = family_oracle(family_spec("or_all", n=8))
        with pytest.raises(ValueError):
            mc_p_of_alpha(oracle, 1.2, 256, 1e-2, seed=0)

    def test_cap_exhaustion_flags(self, monkeypatch):
        # dictator's curve equals alpha at p = alpha, so the interval can
        # never exclude it and the sampler must hit the cap and flag
        monkeypatch.setattr(mc, "SAMPLE_CAP", 1 << 12)
        oracle = family_oracle(family_spec("dictator", n=3, i=1))
        result = mc_p_of_alpha(oracle, 0.5, 256, 1e-6, seed=2)
        assert result.flagged


def test_worker_count_env(monkeypatch):
    monkeypatch.setenv("BIASCUBE_WORKERS", "3")
    assert worker_count() == 3
    assert worker_count(5) == 5
    monkeypatch.setenv("BIASCUBE_WORKERS", "0")
    with pytest.raises(ValueError):
        worker_count()


@pytest.mark.parametrize("value", ["abc", "0", "-1", "1.5", ""])
def test_worker_count_env_refusal_names_the_variable(monkeypatch, value):
    monkeypatch.setenv("BIASCUBE_WORKERS", value)
    message = f"BIASCUBE_WORKERS must be a positive integer, got {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        worker_count()
    # a count passed in is never read from the environment
    assert worker_count(2) == 2
    with pytest.raises(ValueError, match="^worker count must be positive$"):
        worker_count(0)


# Seeded outputs of the current stream (RNG_ID above), at 1 and 2 workers.
# Any change to streams, tags, chunk boundaries or draw order shows here;
# a new sampler re-pins these under its new RNG_ID.
PINNED = {
    0: {
        "mu": {"mean": 0.47365, "stderr": 0.0024965259737282927, "samples": 40000,
               "ci_lo": 0.46875966360990196, "ci_hi": 0.47854539702608867},
        "influence": {"mean": 0.07935, "stderr": 0.0013514212657421076, "samples": 40000,
                      "ci_lo": 0.076741476026933, "ci_hi": 0.08203931169714536},
        "level": {"p_hat": 0.296875, "alpha": 0.5,
                  "estimate": {"mean": 0.46885, "stderr": 0.003528666019191955,
                               "samples": 20000, "ci_lo": 0.4619405851229986,
                               "ci_hi": 0.47577137872329667},
                  "flagged": False, "steps": 5, "evaluations": 120000, "seed": 0,
                  "rng": "philox4x64:seedseq-path:dyadic-planes"},
    },
    1: {
        "mu": {"mean": 0.47105, "stderr": 0.0024958059695216694, "samples": 40000,
               "ci_lo": 0.4661613242595902, "ci_hi": 0.4759442357180922},
        "influence": {"mean": 0.076875, "stderr": 0.0013319650368440606, "samples": 40000,
                      "ci_lo": 0.07430483718479504, "ci_hi": 0.07952642587416288},
        "level": {"p_hat": 0.296875, "alpha": 0.5,
                  "estimate": {"mean": 0.4634, "stderr": 0.0035260490637539347,
                               "samples": 20000, "ci_lo": 0.45649675937822853,
                               "ci_hi": 0.4703172976610783},
                  "flagged": False, "steps": 5, "evaluations": 120000, "seed": 1,
                  "rng": "philox4x64:seedseq-path:dyadic-planes"},
    },
}


WORKERS = pytest.mark.parametrize("workers", (1, 2))


@pytest.mark.parametrize("seed", sorted(PINNED))
class TestPinnedStream:
    """Estimates are bit-identical to the pinned values at every worker count.

    Sample counts above one 16384-sample chunk, so two workers really split
    the work."""

    @WORKERS
    def test_mu_or64(self, seed, workers):
        oracle = family_oracle(family_spec("or_all", n=64))
        est = estimate_mu(oracle, 0.01, 40_000, seed, workers=workers)
        assert est.to_dict() == PINNED[seed]["mu"]

    @WORKERS
    def test_influence_majority101(self, seed, workers):
        oracle = family_oracle(family_spec("majority", n=101))
        est = estimate_influence(oracle, 0.5, 7, 40_000, seed, workers=workers)
        assert est.to_dict() == PINNED[seed]["influence"]

    @WORKERS
    def test_level_search_connectivity8(self, seed, workers):
        oracle = family_oracle(family_spec("connectivity", m=8))
        result = mc_p_of_alpha(oracle, 0.5, 20_000, 1 / 32, seed, workers=workers)
        assert result.to_dict() == PINNED[seed]["level"]



# Seeded hit counts of estimate_influence over 40,000 samples, at seeds 0
# and 1, for the fiber column at either end of the row (i = 1, i = n) and
# at the arities where the drawn n - 1 columns are one (or n=2) or none
# (dictator n=1). The estimate is the Wilson interval of the count.
PINNED_FIBERS = {
    ("majority:n=101", 0.5, 1): (3276, 3203),
    ("majority:n=101", 0.5, 101): (3291, 3144),
    ("or_all:n=2", 0.3, 2): (28136, 27956),
    ("dictator:n=1,i=1", 0.5, 1): (40000, 40000),
}


@pytest.mark.parametrize("seed", (0, 1))
@pytest.mark.parametrize("family, p, i", sorted(PINNED_FIBERS))
@WORKERS
def test_influence_fiber_columns_pinned(family, p, i, seed, workers):
    oracle = family_oracle(parse_family_string(family))
    est = estimate_influence(oracle, p, i, 40_000, seed, workers=workers)
    assert est == wilson_estimate(PINNED_FIBERS[family, p, i][seed], 40_000)


@pytest.mark.parametrize("pv", (0.5, 0.3), ids=("planes", "raw-words"))
@pytest.mark.parametrize("i", (1, 40, 101))
@pytest.mark.parametrize("split", ("7-rows", "2**22-coordinates"))
def test_influence_fiber_rows_are_one_draw_around_the_column(pv, i, split, monkeypatch):
    # the two completions of every row block are the (rows, n - 1) matrix
    # one draw gives, with column i - 1 inserted at 0 and then at 1; blocks
    # of 1, 5, 7 and 64 raw words cut the draw into pieces that end next
    # to, and straddle, the fiber column
    _split_rows(monkeypatch, split)
    for raw_words in (1, 5, 7, 64, 1 << 14):
        monkeypatch.setattr(mc, "_RAW_WORDS", raw_words)
        seen = []
        oracle = OracleFunction(101, lambda bits: seen.append(bits.copy())
                                or np.zeros(len(bits), np.uint8), True, "seen")
        assert mc._count_fiber_splits(oracle, pv, i, 30, substream(3, 9)) == 0
        drawn = mc._bernoulli(substream(3, 9), 30, 100, pv)
        for column, completions in enumerate((seen[0::2], seen[1::2])):
            assert np.array_equal(np.concatenate(completions),
                                  np.insert(drawn, i - 1, column, axis=1))


def test_influence_raw_word_draw_skips_empty_parts(monkeypatch):
    # one draw of the n - 1 other columns per row block, around column
    # i - 1, on either rule: at i = 1 and i = n that column is at an end of
    # the row, and at i = 7 inside it
    _split_rows(monkeypatch, "1-row")
    calls = []
    bernoulli = mc._bernoulli

    def recording(rng, rows, cols, pv, out=None, skip=None):
        calls.append((rows, cols, skip))
        return bernoulli(rng, rows, cols, pv, out, skip)

    monkeypatch.setattr(mc, "_bernoulli", recording)
    oracle = family_oracle(family_spec("majority", n=101))
    for pv in (0.3, 0.5):
        calls.clear()
        for i in (1, 7, 101):
            estimate_influence(oracle, pv, i, 20, 0)
        assert calls == [(1, 100, i - 1) for i in (1, 7, 101) for _ in range(20)]


# The benchmark's level search: connectivity on 16 vertices at seed 7. Its
# steps next to the level double their sample count, so this pins the
# doubling path, which the connectivity-8 search above never takes.
LEVEL_SEARCH_M16 = {
    "p_hat": 0.19091796875, "alpha": 0.5,
    "estimate": {"mean": 0.49853515625, "stderr": 0.007812466472315371, "samples": 4096,
                 "ci_lo": 0.48323155104961774, "ci_hi": 0.5138415065013804},
    "flagged": False, "steps": 10, "evaluations": 4370432, "seed": 7,
    "rng": "philox4x64:seedseq-path:dyadic-planes",
}


def _level_search_m16(monkeypatch, workers):
    """The m = 16 level search at seed 7 and the rows its chunks count."""
    counted = []
    count_hits = mc._count_hits

    def recording(oracle, pv, count, rng):
        counted.append(count)
        return count_hits(oracle, pv, count, rng)

    monkeypatch.setattr(mc, "_count_hits", recording)
    oracle = family_oracle(family_spec("connectivity", m=16))
    result = mc_p_of_alpha(oracle, 0.5, 4096, 1e-3, 7, workers=workers)
    return result.to_dict(), sum(counted)


@WORKERS
def test_level_search_connectivity16_doubling(monkeypatch, workers):
    # Drawing every estimate afresh would count 4,370,432 rows, the
    # search's evaluations; resuming each chunk counts every row once.
    assert _level_search_m16(monkeypatch, workers) == (LEVEL_SEARCH_M16, 2_207_744)


# Rows per block as a function of the arity: single rows, 7 rows (never a
# whole lane word, nor a multiple of 8), and 2**22-coordinate blocks, 16
# times the default.
ROW_SPLITS = {
    "1-row": lambda n: 1,
    "7-rows": lambda n: 7,
    "2**22-coordinates": lambda n: max(1, (1 << 22) // n),
}


def _split_rows(monkeypatch, split):
    rows = ROW_SPLITS[split]
    monkeypatch.setattr(
        mc, "_blocks", lambda oracle, count: mc._split(count, rows(oracle.n)))


# Single rows skip the level search: its 120,000 one-row connectivity calls
# take about 5 s per seed, and the 2,207,744 rows of the m = 16 search
# minutes. 7-row blocks already cut every lane word of the connectivity kernel.
@pytest.mark.parametrize("split, seeds, level", [
    ("1-row", (0,), False),
    ("7-rows", (0,), True),
    ("2**22-coordinates", (0, 1), True),
], ids=["1-row", "7-rows", "2**22-coordinates"])
@WORKERS
def test_row_block_size_moves_no_pinned_result(monkeypatch, split, seeds, level, workers):
    # sequential draws on one generator concatenate exactly, so cutting a
    # chunk into other row blocks changes no drawn bit and no count
    _split_rows(monkeypatch, split)
    for seed in seeds:
        or64 = family_oracle(family_spec("or_all", n=64))
        assert estimate_mu(or64, 0.01, 40_000, seed, workers=workers).to_dict() == PINNED[seed]["mu"]
        majority = family_oracle(family_spec("majority", n=101))
        influence = estimate_influence(majority, 0.5, 7, 40_000, seed, workers=workers)
        assert influence.to_dict() == PINNED[seed]["influence"]
        if level:
            graphs = family_oracle(family_spec("connectivity", m=8))
            search = mc_p_of_alpha(graphs, 0.5, 20_000, 1 / 32, seed, workers=workers)
            assert search.to_dict() == PINNED[seed]["level"]


@WORKERS
def test_row_block_size_moves_no_counted_row(monkeypatch, workers):
    _split_rows(monkeypatch, "2**22-coordinates")
    assert _level_search_m16(monkeypatch, workers) == (LEVEL_SEARCH_M16, 2_207_744)


# Dyadic biases k / 2**s, k odd: s = 1 (1/2), 11 (the m = 16 search's level)
# and 32 draw from bit-planes; s = 33 is one digit past them and takes raw
# words
PLANES = {0.5: (1, 1), 0.19091796875: (391, 11),
          0xB504F333 / 2**32: (0xB504F333, 32), 0x16A09E667 / 2**33: (0x16A09E667, 33)}

# 1/2 and 391/2048 are drawn from bit-planes; the other thresholds
# ceil(pv * 2**53) have more than 32 significant bits and take one raw word
# per coordinate
BIASES = pytest.mark.parametrize(
    "pv", (5e-324, 2.0**-53, 0.0138, 0.19091796875, 0.5, 1.0 - 2.0**-53)
)


def _plane_draw(pv: float) -> tuple[int, int] | None:
    """(k, s) of a bias drawn from bit-planes, else None."""
    return PLANES[pv] if pv in PLANES and PLANES[pv][1] <= 32 else None


def _words_drawn(pv: float, rows: int, cols: int) -> int:
    planes = _plane_draw(pv)
    return rows * -(-cols // 64) * planes[1] if planes else rows * cols


def _plane_uniforms(words, rows: int, cols: int, s: int) -> np.ndarray:
    """The s-bit uniforms V of the plane layout as a (rows, cols) uint64
    matrix: word (r, g, j) of the (rows, G, s) words holds digit j + 1 of V
    at bit l for coordinate 64 g + l of row r."""
    groups = -(-cols // 64)
    words = np.asarray(words, dtype=np.uint64).reshape(rows, groups, s)
    lanes = np.arange(64, dtype=np.uint64)
    v = np.zeros((rows, groups, 64), dtype=np.uint64)
    for j in range(s):
        v = (v << np.uint64(1)) | ((words[:, :, j, None] >> lanes) & np.uint64(1))
    return v.reshape(rows, groups * 64)[:, :cols]


def _plane_words(values, s: int) -> np.ndarray:
    """The s lane words of one row whose lanes 0, 1, ... hold the s-bit
    uniforms ``values``."""
    words = [0] * s
    for lane, v in enumerate(values):
        for j in range(s):
            words[j] |= ((v >> (s - 1 - j)) & 1) << lane
    return np.array(words, dtype=np.uint64)


@BIASES
def test_bernoulli_matches_float_compare(pv, monkeypatch):
    # 37 * 11 = 407 words is not a multiple of Philox's 4-word block, so
    # each later draw starts inside a block the one before it opened. Raw
    # blocks of 1, 5, 7 and 64 words end inside a row and inside that 4-word
    # block; the default block also takes a draw larger than itself. A
    # plane draw's double is its uniform V scaled by 2**-s, which is exact.
    planes = _plane_draw(pv)
    default = mc._RAW_WORDS
    for raw_words in (1, 5, 7, 64, default):
        monkeypatch.setattr(mc, "_RAW_WORDS", raw_words)
        shapes = ((37, 11), (5, 13), (64, 7)) + (((16384, 120),) if raw_words == default else ())
        rng, reference = substream(3, 9), substream(3, 9)
        for rows, cols in shapes:
            got = mc._bernoulli(rng, rows, cols, pv)
            if planes:
                raw = reference.bit_generator.random_raw(_words_drawn(pv, rows, cols))
                uniforms = _plane_uniforms(raw, rows, cols, planes[1]) * 2.0 ** -planes[1]
            else:
                uniforms = reference.random((rows, cols))
            want = (uniforms < pv).view(np.uint8)
            assert got.dtype == np.uint8 and got.shape == (rows, cols)
            assert np.array_equal(got, want)
            assert _philox_state(rng) == _philox_state(reference)


@BIASES
def test_bernoulli_matches_raw_word_compare(pv, monkeypatch):
    # the comparison of raw Philox words that the doubles replaced, or of the
    # plane uniforms V < k: the same bits and the same generator state after
    # every shape and block size
    planes = _plane_draw(pv)
    below = np.uint64(math.ceil(pv * 2.0**53) << 11)
    default = mc._RAW_WORDS
    for raw_words in (1, 5, 7, 64, default):
        monkeypatch.setattr(mc, "_RAW_WORDS", raw_words)
        shapes = ((37, 11), (5, 13), (64, 7)) + (((16384, 120),) if raw_words == default else ())
        rng, reference = substream(3, 9), substream(3, 9)
        for rows, cols in shapes:
            got = mc._bernoulli(rng, rows, cols, pv)
            raw = reference.bit_generator.random_raw(_words_drawn(pv, rows, cols))
            if planes:
                want = _plane_uniforms(raw, rows, cols, planes[1]) < np.uint64(planes[0])
            else:
                want = raw.reshape(rows, cols) < below
            assert np.array_equal(got, want.view(np.uint8))
            assert _philox_state(rng) == _philox_state(reference)


def test_bernoulli_into_strided_rows(monkeypatch):
    # rows of a wider matrix, as the fiber path draws into: row-major bits
    # and generator state of a fresh draw, the columns around them untouched
    for raw_words in (1, 5, 7, 64, mc._RAW_WORDS):
        monkeypatch.setattr(mc, "_RAW_WORDS", raw_words)
        rng, reference = substream(3, 9), substream(3, 9)
        for rows, cols in ((37, 11), (5, 13), (64, 7), (3, 0)):
            wide = np.full((rows, cols + 3), 7, dtype=np.uint8)
            mc._bernoulli(rng, rows, cols, 0.19, wide[:, 2 : 2 + cols])
            want = (reference.random((rows, cols)) < 0.19).view(np.uint8)
            assert np.array_equal(wide[:, 2 : 2 + cols], want)
            assert (wide[:, :2] == 7).all() and (wide[:, 2 + cols :] == 7).all()
            assert _philox_state(rng) == _philox_state(reference)


@pytest.mark.parametrize("pv", (0.5, 0.19091796875, 0.3), ids=("s=1", "s=11", "raw-words"))
def test_bernoulli_draws_around_a_skipped_column(pv, monkeypatch):
    # the drawn columns fill a strided (rows, cols + 1) view around column
    # skip, which keeps its sentinel: np.insert of the draw without skip
    # from the same stream, and the same generator state after it. Blocks
    # of 1 to 64 raw words cut pieces that end next to, and straddle, the
    # skipped column and the lane words on both sides of it
    rows, cols = 9, 130
    for raw_words in (1, 5, 7, 64, mc._RAW_WORDS):
        monkeypatch.setattr(mc, "_RAW_WORDS", raw_words)
        for skip in (0, 1, 63, 64, cols):
            rng, reference = substream(3, 9), substream(3, 9)
            wide = np.full((rows, cols + 4), 7, dtype=np.uint8)
            out = wide[:, 2 : cols + 3]
            assert mc._bernoulli(rng, rows, cols, pv, out, skip=skip) is out
            want = np.insert(mc._bernoulli(reference, rows, cols, pv), skip, 7, axis=1)
            assert np.array_equal(out, want)
            assert (wide[:, :2] == 7).all() and (wide[:, cols + 3 :] == 7).all()
            assert _philox_state(rng) == _philox_state(reference)


def _traced_peak(fn) -> int:
    fn()  # first calls allocate caches that a later call reuses
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_bernoulli_holds_one_block_of_raw_words():
    # the (16384, 120) 0/1 matrix is 1.9 MiB; the raw words of the whole
    # draw at once would add 15 MiB (a 16.9 MiB peak)
    peak = _traced_peak(lambda: mc._bernoulli(substream(1, 2), 16384, 120, 0.19))
    assert peak < 4 << 20


def test_two_worker_connectivity_estimate_peak_memory():
    # two chunks of 16384 x 120 coordinates drawn at once peaked at 34 MiB
    # when each held its raw words, and at 5.1 MiB when each held its chunk's
    # 0/1 matrix; a row block of 2**18 coordinates reads 1.2 MiB
    oracle = family_oracle(family_spec("connectivity", m=16))
    peak = _traced_peak(lambda: estimate_mu(oracle, 0.19, 65536, 1, workers=2))
    assert peak < 2 << 20


def test_or_estimate_peak_memory():
    # whole 16384 x 64 chunks peaked at 1.5 MiB; 2**18-coordinate row blocks
    # read 0.4 MiB
    oracle = family_oracle(family_spec("or_all", n=64))
    peak = _traced_peak(lambda: estimate_mu(oracle, 0.0138, 65536, 1, workers=1))
    assert peak < 3 << 18


@pytest.mark.parametrize("family", ["or_all:n=64", "connectivity:m=16"])
def test_bit_plane_estimate_peak_memory(family):
    # at p = 1/2 the 2**18-coordinate row blocks are drawn from bit-planes:
    # 0.42 MiB on or n=64 and 0.58 MiB on connectivity m=16, where 2**22-
    # coordinate blocks peaked at 1.2 and 4.2 MiB
    oracle = family_oracle(parse_family_string(family))
    peak = _traced_peak(lambda: estimate_mu(oracle, 0.5, 100_000, 0, workers=1))
    assert peak < 1 << 20


def _influence_peak(n: int, samples: int) -> int:
    oracle = family_oracle(family_spec("majority", n=n))
    return _traced_peak(lambda: estimate_influence(oracle, 0.5, 1, samples, 1, workers=1))


def test_majority_influence_peak_memory():
    # holding the drawn n - 1 columns beside the completed n read 3.3 MiB for
    # whole 16384-row chunks of majority on 101 bits and 0.63 MiB for 2**18-
    # coordinate row blocks; drawn in place, a row block (256 KiB) and one
    # block of raw words (128 KiB) read 0.39 MiB
    assert _influence_peak(101, 65536) < 1 << 19


def test_influence_peak_memory_past_one_block_of_words_per_row():
    # at n = 40,001 a row block is 6 rows (234 KiB) and reads 0.36 MiB with
    # one block of raw words; a row's 40,000 words drawn at once would add
    # 0.18 MiB
    assert _influence_peak(40_001, 64) < 1 << 19


class _GivenWords:
    """Generator stand-in whose raw words are the given ones."""

    def __init__(self, words):
        self.words = words

    def integers(self, low, high, size, dtype, endpoint):
        # the full-range fill, which hands out each raw word unchanged
        assert (low, high, dtype, endpoint) == (0, 2**64 - 1, np.uint64, True)
        assert math.prod(size) == self.words.size
        return self.words.reshape(size)


@BIASES
def test_bernoulli_at_the_words_next_to_the_threshold(pv):
    # a seeded stream almost never lands within 2**11 of the threshold, so
    # the words on both sides of it are handed in directly and judged by
    # numpy's double, (raw >> 11) * 2**-53; a plane draw gets lane words
    # whose uniforms V sit at 0, k - 1, k, k + 1 and 2**s - 1, judged by
    # V * 2**-s
    planes = _plane_draw(pv)
    if planes:
        k, s = planes
        values = sorted({0, k - 1, k, k + 1, 2**s - 1} & set(range(2**s)))
        words = _plane_words(values, s)
        got = mc._bernoulli(_GivenWords(words), 1, len(values), pv)
        want = ((np.array(values) * 2.0**-s) < pv).view(np.uint8)
        assert np.array_equal(got[0], want)
        assert want.any() and not want.all()
        return
    k = math.ceil(pv * 2.0**53)
    edges = {0, 2**64 - 1}
    for top in (k - 1, k):
        edges |= {(top << 11) - 1, top << 11, (top << 11) + 2047}
    words = np.array(sorted(w for w in edges if 0 <= w < 2**64), dtype=np.uint64)
    got = mc._bernoulli(_GivenWords(words), 1, words.size, pv)
    want = ((words >> np.uint64(11)) * 2.0**-53 < pv).view(np.uint8)
    assert np.array_equal(got[0], want)
    assert want.any() and not want.all()


def _below_k(words, rows: int, cols: int, k: int, s: int) -> np.ndarray:
    """Coordinates V < k of the plane layout, with Python ints: word
    (r, g, j) of the (rows, G, s) words holds digit j + 1 of V at bit l for
    coordinate 64 g + l of row r."""
    groups = -(-cols // 64)
    words = [int(w) for w in words]
    bits = np.zeros((rows, cols), dtype=np.uint8)
    for r in range(rows):
        for c in range(cols):
            first = (r * groups + c // 64) * s
            v = 0
            for word in words[first : first + s]:
                v = (v << 1) | ((word >> (c % 64)) & 1)
            bits[r, c] = v < k
    return bits


@pytest.mark.parametrize("pv", list(PLANES), ids=lambda pv: f"s={PLANES[pv][1]}")
def test_bernoulli_draws_dyadic_biases_from_bit_planes(pv, monkeypatch):
    k, s = PLANES[pv]
    assert math.ceil(pv * 2.0**53) == k << (53 - s)
    planes = s <= 32
    # handed-in words: lanes 0-3 of row 0 hold V = k - 1, k, 0 and 2**s - 1,
    # the rest seeded; the second lane word of each row is cut at column 70
    rows, cols = 3, 70
    words = np.random.default_rng(5).integers(
        0, 2**64 - 1, size=rows * 2 * s if planes else rows * cols, dtype=np.uint64,
        endpoint=True)
    if planes:
        for lane, v in enumerate((k - 1, k, 0, 2**s - 1)):
            for j in range(s):
                digit = np.uint64(((v >> (s - 1 - j)) & 1) << lane)
                words[j] = words[j] & ~np.uint64(1 << lane) | digit
        want = _below_k(words, rows, cols, k, s)
        assert want[0, :4].tolist() == [1, 0, 1, 0]
    else:
        want = (words < np.uint64(k << (53 - s) << 11)).view(np.uint8).reshape(rows, cols)
    assert np.array_equal(mc._bernoulli(_GivenWords(words), rows, cols, pv), want)
    # a seeded stream: the same bits from random_raw's words, and its state,
    # at every block size, with rows cut into pieces and pieces into rows
    default = mc._RAW_WORDS
    for rows, cols in ((37, 11), (5, 130), (64, 7), (3, 0)):
        drawn = rows * -(-cols // 64) * s if planes else rows * cols
        reference = substream(3, 9)
        raw = reference.bit_generator.random_raw(drawn)
        if planes:
            want = _below_k(raw, rows, cols, k, s)
        else:
            want = (raw < np.uint64(k << (53 - s) << 11)).view(np.uint8).reshape(rows, cols)
        for raw_words in (1, 5, 7, 64, default):
            monkeypatch.setattr(mc, "_RAW_WORDS", raw_words)
            rng = substream(3, 9)
            assert np.array_equal(mc._bernoulli(rng, rows, cols, pv), want)
            assert _philox_state(rng) == _philox_state(reference)


def _philox_state(rng):
    state = rng.bit_generator.state
    return (tuple(state["state"]["counter"]), tuple(state["state"]["key"]),
            tuple(state["buffer"]), state["buffer_pos"])


def test_resumed_estimates_match_fresh_draws_under_thread_switching():
    # more workers than cores and a short switch interval: chunks resumed on
    # pool threads must count what a fresh draw of each sample size counts
    oracle = family_oracle(family_spec("or_all", n=30))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        count_hits = functools.partial(mc._count_hits, oracle, 0.02)
        per_chunk = mc._nested_hits(count_hits, 5, 9)
        for samples in (3000, 20_000, 70_000, 70_000, 140_000):
            resumed = mc._estimate(per_chunk, samples, 8)
            fresh = mc._estimate(mc._nested_hits(count_hits, 5, 9), samples, 1)
            assert resumed == fresh
    finally:
        sys.setswitchinterval(interval)
