"""Sampling-based estimates for functions past the dense-table cap.

Randomness discipline: every estimate derives its streams from
``SeedSequence(seed, spawn_key=path)`` over the Philox counter-based
generator, where the path encodes the operation tag, any step indices, and
a chunk index. Work is cut into fixed-size chunks of samples, one stream
per chunk, and workers only decide how many chunks run concurrently; the
summed hit counts are integers, so identical seeds reproduce identical
results bit for bit at any worker count. Distinct operations on the same
seed never share a stream. The generator name travels with every
serialized estimate.

Coordinates are raw 64-bit Philox words, drawn ``_RAW_WORDS`` (2**14) at a
time through numpy's full-range bounded-integer fill, which hands out each
word as the generator's ``next_uint64`` gives it, and compared with
``ceil(p * 2**53) << 11``. numpy's double is ``(raw >> 11) * 2**-53`` of
the same word, so every bit equals ``rng.random() < p`` and the generator
state after a draw is the one ``random_raw`` leaves. The draw costs 2.66 ns
per word at a (4096, 64) block, against 2.77 ns through
``Generator.random(out=)`` and a floor of 2.19 ns for
``random_raw(output=False)``, which only advances the stream (best of 7,
2 cores, numpy 2.4.6). A chunk is drawn and evaluated in row blocks of
about ``_BLOCK_SCALARS`` (2**18) coordinates, refilling one 256 KiB 0/1
matrix; the influence fiber path draws its n - 1 columns straight into the
rows it completes. A worker thus holds one row block, one 128 KiB block of
words and what the oracle builds from the row block, whatever the chunk or
the arity: 0.4-0.6 MiB under tracemalloc at connectivity m=16, or n=64 and
majority n=101. Sequential draws on one generator concatenate exactly, so
the row block size changes no drawn bit. An estimate that grows on one
path, as the level search's doubled estimates do, resumes each chunk's
stream instead of redrawing its prefix. None of this changes a drawn bit.
"""

from __future__ import annotations

import functools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from .booleans import FamilySpec, family_predicate
from .measure import bias_value

RNG_ID = "philox4x64:seedseq-path"
WORKERS_ENV = "BIASCUBE_WORKERS"

# 95% two-sided normal quantile, written out so intervals never depend on a
# statistics library.
WILSON_Z = 1.959963984540054

SAMPLE_CAP = 1 << 24

# tags keeping operation streams disjoint under a shared seed
_TAG_MU = 0
_TAG_INFLUENCE = 1
_TAG_BISECT = 2
_TAG_FINAL = 3
_TAG_SPOT = 4

# coordinates per row block of a chunk: a 256 KiB 0/1 matrix
_BLOCK_SCALARS = 1 << 18

# coordinates per row block of spot_check_monotone, whose x and y draws
# alternate per block: its counts depend on this split, so it stays where
# those counts were first drawn
_SPOT_SCALARS = 1 << 22

# samples per substream; fixed so estimates cannot depend on the worker count
_STREAM_CHUNK = 1 << 14

# raw Philox words drawn per call in _bernoulli: 128 KiB
_RAW_WORDS = 1 << 14

# bounded-integer fill over [0, _WORD_MAX] draws each raw word unchanged
_WORD_MAX = np.uint64(2**64 - 1)


def substream(seed: int, *path: int) -> np.random.Generator:
    """Philox generator for one (operation, worker, ...) path."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=path)))


def worker_count(workers: int | None = None) -> int:
    if workers is None:
        workers = int(os.environ.get(WORKERS_ENV, "1"))
    if workers < 1:
        raise ValueError("worker count must be positive")
    return workers


@dataclass(frozen=True)
class OracleFunction:
    """Black-box 0/1 predicate evaluated on batches of points.

    ``evaluate_batch`` maps a (count, n) matrix of 0/1 coordinates (column
    j is coordinate j+1) to a length-count 0/1 vector. ``monotone_declared``
    is the caller's promise, spot-checkable but never assumed silently
    proven.
    """

    n: int
    evaluate_batch: Callable[[np.ndarray], np.ndarray]
    monotone_declared: bool
    name: str


def family_oracle(spec: FamilySpec) -> OracleFunction:
    """Formula-backed oracle for a named family at any arity: its kind's
    predicate, monotone as the kind is."""
    predicate = family_predicate(spec)
    return OracleFunction(spec.arity, lambda b: np.asarray(predicate(b), dtype=np.uint8),
                          spec.monotone, spec.to_string())


@dataclass(frozen=True)
class Estimate:
    """Proportion estimate with a 95% Wilson interval."""

    mean: float
    stderr: float
    samples: int
    ci_lo: float
    ci_hi: float

    def to_dict(self) -> dict:
        return asdict(self)


def wilson_estimate(successes: int, samples: int) -> Estimate:
    if samples < 1:
        raise ValueError("needs at least one sample")
    if not 0 <= successes <= samples:
        raise ValueError("success count out of range")
    phat = successes / samples
    z2 = WILSON_Z * WILSON_Z
    denom = 1.0 + z2 / samples
    center = (phat + z2 / (2.0 * samples)) / denom
    half = WILSON_Z * math.sqrt(phat * (1.0 - phat) / samples + z2 / (4.0 * samples * samples)) / denom
    stderr = math.sqrt(phat * (1.0 - phat) / samples)
    return Estimate(phat, stderr, samples, max(center - half, 0.0), min(center + half, 1.0))


def _split(total: int, size: int) -> list[int]:
    """Block sizes covering ``total``: full blocks of ``size``, then the rest."""
    full, rem = divmod(max(total, 0), size)
    return [size] * full + [rem] * (rem > 0)


def _blocks(oracle: OracleFunction, count: int, scalars: int = _BLOCK_SCALARS) -> list[int]:
    # rows per block keep one draw near ``scalars`` coordinates
    return _split(count, max(1, scalars // max(oracle.n, 1)))


def _bernoulli(
    rng: np.random.Generator, rows: int, cols: int, pv: float, out: np.ndarray | None = None
) -> np.ndarray:
    """(rows, cols) 0/1 uint8 matrix of independent Bernoulli(pv) coordinates,
    written in row-major order into ``out`` (that shape and dtype, columns
    adjacent, rows at any stride) when given.

    The bits are those of ``rng.random((rows, cols)) < pv``. At most
    ``_RAW_WORDS`` raw 64-bit Philox words are drawn at a time, through
    numpy's full-range bounded-integer fill, which returns each word as
    ``next_uint64`` gives it, and compared straight into the output with
    ``ceil(pv * 2**53) << 11`` (pv * 2**53 is exact): numpy's double is
    ``(raw >> 11) * 2**-53``, so ``raw`` is below that bound exactly when
    the double is below pv. The generator ends in the state that
    ``random_raw`` of as many words leaves. The fill and compare cost 2.66 ns
    per word, against 2.77 through ``random(out=)`` (see the module
    docstring).
    """
    if out is None:
        out = np.empty((rows, cols), dtype=np.uint8)
    below = np.uint64(math.ceil(pv * 2.0**53) << 11)
    bits = out.view(np.bool_)
    if bits.flags.c_contiguous:
        # one long row, drawn in whole blocks of _RAW_WORDS words
        bits = bits.reshape(1, -1)
    # back-to-back draws continue one stream, so only a block of words is
    # held at a time, never the whole matrix of them
    step = max(1, _RAW_WORDS // max(bits.shape[1], 1))
    for r in range(0, bits.shape[0], step):
        for c in range(0, bits.shape[1], _RAW_WORDS):
            block = bits[r : r + step, c : c + _RAW_WORDS]
            np.less(rng.integers(0, _WORD_MAX, size=block.shape, dtype=np.uint64, endpoint=True),
                    below, out=block)
    return out


def _outputs(oracle: OracleFunction, bits: np.ndarray) -> np.ndarray:
    return np.asarray(oracle.evaluate_batch(bits), dtype=np.uint8)


def _count_hits(oracle: OracleFunction, pv: float, count: int, rng: np.random.Generator) -> int:
    blocks = _blocks(oracle, count)
    # the first block is the largest; every block is drawn into its rows
    drawn = np.empty((blocks[0], oracle.n), dtype=np.uint8)
    return sum(
        int(_outputs(oracle, _bernoulli(rng, rows, oracle.n, pv, drawn[:rows])).sum())
        for rows in blocks
    )


def _count_fiber_splits(
    oracle: OracleFunction, pv: float, i: int, count: int, rng: np.random.Generator
) -> int:
    hits = 0
    n, col = oracle.n, i - 1
    blocks = _blocks(oracle, count)
    # the first block is the largest; every block is drawn into its rows
    completed = np.empty((blocks[0], n), dtype=np.uint8)
    for rows in blocks:
        full = completed[:rows]
        flat = full.reshape(-1)
        # the drawn (rows, n - 1) bits, in row-major order, fill every
        # position of the row block but column col: the first col positions,
        # then rows - 1 runs of n - 1, each from just after column col of one
        # row to just before it in the next, then the last row's tail
        runs = flat[col + 1 : col + 1 + (rows - 1) * n].reshape(rows - 1, n)[:, : n - 1]
        for part in (flat[None, :col], runs, flat[None, (rows - 1) * n + col + 1 :]):
            _bernoulli(rng, *part.shape, pv, part)
        full[:, col] = 0
        low = _outputs(oracle, full)
        full[:, col] = 1
        hits += int((low != _outputs(oracle, full)).sum())
    return hits


def _nested_hits(
    count_hits: Callable[[int, np.random.Generator], int], seed: int, *path: int
) -> Callable[[int, int], int]:
    """``per_chunk`` for ``_estimate`` on the streams ``substream(seed, *path, c)``,
    ``count_hits(count, rng)`` counting the hits of ``count`` rows drawn from one.

    Chunk c keeps its generator, the rows drawn from it and their hits. A
    larger estimate on the same path then draws only its new rows: chunk c
    of a larger sample size starts with chunk c of a smaller one, and
    sequential draws on one generator concatenate exactly. A chunk that is
    already complete returns its hits without drawing.
    """
    chunks: dict[int, tuple[np.random.Generator, int, int]] = {}

    def per_chunk(c: int, count: int) -> int:
        # each chunk index runs on one thread per estimate, so entries never race
        if c not in chunks:
            chunks[c] = (substream(seed, *path, c), 0, 0)
        rng, drawn, hits = chunks[c]
        if count > drawn:
            hits += count_hits(count - drawn, rng)
            chunks[c] = (rng, count, hits)
        return hits

    return per_chunk


def _estimate(per_chunk: Callable[[int, int], int], samples: int, workers: int) -> Estimate:
    """Wilson estimate from ``per_chunk(c, count)`` hit counts over the
    fixed-size stream chunks of ``samples``, run serially or on a pool.
    Fewer than one sample is refused by ``wilson_estimate``, before any draw."""
    counts = _split(samples, _STREAM_CHUNK)
    # the reduction is a sum of ints, so scheduling cannot change the total
    if workers == 1 or len(counts) <= 1:
        hits = sum(per_chunk(c, count) for c, count in enumerate(counts))
    else:
        with ThreadPoolExecutor(max_workers=min(workers, len(counts))) as pool:
            hits = sum(pool.map(per_chunk, range(len(counts)), counts))
    return wilson_estimate(hits, samples)


def estimate_mu(
    oracle: OracleFunction, p, samples: int, seed: int, workers: int | None = None
) -> Estimate:
    """Sampled measure of the 1-set under the product measure at bias p."""
    per_chunk = _nested_hits(functools.partial(_count_hits, oracle, bias_value(p)),
                             seed, _TAG_MU)
    return _estimate(per_chunk, samples, worker_count(workers))


def estimate_influence(
    oracle: OracleFunction, p, i: int, samples: int, seed: int, workers: int | None = None
) -> Estimate:
    """Sampled probability that coordinate i decides the value.

    Draws the other n-1 coordinates from their product measure and checks
    the two completions for disagreement, which is the nonconstancy-on-the-
    fiber event itself rather than any derivative surrogate.
    """
    if not 1 <= i <= oracle.n:
        raise ValueError(f"coordinate {i} out of range for arity {oracle.n}")
    per_chunk = _nested_hits(functools.partial(_count_fiber_splits, oracle, bias_value(p), i),
                             seed, _TAG_INFLUENCE, i)
    return _estimate(per_chunk, samples, worker_count(workers))


@dataclass(frozen=True)
class LevelSearchResult:
    """Outcome of the sampled bisection for p(alpha)."""

    p_hat: float
    alpha: float
    estimate: Estimate
    flagged: bool
    steps: int
    evaluations: int
    seed: int
    rng: str = RNG_ID

    def to_dict(self) -> dict:
        return asdict(self)


def mc_p_of_alpha(
    oracle: OracleFunction,
    alpha: float,
    samples_per_step: int,
    tol_p: float,
    seed: int,
    workers: int | None = None,
) -> LevelSearchResult:
    """Bisection for the bias where the sampled measure crosses alpha.

    Each comparison is decided only once its Wilson interval excludes
    alpha, doubling the sample count otherwise. If the doubling hits the
    evaluation cap with the interval still straddling alpha, the step
    falls back to the point estimate and the result is flagged: the
    returned interval at p_hat then carries the honest (wider)
    uncertainty. Requires a monotone-declared oracle, since bisection is
    meaningless without a monotone measure curve.

    ``evaluations`` is the total sample size of the estimates. A doubled
    estimate resumes the streams of the one before it, so the oracle runs
    on fewer rows than that.
    """
    if not oracle.monotone_declared:
        raise ValueError("level search needs a monotone-declared oracle")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be inside (0,1)")
    if not 0.0 < tol_p < 1.0:
        raise ValueError("tol_p must be inside (0,1)")
    if samples_per_step < 1:
        raise ValueError("needs at least one sample per step")
    nworkers = worker_count(workers)

    lo, hi = 0.0, 1.0
    flagged = False
    steps = 0
    evaluations = 0
    while hi - lo > tol_p:
        mid = 0.5 * (lo + hi)
        # a doubled estimate resumes the streams of the one before it
        per_chunk = _nested_hits(functools.partial(_count_hits, oracle, mid),
                                 seed, _TAG_BISECT, steps)
        samples = samples_per_step
        while True:
            est = _estimate(per_chunk, samples, nworkers)
            evaluations += samples
            if est.ci_lo > alpha or est.ci_hi < alpha:
                break
            if 2 * samples > SAMPLE_CAP:
                flagged = True
                break
            samples *= 2
        if est.mean >= alpha:
            hi = mid
        else:
            lo = mid
        steps += 1

    p_hat = 0.5 * (lo + hi)
    final = _estimate(_nested_hits(functools.partial(_count_hits, oracle, p_hat),
                                   seed, _TAG_FINAL, 0), samples_per_step, nworkers)
    evaluations += samples_per_step
    return LevelSearchResult(p_hat, alpha, final, flagged, steps, evaluations, seed)


def spot_check_monotone(
    oracle: OracleFunction, p, pairs: int = 10_000, seed: int = 0
) -> int:
    """Count violations of f(x) <= f(y) over sampled comparable pairs x <= y.

    Returns the violation count; zero is the only acceptable value for an
    oracle that declared itself monotone.
    """
    pv = bias_value(p)
    rng = substream(seed, _TAG_SPOT)
    violations = 0
    blocks = _blocks(oracle, pairs, _SPOT_SCALARS)
    # x and y of every block are drawn into the rows of two buffers sized for
    # the largest block, and their OR overwrites y
    x_rows = np.empty((max(blocks, default=0), oracle.n), dtype=np.uint8)
    y_rows = np.empty_like(x_rows)
    for rows in blocks:
        x = _bernoulli(rng, rows, oracle.n, pv, x_rows[:rows])
        y = _bernoulli(rng, rows, oracle.n, pv, y_rows[:rows])
        np.bitwise_or(x, y, out=y)
        violations += int((_outputs(oracle, x) > _outputs(oracle, y)).sum())
    return violations
