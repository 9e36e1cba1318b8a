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

Every coordinate is 1 with probability T / 2**53, T = ceil(p * 2**53),
drawn by one of two rules that ``_bernoulli`` picks from p itself. Write
T = k * 2**(53 - s) with k odd. When s <= 32 (p = 1/2 and the midpoints of
the first 32 bisection steps, s <= 11 in the benchmark's level search),
each row takes ceil(n / 64) lane words per digit of an s-bit uniform V, and
a coordinate is 1 exactly when its lane's V < k: s raw words per 64
coordinates (``_draw_planes`` gives the layout). Every other bias takes one
raw word per coordinate, compared with ``T << 11``. numpy's double is
``(raw >> 11) * 2**-53`` of the same word, so those bits equal
``rng.random() < p`` and the generator state after a draw is the one
``random_raw`` leaves. Raw words are drawn at most ``_RAW_WORDS`` (2**14) at
a time through numpy's full-range bounded-integer fill, which hands out
each word as the generator's ``next_uint64`` gives it. On that path the
draw costs 2.66 ns per word at a (4096, 64) block, against 2.77 ns through
``Generator.random(out=)`` and a floor of 2.19 ns for
``random_raw(output=False)``, which only advances the stream (best of 7,
2 cores, numpy 2.4.6). A chunk is drawn and evaluated in row blocks of
about ``_BLOCK_SCALARS`` (2**18) coordinates, refilling one 256 KiB 0/1
matrix; the influence fiber path draws its n - 1 columns straight into the
rows it completes. A worker thus holds one row block, one 128 KiB block of
words (and at most 128 KiB of unpacked plane bits) and what the oracle
builds from the row block, whatever the chunk or the arity: 0.4-0.6 MiB
under tracemalloc at connectivity m=16, or n=64 and majority n=101.
Sequential draws on one generator concatenate exactly, so the row block
size changes no drawn bit. An estimate that grows on one path, as the level
search's doubled estimates do, resumes each chunk's stream instead of
redrawing its prefix. None of this changes a drawn bit.
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

RNG_ID = "philox4x64:seedseq-path:dyadic-planes"
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

# samples per substream; fixed so estimates cannot depend on the worker count
_STREAM_CHUNK = 1 << 14

# raw Philox words drawn per call in _bernoulli: 128 KiB
_RAW_WORDS = 1 << 14

# bounded-integer fill over [0, _WORD_MAX] draws each raw word unchanged
_WORD_MAX = np.uint64(2**64 - 1)

# significant bits of the largest threshold drawn from bit-planes
_PLANE_BITS = 32


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


def _blocks(oracle: OracleFunction, count: int) -> list[int]:
    # rows per block keep one draw near _BLOCK_SCALARS coordinates
    return _split(count, max(1, _BLOCK_SCALARS // max(oracle.n, 1)))


def _dyadic(pv: float) -> tuple[int, int] | None:
    """(k, s) with ``ceil(pv * 2**53) = k * 2**(53 - s)`` and k odd, when
    that threshold has at most ``_PLANE_BITS`` significant bits."""
    threshold = math.ceil(pv * 2.0**53)
    zeros = (threshold & -threshold).bit_length() - 1
    bits = 53 - zeros
    return (threshold >> zeros, bits) if bits <= _PLANE_BITS else None


def _bernoulli(
    rng: np.random.Generator, rows: int, cols: int, pv: float, out: np.ndarray | None = None
) -> np.ndarray:
    """(rows, cols) 0/1 uint8 matrix of independent Bernoulli(pv) coordinates,
    written into ``out`` (that shape and dtype, columns adjacent, rows at
    any stride) when given.

    Every coordinate is 1 with probability T / 2**53, T = ceil(pv * 2**53)
    (pv * 2**53 is exact). Write T = k * 2**(53 - s) with k odd. When
    s <= ``_PLANE_BITS`` the matrix is drawn from bit-planes, s raw words
    per 64 coordinates of a row, in the layout ``_draw_planes`` gives.
    Otherwise each coordinate takes one raw 64-bit Philox word, in
    row-major order, and is 1 exactly when the word is below ``T << 11``.
    numpy's double is ``(raw >> 11) * 2**-53``, so those bits are the ones
    of ``rng.random((rows, cols)) < pv``, and the generator ends in the
    state that ``random_raw`` of as many words leaves. At most
    ``_RAW_WORDS`` raw words are drawn at a time, through numpy's
    full-range bounded-integer fill, which returns each word as
    ``next_uint64`` gives it, and compared straight into the output. That
    fill and compare cost 2.66 ns per word (see the module docstring).
    """
    if out is None:
        out = np.empty((rows, cols), dtype=np.uint8)
    planes = _dyadic(pv)
    if planes is not None:
        _draw_planes(rng, *planes, out)
        return out
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
            np.less(_raw_words(rng, block.shape), below, out=block)
    return out


def _raw_words(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Raw Philox words in C order of ``shape``, as ``random_raw`` gives them."""
    return rng.integers(0, _WORD_MAX, size=shape, dtype=np.uint64, endpoint=True)


def _draw_planes(
    rng: np.random.Generator, k: int, s: int, out: np.ndarray, skip: int | None = None
) -> None:
    """Bernoulli(k / 2**s) coordinates, k odd and s >= 1, from bit-planes.

    Each row of ``cols`` coordinates takes G = ceil(cols / 64) lane words.
    ``rows * G * s`` raw words are drawn through the full-range fill in C
    order of shape (rows, G, s). Word (r, g, j) holds binary digit j + 1
    (the first is the most significant) of the s-bit uniform V of each of
    its 64 lanes, lane l being bit l of the word from the least significant.
    Coordinate 64 g + l of row r is 1 exactly when V < k; lanes past
    ``cols`` are dropped. With ``skip``, ``out`` has cols + 1 columns and
    the drawn ones fill all of them but column ``skip``, which is left as
    it is.

    V >= k is reduced from the last digit up: it is the last plane itself
    (k is odd), and each higher plane ANDs it in where k has a 1 and ORs
    it in where k has a 0. The words are drawn in pieces of whole rows, or
    of one row when a row alone is too long, in the order of one draw of
    them all; each piece draws at most ``_RAW_WORDS`` words and unpacks at
    most 2**17 coordinates (128 KiB). At s = 11 this fills a (2184, 120)
    row block in 0.34 ms, where the raw-word rule takes 1.31 ms (best of 7,
    2 cores, numpy 2.4.6).
    """
    rows, cols = out.shape[0], out.shape[1] - (skip is not None)
    groups = -(-cols // 64)
    # lane words per piece: s of each drawn, 64 coordinates of each unpacked
    width = max(1, _RAW_WORDS // max(s, 8))
    piece_rows = max(1, width // max(groups, 1))
    piece_groups = max(1, min(groups, width))
    ops = [np.bitwise_and if (k >> (s - 1 - j)) & 1 else np.bitwise_or for j in range(s - 1)]
    for r in range(0, rows, piece_rows):
        for g in range(0, groups, piece_groups):
            words = _raw_words(rng, (min(piece_rows, rows - r), min(piece_groups, groups - g), s))
            # reduced into a contiguous copy: in place, every op would write
            # through the plane stride
            lanes = words[:, :, s - 1].copy()
            for j in range(s - 2, -1, -1):
                ops[j](words[:, :, j], lanes, out=lanes)
            # the words go before the bits are unpacked, and the bits die
            # with the call that writes them: one piece's arrays at a time
            del words
            lanes = np.invert(lanes, out=lanes).astype("<u8", copy=False)
            count = min(64 * lanes.shape[1], cols - 64 * g)
            _write_around(out[r : r + lanes.shape[0]], 64 * g, skip, np.unpackbits(
                lanes.view(np.uint8), axis=1, count=count, bitorder="little"))


def _write_around(block: np.ndarray, lo: int, skip: int | None, bits: np.ndarray) -> None:
    """Drawn columns lo, lo + 1, ... of ``block``'s rows, one column further
    right from column ``skip`` on."""
    hi = lo + bits.shape[1]
    if skip is None or hi <= skip:
        block[:, lo:hi] = bits
    elif lo >= skip:
        block[:, lo + 1 : hi + 1] = bits
    else:
        block[:, lo:skip] = bits[:, : skip - lo]
        block[:, skip + 1 : hi + 1] = bits[:, skip - lo :]


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
    planes = _dyadic(pv)
    blocks = _blocks(oracle, count)
    # the first block is the largest; every block is drawn into its rows
    completed = np.empty((blocks[0], n), dtype=np.uint8)
    for rows in blocks:
        full = completed[:rows]
        if planes is not None:
            # one plane draw of the (rows, n - 1) columns, around column col
            _draw_planes(rng, *planes, full, skip=col)
        else:
            flat = full.reshape(-1)
            # the drawn (rows, n - 1) bits, in row-major order, fill every
            # position of the row block but column col: the first col
            # positions, then rows - 1 runs of n - 1, each from just after
            # column col of one row to just before it in the next, then the
            # last row's tail
            runs = flat[col + 1 : col + 1 + (rows - 1) * n].reshape(rows - 1, n)[:, : n - 1]
            for part in (flat[None, :col], runs, flat[None, (rows - 1) * n + col + 1 :]):
                if part.size:
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
    blocks = _blocks(oracle, pairs)
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
