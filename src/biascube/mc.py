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

Every coordinate is drawn by ``_bernoulli``, whose docstring gives its two
rules (bit-planes for dyadic biases of at most 32 significant bits, one raw
Philox word per coordinate otherwise) and what each costs. A chunk is drawn
and evaluated in row blocks of about ``_BLOCK_SCALARS`` (2**18)
coordinates, refilling one 256 KiB 0/1 matrix (``_drawn_blocks``); the
influence fiber path draws its n - 1 columns straight into the rows it
completes, around column i - 1. A worker thus holds one row block, one
128 KiB piece of raw words (and at most 128 KiB of unpacked plane bits)
and what the oracle builds from the row block, whatever the chunk or the
arity: 0.4-0.6 MiB under tracemalloc at connectivity m=16, or n=64 and
majority n=101. Sequential draws on one generator concatenate exactly, so
the row block size changes no drawn bit. An estimate that grows on one
path, as the level search's doubled estimates do, resumes each chunk's
stream instead of redrawing its prefix. None of this changes a drawn bit.
"""

from __future__ import annotations

import functools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from typing import Callable, Iterator

import numpy as np

from .booleans import FamilySpec, family_predicate, positive_env_int
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

# raw Philox words per piece of a _bernoulli draw, at most: 128 KiB
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
        workers = positive_env_int(WORKERS_ENV, 1)
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
    rng: np.random.Generator, rows: int, cols: int, pv: float,
    out: np.ndarray | None = None, skip: int | None = None,
) -> np.ndarray:
    """(rows, cols) 0/1 uint8 matrix of independent Bernoulli(pv) coordinates,
    written into ``out`` (that shape and dtype, columns adjacent, rows at
    any stride) when given. With ``skip``, ``out`` has cols + 1 columns and
    the drawn ones fill all of them but column ``skip``, which keeps what
    it held.

    Every coordinate is 1 with probability T / 2**53, T = ceil(pv * 2**53)
    (pv * 2**53 is exact), by one of two rules that pv picks. Write
    T = k * 2**(53 - s) with k odd.

    - Bit-planes, when s <= ``_PLANE_BITS`` (p = 1/2 and the midpoints of
      the first 32 bisection steps): each row takes G = ceil(cols / 64)
      lane words per binary digit of an s-bit uniform V, so ``rows * G * s``
      raw words in C order of shape (rows, G, s). Word (r, g, j) holds
      digit j + 1 (the first is the most significant) of the V of each of
      its 64 lanes, lane l being bit l of the word from the least
      significant. Coordinate 64 g + l of row r is 1 exactly when V < k;
      lanes past ``cols`` are dropped. s raw words serve 64 coordinates.
    - Raw words otherwise: one raw word per coordinate, in row-major order,
      is 1 exactly when it is below ``T << 11``. numpy's double is
      ``(raw >> 11) * 2**-53`` of the same word, so these bits are the ones
      of ``rng.random((rows, cols)) < pv``, and the generator ends in the
      state that ``random_raw`` of as many words leaves.

    Raw words come from numpy's full-range bounded-integer fill, which hands
    out each word as ``next_uint64`` gives it. One loop draws them for both
    rules, in pieces of whole rows, or of one row when a row alone is too
    long, in the order of one draw of them all: at most ``_RAW_WORDS`` words
    and 2**17 unpacked plane coordinates (128 KiB each) a piece. A rule
    only turns a piece's words into a contiguous boolean piece, and one
    copy writes it around ``skip``. Sequential draws on one generator
    concatenate exactly, so the piece size changes no drawn bit. The
    raw-word fill, compare and copy cost 4.9-5.1 ns per word at a
    (4096, 64) block, against 4.9-5.3 ns through ``Generator.random(out=)``
    and a floor of 3.7-4.0 ns for ``random_raw(output=False)``, which only
    advances the stream; at s = 11 the planes fill a (2184, 120) row block
    in 0.36 ms, where raw words take 1.31 ms (best of 7, 2 loaded cores,
    numpy 2.4.6).
    """
    if out is None:
        out = np.empty((rows, cols + (skip is not None)), dtype=np.uint8)
    planes = _dyadic(pv)
    # each rule: coordinates and raw words per lane word, lane words per
    # piece, and the (rows, count) booleans a piece's words become
    if planes is None:
        below = np.uint64(math.ceil(pv * 2.0**53) << 11)
        unit, depth, width = 1, 1, _RAW_WORDS

        def take(words, count):
            return np.less(words[:, :, 0], below)
    else:
        unit, depth, width = 64, planes[1], max(1, _RAW_WORDS // max(planes[1], 8))
        take = functools.partial(_unpack_below, planes[0])
    groups = -(-cols // unit)
    step = max(1, width // max(groups, 1))
    span = unit * max(1, min(groups, width))
    # every row range is cut into the same column pieces
    pieces = [(min(span, cols - lo), _write_around(lo, min(lo + span, cols), skip))
              for lo in range(0, cols, span)]
    bits = out.view(np.bool_)
    for r in range(0, rows, step):
        block = bits[r : r + step]
        for count, parts in pieces:
            piece = take(_raw_words(rng, (len(block), -(-count // unit), depth)), count)
            for at, part in parts:
                np.copyto(block[:, at], piece[:, part])
            # one piece's words at a time: these go before the next are drawn
            del piece
    return out


def _raw_words(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Raw Philox words in C order of ``shape``, as ``random_raw`` gives them."""
    return rng.integers(0, _WORD_MAX, size=shape, dtype=np.uint64, endpoint=True)


def _unpack_below(k: int, words: np.ndarray, count: int) -> np.ndarray:
    """The (rows, count) coordinates V < k, as booleans, of (rows, G, s)
    plane words.

    V >= k is reduced from the last digit up: it is the last plane itself
    (k is odd), and each higher plane ANDs it in where k has a 1 and ORs it
    in where k has a 0.
    """
    s = words.shape[2]
    # reduced into a contiguous copy: in place, every op would write through
    # the plane stride
    lanes = words[:, :, s - 1].copy()
    for j in range(s - 2, -1, -1):
        op = np.bitwise_and if (k >> (s - 1 - j)) & 1 else np.bitwise_or
        op(words[:, :, j], lanes, out=lanes)
    lanes = np.invert(lanes, out=lanes).astype("<u8", copy=False)
    bits = np.unpackbits(lanes.view(np.uint8), axis=1, count=count, bitorder="little")
    return bits.view(np.bool_)


def _write_around(lo: int, hi: int, skip: int | None) -> tuple[tuple[slice, slice], ...]:
    """(destination, piece) column slices that place drawn columns lo to
    hi - 1 of a row, one column further right from column ``skip`` on."""
    if skip is None or hi <= skip:
        return ((slice(lo, hi), slice(None)),)
    if lo >= skip:
        return ((slice(lo + 1, hi + 1), slice(None)),)
    return ((slice(lo, skip), slice(None, skip - lo)),
            (slice(skip + 1, hi + 1), slice(skip - lo, None)))


def _outputs(oracle: OracleFunction, bits: np.ndarray) -> np.ndarray:
    return np.asarray(oracle.evaluate_batch(bits), dtype=np.uint8)


def _drawn_blocks(
    oracle: OracleFunction, pv: float, count: int, rng: np.random.Generator,
    skip: int | None = None,
) -> Iterator[np.ndarray]:
    """The row blocks of ``count`` rows of ``oracle``'s arity, drawn in turn
    from ``rng`` into the rows of one buffer sized for the largest block;
    with ``skip``, column ``skip`` is not drawn and keeps what it held.
    Each block is overwritten by the next."""
    blocks = _blocks(oracle, count)
    rows_buffer = np.empty((max(blocks, default=0), oracle.n), dtype=np.uint8)
    for rows in blocks:
        yield _bernoulli(rng, rows, oracle.n - (skip is not None), pv, rows_buffer[:rows], skip)


def _count_hits(oracle: OracleFunction, pv: float, count: int, rng: np.random.Generator) -> int:
    return sum(int(_outputs(oracle, bits).sum()) for bits in _drawn_blocks(oracle, pv, count, rng))


def _count_fiber_splits(
    oracle: OracleFunction, pv: float, i: int, count: int, rng: np.random.Generator
) -> int:
    hits = 0
    # the drawn n - 1 columns fill each row block around column i - 1
    for full in _drawn_blocks(oracle, pv, count, rng, skip=i - 1):
        full[:, i - 1] = 0
        low = _outputs(oracle, full)
        full[:, i - 1] = 1
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
    # x and y of each block are drawn in turn from the one stream, into two
    # row buffers, and their OR overwrites y
    for x, y in zip(_drawn_blocks(oracle, pv, pairs, rng), _drawn_blocks(oracle, pv, pairs, rng)):
        np.bitwise_or(x, y, out=y)
        violations += int((_outputs(oracle, x) > _outputs(oracle, y)).sum())
    return violations
