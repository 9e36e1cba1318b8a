"""Workload definitions: the CLI calls each workload makes, the inputs it
generates from the seed, and the stream-independent checks on every output.

A workload is a closed loop with one client: the next CLI call is issued
when the previous one returns. Each entry of ``WORKLOADS`` builds the
whole call list from the seed (that is set-up); running the list is the
measured part.

No check pins a seed-specific bit pattern. Exact outputs are compared with
references the benchmark derives itself (binomial sums, per-weight counts,
its own bisection, the connectivity recursion); sampled outputs must lie
within four standard errors of the exact value, so a change of random
stream does not turn a correct program into a failing run.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

REL_TOL = 1e-12  # the verify suites' own relative tolerance
ENDPOINT_TOL = 1e-9  # bisection endpoints, absolute
SIGMAS = 4.0  # a 95% interval would fail one fresh stream in twenty

# The seed recorded with every run besides the one given on the command
# line; a later claim must also hold on it.
SECOND_SEED = 20051

# The level search's cost depends on its random stream: at m=16 the
# bisection path is the same for every seed, but the step next to the level
# needs between 0.35M and 17M evaluations (seeds 0-9 of the current stream).
# A seeded level search would make wall_s measure the seed instead of the
# code, so it runs at this fixed seed (2,256,896 evaluations) while every
# other seeded call takes the workload seed.
LEVEL_SEARCH_SEED = 7

# fixed here rather than read from the program, so a suite added later does
# not change the workload
SUITES = (
    "russo",
    "moment",
    "adjoint",
    "lsi",
    "poincare",
    "martingale",
    "thm42",
    "thm41",
    "cor43",
    "sn-claims",
    "exhaustive-n4",
)


@dataclass(frozen=True)
class Call:
    """One CLI invocation and how to judge what it printed."""

    argv: tuple[str, ...]
    check: Callable[[str, int], list]
    # work units the output accounts for, feeding samples_per_s
    samples: Callable[[str], int]

    @property
    def command(self) -> str:
        return command_key(self.argv)


def command_key(argv) -> str:
    """Command key of a CLI argv: ``analyze``, ``verify``, ``mc-mu``, ..."""
    if argv[0] == "mc":
        return f"mc-{argv[1]}"
    return argv[0]


# ---------------------------------------------------------------------------
# exact references
# ---------------------------------------------------------------------------


def close(value: float, reference: float, rel: float = REL_TOL) -> bool:
    return abs(value - reference) <= rel * max(abs(reference), abs(value))


def majority_mu(n: int, p: float) -> float:
    q = 1.0 - p
    return math.fsum(math.comb(n, k) * p**k * q ** (n - k) for k in range(n // 2 + 1, n + 1))


def majority_pivotal(n: int, p: float) -> float:
    """Influence of any coordinate of majority on an odd arity n."""
    h = (n - 1) // 2
    return math.comb(n - 1, h) * (p * (1.0 - p)) ** h


def level_counts_mu(counts: list[int], p: float) -> float:
    n = len(counts) - 1
    q = 1.0 - p
    return math.fsum(a * p**k * q ** (n - k) for k, a in enumerate(counts))


def bisect_level(mu: Callable[[float], float], alpha: float) -> float:
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if mu(mid) < alpha:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def connectivity_probability(m: int, p: float) -> float:
    """P(G(m, p) connected) from P_m = 1 - sum_{k<m} C(m-1,k-1) P_k q^(k(m-k))."""
    q = 1.0 - p
    probs = [0.0, 1.0]
    for size in range(2, m + 1):
        missing = math.fsum(
            math.comb(size - 1, k - 1) * probs[k] * q ** (k * (size - k))
            for k in range(1, size)
        )
        probs.append(1.0 - missing)
    return probs[m]


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------


def monotone_table(n: int, seed: int) -> tuple[str, list[int]]:
    """A seeded weighted-threshold function, as the CLI's table string.

    Returns the string and the per-weight counts a_k of its 1-set, from
    which the measure is an exact polynomial in p.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    coord_weights = rng.integers(1, 8, size=n)
    # a threshold near 40% of the total weight keeps mu(0.4) inside (0,1)
    threshold = int(0.4 * coord_weights.sum()) + int(rng.integers(0, 3))
    points = np.arange(1 << n, dtype=np.uint32)
    score = np.zeros(1 << n, dtype=np.int32)
    hamming = np.zeros(1 << n, dtype=np.int32)
    for i in range(n):
        bit = ((points >> i) & 1).astype(np.int32)
        score += int(coord_weights[i]) * bit
        hamming += bit
    table = (score >= threshold).astype(np.uint8)
    counts = np.bincount(hamming[table == 1], minlength=n + 1)
    value = int.from_bytes(np.packbits(table, bitorder="little").tobytes(), "little")
    return f"n={n}:hex={value:X}", [int(c) for c in counts]


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def _exited(code: int) -> list:
    return [("exit_code_0", code == 0)]


def check_majority_analyze(n: int, p: float):
    def check(out: str, code: int) -> list:
        r = json.loads(out)
        mu = majority_mu(n, p)
        pivotal = majority_pivotal(n, p)
        pq = p * (1.0 - p)
        return _exited(code) + [
            ("mu", close(r["mu"], mu)),
            ("variance", close(r["variance"], mu * (1.0 - mu))),
            ("derivative", close(r["derivative"], n * pivotal)),
            ("influences", len(r["influences"]) == n
             and all(close(v, pivotal) for v in r["influences"])),
            ("energy", close(r["energy"], pq * n * pivotal)),
            ("entropy", close(r["entropy"], -mu * math.log(mu))),
            ("influence_bound", r["max_influence_bound"]["pass"] is True),
        ]

    return check


def check_table_analyze(n: int, counts: list[int], p: float):
    def check(out: str, code: int) -> list:
        r = json.loads(out)
        mu = level_counts_mu(counts, p)
        return _exited(code) + [
            ("n", r["n"] == n),
            ("mu", close(r["mu"], mu)),
            ("variance", close(r["variance"], mu * (1.0 - mu))),
            ("influence_bound", r["max_influence_bound"]["pass"] is True),
        ]

    return check


def check_majority_threshold(n: int, eps: float):
    def check(out: str, code: int) -> list:
        payload = json.loads(out)
        r, bounds = payload["result"], payload["width_bounds"]
        p_low = bisect_level(lambda p: majority_mu(n, p), eps)
        p_high = bisect_level(lambda p: majority_mu(n, p), 1.0 - eps)
        return _exited(code) + [
            ("p_low", abs(r["p_low"] - p_low) <= ENDPOINT_TOL),
            ("p_high", abs(r["p_high"] - p_high) <= ENDPOINT_TOL),
            ("width", abs(r["width"] - (p_high - p_low)) <= 2 * ENDPOINT_TOL),
            ("width_bounds", bounds["scaled_constant"]["pass"] is True
             and bounds["rate"]["pass"] is True),
        ]

    return check


def check_majority_sweep(n: int, grid: tuple[float, float, float]):
    start, stop, step = grid
    count = int(math.floor((stop - start) / step + 1e-9)) + 1

    def check(out: str, code: int) -> list:
        rows = [line.split(",") for line in out.splitlines()
                if line and not line.startswith("#")][1:]
        mu_ok = dmu_ok = pass_ok = len(rows) == count
        for k, row in enumerate(rows):
            p = start + k * step
            mu_ok &= close(float(row[1]), majority_mu(n, p))
            dmu_ok &= close(float(row[2]), n * majority_pivotal(n, p))
            pass_ok &= row[6] == "true"
        return _exited(code) + [("mu", mu_ok), ("dmu_dp", dmu_ok), ("bound", pass_ok)]

    return check


def check_mc_estimate(exact: float, samples: int):
    def check(out: str, code: int) -> list:
        est = json.loads(out)["estimate"]
        return _exited(code) + [
            ("samples", est["samples"] == samples),
            ("within_4_stderr", abs(est["mean"] - exact) <= SIGMAS * est["stderr"]),
        ]

    return check


def check_level_search(m: int, alpha: float):
    level = bisect_level(lambda p: connectivity_probability(m, p), alpha)

    def check(out: str, code: int) -> list:
        payload = json.loads(out)
        r = payload["result"]
        tol_p = payload["config"]["tol_p"]
        return _exited(code) + [
            ("unflagged", r["flagged"] is False),
            ("level", abs(r["p_hat"] - level) <= tol_p + 2e-3),
        ]

    return check


def check_suite(out: str, code: int) -> list:
    return _exited(code) + [("pass", json.loads(out)["result"]["pass"] is True)]


# ---------------------------------------------------------------------------
# work units per output, for samples_per_s
# ---------------------------------------------------------------------------


def table_points(n: int):
    """Dense calls: the 2**n points of the table the call analyses."""
    return lambda out: 1 << n


def level_search_evaluations(out: str) -> int:
    return int(json.loads(out)["result"]["evaluations"])


def estimate_samples(out: str) -> int:
    return int(json.loads(out)["estimate"]["samples"])


def suite_checks(out: str) -> int:
    """verify: the bound checks the suite reports."""
    return len(json.loads(out)["result"]["checks"])


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def dense_exact(seed: int) -> list[Call]:
    # Large dense tables (64 MiB of float64 at n=23) through booleans,
    # measure, the influence kernel and dense threshold bisection; single-p
    # analysis next to many-p curves. Never touches mc.
    table, counts = monotone_table(20, seed)
    grid = (0.02, 0.98, 0.02)
    return [
        Call(("analyze", "--family", "majority", "--n", "23", "--p", "0.3"),
             check_majority_analyze(23, 0.3), table_points(23)),
        Call(("analyze", "--table", table, "--p", "0.4"),
             check_table_analyze(20, counts, 0.4), table_points(20)),
        Call(("threshold", "--family", "majority", "--n", "21", "--eps", "0.1"),
             check_majority_threshold(21, 0.1), table_points(21)),
        Call(("sweep", "--family", "majority", "--n", "19", "--grid", "0.02:0.98:0.02"),
             check_majority_sweep(19, grid), table_points(19)),
    ]


def mc_level(seed: int) -> list[Call]:
    # The sampling path: the connectivity level search (oracle-bound), the
    # OR measure (sampler-bound, the single-thread baseline) and the
    # two-completion fiber path of mc influence. Builds no dense table.
    p_or = 0.0138
    return [
        Call(("mc", "threshold", "--family", "connectivity", "--m", "16", "--alpha", "0.5",
              "--workers", "2", "--seed", str(LEVEL_SEARCH_SEED)),
             check_level_search(16, 0.5), level_search_evaluations),
        Call(("mc", "mu", "--family", "or", "--n", "64", "--p", str(p_or),
              "--samples", "4194304", "--workers", "1", "--seed", str(seed)),
             check_mc_estimate(-math.expm1(64 * math.log1p(-p_or)), 4194304),
             estimate_samples),
        Call(("mc", "influence", "--family", "majority", "--n", "101", "--i", "1",
              "--p", "0.5", "--samples", "1048576", "--workers", "1", "--seed", str(seed)),
             check_mc_estimate(math.comb(100, 50) / 2.0**100, 1048576), estimate_samples),
    ]


def verify_all(seed: int) -> list[Call]:
    # The measure, kernel and bounds layers used another way: tens of
    # thousands of small-table weights/expectation calls at n <= 16, so a
    # change adding per-call set-up to win on big tables loses here.
    return [Call(("verify", "--suite", name, "--seed", str(seed)), check_suite, suite_checks)
            for name in SUITES]


WORKLOADS: dict[str, Callable[[int], list[Call]]] = {
    "dense-exact": dense_exact,
    "mc-level": mc_level,
    "verify-all": verify_all,
}
