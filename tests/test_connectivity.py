"""The connectivity kind against references that share no code with it.

Connectivity of a graph on m labelled vertices, one coordinate per edge, is
built from its sampling predicate. These tests compare it with the exact
count of connected graphs by edge number, with the exact probability that
G(m, p) is connected, with its own S_m edge symmetry, and the sampled path
with the exact one.
"""

import json
import math

import pytest

from biascube import cli
from biascube.booleans import (
    build_family,
    connectivity,
    family_spec,
    family_symmetry,
    is_invariant,
    is_transitive,
)

# connected labelled graphs on m = 2..7 vertices, any number of edges
CONNECTED_TOTALS = {2: 1, 3: 4, 4: 38, 5: 728, 6: 26704, 7: 1866256}


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _all_graphs(m: int) -> list[int]:
    """(1 + x)^C(m,2): every graph on m vertices, by edge count."""
    return [math.comb(math.comb(m, 2), k) for k in range(math.comb(m, 2) + 1)]


def connected_counts(m: int) -> list[int]:
    """c_m(x) = (1+x)^C(m,2) - sum_{j<m} C(m-1, j-1) c_j(x) (1+x)^C(m-j,2):
    a graph splits into the component of vertex 1, on j vertices, and any
    graph on the other m - j. Coefficient k counts the connected graphs with
    k edges."""
    c = {1: [1]}
    for size in range(2, m + 1):
        total = _all_graphs(size)
        for j in range(1, size):
            term = _poly_mul(c[j], _all_graphs(size - j))
            for k, value in enumerate(term):
                total[k] -= math.comb(size - 1, j - 1) * value
        c[size] = total
    return c[m]


def connected_probability(m: int, p: float) -> float:
    """P_m(p) = 1 - sum_{k<m} C(m-1, k-1) P_k(p) (1-p)^{k(m-k)}, the chance
    that G(m, p) is connected, by the same split."""
    probs = {1: 1.0}
    for size in range(2, m + 1):
        probs[size] = 1.0 - sum(math.comb(size - 1, k - 1) * probs[k]
                                * (1.0 - p) ** (k * (size - k)) for k in range(1, size))
    return probs[m]


def bisect_level(m: int, alpha: float) -> float:
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        lo, hi = (mid, hi) if connected_probability(m, mid) < alpha else (lo, mid)
    return 0.5 * (lo + hi)


def run_json(capsys, *argv) -> dict:
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return json.loads(captured.out)


@pytest.mark.parametrize("m", range(2, 8))
def test_level_counts_are_the_connected_graph_counts(m):
    counts = connected_counts(m)
    assert sum(counts) == CONNECTED_TOTALS[m]
    f = connectivity(m)
    assert f.n == math.comb(m, 2)
    assert f.level_counts.tolist() == counts


@pytest.mark.parametrize("m", range(2, 7))
def test_edge_action_generators_fix_the_table_and_act_transitively(m):
    mode, gens = family_symmetry(family_spec("connectivity", m=m))
    assert mode == "generators"
    assert gens.n == math.comb(m, 2) and len(gens.perms) == 2
    assert is_invariant(build_family(family_spec("connectivity", m=m)), gens)
    assert is_transitive(gens)


def test_threshold_matches_the_connected_probability(capsys):
    payload = run_json(capsys, "threshold", "--family", "connectivity", "--m", "7",
                       "--eps", "0.1")
    assert payload["family"] == "connectivity:m=7"
    result = payload["result"]
    assert abs(result["p_low"] - bisect_level(7, 0.1)) <= 1e-9
    assert abs(result["p_high"] - bisect_level(7, 0.9)) <= 1e-9
    bounds = payload["width_bounds"]
    assert bounds["scaled_constant"]["pass"] is True
    assert bounds["rate"]["pass"] is True


def test_sampled_influence_agrees_with_the_exact_one(capsys):
    exact = run_json(capsys, "analyze", "--family", "connectivity", "--m", "5", "--p", "0.3")
    influences = exact["influences"]
    # S_5 acts transitively on the 10 edges, so every influence is the same
    # and each is the derivative's tenth (Russo)
    assert len(influences) == 10 and len(set(influences)) == 1
    for value in influences:
        assert value == pytest.approx(exact["derivative"] / 10, rel=1e-12, abs=0)
    sampled = run_json(capsys, "mc", "influence", "--family", "connectivity", "--m", "5",
                       "--i", "3", "--p", "0.3", "--samples", "200000", "--seed", "1")
    estimate = sampled["estimate"]
    assert estimate["samples"] == 200000
    assert abs(estimate["mean"] - influences[2]) <= 4 * estimate["stderr"]
