"""Every family kind pinned on a parameter grid, whatever dispatches it.

For each kind and each grid point these tests pin what the package derives
from the family's name and parameters: its string and the parse round trip,
arity and monotone flag, the sha256 of its packed table words, its level and
pivotal counts, its symmetry generators, the sampling oracle's output (on
every point up to arity 9, on a seeded batch above), and the measure curve
at p = 0.05, 0.10, ..., 0.95, each value compared with ``==``. ``REFERENCE``
holds the digests (the first 16 hex digits of a sha256 over each part's
bytes), so a change in any bit of any part shows under its own key. Past
arity 9 the oracle also reads a batch drawn inside the kind's transition
window, which holds both values (``WINDOW_REFERENCE``).
"""

import hashlib

import numpy as np
import pytest

from biascube import mc
from biascube.booleans import (
    FAMILY_NAMES,
    FamilySpec,
    and_all,
    build_family,
    connectivity,
    cyclic_run,
    dictator,
    family_predicate,
    family_spec,
    family_symmetry,
    is_monotone,
    majority,
    or_all,
    parity,
    parse_family_string,
    tribes,
)
from biascube.threshold import _curve, bias_at_level, set_measure

# the dense grid: every kind at small arities, edge values included
DENSE_GRID = [
    ("dictator", {"n": 1, "i": 1}),
    ("dictator", {"n": 2, "i": 2}),
    ("dictator", {"n": 5, "i": 3}),
    ("dictator", {"n": 9, "i": 9}),
    ("dictator", {"n": 12, "i": 7}),
    ("and_all", {"n": 1}),
    ("and_all", {"n": 2}),
    ("and_all", {"n": 5}),
    ("and_all", {"n": 9}),
    ("and_all", {"n": 12}),
    ("or_all", {"n": 1}),
    ("or_all", {"n": 2}),
    ("or_all", {"n": 5}),
    ("or_all", {"n": 9}),
    ("or_all", {"n": 12}),
    ("majority", {"n": 1}),
    ("majority", {"n": 3}),
    ("majority", {"n": 5}),
    ("majority", {"n": 9}),
    ("majority", {"n": 13}),
    ("parity", {"n": 1}),
    ("parity", {"n": 2}),
    ("parity", {"n": 5}),
    ("parity", {"n": 9}),
    ("parity", {"n": 12}),
    ("tribes", {"k": 1, "m": 1}),
    ("tribes", {"k": 1, "m": 4}),
    ("tribes", {"k": 2, "m": 1}),
    ("tribes", {"k": 2, "m": 3}),
    ("tribes", {"k": 3, "m": 3}),
    ("tribes", {"k": 4, "m": 3}),
    ("cyclic_run", {"n": 1, "len": 1}),
    ("cyclic_run", {"n": 3, "len": 1}),
    ("cyclic_run", {"n": 5, "len": 2}),
    ("cyclic_run", {"n": 6, "len": 6}),
    ("cyclic_run", {"n": 9, "len": 3}),
    ("cyclic_run", {"n": 12, "len": 4}),
    ("connectivity", {"m": 2}),
    ("connectivity", {"m": 3}),
    ("connectivity", {"m": 4}),
    ("connectivity", {"m": 5}),
    ("connectivity", {"m": 6}),
]

# past the dense cap: only the oracle, and the curve where it has a closed form
SAMPLED_GRID = [
    ("dictator", {"n": 100, "i": 37}),
    ("and_all", {"n": 40}),
    ("or_all", {"n": 64}),
    ("majority", {"n": 101}),
    ("parity", {"n": 70}),
    ("tribes", {"k": 3, "m": 10}),
    ("cyclic_run", {"n": 40, "len": 5}),
    ("connectivity", {"m": 16}),
]

BIASES = tuple(round(0.05 * k, 2) for k in range(1, 20))

# arities up to this one feed the oracle every point; above it, a seeded batch
ALL_POINTS_ARITY = 9
BATCH_ROWS = 512

CONSTRUCTORS = {
    "dictator": dictator,
    "and_all": and_all,
    "or_all": or_all,
    "majority": majority,
    "parity": parity,
    "tribes": tribes,
    "cyclic_run": cyclic_run,
    "connectivity": connectivity,
}


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()[:16]


def _case_id(case) -> str:
    kind, params = case
    return kind + ":" + ",".join(f"{k}={v}" for k, v in params.items())


def _oracle_points(n: int) -> np.ndarray:
    if n <= ALL_POINTS_ARITY:
        x = np.arange(1 << n)
        return ((x[:, None] >> np.arange(n)) & 1).astype(np.uint8)
    rng = np.random.default_rng(20051 + n)
    return rng.integers(0, 2, size=(BATCH_ROWS, n), dtype=np.uint8)


# a bias inside each sampled kind's transition window, where its measure is
# near 1/2 (parity's is 1/2 at every bias), so that a batch drawn there holds
# both values; at p = 1/2 and_all:n=40 reads 0 on every row of
# ``_oracle_points``' batch, and or_all:n=64 and connectivity:m=16 read 1
WINDOW_BIAS = {
    "dictator": 0.5,
    "and_all": 0.983,
    "or_all": 0.0108,
    "majority": 0.5,
    "parity": 0.5,
    "tribes": 0.406,
    "cyclic_run": 0.5,
    "connectivity": 0.19,
}


def _window_points(kind: str, n: int) -> np.ndarray:
    rng = np.random.default_rng(30051 + n)
    return (rng.random((BATCH_ROWS, n)) < WINDOW_BIAS[kind]).astype(np.uint8)


def _curve_values(spec) -> list[str]:
    """mu and derivative of the spec's measure curve at every bias, as exact hex."""
    curve = _curve(spec)
    return [(float(curve.mu(p)).hex(), float(curve.derivative(p)).hex()) for p in BIASES]


def _fingerprint(spec, dense: bool) -> dict:
    oracle = mc.family_oracle(spec)
    out = {
        "arity": spec.arity,
        "monotone": spec.monotone,
        "oracle": _digest(np.asarray(oracle.evaluate_batch(_oracle_points(spec.arity))).tobytes()),
    }
    if dense:
        f = build_family(spec)
        mode, gens = family_symmetry(spec)
        out["table"] = _digest(f._words.tobytes())
        out["counts"] = _digest(f.level_counts.tobytes(), f.pivotal_counts.tobytes())
        out["symmetry"] = _digest(mode, None if gens is None else (gens.n, gens.perms))
        out["measure"] = _digest([float(set_measure(spec, p)).hex() for p in BIASES])
    try:
        out["curve"] = _digest(_curve_values(spec))
    except ValueError as exc:
        out["curve"] = str(exc)
    return out


# digests recorded from the per-kind if-chains, before the kinds became one
# table; connectivity's from its kind record, its oracle digests matching
# those of the standalone connectivity oracle that preceded the record
REFERENCE = {
    'dictator:n=1,i=1': {
        'arity': 1,
        'monotone': True,
        'oracle': 'b413f47d13ee2fe6',
        'table': 'd86e8112f3c4c444',
        'counts': 'ccb1ac866b7d8de3',
        'symmetry': '08a14830cef18473',
        'measure': '725731a2a7e34985',
        'curve': '3b8d81ec6f562daa',
    },
    'dictator:n=2,i=2': {
        'arity': 2,
        'monotone': True,
        'oracle': '4afc7d9851818033',
        'table': '220dde27afee4d53',
        'counts': 'e889d9452fced84d',
        'symmetry': '08a14830cef18473',
        'measure': '725731a2a7e34985',
        'curve': '3b8d81ec6f562daa',
    },
    'dictator:n=5,i=3': {
        'arity': 5,
        'monotone': True,
        'oracle': '809ddac298ce31b1',
        'table': '22bc8d7e01d7b7f9',
        'counts': '81a5f470ac4a039b',
        'symmetry': '08a14830cef18473',
        'measure': '725731a2a7e34985',
        'curve': '3b8d81ec6f562daa',
    },
    'dictator:n=9,i=9': {
        'arity': 9,
        'monotone': True,
        'oracle': '954adf4b627fe14f',
        'table': 'bba91ca85dc914b2',
        'counts': '77a1c61d868c8022',
        'symmetry': '08a14830cef18473',
        'measure': '725731a2a7e34985',
        'curve': '3b8d81ec6f562daa',
    },
    'dictator:n=12,i=7': {
        'arity': 12,
        'monotone': True,
        'oracle': '81baedd91008ceff',
        'table': '588eda32f854722e',
        'counts': 'b7376622dd01c5ff',
        'symmetry': '08a14830cef18473',
        'measure': '725731a2a7e34985',
        'curve': '3b8d81ec6f562daa',
    },
    'and_all:n=1': {
        'arity': 1,
        'monotone': True,
        'oracle': 'b413f47d13ee2fe6',
        'table': 'd86e8112f3c4c444',
        'counts': 'ccb1ac866b7d8de3',
        'symmetry': '3b5dec09ce6ba0d8',
        'measure': '91ab69a746162faa',
        'curve': 'd4d0d470559a5e70',
    },
    'and_all:n=2': {
        'arity': 2,
        'monotone': True,
        'oracle': 'b40711a88c703975',
        'table': '6cc16abd70eefb90',
        'counts': 'bc7d65f4cb5778d2',
        'symmetry': '3b5dec09ce6ba0d8',
        'measure': '3abfb61672ac5afd',
        'curve': 'a8c8a80c98734f35',
    },
    'and_all:n=5': {
        'arity': 5,
        'monotone': True,
        'oracle': 'ec4916dd28fc4c10',
        'table': 'a9765c4805658a96',
        'counts': '3a1463f3753d7821',
        'symmetry': '3b5dec09ce6ba0d8',
        'measure': '34053e9edf5d3e0b',
        'curve': '0190b3f85aeedeca',
    },
    'and_all:n=9': {
        'arity': 9,
        'monotone': True,
        'oracle': '29b312a8b771421a',
        'table': 'abd41900b8bb0389',
        'counts': '0f58ca0553e51b1c',
        'symmetry': '3b5dec09ce6ba0d8',
        'measure': 'b0394921511a1212',
        'curve': 'ef9e4aba7774953c',
    },
    'and_all:n=12': {
        'arity': 12,
        'monotone': True,
        'oracle': '076a27c79e5ace2a',
        'table': '2601e0b469ea3c0e',
        'counts': 'b8526d2d51394998',
        'symmetry': '3b5dec09ce6ba0d8',
        'measure': 'bbf44897bb5fa002',
        'curve': 'dedd5d80874637b5',
    },
    'or_all:n=1': {
        'arity': 1,
        'monotone': True,
        'oracle': 'b413f47d13ee2fe6',
        'table': 'd86e8112f3c4c444',
        'counts': 'ccb1ac866b7d8de3',
        'symmetry': '3b5dec09ce6ba0d8',
        'measure': 'c1ef61ba801df279',
        'curve': '9a889e32d5047507',
    },
    'or_all:n=2': {
        'arity': 2,
        'monotone': True,
        'oracle': 'cbd95ae5ef881069',
        'table': '18d8d609947c6b82',
        'counts': '04aa06548738bd63',
        'symmetry': '3b5dec09ce6ba0d8',
        'measure': '8e52ec4f2c2f4942',
        'curve': 'cb3918634e15506a',
    },
    'or_all:n=5': {
        'arity': 5,
        'monotone': True,
        'oracle': '915c75942a26bb3a',
        'table': 'd5721a21e0af2340',
        'counts': 'b7d6d7e45463d6df',
        'symmetry': '3b5dec09ce6ba0d8',
        'measure': '47ce9556c82da296',
        'curve': '3745be10878caafc',
    },
    'or_all:n=9': {
        'arity': 9,
        'monotone': True,
        'oracle': 'b3bf8097d24eb2ae',
        'table': '65d340c2d63c9e55',
        'counts': '6b37f554cc9db2fe',
        'symmetry': '3b5dec09ce6ba0d8',
        'measure': '5e47673df553214e',
        'curve': '6134143af840a306',
    },
    'or_all:n=12': {
        'arity': 12,
        'monotone': True,
        'oracle': '6caf38d537984e26',
        'table': '4211fde8e998a32a',
        'counts': 'dc5343def1bc8814',
        'symmetry': '3b5dec09ce6ba0d8',
        'measure': 'b618d24b4ea7cc5f',
        'curve': 'e54f0098e559b4da',
    },
    'majority:n=1': {
        'arity': 1,
        'monotone': True,
        'oracle': 'b413f47d13ee2fe6',
        'table': 'd86e8112f3c4c444',
        'counts': 'ccb1ac866b7d8de3',
        'symmetry': '3b5dec09ce6ba0d8',
        'measure': '725731a2a7e34985',
        'curve': '3b8d81ec6f562daa',
    },
    'majority:n=3': {
        'arity': 3,
        'monotone': True,
        'oracle': '6fa1038404fd3fb9',
        'table': 'ac4fc487af43d394',
        'counts': 'b215b263c90f9578',
        'symmetry': '3b5dec09ce6ba0d8',
        'measure': '83b12aec2fe64d40',
        'curve': 'd757f47eeb5552e5',
    },
    'majority:n=5': {
        'arity': 5,
        'monotone': True,
        'oracle': '7adbcea533cd99fc',
        'table': '2a7eec427d77eabe',
        'counts': '04067eeaeb2bd516',
        'symmetry': '3b5dec09ce6ba0d8',
        'measure': '90ae7c7dfd7ff892',
        'curve': '1ed88cbc40ab5665',
    },
    'majority:n=9': {
        'arity': 9,
        'monotone': True,
        'oracle': '90ae721c723aacff',
        'table': '889afb020f1b2f1c',
        'counts': 'cf274ccafcac3963',
        'symmetry': '3b5dec09ce6ba0d8',
        'measure': '492600e9715c460d',
        'curve': '8c0620e7c522cb52',
    },
    'majority:n=13': {
        'arity': 13,
        'monotone': True,
        'oracle': 'd0f7d8b7fa781dab',
        'table': 'da1d97fa076da4d5',
        'counts': 'df82b5b31fbda625',
        'symmetry': '3b5dec09ce6ba0d8',
        'measure': '6d412383e2572afe',
        'curve': 'd829e7ebed6485cb',
    },
    'parity:n=1': {
        'arity': 1,
        'monotone': False,
        'oracle': 'b413f47d13ee2fe6',
        'table': 'd86e8112f3c4c444',
        'counts': 'ccb1ac866b7d8de3',
        'symmetry': '3b5dec09ce6ba0d8',
        'measure': '725731a2a7e34985',
        'curve': '3b8d81ec6f562daa',
    },
    'parity:n=2': {
        'arity': 2,
        'monotone': False,
        'oracle': 'd5e2d2ac07b741be',
        'table': '23d7f42b1cdc1f0d',
        'counts': '8299652f4d545a09',
        'symmetry': '3b5dec09ce6ba0d8',
        'measure': '2dfb15a6042b5fd2',
        'curve': 'bisection requires a monotone set',
    },
    'parity:n=5': {
        'arity': 5,
        'monotone': False,
        'oracle': 'c10b6b6296286fb8',
        'table': 'ea74f666bae0d685',
        'counts': 'f8b1e9913cb960ac',
        'symmetry': '3b5dec09ce6ba0d8',
        'measure': 'd1f1ef446d52bf08',
        'curve': 'bisection requires a monotone set',
    },
    'parity:n=9': {
        'arity': 9,
        'monotone': False,
        'oracle': '0f23315c65cbff66',
        'table': '52cf7fc10432d5d9',
        'counts': '3932e5b0721ce277',
        'symmetry': '3b5dec09ce6ba0d8',
        'measure': 'c2e8636449501558',
        'curve': 'bisection requires a monotone set',
    },
    'parity:n=12': {
        'arity': 12,
        'monotone': False,
        'oracle': '72d3da05499b2c2d',
        'table': 'c6a410f86a6dc3b9',
        'counts': '2e291f801dbae71d',
        'symmetry': '3b5dec09ce6ba0d8',
        'measure': '1ddb16f25cebe981',
        'curve': 'bisection requires a monotone set',
    },
    'tribes:k=1,m=1': {
        'arity': 1,
        'monotone': True,
        'oracle': 'b413f47d13ee2fe6',
        'table': 'd86e8112f3c4c444',
        'counts': 'ccb1ac866b7d8de3',
        'symmetry': '3b5dec09ce6ba0d8',
        'measure': 'a6b253792add8fb4',
        'curve': '61b534561fe19ab4',
    },
    'tribes:k=1,m=4': {
        'arity': 4,
        'monotone': True,
        'oracle': '6c014c89abbc90a6',
        'table': '045383bc387942a5',
        'counts': 'be02ad1cd2f61b6b',
        'symmetry': 'cd8624a487a61512',
        'measure': '29fed771a8ee8efd',
        'curve': 'bdc6e3618f344e7b',
    },
    'tribes:k=2,m=1': {
        'arity': 2,
        'monotone': True,
        'oracle': 'b40711a88c703975',
        'table': '6cc16abd70eefb90',
        'counts': 'bc7d65f4cb5778d2',
        'symmetry': '229b2238d0b2bbed',
        'measure': 'e98b7f598729bdc8',
        'curve': '06d45c0412029c4b',
    },
    'tribes:k=2,m=3': {
        'arity': 6,
        'monotone': True,
        'oracle': '7ce2519d2f824027',
        'table': '3b5174558a9f4acb',
        'counts': 'b43008087230956c',
        'symmetry': '07265ab8cc3148e0',
        'measure': '14fab53425c9ae45',
        'curve': '5e7a8a4c3d2d394d',
    },
    'tribes:k=3,m=3': {
        'arity': 9,
        'monotone': True,
        'oracle': 'b65387ebb7a0f53e',
        'table': '1ae46a4237d4674f',
        'counts': '48ae071d058a6275',
        'symmetry': '1538115813c50837',
        'measure': '37148b8345f0923e',
        'curve': '805be6584f57055e',
    },
    'tribes:k=4,m=3': {
        'arity': 12,
        'monotone': True,
        'oracle': '2ad3bfb0f0700245',
        'table': '263624b65698a74e',
        'counts': '20b59787ca7a8e9c',
        'symmetry': '28e40f5367669e87',
        'measure': '9d045e360f1f3983',
        'curve': 'e1484af68e7ce8b9',
    },
    'cyclic_run:n=1,len=1': {
        'arity': 1,
        'monotone': True,
        'oracle': 'b413f47d13ee2fe6',
        'table': 'd86e8112f3c4c444',
        'counts': 'ccb1ac866b7d8de3',
        'symmetry': 'b5cc4cbeca42b6b7',
        'measure': '725731a2a7e34985',
        'curve': '3b8d81ec6f562daa',
    },
    'cyclic_run:n=3,len=1': {
        'arity': 3,
        'monotone': True,
        'oracle': '58b152dbcbf85e13',
        'table': '9955b5881aaa5ec3',
        'counts': '865b0950afc0e0fb',
        'symmetry': '114e856aca999f5a',
        'measure': '183e23c518106a90',
        'curve': '8c1ee38fe144c57c',
    },
    'cyclic_run:n=5,len=2': {
        'arity': 5,
        'monotone': True,
        'oracle': 'ae080bbe1651a4b4',
        'table': 'c5cd27da8fe288e5',
        'counts': '6609ec356ede995e',
        'symmetry': 'f088d54f27c976af',
        'measure': '5758e01ba0334f66',
        'curve': '6c414f03764e86ac',
    },
    'cyclic_run:n=6,len=6': {
        'arity': 6,
        'monotone': True,
        'oracle': '90f4b39548df55ad',
        'table': 'e6ad6c9a3a3b7658',
        'counts': '85fb8edf0968b1d8',
        'symmetry': '7bb782ae06ad7bae',
        'measure': 'cdfe3ef79c16c1e4',
        'curve': 'af913dc71c9a0497',
    },
    'cyclic_run:n=9,len=3': {
        'arity': 9,
        'monotone': True,
        'oracle': '60ea98f13bef9356',
        'table': 'b83478ae01fa26b8',
        'counts': 'a388c7192f18aaf9',
        'symmetry': '5e7d4de3881e0627',
        'measure': '5dd9c0e7d434599c',
        'curve': '79f61b7dadf6f59c',
    },
    'cyclic_run:n=12,len=4': {
        'arity': 12,
        'monotone': True,
        'oracle': '25b3f7ed70183680',
        'table': '44a1ad179fadffb1',
        'counts': '76f7cd25def51001',
        'symmetry': 'fbf4e3c0f3f956c2',
        'measure': '4763db9c5f581ed9',
        'curve': '5c0ea3f49828202c',
    },
    'dictator:n=100,i=37': {
        'arity': 100,
        'monotone': True,
        'oracle': '802548ada7e65cec',
        'curve': '3b8d81ec6f562daa',
    },
    'and_all:n=40': {
        'arity': 40,
        'monotone': True,
        'oracle': '076a27c79e5ace2a',
        'curve': 'cc5b44dad19e4b52',
    },
    'or_all:n=64': {
        'arity': 64,
        'monotone': True,
        'oracle': '6caf38d537984e26',
        'curve': '0789db965fcb0ec5',
    },
    'majority:n=101': {
        'arity': 101,
        'monotone': True,
        'oracle': 'd927e6edcadfc9b1',
        'curve': 'arity 101 exceeds the dense-table cap 24; use a closed-form family or the Monte Carlo estimators',
    },
    'parity:n=70': {
        'arity': 70,
        'monotone': False,
        'oracle': '70d7397a19a19d7e',
        'curve': 'arity 70 exceeds the dense-table cap 24; use a closed-form family or the Monte Carlo estimators',
    },
    'tribes:k=3,m=10': {
        'arity': 30,
        'monotone': True,
        'oracle': 'f798e5ce41056932',
        'curve': 'b403e8f5afaf984e',
    },
    'cyclic_run:n=40,len=5': {
        'arity': 40,
        'monotone': True,
        'oracle': '34c5a29384b05c42',
        'curve': 'arity 40 exceeds the dense-table cap 24; use a closed-form family or the Monte Carlo estimators',
    },
    'connectivity:m=2': {
        'arity': 1,
        'monotone': True,
        'oracle': 'b413f47d13ee2fe6',
        'table': 'd86e8112f3c4c444',
        'counts': 'ccb1ac866b7d8de3',
        'symmetry': '752fea3a3eecba26',
        'measure': '725731a2a7e34985',
        'curve': '3b8d81ec6f562daa',
    },
    'connectivity:m=3': {
        'arity': 3,
        'monotone': True,
        'oracle': '6fa1038404fd3fb9',
        'table': 'ac4fc487af43d394',
        'counts': 'b215b263c90f9578',
        'symmetry': '623977de8f0fba62',
        'measure': '83b12aec2fe64d40',
        'curve': 'd757f47eeb5552e5',
    },
    'connectivity:m=4': {
        'arity': 6,
        'monotone': True,
        'oracle': '308f5d48e216dd9d',
        'table': '0f4921f398a80f52',
        'counts': '49d720fa97f4eff0',
        'symmetry': 'b1922c3dfcc896dd',
        'measure': 'c9da2a17ce5cddc6',
        'curve': 'cf48eb76da596564',
    },
    'connectivity:m=5': {
        'arity': 10,
        'monotone': True,
        'oracle': 'f89aa3278ca0e395',
        'table': 'fb900bd3e1e2de75',
        'counts': '1e7bc09f095d3b5a',
        'symmetry': '1febb97376ab4468',
        'measure': '4a441fb22570259d',
        'curve': '0c17c906885260ab',
    },
    'connectivity:m=6': {
        'arity': 15,
        'monotone': True,
        'oracle': '4d2aee59410d6816',
        'table': '250e7e349b897872',
        'counts': '538052f23f8357e0',
        'symmetry': '54a62ffa48f85ee1',
        'measure': '6684f141780877ea',
        'curve': 'fe73a7aca552eba2',
    },
    'connectivity:m=16': {
        'arity': 120,
        'monotone': True,
        'oracle': '6caf38d537984e26',
        'curve': 'arity 120 exceeds the dense-table cap 24; use a closed-form family or the Monte Carlo estimators',
    },
}


@pytest.mark.parametrize("case", DENSE_GRID + SAMPLED_GRID, ids=_case_id)
def test_kind_matches_its_reference(case):
    kind, params = case
    spec = family_spec(kind, **params)
    got = _fingerprint(spec, dense=case in DENSE_GRID)
    assert got == REFERENCE[_case_id(case)]


# the sampled-grid oracles on ``_window_points``: (rows that read 1, digest)
WINDOW_REFERENCE = {
    'dictator:n=100,i=37': (256, '1f412b0b37260d78'),
    'and_all:n=40': (273, '8925d3abd103dfca'),
    'or_all:n=64': (256, '9fb7cd0d8e68865b'),
    'majority:n=101': (238, '1d8978aa71feefd2'),
    'parity:n=70': (252, 'fd8e19b771e8f028'),
    'tribes:k=3,m=10': (247, '642bb1a5ae185996'),
    'cyclic_run:n=40,len=5': (235, '914ede82bb502664'),
    'connectivity:m=16': (270, '4ee3c6ae5072141a'),
}


@pytest.mark.parametrize("case", SAMPLED_GRID, ids=_case_id)
def test_oracle_in_the_transition_window(case):
    kind, params = case
    spec = family_spec(kind, **params)
    got = np.asarray(mc.family_oracle(spec).evaluate_batch(_window_points(kind, spec.arity)))
    ones = int(got.sum())
    # both values, so a constant oracle cannot match
    assert 0 < ones < BATCH_ROWS
    assert (ones, _digest(got.tobytes())) == WINDOW_REFERENCE[_case_id(case)]


@pytest.mark.parametrize("case", DENSE_GRID + SAMPLED_GRID, ids=_case_id)
def test_string_round_trip(case):
    kind, params = case
    spec = family_spec(kind, **params)
    assert spec.to_string() == _case_id(case)
    assert parse_family_string(spec.to_string()) == spec


@pytest.mark.parametrize("case", DENSE_GRID, ids=_case_id)
def test_constructor_is_the_built_family(case):
    kind, params = case
    f = build_family(family_spec(kind, **params))
    g = CONSTRUCTORS[kind](*params.values())
    assert f.n == g.n
    assert (f.table == g.table).all()
    # monotone by construction, except parity, which is monotone only at n = 1
    assert is_monotone(f) == (family_spec(kind, **params).monotone or f.n == 1)


@pytest.mark.parametrize("case", [c for c in DENSE_GRID
                                  if family_spec(c[0], **c[1]).arity <= ALL_POINTS_ARITY],
                         ids=_case_id)
def test_oracle_is_the_table(case):
    kind, params = case
    spec = family_spec(kind, **params)
    got = mc.family_oracle(spec).evaluate_batch(_oracle_points(spec.arity))
    assert got.dtype == np.uint8
    assert (got == build_family(spec).table).all()


def test_family_names_and_order():
    assert FAMILY_NAMES == (
        "dictator", "and_all", "or_all", "majority", "parity", "tribes", "cyclic_run",
        "connectivity",
    )
    assert {kind for kind, _ in DENSE_GRID} == set(FAMILY_NAMES)
    assert {kind for kind, _ in SAMPLED_GRID} == set(FAMILY_NAMES)
    assert set(WINDOW_BIAS) == set(FAMILY_NAMES)


ERRORS = [
    (lambda: family_spec("nosuch", n=4), "unknown family 'nosuch'"),
    (lambda: family_spec("tribes", n=4),
     "family 'tribes' takes parameters ('k', 'm'), got ('n',)"),
    (lambda: family_spec("or", m=3), "family 'or_all' takes parameters ('n',), got ('m',)"),
    (lambda: family_spec("dictator", i=2, n=5, k=1),
     "family 'dictator' takes parameters ('n', 'i'), got ('i', 'n', 'k')"),
    (lambda: parse_family_string("tribes:k=2"), "malformed family string 'tribes:k=2'"),
    (lambda: parse_family_string("majority:n=4"), "malformed family string 'majority:n=4'"),
    (lambda: parse_family_string("or_all:n=x"), "malformed family string 'or_all:n=x'"),
    (lambda: dictator(5, 9), "coordinate 9 out of range for arity 5"),
    (lambda: dictator(0, 0), "coordinate 0 out of range for arity 0"),
    (lambda: majority(0), "majority requires odd arity"),
    (lambda: tribes(0, 0), "tribes requires k >= 1 and m >= 1"),
    (lambda: cyclic_run(0, 0), "run length must satisfy 1 <= length <= n"),
    (lambda: connectivity(1), "connectivity needs at least 2 vertices"),
    (lambda: or_all(0), "arity must be at least 1"),
    (lambda: parity(-1), "arity must be at least 1"),
    (lambda: build_family(family_spec("or_all", n=30)),
     "arity 30 exceeds the dense-table cap 24; use a closed-form family or the "
     "Monte Carlo estimators"),
    (lambda: build_family(family_spec("connectivity", m=8)),
     "arity 28 exceeds the dense-table cap 24; use a closed-form family or the "
     "Monte Carlo estimators"),
    (lambda: bias_at_level(family_spec("parity", n=4), 0.5), "bisection requires a monotone set"),
    (lambda: FamilySpec("or_all", (("n", 5.5),)),
     "family 'or_all' parameter n must be an int, got 5.5"),
    (lambda: FamilySpec("or_all", (("n", True),)),
     "family 'or_all' parameter n must be an int, got True"),
    (lambda: FamilySpec("or_all", (("n", "5"),)),
     "family 'or_all' parameter n must be an int, got '5'"),
    # family_spec converts only integers, so a constructor truncates nothing;
    # a third entry is the id of a case whose message an earlier case has
    (lambda: family_spec("or_all", n=5.5), "family 'or_all' parameter n must be an int, got 5.5",
     "family_spec('or_all', n=5.5)"),
    (lambda: tribes(2.5, 3), "family 'tribes' parameter k must be an int, got 2.5"),
    (lambda: majority(5.0), "family 'majority' parameter n must be an int, got 5.0"),
]


@pytest.mark.parametrize("call, message", [case[:2] for case in ERRORS],
                         ids=[case[-1] for case in ERRORS])
def test_error_messages(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


def test_numpy_integer_parameters_build():
    f = or_all(np.int64(5))
    assert f.n == 5 and type(f.n) is int
    assert (f.table == or_all(5).table).all()


def _connected_rows(m: int, b: np.ndarray) -> np.ndarray:
    # union-find over each row's edges, in ``_edges`` order
    edges = [(u, v) for u in range(m) for v in range(u + 1, m)]
    out = []
    for row in b:
        root = list(range(m))

        def find(a):
            while root[a] != a:
                a = root[a]
            return a

        for (u, v), bit in zip(edges, row):
            if bit:
                root[find(u)] = find(v)
        out.append(len({find(a) for a in range(m)}) == 1)
    return np.array(out)


def _cyclic_rows(n: int, length: int, b: np.ndarray) -> np.ndarray:
    return np.array([any(all(row[(s + o) % n] for o in range(length)) for s in range(n))
                     for row in b])


# each kind's truth per row in its plain form: int64 sums, any/all
PLAIN_PREDICATES = {
    "dictator": lambda b, n, i: b[:, i - 1] != 0,
    "and_all": lambda b, n: b.all(axis=1),
    "or_all": lambda b, n: b.any(axis=1),
    "majority": lambda b, n: b.sum(axis=1, dtype=np.int64) > n // 2,
    "parity": lambda b, n: (b.sum(axis=1, dtype=np.int64) & 1) != 0,
    "tribes": lambda b, k, m: b.reshape(b.shape[0], m, k).all(axis=2).any(axis=1),
    "cyclic_run": lambda b, n, length: _cyclic_rows(n, length, b),
    "connectivity": lambda b, m: _connected_rows(m, b),
}


def _agreement_batch(n: int, rows: int) -> np.ndarray:
    """0/1 rows at biases spread over [0, 1], all-0 and all-1 rows included,
    then the rows holding the first n // 2 and n // 2 + 1 coordinates."""
    rng = np.random.default_rng(40051 + n)
    biases = np.linspace(0.0, 1.0, rows)[:, None]
    b = (rng.random((rows, n)) < biases).astype(np.uint8)
    steps = (np.arange(n) < np.array([[n // 2], [n // 2 + 1]])).astype(np.uint8)
    return np.concatenate([b, steps])


# sums past 255 and past 65,535 at the arities next to them, so that an
# accumulator narrower than its arity wraps and reads a wrong row
WIDE_GRID = [(kind, {"n": n}) for kind in ("majority", "parity")
             for n in (255, 257, 65_535, 65_537)]


@pytest.mark.parametrize("case", DENSE_GRID + SAMPLED_GRID + WIDE_GRID, ids=_case_id)
def test_predicate_matches_its_plain_form(case):
    kind, params = case
    spec = family_spec(kind, **params)
    b = _agreement_batch(spec.arity, 6 if spec.arity > 1000 else 64)
    want = PLAIN_PREDICATES[kind](b, *params.values())
    got = np.asarray(family_predicate(spec)(b))
    assert got.shape == want.shape and np.array_equal(got, want)
    assert want.any() and not want.all()
