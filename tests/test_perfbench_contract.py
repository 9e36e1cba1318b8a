"""The benchmark's tracer looks up a few private functions by name.

``perfbench/tracer.py`` wraps every public function of the layer modules
plus the private ones its ``EXTRA`` table names, and reads sample counts
from fixed argument positions. It sums ``booleans.build_s`` over the
family constructors by name, and swaps the ``evaluate_batch`` of every
oracle that ``mc.family_oracle`` returns with ``dataclasses.replace``. A
rename, a reordered signature or an oracle of another shape would make
``Tracer.install`` raise or a per-layer figure read nothing, so these checks
read the tables from the source with ``ast`` (without importing
``perfbench``) and compare them with the package.
"""

import ast
import dataclasses
import importlib
import inspect
from pathlib import Path

import numpy as np

from biascube import mc
from biascube.booleans import FAMILY_NAMES, family_spec

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

# argument the tracer reads as the sample count, by position
COUNT_POSITION = {"mc._count_hits": 2, "mc._count_fiber_splits": 3}


def _tracer_tables() -> dict:
    tables = {}
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name) and target.id in ("LAYERS", "EXTRA", "SELF_TIME"):
                tables[target.id] = ast.literal_eval(node.value)
    return tables


def test_extra_names_exist_in_their_modules():
    tables = _tracer_tables()
    layers, extra = tables["LAYERS"], tables["EXTRA"]
    assert extra, "tracer.py no longer has an EXTRA table"
    for layer, names in extra.items():
        module = importlib.import_module(layers[layer])
        for name in names:
            assert inspect.isfunction(getattr(module, name, None)), f"{layers[layer]}.{name}"


def test_sampler_count_sits_at_the_traced_position():
    tables = _tracer_tables()
    for full, position in COUNT_POSITION.items():
        layer, name = full.split(".")
        assert name in tables["EXTRA"][layer]
        fn = getattr(importlib.import_module(tables["LAYERS"][layer]), name)
        assert list(inspect.signature(fn).parameters)[position] == "count", full


def test_build_time_names_functions_of_booleans():
    tables = _tracer_tables()
    booleans = importlib.import_module(tables["LAYERS"]["booleans"])
    names = tables["SELF_TIME"]["booleans.build_s"]
    assert names, "tracer.py no longer sums booleans.build_s"
    for full in names:
        layer, name = full.split(".", 1)
        assert layer == "booleans", full
        # the tracer wraps functions, cached ones (``popcounts``) included
        obj = getattr(booleans, name, None)
        assert inspect.isfunction(inspect.unwrap(obj)), full
        assert obj.__module__ == booleans.__name__, full


def _swaps_family_oracle_on_return() -> bool:
    for node in ast.walk(ast.parse(TRACER.read_text())):
        if isinstance(node, ast.Dict):
            for key, value in zip(node.keys, node.values):
                if (isinstance(key, ast.Constant) and key.value == "mc.family_oracle"
                        and isinstance(value, ast.Dict)):
                    return any(isinstance(k, ast.Constant) and k.value == "on_return"
                               for k in value.keys)
    return False


# one small instance of each kind
SMALL = {
    "dictator": {"n": 4, "i": 2},
    "and_all": {"n": 4},
    "or_all": {"n": 4},
    "majority": {"n": 5},
    "parity": {"n": 4},
    "tribes": {"k": 2, "m": 2},
    "cyclic_run": {"n": 4, "len": 2},
}


def test_family_oracle_evaluate_batch_can_be_swapped():
    assert _swaps_family_oracle_on_return(), "tracer.py no longer hooks mc.family_oracle"
    assert set(SMALL) == set(FAMILY_NAMES)
    for kind in FAMILY_NAMES:
        oracle = mc.family_oracle(family_spec(kind, **SMALL[kind]))
        assert isinstance(oracle, mc.OracleFunction), kind
        seen = []

        def traced(bits, inner=oracle.evaluate_batch):
            seen.append(len(bits))
            return inner(bits)

        swapped = dataclasses.replace(oracle, evaluate_batch=traced)
        assert swapped.n == oracle.n and swapped.name == oracle.name
        points = np.ones((3, oracle.n), dtype=np.uint8)
        assert (swapped.evaluate_batch(points) == oracle.evaluate_batch(points)).all()
        assert seen == [3], kind
