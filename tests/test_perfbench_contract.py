"""The benchmark's tracer looks up a few private functions by name.

``perfbench/tracer.py`` wraps every public function of the layer modules
plus the private ones its ``EXTRA`` table names, and reads sample counts
from fixed argument positions. A rename or a reordered signature would make
``Tracer.install`` raise or the per-layer counts read the wrong argument, so
these checks read the table from the source with ``ast`` (without importing
``perfbench``) and compare it with the package.
"""

import ast
import importlib
import inspect
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

# argument the tracer reads as the sample count, by position
COUNT_POSITION = {"mc._count_hits": 2, "mc._count_fiber_splits": 3}


def _tracer_tables() -> dict:
    tables = {}
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name) and target.id in ("LAYERS", "EXTRA"):
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
