"""Spans and counts at the boundaries of biascube's modules, recorded from
outside the program.

``Tracer.install()`` replaces every public function of each layer module
(plus the few private ones named in ``EXTRA``) with a wrapper that records a
span: name, start, end, parent span and thread. The wrapper is put in every
``biascube`` module namespace that holds the original, and in module-level
dispatch tables, so ``biascube.threshold.expectation`` is traced as well as
``biascube.measure.expectation``. Counts are taken at the same boundaries
from arguments and return values. Spans stay in memory; ``metrics()``
derives the per-layer figures from them when the run ends.

Self time of a span is its duration minus the durations of its child spans
on the same thread. Spans opened on a worker thread with no open span of
their own take the innermost open span of the tracing thread as parent: the
benchmark is the only client, so that span is the estimator that started
the workers. Busy times summed across worker threads may exceed wall time.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import sys
import threading
import time
from collections import Counter, defaultdict

import numpy as np
from workloads import SUITES, command_key

LAYERS = {
    "booleans": "biascube.booleans",
    "measure": "biascube.measure",
    "kernels": "biascube._kernels",
    "threshold": "biascube.threshold",
    "bounds": "biascube.bounds",
    "martingale": "biascube.martingale",
    "suites": "biascube.suites",
    "mc": "biascube.mc",
    "cli": "biascube.cli",
}

# private functions that mark a layer boundary the metrics need
EXTRA = {
    "threshold": ("_bisect",),
    "mc": ("_count_hits", "_count_fiber_splits"),
}

SUITE_FUNCTIONS = {suite: "suite_" + suite.replace("-", "_") for suite in SUITES}

CLI_COMMANDS = ("analyze", "sweep", "threshold", "verify", "mc-mu", "mc-influence", "mc-threshold")

# metric -> span names whose self time it sums
SELF_TIME = {
    "booleans.build_s": ("booleans.dictator", "booleans.and_all", "booleans.or_all",
                         "booleans.majority", "booleans.parity", "booleans.tribes",
                         "booleans.cyclic_run", "booleans.build_family",
                         "booleans.random_function", "booleans.random_monotone_function",
                         "booleans.popcounts"),
    # validation is the explicit-table entry points plus the table
    # constructor's own 0/1 check, which every build passes through
    "booleans.validate_s": ("booleans.make_from_table", "booleans.parse_table_string",
                            "booleans.BooleanFunction.__post_init__"),
    "booleans.structure_s": ("booleans.is_monotone", "booleans.is_fully_symmetric",
                             "booleans.is_invariant", "booleans.is_transitive",
                             "booleans.is_invariant_and_transitive"),
    "measure.weights_s": ("measure.weights",),
    "measure.expectation_s": ("measure.expectation",),
    "measure.influences_s": ("measure.influences", "measure.influence"),
    "measure.derivative_s": ("measure.expectation_derivative",),
    "measure.energy_s": ("measure.dirichlet_energy",),
    "measure.entropy_s": ("measure.entropy",),
    "measure.variance_s": ("measure.variance",),
    "kernels.influence_s": ("kernels.batch_influences",),
    "kernels.connectivity_s": ("kernels.connected_batch",),
    "bounds.width_check_s": ("bounds.width_bound_check",),
    "bounds.derivative_check_s": ("bounds.derivative_bound_check",),
    "bounds.influence_scan_s": ("bounds.max_influence_bound_check",
                                "bounds.max_influence_bound_scan"),
    "martingale.decompose_s": ("martingale.decompose", "martingale.conditional_expectation"),
}

# metric -> span names whose whole duration it sums
TOTAL_TIME = {
    "threshold.width_s": ("threshold.threshold_width",),
    **{f"suites.{suite}_s": (f"suites.{fn}",) for suite, fn in SUITE_FUNCTIONS.items()},
    **{f"cli.{command}_s": (f"cli.main[{command}]",) for command in CLI_COMMANDS},
}

# metric -> span name whose calls it counts
CALLS = {
    "booleans.tables_built": "booleans.BooleanFunction.__post_init__",
    "measure.weights_calls": "measure.weights",
    "measure.expectation_calls": "measure.expectation",
    "measure.energy_calls": "measure.dirichlet_energy",
    "threshold.width_calls": "threshold.threshold_width",
    "bounds.width_check_calls": "bounds.width_bound_check",
    "martingale.decompose_calls": "martingale.decompose",
}

ORACLE = "mc.oracle"
SAMPLER_CHUNKS = ("mc._count_hits", "mc._count_fiber_splits")


def _rows(array) -> int:
    return int(np.shape(array)[0])


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, start, end, parent, thread)
        self.counts: Counter = Counter()
        self._local = threading.local()
        self._home = threading.get_ident()
        self._home_stack: list[int] = []
        self._next_id = 0
        self._lock = threading.Lock()

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._home_stack if threading.get_ident() == self._home else []
            self._local.stack = stack
        return stack

    def _open(self, stack: list[int]) -> tuple[int, int | None]:
        with self._lock:
            sid = self._next_id
            self._next_id += 1
        if stack:
            parent = stack[-1]
        else:
            try:
                parent = self._home_stack[-1]
            except IndexError:
                parent = None
        stack.append(sid)
        return sid, parent

    def wrap(self, fn, name: str, count=None, label=None, on_return=None):
        """Traced stand-in for fn.

        ``count(args, ret)`` yields (counter, amount) pairs; ``label(args)``
        suffixes the span name; ``on_return(ret)`` may replace the result.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            sid, parent = self._open(stack)
            start = time.perf_counter()
            try:
                ret = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                span_name = f"{name}[{label(args)}]" if label else name
                self.spans.append((sid, span_name, start, end, parent, threading.get_ident()))
            if count is not None:
                with self._lock:  # chunk counts arrive from worker threads
                    for key, amount in count(args, ret):
                        self.counts[key] += amount
            return on_return(ret) if on_return is not None else ret

        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap the layer functions in every biascube namespace."""
        import biascube.cli  # noqa: F401  (loads every layer module)
        from biascube import booleans

        hooks = self._hooks()
        replacements = {}
        for layer, modname in LAYERS.items():
            module = sys.modules[modname]
            names = [name for name, obj in vars(module).items()
                     if not name.startswith("_") and _defined_in(obj, modname)]
            names += list(EXTRA.get(layer, ()))
            for name in names:
                original = getattr(module, name)
                full = f"{layer}.{name}"
                replacements[id(original)] = (original, self.wrap(original, full, **hooks.get(full, {})))

        post_init = booleans.BooleanFunction.__post_init__
        booleans.BooleanFunction.__post_init__ = self.wrap(
            post_init, "booleans.BooleanFunction.__post_init__")

        for modname, module in list(sys.modules.items()):
            if modname != "biascube" and not modname.startswith("biascube."):
                continue
            for attr, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        hit = replacements.get(id(item))
                        if hit is not None and hit[0] is item:
                            value[key] = hit[1]

    def _hooks(self) -> dict:
        def traced_oracle(oracle):
            return dataclasses.replace(
                oracle, evaluate_batch=self.wrap(oracle.evaluate_batch, ORACLE))

        def estimate(args, ret):
            yield "mc.evaluations", ret.samples

        def level_search(args, ret):
            yield "mc.evaluations", ret.evaluations
            yield "mc.level_steps", ret.steps
            yield "mc.flagged", int(ret.flagged)

        return {
            "kernels.batch_influences": {
                "count": lambda a, r: [("kernels.influence_tables", _rows(a[0]))]},
            "kernels.connected_batch": {
                "count": lambda a, r: [("kernels.connectivity_samples", _rows(a[0]))]},
            "threshold._bisect": {
                "count": lambda a, r: [("threshold.bisect_iterations", r[1])]},
            "mc._count_hits": {"count": lambda a, r: [("mc.sampled_points", a[2])]},
            "mc._count_fiber_splits": {"count": lambda a, r: [("mc.sampled_points", a[3])]},
            "mc.estimate_mu": {"count": estimate},
            "mc.estimate_influence": {"count": estimate},
            "mc.mc_p_of_alpha": {"count": level_search},
            "mc.family_oracle": {"on_return": traced_oracle},
            "mc.connectivity_oracle": {"on_return": traced_oracle},
            "cli.main": {"label": lambda a: command_key(a[0])},
        }

    # -- derived metrics ---------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics from the recorded spans and counts."""
        by_id = {s[0]: s for s in self.spans}
        child_time = defaultdict(float)
        for sid, _, start, end, parent, thread in self.spans:
            owner = by_id.get(parent)
            if owner is not None and owner[5] == thread:
                child_time[parent] += end - start
        self_time = defaultdict(float)
        total_time = defaultdict(float)
        calls = Counter()
        for sid, name, start, end, _, _ in self.spans:
            self_time[name] += (end - start) - child_time[sid]
            total_time[name] += end - start
            calls[name] += 1

        out: dict[str, float] = {}
        for metric, names in SELF_TIME.items():
            out[metric] = sum(self_time[n] for n in names)
        for metric, names in TOTAL_TIME.items():
            out[metric] = sum(total_time[n] for n in names)
        for metric, name in CALLS.items():
            out[metric] = calls[name]

        for key in ("kernels.influence_tables", "kernels.connectivity_samples",
                    "threshold.bisect_iterations", "mc.evaluations", "mc.level_steps",
                    "mc.flagged"):
            out[key] = self.counts[key]
        out["kernels.connectivity_ns_per_sample"] = _per_sample(
            out["kernels.connectivity_s"], out["kernels.connectivity_samples"])

        oracle_s = total_time[ORACLE]
        out["mc.oracle_s"] = oracle_s
        out["mc.sampler_s"] = sum(total_time[n] for n in SAMPLER_CHUNKS) - oracle_s
        out["mc.sampler_ns_per_sample"] = _per_sample(
            out["mc.sampler_s"], self.counts["mc.sampled_points"])

        out["cli.self_s"] = sum(t for n, t in self_time.items() if n.startswith("cli."))
        return out


def _per_sample(seconds: float, samples: int) -> float:
    return seconds * 1e9 / samples if samples else 0.0


def _defined_in(obj, modname: str) -> bool:
    if isinstance(obj, type) or not callable(obj):
        return False
    return getattr(obj, "__module__", None) == modname and (
        inspect.isfunction(obj) or hasattr(obj, "__wrapped__"))
