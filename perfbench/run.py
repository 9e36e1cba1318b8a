"""biascube benchmark: runs one workload and prints its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload dense-exact --seed 1 --seconds 30 --trace 0

Workloads (defined in workloads.py): ``dense-exact``, ``mc-level``,
``verify-all``. Each repetition of a workload runs in a fresh process
(worker.py) that imports ``biascube`` from ``src/`` and drives the public CLI
entry point. With ``--trace 0`` the run repeats the workload until
``--seconds`` is spent (at least three times) and reports the end-to-end
metrics named in BENCHMARK.json as medians over repetitions; extra
set-up-only processes bring the set-up samples to at least eleven. With
``--trace 1`` it makes one untraced and two traced repetitions at the same
seed and reports the per-layer metrics, the tracing overhead, and a failed
check for any count that does not repeat exactly.

The last line of stdout is one JSON object: ``correct``, ``attempted`` and
``failed`` (output checks, whose ratio is the failed fraction) and
``metrics``. Lines above it print every metric with its unit and sample
count, the seeds, and the machine.
"""

import os

# Runs use two compute threads, as `mc threshold --workers 2` does: the BLAS
# pool is pinned before numpy loads, here and in the workers, which inherit
# this environment. Workers compile no bytecode into the checkout.
THREADS = "2"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ[_var] = THREADS
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

sys.dont_write_bytecode = True

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

MIN_REPS = 3
MIN_SETUPS = 11
TRACED_REPS = 2
DEADLINE_S = 170.0  # the whole run ends within 180 s

# end-to-end metric -> the per-repetition value it is the median of
PER_REP = {
    "wall_s": lambda r: r["wall_s"],
    "cpu_s": lambda r: r["cpu_s"],
    "peak_rss_mb": lambda r: r["peak_rss_mb"],
    "samples_per_s": lambda r: r["samples"] / r["wall_s"],
}


class Run:
    """Spawns workload processes for one (workload, seed) and keeps score."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.start = time.monotonic()
        self.setups: list[float] = []
        self.attempted = 0
        self.failed = 0

    def spawn(self, *flags: str) -> dict | None:
        cmd = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", self.workload, "--seed", str(self.seed), *flags]
        remaining = DEADLINE_S - (time.monotonic() - self.start)
        spawned = time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                                  timeout=max(remaining, 1.0))
        except subprocess.TimeoutExpired:  # run() has killed and reaped it
            self.score(f"worker timed out: {' '.join(flags)}", False)
            return None
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            self.score(f"worker exited {proc.returncode}", False)
            return None
        record = json.loads(lines[-1])
        self.setups.append(record["setup_done"] - spawned)
        for name, passed in record.get("checks", ()):
            self.score(name, passed)
        return record

    def score(self, name: str, passed: bool) -> None:
        self.attempted += 1
        if not passed:
            self.failed += 1
            print(f"check failed: {name}", file=sys.stderr)

    def out_of_time(self) -> bool:
        return time.monotonic() - self.start > DEADLINE_S - 5.0

    def fill_setups(self) -> None:
        while len(self.setups) < MIN_SETUPS and not self.out_of_time():
            if self.spawn("--setup-only") is None:
                break


def end_to_end(run: Run, seconds: float) -> tuple[dict, dict]:
    reps: list[dict] = []
    started = time.monotonic()
    while True:
        record = run.spawn()
        if record is None:
            break
        reps.append(record)
        elapsed = time.monotonic() - started
        typical = statistics.median(r["wall_s"] for r in reps)
        if len(reps) >= MIN_REPS and elapsed + typical > seconds:
            break
        if run.out_of_time():
            break
    run.fill_setups()
    if not reps:
        return {}, {}
    samples = {name: [fn(r) for r in reps] for name, fn in PER_REP.items()}
    samples["setup_s"] = run.setups
    return {name: statistics.median(v) for name, v in samples.items()}, samples


def per_layer(run: Run, units: dict) -> tuple[dict, dict]:
    untraced = run.spawn()
    traced = [run.spawn("--trace") for _ in range(TRACED_REPS)]
    if untraced is None or None in traced:
        return {}, {}
    values, samples = {}, {}
    for name, unit in units.items():
        if name == "trace.overhead_s":
            continue
        series = [r["layers"][name] for r in traced]
        samples[name] = series
        if unit in ("count", "bytes"):
            # counts must repeat exactly at one seed; a mismatch is a failure
            run.score(f"exact_count:{name} {series}", len(set(series)) == 1)
            values[name] = series[0]
        else:
            values[name] = statistics.median(series)
    overhead = [r["wall_s"] - untraced["wall_s"] for r in traced]
    samples["trace.overhead_s"] = overhead
    values["trace.overhead_s"] = statistics.median(overhead)
    return values, samples


def machine() -> dict:
    import numpy
    import scipy

    try:
        import numba  # noqa: F401

        has_numba = True
    except ImportError:
        has_numba = False
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba_imports": has_numba,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(numpy),
        "last_level_cache": _last_level_cache(),
        "note": "byte counts anywhere in this benchmark are computed from array sizes, "
                "not measured; the reported last-level cache exceeds the 64 MiB n=23 "
                "table, so no bandwidth ratio is claimed",
    }


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _blas_threads(numpy) -> int | None:
    """Thread count the bundled OpenBLAS reports, if it exposes one."""
    import ctypes
    import glob

    libdir = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                getter.argtypes = []
                return int(getter())
    return None


def _last_level_cache() -> str | None:
    base = "/sys/devices/system/cpu/cpu0/cache"
    best = None
    try:
        for entry in sorted(os.listdir(base)):
            if not entry.startswith("index"):
                continue
            with open(os.path.join(base, entry, "level")) as handle:
                level = int(handle.read())
            with open(os.path.join(base, entry, "size")) as handle:
                size = handle.read().strip()
            if best is None or level >= best[0]:
                best = (level, size)
    except (OSError, ValueError):
        return None
    return None if best is None else f"L{best[0]} {best[1]}"


def print_table(values: dict, samples: dict, units: dict) -> None:
    print(f"{'metric':34} {'median':>16} {'unit':6} {'n':>3} {'min':>14} {'max':>14}")
    for name, unit in units.items():
        series = samples[name]
        print(f"{name:34} {values[name]:16.6f} {unit:6} {len(series):3d} "
              f"{min(series):14.6f} {max(series):14.6f}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "biascube", "cli.py")):
        print(f"error: no biascube sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              + ", ".join(workloads.WORKLOADS), file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    group = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in group}

    print(f"biascube benchmark: workload={args.workload} seed={args.seed} "
          f"second_seed={workloads.SECOND_SEED} "
          f"level_search_seed={workloads.LEVEL_SEARCH_SEED} trace={args.trace}")
    print("machine " + json.dumps(machine(), sort_keys=True))

    run = Run(args.workload, args.seed)
    if args.trace:
        values, samples = per_layer(run, units)
    else:
        values, samples = end_to_end(run, args.seconds)
    missing = [name for name in units if name not in values]
    if missing:
        print(f"error: no value for {', '.join(missing)}", file=sys.stderr)
        return 1

    print_table(values, samples, units)
    print(f"checks attempted={run.attempted} failed={run.failed} "
          f"failed_frac={run.failed / max(run.attempted, 1):.6g}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
