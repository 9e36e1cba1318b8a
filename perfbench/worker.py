"""One workload process: set up, run the workload's CLI calls once, check
every output, and print one JSON line of measurements.

Usage: python3 perfbench/worker.py --workload NAME --seed N [--trace] [--setup-only]

Set-up is interpreter start, importing ``biascube.cli`` from ``src/`` of
the checkout, and generating the seeded inputs; the line reports the
``time.monotonic()`` reading at its end so the parent, which read the same
clock just before starting this process, can time it. The calls then run
in process through ``biascube.cli.main(argv)`` with stdout captured. With
``--trace`` the layer functions are wrapped first (see tracer.py) and the
line also carries the per-layer metrics.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from biascube import cli  # noqa: E402

import workloads  # noqa: E402


def cpu_seconds() -> float:
    """User plus system CPU of this process, all threads included."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def run_call(argv) -> tuple[int, str]:
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(argv))
    except SystemExit as exc:  # argparse rejects bad flags this way
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # the run must go on and report the failure
        traceback.print_exc()
        code = -1
    return code, buf.getvalue()


def judge(call, code: int, out: str) -> list:
    try:
        return call.check(out, code)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        print(f"{call.command}: unreadable output: {exc!r}", file=sys.stderr)
        return [("readable_output", False)]


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    calls = workloads.WORKLOADS[args.workload](args.seed)
    record = {"setup_done": time.monotonic()}
    if args.setup_only:
        print(json.dumps(record))
        return

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    outputs = []
    cpu0 = cpu_seconds()
    start = time.perf_counter()
    for call in calls:
        outputs.append(run_call(call.argv))
    wall = time.perf_counter() - start
    cpu = cpu_seconds() - cpu0

    checks = []
    samples = 0
    for call, (code, out) in zip(calls, outputs):
        for name, passed in judge(call, code, out):
            checks.append([f"{call.command}:{name}", bool(passed)])
        if code == 0:
            samples += call.samples(out)

    record.update(
        wall_s=wall,
        cpu_s=cpu,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        samples=samples,
        output_bytes=sum(len(out.encode()) for _, out in outputs),
        checks=checks,
    )
    if tracer is not None:
        record["layers"] = {**tracer.metrics(), "cli.output_bytes": record["output_bytes"]}
    print(json.dumps(record))


if __name__ == "__main__":
    main()
