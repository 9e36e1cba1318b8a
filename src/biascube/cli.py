"""Command-line front end.

Five subcommands: ``analyze`` (exact one-point report), ``sweep`` (CSV over a
p-grid), ``threshold`` (width and its ceilings), ``verify`` (property
suites), and ``mc`` (sampled estimates for arities the dense path cannot
reach). Single reports are JSON, sweeps are CSV; both open with the same
metadata block (version, seed, RNG id, config echo) so any two runs can be
diffed byte for byte. Floats in CSV are printed with 17 significant digits,
which round-trips IEEE doubles exactly.

Every subcommand names a family the same way: ``--family`` and one flag per
parameter of the kind, ``--<name>``. The flags, the kinds each one's help
names and the values a left-out flag takes all come from the kind records
(``booleans.family_parameters``), so a new kind or parameter needs no edit
here. A left-out flag with no default is refused by its flag, and so is a
flag the kind does not take or one given where no family is named (next
to ``--table``, ``--func`` or without ``--family``); the dictator's ``--i``
defaults to 1. ``mc influence`` reads ``--i`` as the coordinate it
estimates, and passes it to the family only when the kind has a parameter
``i``.

``main`` parses a call with a parser holding only the subcommand it names,
built on that subcommand's first call in the process and kept; its help,
usage and errors are those of the full parser (``build_parser``), which a
call naming no subcommand uses. ``--table`` is read into packed words
(``parse_table_string``), so ``analyze`` counts from them and builds no
0/1 table.

Exit codes: 0 on success, 1 when a verification suite fails, 2 for usage
errors (bad flags, malformed inputs, hypothesis violations) and for running
out of memory, 141 when the reader closes stdout before the output is
written (no traceback).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys

from . import __version__, bounds, mc, suites
from .booleans import (
    FAMILY_NAMES,
    FamilySpec,
    build_family,
    family_parameters,
    family_spec,
    parse_table_string,
)
from .measure import (
    dirichlet_energy,
    entropy,
    expectation,
    expectation_derivative,
    influences,
    level_means,
    variance,
)
from .threshold import threshold_width

_CSV_HEADER = "p,mu,dmu_dp,c_ls,pqcls,thm41_rhs,pass"


class UsageError(Exception):
    pass


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _config_echo(config: dict) -> str:
    return json.dumps(config, sort_keys=True, separators=(",", ":"))


def _emit_json(payload: dict, out) -> None:
    out.write(json.dumps(payload, indent=2))
    out.write("\n")


def _report_head(command: str, config: dict, seed=None, rng=None) -> dict:
    return {
        "version": __version__,
        "command": command,
        "seed": seed,
        "rng": rng,
        "config": config,
    }


@functools.cache
def _family_flags() -> dict[str, list[str]]:
    """Every kind parameter, in order of first appearance in ``FAMILY_NAMES``,
    with the kinds that take it: the family flags are ``--<name>``."""
    return {name: [kind for kind in FAMILY_NAMES if name in family_parameters(kind)]
            for kind in FAMILY_NAMES for name in family_parameters(kind)}


# `mc influence`'s own flag, with its use: the family takes it only when
# the kind has that parameter
_INFLUENCE_FLAGS = {"i": "coordinate to estimate"}


def _flag_list(names) -> str:
    return ", ".join(f"--{name}" for name in names)


def _given_family_flags(args) -> list[str]:
    return [name for name in _family_flags() if getattr(args, name) is not None]


def _refuse_family_flags(args, target: str) -> None:
    """Family flags next to a target that is not a family are refused by
    name, not ignored."""
    given = _given_family_flags(args)
    if given:
        raise UsageError(f"{target} takes no family flags, got {_flag_list(given)}")


def _family_from_flags(args, own=()) -> FamilySpec:
    """The spec the family flags name, a left-out flag taking its kind's
    default, and a flag in ``own`` only when the kind has that parameter.
    A family flag the kind does not take, or given without ``--family``,
    is refused by name."""
    given = _given_family_flags(args)
    if args.family is None:
        named = [name for name in given if name not in own]
        raise UsageError("--family is required" + (f" for {_flag_list(named)}" if named else ""))
    parameters = family_parameters(args.family)
    stray = [name for name in given if name not in parameters and name not in own]
    if stray:
        raise UsageError(f"family {args.family!r} does not take {_flag_list(stray)}; "
                         f"it takes {_flag_list(parameters)}")
    params = {name: getattr(args, name) if name in given else default
              for name, default in parameters.items()}
    missing = [name for name, value in params.items() if value is None]
    if missing:
        raise UsageError(f"family {args.family!r} needs {_flag_list(missing)}")
    return family_spec(args.family, **params)


def _build_target(args):
    """Dense function plus its config echo, from --family or --table flags."""
    if args.family is not None and args.table is not None:
        raise UsageError("give either --family or --table, not both")
    if args.family is not None:
        spec = _family_from_flags(args)
        return build_family(spec), {"family": spec.to_string()}
    if args.table is not None:
        _refuse_family_flags(args, "--table")
        return parse_table_string(args.table), {"table": args.table}
    raise UsageError("one of --family or --table is required")


def _parse_grid(text: str) -> list[float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"malformed grid {text!r}, expected start:stop:step")
    try:
        start, stop, step = (float(t) for t in parts)
    except ValueError:
        raise UsageError(f"malformed grid {text!r}, expected start:stop:step")
    if step <= 0.0 or stop < start:
        raise UsageError("grid needs stop >= start and step > 0")
    count = int(math.floor((stop - start) / step + 1e-9)) + 1
    points = [start + k * step for k in range(count)]
    if points[0] <= 0.0 or points[-1] >= 1.0:
        raise UsageError("grid points must lie strictly inside (0,1)")
    return points


def _check_p(p: float) -> float:
    if not 0.0 < p < 1.0:
        raise UsageError(f"p must lie inside (0,1), got {p}")
    return p


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_analyze(args, out) -> int:
    f, echo = _build_target(args)
    p = _check_p(args.p)
    echo["p"] = p

    payload = _report_head("analyze", echo)
    payload["n"] = f.n
    payload["p"] = p
    payload["mu"] = expectation(f, p)
    payload["variance"] = variance(f, p)
    payload["influences"] = [float(v) for v in influences(f, p)]
    payload["derivative"] = expectation_derivative(f, p)
    payload["energy"] = dirichlet_energy(f, p)
    payload["entropy"] = entropy(f, p)
    try:
        payload["max_influence_bound"] = bounds.max_influence_bound_check(f, p).to_dict()
    except ValueError as exc:
        payload["max_influence_bound"] = None
        payload["bound_note"] = str(exc)
    _emit_json(payload, out)
    return 0


def _sweep_preamble(out, config: dict) -> None:
    out.write(f"# version: {__version__}\n")
    out.write("# seed: none\n")
    out.write("# rng: none\n")
    out.write(f"# config: {_config_echo(config)}\n")
    out.write(_CSV_HEADER + "\n")


def _sweep_output(args, out):
    """Where a sweep writes: ``out``, or the ``--out`` file. A sweep opens it
    only once its inputs are accepted, so a refused one leaves it as it was."""
    if args.out is None:
        return contextlib.nullcontext(out)
    try:
        return open(args.out, "w", newline="")
    except OSError as exc:
        raise UsageError(f"cannot write {args.out}: {exc.strerror or exc}")


def cmd_sweep(args, out) -> int:
    if (args.func is None) == (args.family is None):
        raise UsageError("give exactly one of --func or --family")
    grid = _parse_grid(args.grid)

    # A constant sweep has no set, so mu and dmu_dp are empty; sets that
    # fail the derivative bound's hypotheses, or are constant, leave the
    # last two columns empty.
    f = bound_n = None
    if args.func is not None:
        _refuse_family_flags(args, "--func")
        echo = {"func": args.func}
    else:
        spec = _family_from_flags(args)
        f = build_family(spec)
        echo = {"family": spec.to_string()}
        try:
            bound_n = None if f.is_constant() else bounds.bound_hypotheses(spec)
        except ValueError:
            bound_n = None
    with _sweep_output(args, out) as out:
        _sweep_preamble(out, {**echo, "grid": args.grid})
        for p in grid:
            c = bounds.log_sobolev_constant(p)
            pqc = bounds.scaled_log_sobolev_constant(p)
            row = [_fmt(p), "", "", _fmt(c), _fmt(pqc), "", ""]
            if f is not None:
                mu, mu_bar = level_means(f, p)
                dmu = expectation_derivative(f, p)
                row[1:3] = _fmt(mu), _fmt(dmu)
                if bound_n is not None:
                    rhs = bounds.derivative_bound_rhs(bound_n, p, mu, mu_bar)
                    row[5:] = _fmt(rhs), "true" if dmu >= rhs - 1e-9 else "false"
            out.write(",".join(row) + "\n")
    return 0


def cmd_threshold(args, out) -> int:
    spec = _family_from_flags(args)
    if not spec.monotone:
        raise UsageError("threshold needs a nontrivial monotone family")

    echo = {"family": spec.to_string(), "eps": args.eps}
    payload = _report_head("threshold", echo)
    payload["family"] = spec.to_string()
    payload["eps"] = args.eps
    result = threshold_width(spec, args.eps)
    payload["result"] = result.to_dict()
    try:
        n = bounds.bound_hypotheses(spec)
        tight, plain = bounds.width_bounds(n, result, bounds.WIDTH_TOL)
        payload["width_bounds"] = {
            "scaled_constant": tight.to_dict(),
            "rate": plain.to_dict(),
        }
    except ValueError as exc:
        payload["width_bounds"] = None
        payload["bound_note"] = str(exc)
    _emit_json(payload, out)
    return 0


def cmd_verify(args, out) -> int:
    config = {"suite": args.suite, "trials": args.trials, "p": args.p, "n_max": args.n_max}
    try:
        result = suites.run_suite(
            args.suite, seed=args.seed, trials=args.trials, p=args.p, n_max=args.n_max
        )
    except KeyError as exc:
        raise UsageError(f"unknown suite {exc.args[0]!r}; choose from "
                         + ", ".join(suites.SUITE_NAMES))
    payload = _report_head("verify", config, seed=args.seed, rng=mc.RNG_ID)
    payload["result"] = result
    _emit_json(payload, out)
    return 0 if result["pass"] else 1


def cmd_mc(args, out) -> int:
    spec = _family_from_flags(args, _INFLUENCE_FLAGS if args.mc_command == "influence" else ())
    oracle, echo = mc.family_oracle(spec), {"family": spec.to_string()}
    workers = mc.worker_count(args.workers)
    command = args.mc_command

    if command == "threshold":
        echo.update(alpha=args.alpha, samples_per_step=args.samples_per_step, tol_p=args.tol_p)
    else:
        echo["p"] = p = _check_p(args.p)
        if command == "influence":
            if args.i is None:
                raise UsageError("mc influence needs --i (coordinate index)")
            echo["i"] = args.i
        echo["samples"] = args.samples
    payload = _report_head(f"mc {command}", echo, seed=args.seed, rng=mc.RNG_ID)
    payload["workers"] = workers
    payload["n"] = oracle.n

    if command == "mu":
        estimate = mc.estimate_mu(oracle, p, args.samples, args.seed, workers=workers)
        payload["estimate"] = estimate.to_dict()
    elif command == "influence":
        estimate = mc.estimate_influence(
            oracle, p, args.i, args.samples, args.seed, workers=workers
        )
        payload["estimate"] = estimate.to_dict()
    else:
        result = mc.mc_p_of_alpha(
            oracle, args.alpha, args.samples_per_step, args.tol_p, args.seed, workers=workers
        )
        payload["result"] = result.to_dict()
    _emit_json(payload, out)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_family_flags(parser, include_table: bool = False, own=None) -> None:
    """``--family`` and one flag per kind parameter, each naming the kinds
    that take it; ``own`` maps a flag the subcommand reads itself to that use."""
    parser.add_argument("--family", help="family kind: " + ", ".join(FAMILY_NAMES))
    flags = {name: "parameter of " + ", ".join(kinds) for name, kinds in _family_flags().items()}
    for name, use in (own or {}).items():
        flags[name] = f"{use}; {flags[name]}" if name in flags else use
    for name, help_text in flags.items():
        parser.add_argument(f"--{name}", type=int, help=help_text)
    if include_table:
        parser.add_argument("--table", help="explicit truth table, n=<arity>:hex=<hex>")


def _analyze_flags(parser) -> None:
    _add_family_flags(parser, include_table=True)
    parser.add_argument("--p", type=float, required=True, help="bias in (0,1)")


def _sweep_flags(parser) -> None:
    _add_family_flags(parser)
    parser.add_argument("--func", choices=("cls", "pqcls"),
                        help="constant curve sweep; cls and pqcls print the same rows "
                        "(both constant columns) and differ only in the # config line")
    parser.add_argument("--grid", required=True, help="p-grid as start:stop:step")
    parser.add_argument("--out", help="output path (default stdout)")


def _threshold_flags(parser) -> None:
    _add_family_flags(parser)
    parser.add_argument("--eps", type=float, required=True, help="level in (0, 0.5)")


def _verify_flags(parser) -> None:
    parser.add_argument("--suite", required=True, help="suite name")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trials", type=int, help="random instances per check")
    parser.add_argument("--p", type=float, help="bias override for exhaustive-n4")
    parser.add_argument("--n-max", dest="n_max", type=int, help="largest arity to scan")


def _mc_flags(parser) -> None:
    mcsub = parser.add_subparsers(dest="mc_command", required=True)
    for name, help_text in (
        ("mu", "estimate the measure of the 1-set"),
        ("influence", "estimate one coordinate influence"),
        ("threshold", "bisect for the bias hitting a target level"),
    ):
        pmc = mcsub.add_parser(name, help=help_text)
        _add_family_flags(pmc, own=_INFLUENCE_FLAGS if name == "influence" else None)
        pmc.add_argument("--seed", type=int, default=0)
        pmc.add_argument("--workers", type=int, help=f"default from {mc.WORKERS_ENV}")
        if name in ("mu", "influence"):
            pmc.add_argument("--p", type=float, default=0.5)
            pmc.add_argument("--samples", type=int, default=100_000)
        if name == "threshold":
            pmc.add_argument("--alpha", type=float, required=True)
            pmc.add_argument("--samples-per-step", dest="samples_per_step",
                             type=int, default=4096)
            pmc.add_argument("--tol-p", dest="tol_p", type=float, default=1e-3)


# subcommand -> its help line and the function adding its flags, in the
# order ``biascube -h`` lists them
_SUBCOMMANDS = {
    "analyze": ("exact one-point analysis of a function", _analyze_flags),
    "sweep": ("CSV sweep over a p-grid", _sweep_flags),
    "threshold": ("threshold width and its ceilings", _threshold_flags),
    "verify": ("run a property suite", _verify_flags),
    "mc": ("sampled estimates at any arity", _mc_flags),
}


def _build_parser(names) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="biascube",
        description="Influence, threshold, and functional-inequality analysis "
        "of Boolean functions under biased product measures.",
    )
    # A parser holding fewer subcommands still lists them all on its usage
    # line, which an unrecognized flag after a subcommand prints.
    metavar = None if len(names) == len(_SUBCOMMANDS) else "{%s}" % ",".join(_SUBCOMMANDS)
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        help_text, add_flags = _SUBCOMMANDS[name]
        add_flags(sub.add_parser(name, help=help_text))
    return parser


def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, which ``main`` uses for a call that
    names none (no arguments, ``-h``, an unknown command)."""
    return _build_parser(tuple(_SUBCOMMANDS))


@functools.cache
def _parser(command: str | None) -> argparse.ArgumentParser:
    """The parser for a call naming ``command`` (None: naming none), built
    once per process. A named subcommand's parser holds only that one, and
    prints the same help, usage and errors as ``build_parser()``."""
    return build_parser() if command is None else _build_parser((command,))


_DISPATCH = {
    "analyze": cmd_analyze,
    "sweep": cmd_sweep,
    "threshold": cmd_threshold,
    "verify": cmd_verify,
    "mc": cmd_mc,
}


# Exit code when the reader closes stdout early, as a shell reports a
# process that SIGPIPE ended (128 + 13).
EXIT_CLOSED_PIPE = 141


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    command = argv[0] if argv and argv[0] in _SUBCOMMANDS else None
    try:
        code = _run(_parser(command).parse_args(argv))
        # a reader that closed the pipe early shows here, not in the
        # interpreter's last flush
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # Send what is left to devnull, so the flush at exit cannot raise
        # again, and report the cut output by the exit code alone.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CLOSED_PIPE


def _run(args) -> int:
    try:
        return _DISPATCH[args.command](args, sys.stdout)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        message = str(exc)
        if "dense-table cap" in message:
            message += " (the mc subcommands sample at any arity)"
        print(f"error: {message}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory; lower the arity or use the mc subcommands",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
