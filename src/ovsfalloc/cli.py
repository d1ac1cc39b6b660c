"""Command-line front end.

Subcommands: ``run`` replays a trace and prints statistics, ``verify``
runs the exhaustive small-instance verifier, ``render`` draws the state a
trace prefix reaches, ``gen`` writes generated traces.  ``run`` and
``render`` read their input file with one reader, ``_read_trace``.

Exit codes: 0 all checks passed, 1 invariant/audit failure, 2 usage or
input error (an unreadable, non-UTF-8 or malformed input file included).
"""

from __future__ import annotations

import argparse
import json
import sys

from .coins import DEFAULT_BUDGET
from .model import MAX_TREE_HEIGHT, RequestError
from .oracle import MUTANTS, exhaustive_verify
from .render import check_height, render
from .replay import ReplayError, replay
from .workloads import (
    Trace,
    TraceError,
    gen_cascade_trace,
    gen_random_trace,
    parse_trace,
    serialize_trace,
)

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ovsfalloc",
        description="Online aligned-bandwidth allocator: replay, verify, render.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="replay a trace and print statistics")
    p_run.add_argument("trace", help="trace file path")
    p_run.add_argument(
        "--allocator", choices=["paper", "baseline"], default="paper"
    )
    p_run.add_argument(
        "--no-validate",
        action="store_true",
        help="skip per-request validation (final state is still checked)",
    )
    p_run.add_argument(
        "--no-audit", action="store_true", help="disable the coin certificate"
    )
    p_run.add_argument(
        "--audit-every",
        type=int,
        default=None,
        metavar="K",
        help="full P4 audit every K requests (default every request)",
    )
    p_run.add_argument(
        "--count-relabel",
        action="store_true",
        help="count the delete-by-id code handover as one reassignment",
    )
    p_run.add_argument(
        "--budget",
        type=int,
        default=None,
        metavar="K",
        help=f"per-request fresh coin budget (reporting threshold, default {DEFAULT_BUDGET})",
    )
    p_run.add_argument("--log", action="store_true", help="print per-request lines")
    p_run.add_argument("--format", choices=["text", "jsonl"], default="text")

    p_ver = sub.add_parser("verify", help="exhaustive small-instance verification")
    p_ver.add_argument("--height", type=int, default=4)
    p_ver.add_argument("--depth", type=int, default=6)
    p_ver.add_argument(
        "--mutate",
        choices=sorted(MUTANTS),
        default=None,
        help="verify a named mutant, one line of allocator.py replaced (the verifier must then fail)",
    )
    p_ver.add_argument("--budget", type=int, default=DEFAULT_BUDGET, metavar="K")
    p_ver.add_argument("--format", choices=["text", "jsonl"], default="text")

    p_ren = sub.add_parser("render", help="draw the state a trace prefix reaches")
    p_ren.add_argument("trace", help="trace file path")
    p_ren.add_argument(
        "--step",
        type=int,
        default=None,
        metavar="K",
        help="render after the first K requests (default all)",
    )

    p_gen = sub.add_parser("gen", help="generate a trace file")
    p_gen.add_argument("kind", choices=["random", "cascade"])
    p_gen.add_argument("--height", type=int, required=True)
    p_gen.add_argument("--requests", type=int, required=True)
    p_gen.add_argument("--seed", type=int, default=None, help="gen random only (default 0)")
    p_gen.add_argument("--insert-ratio", type=float, default=None, help="gen random only (default 0.6)")
    p_gen.add_argument("--by-id", action="store_true")
    p_gen.add_argument("--out", default=None, help="output path (default stdout)")
    return parser


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _height_error(height: int) -> str:
    """Why a ``--height`` is refused, or ``""``."""
    if height < 0:
        return f"--height must be >= 0, got {height}"
    if height > MAX_TREE_HEIGHT:
        return f"--height must be <= {MAX_TREE_HEIGHT}, got {height}"
    return ""


def _read_trace(path: str) -> Trace | None:
    """The trace in the file at ``path``, or None, with the reason printed,
    when the file cannot be read, decoded or parsed."""
    try:
        with open(path, encoding="utf-8") as fh:
            return parse_trace(fh.read())
    except UnicodeDecodeError as exc:
        _usage_error(f"{path}: {exc}")
    except (OSError, TraceError) as exc:
        _usage_error(str(exc))
    return None


def _cmd_run(args) -> int:
    # the coin flags set the paper allocator's certificate; --audit-every
    # and --budget set the ledger that --no-audit turns off
    coin_flags = {
        "--no-audit": args.no_audit,
        "--audit-every": args.audit_every is not None,
        "--budget": args.budget is not None,
    }
    for flag, given in coin_flags.items():
        if given and args.allocator == "baseline":
            return _usage_error(f"{flag} needs the paper allocator: the baseline has no coin certificate")
        if given and args.no_audit and flag != "--no-audit":
            return _usage_error(f"{flag} needs the coin certificate, which --no-audit turns off")
    audit_every = 1 if args.audit_every is None else args.audit_every
    budget = DEFAULT_BUDGET if args.budget is None else args.budget
    if audit_every < 1:
        return _usage_error(f"--audit-every must be >= 1, got {audit_every}")
    if budget < 0:
        return _usage_error(f"--budget must be >= 0, got {budget}")
    trace = _read_trace(args.trace)
    if trace is None:
        return 2
    try:
        result = replay(
            trace,
            allocator=args.allocator,
            validate_each=not args.no_validate,
            audit=not args.no_audit,
            audit_every=audit_every,
            count_relabel=args.count_relabel,
            budget=budget,
            log_format=args.format if args.log else None,
        )
    except ReplayError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for line in result.request_lines:
        print(line)
    if args.format == "jsonl":
        print(json.dumps({"stats": result.stats.to_dict()}, sort_keys=True))
    else:
        for line in result.stats.stat_lines():
            print(line)
        print(f"# wall_time_ms={result.stats.wall_time_ms:.1f}")
    return 0


def _cmd_verify(args) -> int:
    if message := _height_error(args.height):
        return _usage_error(message)
    if args.depth < 0:
        return _usage_error(f"--depth must be >= 0, got {args.depth}")
    if args.budget < 0:
        return _usage_error(f"--budget must be >= 0, got {args.budget}")
    report = exhaustive_verify(args.height, args.depth, mutant=args.mutate, budget=args.budget)
    if args.format == "jsonl":
        print(json.dumps(report.to_dict(), sort_keys=True))
    else:
        print(report.summary())
    return 0 if report.ok else 1


def _cmd_render(args) -> int:
    trace = _read_trace(args.trace)
    if trace is None:
        return 2
    try:
        check_height(trace.n)  # before any request is replayed
    except RequestError as exc:
        return _usage_error(str(exc))
    step = len(trace.requests) if args.step is None else args.step
    if not 0 <= step <= len(trace.requests):
        return _usage_error(f"--step {step} out of range")
    try:
        result = replay(Trace(trace.n, trace.requests[:step]))
    except ReplayError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(render(result.situation))
    return 0


def _cmd_gen(args) -> int:
    if message := _height_error(args.height):
        return _usage_error(message)
    if args.requests < 0:
        return _usage_error(f"--requests must be >= 0, got {args.requests}")
    if args.kind == "cascade":
        if args.by_id:
            return _usage_error("--by-id needs gen random: a cascade trace deletes by level")
        for flag, value in (("--seed", args.seed), ("--insert-ratio", args.insert_ratio)):
            if value is not None:
                return _usage_error(f"{flag} needs gen random: a cascade trace is fixed")
    try:
        if args.kind == "random":
            seed = 0 if args.seed is None else args.seed
            ratio = 0.6 if args.insert_ratio is None else args.insert_ratio
            trace = gen_random_trace(args.height, args.requests, seed, ratio, by_id=args.by_id)
        else:
            trace = gen_cascade_trace(args.height, args.requests)
    except ValueError as exc:
        return _usage_error(str(exc))
    text = serialize_trace(trace)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            return _usage_error(str(exc))
    else:
        sys.stdout.write(text)
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "verify":
        return _cmd_verify(args)
    if args.command == "render":
        return _cmd_render(args)
    return _cmd_gen(args)


if __name__ == "__main__":
    sys.exit(main())
