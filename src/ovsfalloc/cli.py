"""Command-line front end.

Subcommands: ``run`` replays a trace and prints statistics, ``verify``
runs the exhaustive small-instance verifier, ``render`` draws a snapshot
or a trace prefix, ``gen`` writes generated traces.

Exit codes: 0 all checks passed, 1 invariant/audit failure, 2 usage or
input error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .allocator import AllocatorOptions
from .coins import DEFAULT_BUDGET
from .model import RequestError, SnapshotError, parse_snapshot
from .oracle import exhaustive_verify
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

_MUTATIONS = {
    "skip-delete-swap": AllocatorOptions(skip_delete_swap=True),
    "skip-insert-rename": AllocatorOptions(skip_insert_rename=True),
}


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
        default=1,
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
        default=DEFAULT_BUDGET,
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
        choices=sorted(_MUTATIONS),
        default=None,
        help="disable one algorithm step (the verifier must then fail)",
    )
    p_ver.add_argument("--budget", type=int, default=DEFAULT_BUDGET, metavar="K")
    p_ver.add_argument("--format", choices=["text", "jsonl"], default="text")

    p_ren = sub.add_parser("render", help="draw a snapshot or trace prefix")
    p_ren.add_argument("path", help="snapshot file, or trace file with --trace")
    p_ren.add_argument(
        "--trace", action="store_true", help="treat the input as a trace"
    )
    p_ren.add_argument(
        "--step",
        type=int,
        default=None,
        metavar="K",
        help="with --trace: render after the first K requests (default all)",
    )

    p_gen = sub.add_parser("gen", help="generate a trace file")
    p_gen.add_argument("kind", choices=["random", "cascade"])
    p_gen.add_argument("--height", type=int, required=True)
    p_gen.add_argument("--requests", type=int, required=True)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--insert-ratio", type=float, default=0.6)
    p_gen.add_argument("--by-id", action="store_true")
    p_gen.add_argument("--out", default=None, help="output path (default stdout)")
    return parser


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _cmd_run(args) -> int:
    if args.audit_every < 1:
        return _usage_error(f"--audit-every must be >= 1, got {args.audit_every}")
    if args.budget < 0:
        return _usage_error(f"--budget must be >= 0, got {args.budget}")
    try:
        with open(args.trace, encoding="utf-8") as fh:
            trace = parse_trace(fh.read())
    except (OSError, TraceError) as exc:
        return _usage_error(str(exc))
    try:
        result = replay(
            trace,
            allocator=args.allocator,
            validate_each=not args.no_validate,
            audit=not args.no_audit,
            audit_every=args.audit_every,
            count_relabel=args.count_relabel,
            budget=args.budget,
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
    options = _MUTATIONS.get(args.mutate) if args.mutate else None
    if args.height < 0:
        return _usage_error(f"--height must be >= 0, got {args.height}")
    if args.depth < 0:
        return _usage_error(f"--depth must be >= 0, got {args.depth}")
    if args.budget < 0:
        return _usage_error(f"--budget must be >= 0, got {args.budget}")
    report = exhaustive_verify(args.height, args.depth, options=options, budget=args.budget)
    if args.format == "jsonl":
        print(json.dumps(report.to_dict(), sort_keys=True))
    else:
        print(report.summary())
    return 0 if report.ok else 1


def _cmd_render(args) -> int:
    try:
        with open(args.path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        return _usage_error(str(exc))
    if args.trace:
        try:
            trace = parse_trace(text)
            check_height(trace.n)  # before any request is replayed
        except (TraceError, RequestError) as exc:
            return _usage_error(str(exc))
        step = len(trace.requests) if args.step is None else args.step
        if not 0 <= step <= len(trace.requests):
            return _usage_error(f"--step {step} out of range")
        prefix = Trace(trace.n, trace.requests[:step])
        try:
            result = replay(prefix)
        except ReplayError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        situation = result.situation
    else:
        try:
            situation = parse_snapshot(text)
        except SnapshotError as exc:
            return _usage_error(str(exc))
    try:
        print(render(situation))
    except RequestError as exc:
        return _usage_error(str(exc))
    return 0


def _cmd_gen(args) -> int:
    if args.height < 0:
        return _usage_error(f"--height must be >= 0, got {args.height}")
    if args.requests < 0:
        return _usage_error(f"--requests must be >= 0, got {args.requests}")
    try:
        if args.kind == "random":
            trace = gen_random_trace(
                args.height,
                args.requests,
                args.seed,
                args.insert_ratio,
                by_id=args.by_id,
            )
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
