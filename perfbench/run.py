"""Closed-loop benchmark of ovsfalloc: one workload, one process, one caller.

    python3 perfbench/run.py --workload checked12 --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; the package is imported from its
``src/``.  The workload is played in rounds, each round the full input
(parse, replay or verify, final audit or verdict), the next round only
after the last one has been checked, until the next round would overrun
``--seconds``.  Every input is played at least twice, so every run
repeats its inputs.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced rounds on the same input and prints the per-layer
metrics, plus the tracing overhead.  The metric names and units are read
from BENCHMARK.json.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import pkgutil
import resource
import statistics
import sys
import tempfile
import time
import traceback
import tracemalloc
from pathlib import Path

from cases import BRANCHES, CASES, Outcome
from spans import PKG, Tracer, module

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 7


def import_package():
    """Import ovsfalloc afresh from this checkout's ``src/``."""
    for name in [k for k in sys.modules if k == PKG or k.startswith(PKG + ".")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    pkg = importlib.import_module(PKG)
    if Path(pkg.__file__).resolve().parent != SRC / PKG:
        raise ImportError(f"{PKG} imported from {pkg.__file__}, not from {SRC}")
    for sub in pkgutil.iter_modules(pkg.__path__):
        importlib.import_module(f"{PKG}.{sub.name}")
    return pkg


def setup(case, seed: int, workdir: Path, repeats: int) -> tuple[float, list]:
    """Import, generate and serialize ``repeats`` times; median seconds, last inputs.

    A workload with ``traces = k`` gets k inputs, from seeds ``seed * k + i``.
    """
    k = getattr(case, "traces", 1)
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        import_package()
        items = [case.prepare(seed * k + i, workdir) for i in range(k)]
        times.append(time.perf_counter() - t0)
    return statistics.median(times), items


class Tally:
    """Requests attempted and failed over a run, and each input's first counts."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reference: dict[int, dict] = {}  # input index -> first pass's signature

    def add(self, outcome: Outcome, index: int = 0) -> None:
        if not outcome.failures:
            first = self.reference.setdefault(index, outcome.signature)
            if outcome.signature != first:
                outcome.failures.append("deterministic counts differ from the first pass")
        self.attempted += outcome.requests
        self.failed += min(len(outcome.failures), outcome.requests)
        for failure in outcome.failures:
            print(f"check failed: {failure}", file=sys.stderr)


def play(case, item, tracer: Tracer | None = None) -> tuple[float | None, Outcome]:
    """One round: time the request path, then check its outputs untimed.

    Any exception the program raises is a failed request, never a crash of
    the harness.  The seconds are None when the request path raised.
    """
    gc.collect()
    seconds = None
    try:
        try:
            if tracer is not None:
                tracer.install()
            t0 = time.perf_counter()
            result = case.run(item)
            seconds = time.perf_counter() - t0
        finally:
            if tracer is not None:
                tracer.uninstall()
        return seconds, case.outcome(item, result)
    except (Exception, SystemExit) as exc:
        traceback.print_exc(file=sys.stderr)
        index = getattr(exc, "index", None)
        requests = index if isinstance(index, int) and index > 0 else getattr(case, "requests", 1)
        return seconds, Outcome(requests, {}, failures=[f"{type(exc).__name__}: {exc}"])


def counted(case, item, tally: Tally) -> tuple[Tracer, float | None]:
    """A traced round.  The tally compares its outputs with the first
    (untraced) round's, and its span counts must agree with its outputs.

    Returns the tracer and the round's seconds less the tracer's bookkeeping.
    """
    tracer = Tracer()
    seconds, traced = play(case, item, tracer)
    if not traced.failures:
        expected = case.expected_counts(traced.signature)
        wrong = {k: (v, tracer.counts[k]) for k, v in expected.items() if tracer.counts[k] != v}
        if wrong:
            traced.failures.append(f"span counts disagree with the outputs (want, got): {wrong}")
    tally.add(traced)
    return tracer, None if seconds is None else seconds - tracer.bookkeeping_ns / 1e9


def end_to_end(case, items: list, seconds: float, tally: Tally) -> dict:
    """Rounds cycle through the inputs; each is played at least twice."""
    rates, outcomes = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        index = len(outcomes) % len(items)
        spent, outcome = play(case, items[index])
        tally.add(outcome, index)
        outcomes.append(outcome)
        if spent is not None:
            rates.append(outcome.requests / spent)
        elapsed = time.perf_counter() - start
        if len(outcomes) >= 2 * len(items) and elapsed + (time.perf_counter() - t0) > seconds:
            break
    print(f"round rates (req/s): {[round(r) for r in rates]}", file=sys.stderr)
    firsts = outcomes[: len(items)]
    moves = sum(o.moves_total or 0 for o in firsts)
    requests = sum(o.requests for o in firsts)
    if firsts[0].moves_total is None and not firsts[0].failures:
        tracer, _ = counted(case, items[0], tally)
        moves, requests = tracer.counts["moves_total"], tracer.counts["requests"]
    return {
        "req_per_s": statistics.median(rates) if rates else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "moves_per_req": moves / max(requests, 1),
    }


def per_layer(case, item, seconds: float, tally: Tally) -> dict:
    """Untraced and traced rounds in pairs, on one input."""
    ratios, rounds = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        plain, outcome = play(case, item)
        tally.add(outcome)
        tracer, traced = counted(case, item, tally)
        if rounds and tracer.counts != rounds[0][0].counts:
            tally.failed += 1
            print("check failed: span counts differ between traced rounds", file=sys.stderr)
        rounds.append((tracer, outcome))
        if plain and traced:
            ratios.append(traced / plain)
        elapsed = time.perf_counter() - start
        if len(rounds) >= 2 and elapsed + (time.perf_counter() - t0) > seconds:
            break
    print(f"self time by layer: {layer_shares(rounds[0][0])}", file=sys.stderr)
    per_round = [layer_metrics(t, o) for t, o in rounds]
    out = {k: statistics.median(m[k] for m in per_round) for k in per_round[0]}
    out["trace.overhead_frac"] = statistics.median(ratios) - 1 if ratios else 0.0
    out["model.init_bytes"] = init_bytes(case.height)
    out["src.lines"] = sum(
        len(p.read_text(encoding="utf-8").splitlines()) for p in (SRC / PKG).glob("*.py")
    )
    return out


def init_bytes(height: int) -> int:
    """Bytes held by one freshly built ``Situation(height)``."""
    situation_cls = module("model").Situation
    gc.collect()
    tracemalloc.start()
    try:
        situation = situation_cls(height)
        size, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del situation
    return size


def _percentile(values: list[int], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def layer_metrics(t: Tracer, outcome: Outcome) -> dict:
    """Per-layer figures of one traced round; times in microseconds."""
    c = t.counts
    req = max(outcome.requests, 1)

    def us_per_req(ns: int) -> float:
        return ns / req / 1e3

    apply_us = [d / 1e3 for d in t.durations["allocator.apply"]]
    settle_us = [d / 1e3 for d in t.durations["coins.settle"]]
    cli_calls = t.calls("cli.main")
    out = {
        "workloads.parse_us_per_req": us_per_req(t.incl_ns("workloads.")),
        "replay.self_us_per_req": us_per_req(t.self_ns("replay.")),
        "cli.self_ms": t.self_ns("cli.") / cli_calls / 1e6 if cli_calls else 0.0,
        "allocator.apply_us_p50": _percentile(apply_us, 0.50),
        "allocator.apply_us_p99": _percentile(apply_us, 0.99),
        "allocator.self_us_per_req": us_per_req(t.self_ns("allocator.")),
        "allocator.insert_count": c["inserts"],
        "allocator.delete_count": c["deletes"],
        "allocator.delete_iters_per_delete": c["iterations"] / c["deletes"] if c["deletes"] else 0.0,
        "allocator.swaps": c["swaps"],
        "allocator.renames": c["renames"],
        "model.mutate_us_per_req": us_per_req(t.self_ns("model.mutate.")),
        "model.mutate_calls_per_req": t.calls("model.mutate.") / req,
        "model.query_us_per_req": us_per_req(t.self_ns("model.query.")),
        "model.query_calls_per_req": t.calls("model.query.") / req,
        "model.validate_us_mean": t.mean_us("model.validate"),
        "model.validate_calls": t.calls("model.validate"),
        "model.copy_us_mean": t.mean_us("model.copy"),
        "model.init_us": t.mean_us("model.init"),
        "model.pebbles_max": c["pebbles_max"],
        "model.segments_max": c["segments_max"],
        "coins.settle_us_mean": t.mean_us("coins.settle"),
        "coins.settle_us_p99": _percentile(settle_us, 0.99),
        "coins.audit_us_mean": t.mean_us("coins.audit"),
        "coins.audit_calls": t.calls("coins.audit"),
        "coins.injected_max": c["injected_max"],
        "coins.injected_per_req": c["injected_total"] / c["settles"] if c["settles"] else 0.0,
        "coins.budget_findings": c["findings"],
        "baseline.self_us_per_req": (
            t.self_ns("baseline.") / c["baseline_requests"] / 1e3 if c["baseline_requests"] else 0.0
        ),
        "baseline.moves_per_req": (
            c["baseline_moves_total"] / c["baseline_requests"] if c["baseline_requests"] else 0.0
        ),
        "oracle.structural_us_mean": t.mean_us("oracle.structural"),
        "oracle.rebuild_us_mean": t.mean_us("oracle.rebuild"),
        "oracle.self_us_per_edge": us_per_req(t.self_ns("oracle.")) if t.calls("oracle.") else 0.0,
        "oracle.states": outcome.signature.get("states", 0),
        "oracle.edges": outcome.signature.get("edges", 0),
        "moves_max": max(c["moves_max"], c["baseline_moves_max"]),
    }
    out.update({f"allocator.branch.{b}": c[f"branch.{b}"] for b in BRANCHES})
    return out


def layer_shares(t: Tracer) -> str:
    """Self time per layer as a share of all traced self time (a human summary)."""
    layers: dict[str, int] = {}
    for name, (_, self_ns, _) in t.acc.items():
        layer = name.split(".")[0]
        if layer == "model":
            layer = ".".join(name.split(".")[:2])
        layers[layer] = layers.get(layer, 0) + self_ns
    total = sum(layers.values()) or 1
    ranked = sorted(layers.items(), key=lambda kv: -kv[1])
    return "  ".join(f"{k}={v / total:.1%}" for k, v in ranked if v)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(CASES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    case = CASES[args.workload]
    tally = Tally()
    try:
        with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
            repeats = 1 if args.trace else SETUP_REPEATS
            setup_s, items = setup(case, args.seed, Path(tmp), repeats)
            if args.trace:
                values = per_layer(case, items[0], args.seconds, tally)
            else:
                values = end_to_end(case, items, args.seconds, tally)
                values["setup_s"] = setup_s
    except ImportError as exc:
        print(f"error: cannot import {PKG} from {SRC}: {exc}", file=sys.stderr)
        return 2
    values["error_frac"] = tally.failed / max(tally.attempted, 1)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: no value for {missing}", file=sys.stderr)
        return 2
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
