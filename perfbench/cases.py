"""The four benchmark workloads (BENCHMARK.json gates three; random16 is run by hand).

Each workload has a set-up step (trace generation and serialization), a
request path that the harness times, and output checks that it does not
time.  Every call into ``ovsfalloc`` goes through ``spans.module(...)`` at
call time, so the wrappers of a traced round are the functions called.

Why these four: see README.md in this directory.
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass, field
from pathlib import Path

from spans import module

INSERT_BOUND = 3  # the paper's per-insert reassignment bound

# log.branch labels of the main allocator; the verifier's coverage uses the same keys
BRANCHES = (
    "place-direct",
    "place-over-small",
    "rotate-pair",
    "shuffle-white",
    "shuffle-black",
    "delete-end-of-tree",
    "delete-no-fit",
)


@dataclass
class Outcome:
    """What one pass of a workload did, from its own outputs."""

    requests: int
    signature: dict  # deterministic counts; equal on every pass of one input
    moves_total: int | None = None  # None when the outputs do not give it
    failures: list[str] = field(default_factory=list)


def _replay_counts(stats: dict) -> dict:
    """The tracer counts that a replay's ``RunStats.to_dict()`` pins down."""
    return {
        "requests": stats["m"],
        "moves_total": stats["total_moves"],
        "moves_max": stats["max_moves"],
        "insert_moves_max": stats["max_insert_moves"],
        "iterations": stats["total_delete_iterations"],
        "relabels": stats["relabels"],
        "injected_total": stats["total_coins_injected"],
        "injected_max": stats["max_coins_injected"],
        "findings": stats["budget_findings"],
    }


def _state_failures(situation, label: str) -> list[str]:
    out = [f"{label}: final validate: {v}" for v in situation.validate()[:3]]
    out += [f"{label}: structure: {p}" for p in module("oracle").structural_failures(situation)[:3]]
    return out


def _stats_failures(stats: dict, label: str) -> list[str]:
    out = []
    if stats["p4_failures"]:
        out.append(f"{label}: {stats['p4_failures']} P4 audit failures")
    if stats["max_insert_moves"] > INSERT_BOUND:
        out.append(f"{label}: an insert made {stats['max_insert_moves']} reassignments")
    return out


def _replay_outcome(stats: dict, failures: list[str]) -> Outcome:
    return Outcome(stats["m"], stats, stats["total_moves"], failures)


class Random16:
    """Random level trace at height 16, replayed with thinned audits."""

    name = "random16"
    height = 16
    requests = 50_000
    insert_ratio = 0.6
    audit_every = 2000

    def prepare(self, seed: int, workdir: Path) -> str:
        w = module("workloads")
        trace = w.gen_random_trace(self.height, self.requests, seed, self.insert_ratio)
        return w.serialize_trace(trace)

    def run(self, text: str):
        trace = module("workloads").parse_trace(text)
        return module("replay").replay(trace, validate_each=False, audit_every=self.audit_every)

    def outcome(self, text: str, result) -> Outcome:
        stats = result.stats.to_dict()
        failures = _stats_failures(stats, "paper") + _state_failures(result.situation, "paper")
        return _replay_outcome(stats, failures)

    def expected_counts(self, signature: dict) -> dict:
        return _replay_counts(signature)


class Checked12:
    """By-id random trace at height 12 through the default ``run`` command."""

    name = "checked12"
    height = 12
    requests = 5000
    insert_ratio = 0.6
    # validate() costs O(live pebbles), and the mean live set of one trace
    # varies by about 15% with the seed, so rounds cycle through four traces
    traces = 4

    def prepare(self, seed: int, workdir: Path) -> Path:
        w = module("workloads")
        trace = w.gen_random_trace(self.height, self.requests, seed, self.insert_ratio, by_id=True)
        path = workdir / f"{self.name}-{seed}.trace"
        path.write_text(w.serialize_trace(trace), encoding="utf-8")
        return path

    def run(self, path: Path):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            code = module("cli").main(["run", str(path)])
        return code, out.getvalue()

    def outcome(self, path: Path, result) -> Outcome:
        code, text = result
        stats = {}
        for line in text.splitlines():
            if line.startswith("stat."):
                key, _, value = line[5:].partition("=")
                stats[key] = float(value) if "." in value else int(value)
        if code != 0 or "m" not in stats:
            first = text.strip().splitlines()[:1]
            return Outcome(self.requests, stats, failures=[f"run exited {code}: {first}"])
        # the CLI prints no state: replay the same file directly, check the
        # state it ends in, and require the same statistics
        trace = module("workloads").parse_trace(path.read_text(encoding="utf-8"))
        direct = module("replay").replay(trace, validate_each=False, audit_every=len(trace))
        failures = _stats_failures(stats, "cli") + _state_failures(direct.situation, "cli")
        if direct.stats.to_dict() != stats:
            failures.append(f"cli statistics {stats} differ from a direct replay")
        return _replay_outcome(stats, failures)

    def expected_counts(self, signature: dict) -> dict:
        return _replay_counts(signature)


class Verify5:
    """Exhaustive verification at height 5 with full branch coverage."""

    name = "verify5"
    height = 5
    depth = 6

    def prepare(self, seed: int, workdir: Path) -> None:
        return None

    def run(self, _item):
        return module("oracle").exhaustive_verify(self.height, self.depth)

    def outcome(self, _item, report) -> Outcome:
        failures = [str(f) for f in report.failures[:3]]
        if report.ok and report.missing_coverage():
            failures.append(f"unhit branches {report.missing_coverage()}")
        if report.max_insert_moves > INSERT_BOUND:
            failures.append(f"an insert made {report.max_insert_moves} reassignments")
        signature = {
            "ok": report.ok,
            "depth": report.depth,
            "states": report.states,
            "edges": report.transitions,
            "max_insert_moves": report.max_insert_moves,
            "max_injected": report.max_injected,
            "coverage": dict(sorted(report.coverage.items())),
        }
        return Outcome(report.transitions, signature, failures=failures)

    def expected_counts(self, signature: dict) -> dict:
        coverage = signature["coverage"]
        out = {f"branch.{b}": coverage.get(b, 0) for b in BRANCHES}
        out.update(
            requests=signature["edges"],
            insert_moves_max=signature["max_insert_moves"],
            injected_max=signature["max_injected"],
            swaps=coverage.get("delete-swap", 0),
            renames=coverage.get("insert-renamed", 0),
        )
        return out


class Cascade12:
    """Cascade trace at height 12 through the baseline, then the paper allocator."""

    name = "cascade12"
    height = 12
    requests = 5000
    audit_every = 2000

    def prepare(self, seed: int, workdir: Path) -> str:
        w = module("workloads")
        return w.serialize_trace(w.gen_cascade_trace(self.height, self.requests))

    def run(self, text: str):
        trace = module("workloads").parse_trace(text)
        replay = module("replay")
        base = replay.replay(
            trace, allocator="baseline", validate_each=False, audit_every=self.audit_every
        )
        paper = replay.replay(trace, validate_each=False, audit_every=self.audit_every)
        return base, paper

    def outcome(self, text: str, result) -> Outcome:
        base, paper = result
        failures = (
            _stats_failures(paper.stats.to_dict(), "paper")
            + _state_failures(paper.situation, "paper")
            + _state_failures(base.situation, "baseline")
        )
        if paper.stats.total_moves >= base.stats.total_moves:
            failures.append(
                f"paper moves {paper.stats.total_moves} not below "
                f"baseline moves {base.stats.total_moves}"
            )
        signature = {"baseline": base.stats.to_dict(), "paper": paper.stats.to_dict()}
        return Outcome(
            base.stats.m + paper.stats.m,
            signature,
            base.stats.total_moves + paper.stats.total_moves,
            failures,
        )

    def expected_counts(self, signature: dict) -> dict:
        base = signature["baseline"]
        out = _replay_counts(signature["paper"])
        out.update(
            baseline_requests=base["m"],
            baseline_moves_total=base["total_moves"],
            baseline_moves_max=base["max_moves"],
        )
        return out


CASES = {c.name: c for c in (Random16(), Checked12(), Verify5(), Cascade12())}
