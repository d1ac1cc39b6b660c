"""Trace replay through either allocator, with validation and coin audit.

The replay engine owns the checking policy: by default it re-validates the
situation after every request and, for the main allocator, charges each
request ``iterations + ΔΦ`` coins against the potential Φ and audits Φ by
an independent recount.  Big benchmark runs can disable per-step
validation and thin out audits; the final state is always audited, and
every pebble copy in it is cross-checked against the segment list.  Any
failure, a typed error raised by a checked read included, ends the replay
with a ``ReplayError`` naming the request; a failed audit carries its P4
detail.  Statistics and log lines (none unless a ``log_format`` is
given) read each request's charge from the ``SettleInfo`` that settling
it returned; the totals are locals that fill ``RunStats`` once, after the
last request, since a failed request raises.  This module alone formats
the request log: it computes each request's fields once and renders them
as text or as jsonl.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

from . import baseline as bl
from .allocator import DELETE_LEVEL, INSERT, MoveLog, apply, check_request
from .coins import DEFAULT_BUDGET, CoinLedger, SettleInfo
from .model import AllocationError, Situation
from .workloads import Trace

PAPER = "paper"
BASELINE = "baseline"


class ReplayError(Exception):
    def __init__(self, index: int, message: str):
        super().__init__(f"request {index}: {message}")
        self.index = index


@dataclass(slots=True)
class RunStats:
    """Aggregate statistics of one replay."""

    m: int = 0
    total_moves: int = 0
    max_moves: int = 0
    max_insert_moves: int = 0
    total_delete_iterations: int = 0
    relabels: int = 0
    max_injected: int = 0
    total_injected: int = 0
    total_consumed: int = 0
    p4_failures: int = 0  # a failed audit ends the replay, so a finished one has none
    budget_findings: int = 0
    wall_time_ms: float = 0.0

    @property
    def mean_moves(self) -> float:
        return self.total_moves / self.m if self.m else 0.0

    def stat_lines(self) -> list[str]:
        """Deterministic machine-readable lines (wall time excluded), one
        per ``to_dict`` entry in its order."""
        return [
            f"stat.{key}={value:.6f}" if isinstance(value, float) else f"stat.{key}={value}"
            for key, value in self.to_dict().items()
        ]

    def to_dict(self) -> dict:
        """The deterministic statistics by name (wall time excluded)."""
        return {
            "m": self.m,
            "total_moves": self.total_moves,
            "mean_moves": round(self.mean_moves, 6),
            "max_moves": self.max_moves,
            "max_insert_moves": self.max_insert_moves,
            "total_delete_iterations": self.total_delete_iterations,
            "relabels": self.relabels,
            "max_coins_injected": self.max_injected,
            "total_coins_injected": self.total_injected,
            "total_coins_consumed": self.total_consumed,
            "p4_failures": self.p4_failures,
            "budget_findings": self.budget_findings,
        }


@dataclass(slots=True)
class ReplayResult:
    stats: RunStats
    situation: Situation
    ledger: CoinLedger | None
    request_lines: list[str] = field(default_factory=list)


def replay(
    trace: Trace,
    allocator: str = PAPER,
    validate_each: bool = True,
    audit: bool = True,
    audit_every: int = 1,
    count_relabel: bool = False,
    budget: int = DEFAULT_BUDGET,
    log_format: str | None = None,
) -> ReplayResult:
    """Replay ``trace`` from the empty situation; raise on any failure.

    ``audit_every=k`` runs the full independent P4 audit every k-th
    request (settlement still happens on every request); the final state
    is always audited, and a failed audit raises with its detail.
    ``budget`` is the fresh-coin charge per request above which a finding
    is counted.  ``log_format`` ("text" or "jsonl") collects one log entry
    per request in ``request_lines``; None collects none, and any other
    value raises ``ValueError``.
    """
    if allocator not in (PAPER, BASELINE):
        raise ValueError(f"unknown allocator {allocator!r}")
    if log_format not in (None, "text", "jsonl"):
        raise ValueError(f"unknown log_format {log_format!r}")
    if audit_every < 1:
        raise ValueError(f"audit_every must be >= 1, got {audit_every}")
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    t0 = time.perf_counter()
    s = Situation(trace.n)
    use_coins = audit and allocator == PAPER
    ledger = CoinLedger(s, budget) if use_coins else None
    lines: list[str] = []
    info = None  # the request's charge, with a ledger
    moves = max_moves = max_insert_moves = iterations = relabels = 0
    injected = consumed = max_injected = findings = 0

    last = len(trace.requests)
    for index, request in enumerate(trace.requests, start=1):
        try:
            log = _dispatch(s, request, allocator)
            if validate_each:
                violations = s.validate()
                if violations:
                    raise ReplayError(index, f"invariant broken: {violations[0]}")
            if ledger is not None:
                info = ledger.settle(s, log)
                if index % audit_every == 0 or index == last:
                    failures = ledger.audit(s)
                    if failures:
                        raise ReplayError(index, f"P4 audit failed: {failures[0]}")
        except AllocationError as exc:
            raise _request_error(index, exc) from exc
        cost = log.cost(count_relabel)
        moves += cost
        max_moves = cost if cost > max_moves else max_moves
        if log.kind == INSERT and len(log.moved) > max_insert_moves:
            max_insert_moves = len(log.moved)
        iterations += log.iterations
        if log.relabel is not None:
            relabels += 1
        if ledger is not None:
            injected += info.injected
            consumed += info.consumed
            max_injected = info.injected if info.injected > max_injected else max_injected
            findings += len(info.findings)
        if log_format is not None:
            lines += _log_lines(log_format, index, log, info, ledger)

    try:
        s.cross_check()
        if not validate_each:
            violations = s.validate()
            if violations:
                raise ReplayError(last, f"final state invalid: {violations[0]}")
        if ledger is not None:
            ledger.balance_check()
    except AllocationError as exc:
        raise _request_error(last, exc) from exc
    stats = RunStats(
        m=last, total_moves=moves, max_moves=max_moves, max_insert_moves=max_insert_moves,
        total_delete_iterations=iterations, relabels=relabels, max_injected=max_injected,
        total_injected=injected, total_consumed=consumed, budget_findings=findings,
        wall_time_ms=(time.perf_counter() - t0) * 1000.0,
    )
    return ReplayResult(stats, s, ledger, lines)


def _log_lines(
    log_format: str, index: int, log: MoveLog, info: SettleInfo | None, ledger: CoinLedger | None
) -> list[str]:
    """The log of request ``index``, from one set of fields: one jsonl line,
    or a ``req=`` line and, with a ledger, its coin line.  A failed audit
    ends the replay, so P4 always reads ok."""
    entry = {
        "req": index,
        "op": log.op_token(),
        "placed": f"{log.placed[0]}:{log.placed[1]}" if log.placed else None,
        "moved": [f"{pid}:{old}->{new}" for pid, old, new in log.moved],
        "removed": log.removed,
        "iters": log.iterations,
    }
    coins = None
    if ledger is not None:
        coins = {"injected": info.injected, "consumed": info.consumed,
                 "balance": ledger.balance(), "p4": "ok"}
    if log_format == "jsonl":
        if coins is not None:
            entry["coins"] = coins
        return [json.dumps(entry, sort_keys=True)]
    rows = [entry] if coins is None else [entry, {"iters": log.iterations, **coins}]
    return [" ".join(f"{key}={_text(value)}" for key, value in row.items()) for row in rows]


def _text(value) -> str:
    """A log field in the text format: a list comma-joined, ``-`` for none."""
    if isinstance(value, list):
        value = ",".join(value) or None
    return "-" if value is None else str(value)


def _request_error(index: int, exc: AllocationError) -> ReplayError:
    return ReplayError(index, f"{type(exc).__name__}: {exc}")


def _dispatch(s, request, allocator) -> MoveLog:
    if allocator == PAPER:
        return apply(s, request)
    check_request(request)
    if request.kind == INSERT:
        return bl.baseline_insert(s, request.level)
    if request.kind == DELETE_LEVEL:
        return bl.baseline_delete(s, request.level)
    return bl.baseline_delete_by_id(s, request.id)
