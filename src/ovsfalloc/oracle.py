"""Brute-force oracles and exhaustive small-instance verification.

Everything here recomputes answers by plain scans over the pebble list,
independent of the indexed query structures, so oracle/implementation
disagreements surface as failures.  One position-ordered pass over
``s.pebbles()`` yields the pebbles, their rule C colors and the maximal
free gaps between them; every scan answer (first free place, the
pebble left of it and its color, a level's last pebble and the least
level right of it, free bandwidth before a position, closing position,
free leaves in a window) is read from those lists, so a pass costs
O(pebbles + n) and nothing is sized by ``2**n``.  ``structural_failures``
makes one such pass per call.

``exhaustive_verify`` is one breadth-first walk over every admissible
request sequence up to a depth bound.  The walk keys each state on its
pebbles alone, since Φ is a function of them.  Every edge (one request
from one state) is checked for an exception, the insert reassignment
bound and the charge of the request, its branches are counted, and the
reached state's pebble copies are cross-checked with its segment list,
a mismatch being an ``index`` failure.  Once that passes, the key fixes
the whole state, so what depends only on it (validity, every structural
property of valid situations, oracle agreement and the independent
recount of Φ) is checked on the state's first arrival alone.  At height
>= 4 and depth >= 6, where every branch is reachable, a branch the walk
never ran is a ``coverage`` failure.
"""

from __future__ import annotations

import bisect
import time
from dataclasses import dataclass, field

from .allocator import (
    DELETE_LEVEL, EXIT_END, EXIT_NO_FIT, INSERT, PLACE_DIRECT, PLACE_OVER_SMALL, ROTATE_PAIR,
    SHUFFLE_BLACK, SHUFFLE_WHITE, AllocatorOptions, Request, apply,
)
from .coins import DEFAULT_BUDGET, CoinLedger
from .model import AllocationError, InvariantError, Pebble, Place, RequestError, Situation

INSERT_BRANCHES = (PLACE_DIRECT, PLACE_OVER_SMALL, ROTATE_PAIR, SHUFFLE_WHITE, SHUFFLE_BLACK)
DELETE_BRANCHES = (EXIT_END, EXIT_NO_FIT)
COVERAGE_TARGETS = INSERT_BRANCHES + DELETE_BRANCHES + (
    "insert-renamed",
    "delete-swap",
    "delete-iteration",
)


# ----------------------------------------------------------------------
# scan-based oracles


def _scan(s: Situation) -> tuple[list[Pebble], list[bool], list[tuple[int, int]]]:
    """One position-ordered pass over ``s.pebbles()``: the pebbles, their
    rule C colors (True = black: no strictly bigger pebble earlier) and the
    maximal free gaps ``(start, end)`` between them.

    Gaps follow a running maximum end, so overlapping pebbles still leave
    only leaves that no pebble covers.
    """
    pebs = s.pebbles()
    colors = []
    gaps = []
    biggest = -1
    covered = 0  # end of the covered prefix
    for pebble in pebs:
        level = pebble.level
        start = pebble.start
        colors.append(biggest <= level)
        if level > biggest:
            biggest = level
        if start > covered:
            gaps.append((covered, start))
        end = start + (1 << level)
        if end > covered:
            covered = end
    if covered < s.leaves:
        gaps.append((covered, s.leaves))
    return pebs, colors, gaps


def _first_free(gaps: list[tuple[int, int]], levels: int) -> list[Place | None]:
    """Lowest aligned place inside one free gap, for each level below
    ``levels``, in one pass: a gap that holds a place of some level holds
    one of every smaller level, so the gaps are met in level order."""
    out: list[Place | None] = []
    for lo, hi in gaps:
        while len(out) < levels:
            size = 1 << len(out)
            start = (lo + size - 1) & -size
            if start + size > hi:
                break
            out.append(Place(len(out), start))
    return out + [None] * (levels - len(out))


def _free_before(gaps: list[tuple[int, int]], pos: int) -> int:
    return sum((hi if hi < pos else pos) - lo for lo, hi in gaps if lo < pos)


def _any_free(gaps: list[tuple[int, int]], lo: int, hi: int) -> bool:
    """Is any leaf of ``[lo, hi)`` free?"""
    return any(a < hi and b > lo for a, b in gaps)


def _closing_positions(
    pebs: list[Pebble], colors: list[bool], levels: int
) -> list[int | None]:
    """Closing position of each level below ``levels``: the end of its last
    black pebble, else the start of the first bigger pebble, else None."""
    last_black: list[int | None] = [None] * levels
    first_bigger: list[int | None] = [None] * levels
    biggest = 0  # no earlier pebble is bigger than any level >= this
    for pebble, black in zip(pebs, colors):
        level = pebble.level
        if black and level < levels:
            last_black[level] = pebble.start + (1 << level)
        for lower in range(biggest, min(level, levels)):
            first_bigger[lower] = pebble.start
        if level > biggest:
            biggest = level
    return [b if b is not None else f for b, f in zip(last_black, first_bigger)]


def canput_oracle(s: Situation, level: int) -> bool:
    """Exhaustive scan: does any aligned free place of ``level`` exist?"""
    return scan_first_free_place(s, level) is not None


def scan_first_free_place(s: Situation, level: int) -> Place | None:
    if level < 0:
        raise RequestError(f"level {level} is negative")
    if level > s.n:
        return None  # no place of ``level`` fits in the tree
    return _first_free(_scan(s)[2], level + 1)[level]


def scan_free_before(s: Situation, pos: int) -> int:
    if not 0 <= pos <= s.leaves:
        raise RequestError(f"position {pos} out of [0, {s.leaves}]")
    return _free_before(_scan(s)[2], pos)


def scan_closing_position(s: Situation, level: int) -> int | None:
    if level < 0:
        raise RequestError(f"level {level} is negative")
    if level > s.n:
        return None  # no pebble of ``level`` or bigger fits in the tree
    pebs, colors, _ = _scan(s)
    return _closing_positions(pebs, colors, level + 1)[level]


# ----------------------------------------------------------------------
# structural properties of valid situations


def structural_failures(s: Situation) -> list[str]:
    """Check every structural property a valid situation must satisfy.

    Assumes ``s.validate()`` already came back empty; returns human-
    readable descriptions of any failed property, and of any answer of the
    situation's indexed queries that disagrees with the scan.
    """
    out: list[str] = []
    pebs, colors, gaps = _scan(s)
    leaves = s.leaves
    levels = range(s.n + 1)
    first_free = _first_free(gaps, s.n + 1)
    closing = _closing_positions(pebs, colors, s.n + 1)

    if pebs and pebs[0].start != 0:
        out.append(f"first pebble at {pebs[0].start}, not 0")

    last_black = -1
    for pebble, black in zip(pebs, colors):
        if black:
            if pebble.level < last_black:
                out.append(f"black sizes decrease at {pebble.place}")
            last_black = max(last_black, pebble.level)
    last_white = -1
    for pebble, black in zip(pebs, colors):
        if not black:
            if pebble.level <= last_white:
                out.append(f"white sizes not strictly increasing at {pebble.place}")
            last_white = pebble.level

    black_start: dict[int, int] = {}  # level -> start of its last black pebble so far
    breaks: dict[int, list[str]] = {}  # level -> its contiguity breaches
    for pebble, black in zip(pebs, colors):
        if black:
            level = pebble.level
            a = black_start.get(level)
            if a is not None and pebble.start != a + (1 << level):
                breaks.setdefault(level, []).append(
                    f"black level-{level} pebbles not contiguous: {a}, {pebble.start}"
                )
            black_start[level] = pebble.start
    for level in sorted(breaks):
        out += breaks[level]

    whites = [pebble for pebble, black in zip(pebs, colors) if not black]

    for i, (pebble, black) in enumerate(zip(pebs, colors)):
        nxt = pebs[i + 1] if i + 1 < len(pebs) else None
        gap = (nxt.start if nxt else leaves) - pebble.end
        if gap > 0 and gap < pebble.size:
            out.append(f"gap {gap} after {pebble.place} smaller than the pebble")
        if not black:
            if i == 0:
                out.append(f"white pebble {pebble.place} with no left neighbor")
                continue
            left = pebs[i - 1]
            if not colors[i - 1]:
                out.append(f"white pebble {pebble.place} behind a white neighbor")
            if left.level <= pebble.level:
                out.append(f"white pebble {pebble.place} not behind a bigger pebble")
            if left.end != pebble.start:
                out.append(f"free space between {left.place} and white {pebble.place}")
            if gap < left.size - pebble.size:
                out.append(
                    f"white {pebble.place}: trailing gap {gap} < "
                    f"{left.size - pebble.size}"
                )
            # no other white pebble may have a size in [a, b)
            for other in whites:
                if other is pebble:
                    continue
                if pebble.level <= other.level and other.size < left.size:
                    out.append(
                        f"white {other.place} inside the size window of "
                        f"{pebble.place}"
                    )
            # everything between the doubled-size closing position and the
            # backing black pebble is solidly covered, with no white starts
            if pebble.level + 1 <= s.n:
                j = closing[pebble.level + 1]
                if j is not None and j < left.start:
                    if _any_free(gaps, j, left.start):
                        out.append(
                            f"free leaf between {j} and {left.start} "
                            f"(window of white {pebble.place})"
                        )
                    for other in whites:
                        if j <= other.start < left.start:
                            out.append(
                                f"white {other.place} starts inside "
                                f"[{j}, {left.start})"
                            )
        if gap > 0 and nxt is not None and not colors[i + 1]:
            # a pebble right after free space must be black
            out.append(f"white pebble {nxt.place} right after free space")

    free_total = s.total_free_bandwidth()
    starts = [pebble.start for pebble in pebs]
    for level, place in zip(levels, first_free):
        if free_total >= (1 << level) and place is None:
            out.append(f"bandwidth {free_total} fits level {level} but no free place")
        if place is not None:
            if _free_before(gaps, place.start) >= place.size:
                out.append(f"free bandwidth before first free {place} >= its size")
            idx = bisect.bisect_right(starts, place.start)
            if idx < len(pebs):
                nxt = pebs[idx]
                if not colors[idx] or nxt.size <= place.size:
                    out.append(
                        f"right neighbor {nxt.place} of first free {place} "
                        "not a bigger black pebble"
                    )

    if pebs:
        trimmed = s.copy()
        trimmed.remove_pebble(pebs[-1].id)
        if trimmed.validate():
            out.append("removing the last pebble broke validity")

    last: dict[int, tuple[Pebble, int | None]] = {}  # level -> its last pebble, least level right
    low = None
    for pebble in reversed(pebs):
        if pebble.level not in last:
            last[pebble.level] = (pebble, low)
        if low is None or pebble.level < low:
            low = pebble.level

    for pebble, black in zip(pebs, colors):
        if s.is_black(pebble.id) != black:
            out.append(f"color disagreement at {pebble.place}")
    for level in levels:
        place = first_free[level]
        if s.first_free_place(level) != place:
            out.append(f"first_free_place disagreement at level {level}")
        site = None
        if place is not None:
            i = bisect.bisect_left(starts, place.start)  # pebs[:i] start left of the place
            site = (place.start, pebs[i - 1], colors[i - 1]) if i else (place.start, None, True)
        if s.insert_site(level) != site:
            out.append(f"insert_site disagreement at level {level}")
        if s.last_of_level(level) != last.get(level):
            out.append(f"last_of_level disagreement at level {level}")
        if s.closing_position(level) != closing[level]:
            out.append(f"closing_position disagreement at level {level}")
    for pos in range(0, leaves + 1, max(1, leaves // 8)):
        if s.free_bandwidth_before(pos) != _free_before(gaps, pos):
            out.append(f"free_bandwidth_before disagreement at {pos}")
    return out


# ----------------------------------------------------------------------
# exhaustive verification


@dataclass(slots=True)
class VerifyFailure:
    trace: tuple[str, ...]
    stage: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.stage}] after {' '.join(self.trace) or '<empty>'}: {self.detail}"


@dataclass(slots=True)
class VerifyReport:
    n: int
    depth: int
    ok: bool = True
    states: int = 0
    transitions: int = 0
    max_insert_moves: int = 0
    max_injected: int = 0
    coverage: dict[str, int] = field(default_factory=dict)
    failures: list[VerifyFailure] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    seconds: float = 0.0

    def missing_coverage(self) -> list[str]:
        return [k for k in COVERAGE_TARGETS if not self.coverage.get(k)]

    def to_dict(self) -> dict:
        """The walk's outcome by name, every failure included (time and
        notes excluded)."""
        return {
            "ok": self.ok,
            "states": self.states,
            "transitions": self.transitions,
            "max_insert_moves": self.max_insert_moves,
            "max_injected": self.max_injected,
            "coverage": self.coverage,
            "failures": [str(f) for f in self.failures],
        }

    def summary(self) -> str:
        lines = [
            f"verify n={self.n} depth={self.depth}: "
            f"{'PASS' if self.ok else 'FAIL'}",
            f"states={self.states} transitions={self.transitions} "
            f"max_insert_moves={self.max_insert_moves} "
            f"max_injected={self.max_injected} time={self.seconds:.2f}s",
        ]
        covered = " ".join(
            f"{k}={self.coverage.get(k, 0)}" for k in COVERAGE_TARGETS
        )
        lines.append(f"coverage: {covered}")
        lines.extend(f"note: {n}" for n in self.notes)
        lines.extend(f"failure: {f}" for f in self.failures[:5])
        return "\n".join(lines)


def _rebuild(n: int, pairs, budget: int):
    s = Situation(n)
    for start, level in pairs:
        s.place_pebble(level, start)
    return s, CoinLedger(s, budget)


def _admissible(s: Situation, inserts: list, deletes: list) -> list:
    """The ``(request, token)`` pairs admissible in ``s``, picked from the
    per-level ``inserts`` and ``deletes`` (requests are values, so one
    set serves every state)."""
    free = s.total_free_bandwidth()
    present = {level for _, level, _ in s.segments()}
    levels = range(s.n + 1)
    return [inserts[lv] for lv in levels if (1 << lv) <= free] + [
        deletes[lv] for lv in levels if lv in present
    ]


def exhaustive_verify(
    n: int,
    depth: int,
    options: AllocatorOptions | None = None,
    budget: int = DEFAULT_BUDGET,
) -> VerifyReport:
    """BFS over all admissible request sequences of at most ``depth``
    requests, checking every edge and every state it reaches.

    Deduplicates on the pebble set and expands each state once.  The per-
    edge checks (exception, insert bound, ``cross_check`` of every pebble
    copy against the segment list, charge) run on every edge, and a
    failed cross-check has stage ``index``; the state checks
    (``validate``, ``structural_failures``, the P4 audit) run on the first
    edge that reaches a state, the first edge back to the empty root
    included.  Stops at the first failure and reports the request
    sequence leading to it.  Full branch coverage is required exactly
    when the bounds reach every branch (height >= 4 and depth >= 6), and
    a miss is a ``coverage`` failure; smaller instances pass without the
    deep branches.
    """
    if n < 0:
        raise ValueError(f"height must be >= 0, got {n}")
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    t0 = time.perf_counter()
    report = VerifyReport(n=n, depth=depth)
    root = ()
    parents: dict = {root: None}  # state key -> (parent key, token) of its first edge
    # keys of the states checked so far; kept apart from ``parents``, which
    # holds the root before any edge reaches it
    checked: set = set()
    frontier = [root]
    inserts = [(Request(INSERT, level=lv), f"I{lv}") for lv in range(n + 1)]
    deletes = [(Request(DELETE_LEVEL, level=lv), f"D{lv}") for lv in range(n + 1)]

    def trace_of(key, token=None) -> tuple[str, ...]:
        toks: list[str] = [] if token is None else [token]
        while parents[key] is not None:
            key, tok = parents[key]
            toks.append(tok)
        return tuple(reversed(toks))

    def fail(key, token, stage, detail) -> None:
        report.ok = False
        report.failures.append(VerifyFailure(trace_of(key, token), stage, detail))

    for _ in range(depth):
        if not report.ok:
            break
        nxt = []
        for key in frontier:
            if not report.ok:
                break
            base_s, base_ledger = _rebuild(n, key, budget)
            for request, token in _admissible(base_s, inserts, deletes):
                s = base_s.copy()
                ledger = base_ledger.copy()
                try:
                    log = apply(s, request, options)
                except AllocationError as exc:
                    fail(key, token, "exception", f"{type(exc).__name__}: {exc}")
                    break
                report.transitions += 1
                report.coverage[log.branch] = report.coverage.get(log.branch, 0) + 1
                if log.renamed:
                    report.coverage["insert-renamed"] = (
                        report.coverage.get("insert-renamed", 0) + 1
                    )
                if log.swaps:
                    report.coverage["delete-swap"] = (
                        report.coverage.get("delete-swap", 0) + log.swaps
                    )
                if log.iterations:
                    report.coverage["delete-iteration"] = (
                        report.coverage.get("delete-iteration", 0) + 1
                    )
                if log.kind == INSERT:
                    moves = len(log.moved)
                    report.max_insert_moves = max(report.max_insert_moves, moves)
                    if moves > 3:
                        fail(key, token, "insert-bound", f"{moves} reassignments")
                        break
                key2 = s.to_pairs()
                try:
                    s.cross_check()
                except InvariantError as exc:
                    fail(key, token, "index", str(exc))
                    break
                first = key2 not in checked
                if first:
                    violations = s.validate()
                    if violations:
                        fail(key, token, "validate", "; ".join(map(str, violations[:3])))
                        break
                    problems = structural_failures(s)
                    if problems:
                        fail(key, token, "structure", "; ".join(problems[:3]))
                        break
                try:
                    info = ledger.settle(s, log)
                    ledger.balance_check()
                except AllocationError as exc:
                    fail(key, token, "coins", f"{type(exc).__name__}: {exc}")
                    break
                report.max_injected = max(report.max_injected, info.injected)
                if info.findings:
                    note = f"after {' '.join(trace_of(key, token))}: {info.findings}"
                    if note not in report.notes:
                        report.notes.append(note)
                if first:
                    p4 = ledger.audit(s)
                    if p4:
                        fail(key, token, "audit", "; ".join(map(str, p4[:3])))
                        break
                    checked.add(key2)
                if key2 not in parents:
                    parents[key2] = (key, token)
                    nxt.append(key2)
        frontier = nxt
    report.states = len(parents)
    missing = report.missing_coverage()
    if report.ok and n >= 4 and depth >= 6 and missing:
        report.ok = False
        report.failures.append(VerifyFailure((), "coverage", f"unhit branches: {missing}"))
    report.seconds = time.perf_counter() - t0
    return report
