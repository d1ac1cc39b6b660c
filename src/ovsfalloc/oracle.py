"""Brute-force oracles and exhaustive small-instance verification.

Everything here recomputes answers by plain scans over the pebble list,
independent of the indexed query structures, so oracle/implementation
disagreements surface as failures.  One position-ordered pass over
``s.pebbles()`` (``_scan``) yields the pebbles and their rule C colors,
the maximal free gaps between them with a running count of the free
leaves before each, every level's first free place, closing position,
last pebble and least level right of that pebble, and the black
contiguity breaks.  Every scan answer is read from that pass, a count
of free leaves by one bisection into the running counts, so a pass
costs O(pebbles + n) and nothing is sized by ``2**n``.
``structural_failures`` makes one such pass per call.

``exhaustive_verify`` is one breadth-first walk over every admissible
request sequence up to a depth bound.  Every edge (one request from one
state) is checked for an exception, the insert reassignment bound and
the charge of the request, its branches are counted, and the reached
state's pebble copies are cross-checked with its segment list, a
mismatch being an ``index`` failure.  That check proves the segments
ordered, disjoint and maximal, so the walk then keys the state on its
segment list, which is canonical.  Φ is a function of the pebbles, so
the key fixes the whole state, and what depends only on it (validity,
every structural property of valid situations, oracle agreement and the
independent recount of Φ) is checked on the state's first arrival
alone.  At height >= 4 and depth >= 6, where every branch is reachable,
a branch the walk never ran is a ``coverage`` failure.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from dataclasses import dataclass, field
from operator import itemgetter
from typing import NamedTuple

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
_FIRST = itemgetter(0)


# ----------------------------------------------------------------------
# scan-based oracles


class _Scan(NamedTuple):
    """What the one pass of :func:`_scan` yields.  A "per level" list is
    indexed by level, 0 to n; "next" is the index of the pebble right
    after a gap or place.  A white pebble's own checks need the whole
    pass, so ``trailing`` holds its index where they belong."""

    pebs: list[Pebble]
    colors: list[bool]  # rule C, per pebble: True = black, no strictly bigger pebble earlier
    whites: list[Pebble]
    gaps: list[tuple[int, int, int, int]]  # maximal free runs: (start, end, free before, next)
    first_free: list  # per level: ((level, start), free before, next), or None
    closing: list[int | None]  # per level: its last black end, else first bigger start, or None
    last: list  # per level: (its last pebble, least level right of it or None), or None
    decreases: list[str]  # black size decreases found
    breaks: list[tuple[int, str]]  # (level, text) of each black contiguity break found
    trailing: list  # position ordered: failed trailing-gap checks and white pebbles' indexes


def _scan(s: Situation) -> _Scan:
    """The one position-ordered pass over ``s.pebbles()`` that every
    oracle answer is read from.

    Gaps are the maximal free runs; they follow a running maximum end, so
    overlapping pebbles still leave only leaves that no pebble covers.
    """
    pebs = s.pebbles()
    leaves = s.leaves
    levels = s.n + 1
    colors: list[bool] = []
    whites: list[Pebble] = []
    gaps: list[tuple[int, int, int, int]] = []
    closing: list[int | None] = [None] * levels
    last_index: dict[int, int] = {}  # level -> index of its last pebble, in the order of those
    decreases: list[str] = []
    breaks: list[tuple[int, str]] = []
    trailing: list = []
    biggest = top_black = -1  # largest level so far, of any pebble and of a black one
    black_level = black_start = -1  # the last black pebble so far
    covered = free = 0  # end of the covered prefix, free leaves before it
    # the previous pebble: a zero size and black, so that nothing is
    # checked before the first pebble
    prev_end = prev_size = 0
    prev_black = True
    for i, pebble in enumerate(pebs):
        level = pebble.level
        start = pebble.start
        size = 1 << level
        black = biggest <= level
        colors.append(black)
        gapped = start > prev_end
        if gapped and start - prev_end < prev_size:
            trailing.append(f"gap {start - prev_end} after {pebs[i - 1].place} smaller than the pebble")
        if not prev_black:
            trailing.append(i - 1)
        if black:
            if level < top_black:
                decreases.append(f"black sizes decrease at {pebble.place}")
            else:
                top_black = level
            # a black pebble is as big as any before it, so the previous
            # black pebble is the last black one of ``level`` if any is
            if level == black_level and start != black_start + size:
                breaks.append((level, f"black level-{level} pebbles not contiguous: {black_start}, {start}"))
            black_level = level
            black_start = start
            closing[level] = start + size
            if level > biggest:  # the first pebble bigger than the levels between
                for lower in range(biggest + 1, level):
                    closing[lower] = start
                biggest = level
        else:
            whites.append(pebble)
            if gapped:  # a pebble right after free space must be black
                trailing.append(f"white pebble {pebble.place} right after free space")
        if start > covered:
            gaps.append((covered, start, free, i))
            free += start - covered
        prev_end = start + size
        if prev_end > covered:
            covered = prev_end
        last_index.pop(level, None)
        last_index[level] = i
        prev_size = size
        prev_black = black
    if 0 < leaves - prev_end < prev_size:
        trailing.append(f"gap {leaves - prev_end} after {pebs[-1].place} smaller than the pebble")
    if not prev_black:
        trailing.append(len(pebs) - 1)
    if covered < leaves:
        gaps.append((covered, leaves, free, len(pebs)))
    # a gap that holds a place of some level holds one of every smaller
    # level, so the gaps are met in level order
    first: list = []
    level = 0  # the least level with no free place found yet
    for lo, hi, free, k in gaps:
        while level < levels:
            size = 1 << level
            start = (lo + size - 1) & -size
            if start + size > hi:
                break
            first.append(((level, start), free + start - lo, k))
            level += 1
    first += [None] * (levels - level)
    last: list = [None] * levels
    low = None
    for level in reversed(last_index):  # by their last pebble, right to left
        last[level] = (pebs[last_index[level]], low)
        if low is None or level < low:
            low = level
    return _Scan(pebs, colors, whites, gaps, first, closing, last, decreases, breaks, trailing)


def _free_until(gaps: list[tuple[int, int, int, int]], pos: int) -> int:
    """Free leaves before ``pos``: one bisection into the gap starts."""
    g = bisect_left(gaps, pos, key=_FIRST) - 1  # the last gap starting before ``pos``
    if g < 0:
        return 0
    lo, hi, free, _ = gaps[g]
    return free + (hi if hi < pos else pos) - lo


def canput_oracle(s: Situation, level: int) -> bool:
    """Exhaustive scan: does any aligned free place of ``level`` exist?"""
    return scan_first_free_place(s, level) is not None


def scan_first_free_place(s: Situation, level: int) -> Place | None:
    if level < 0:
        raise RequestError(f"level {level} is negative")
    if level > s.n:
        return None  # no place of ``level`` fits in the tree
    found = _scan(s).first_free[level]
    return None if found is None else Place(*found[0])


def scan_free_before(s: Situation, pos: int) -> int:
    if not 0 <= pos <= s.leaves:
        raise RequestError(f"position {pos} out of [0, {s.leaves}]")
    return _free_until(_scan(s).gaps, pos)


def scan_closing_position(s: Situation, level: int) -> int | None:
    if level < 0:
        raise RequestError(f"level {level} is negative")
    if level > s.n:
        return None  # no pebble of ``level`` or bigger fits in the tree
    return _scan(s).closing[level]


# ----------------------------------------------------------------------
# structural properties of valid situations


def structural_failures(s: Situation) -> list[str]:
    """Check every structural property a valid situation must satisfy.

    Assumes ``s.validate()`` already came back empty; returns human-
    readable descriptions of any failed property, and of any answer of the
    situation's indexed queries that disagrees with the scan.
    """
    pebs, colors, whites, gaps, first_free, closing, last, decreases, breaks, trailing = _scan(s)
    leaves = s.leaves
    out: list[str] = []
    if pebs and pebs[0].start != 0:
        out.append(f"first pebble at {pebs[0].start}, not 0")
    out += decreases
    top_white = -1
    for pebble in whites:
        if pebble.level <= top_white:
            out.append(f"white sizes not strictly increasing at {pebble.place}")
        top_white = pebble.level
    if breaks:
        out += [text for _, text in sorted(breaks, key=_FIRST)]  # stable: by level

    for entry in trailing:
        if isinstance(entry, str):
            out.append(entry)
            continue
        i = entry
        pebble = pebs[i]
        if i == 0:
            out.append(f"white pebble {pebble.place} with no left neighbor")
            continue
        gap = (pebs[i + 1].start if i + 1 < len(pebs) else leaves) - pebble.end
        left = pebs[i - 1]
        if not colors[i - 1]:
            out.append(f"white pebble {pebble.place} behind a white neighbor")
        if left.level <= pebble.level:
            out.append(f"white pebble {pebble.place} not behind a bigger pebble")
        if left.end != pebble.start:
            out.append(f"free space between {left.place} and white {pebble.place}")
        if gap < left.size - pebble.size:
            out.append(f"white {pebble.place}: trailing gap {gap} < {left.size - pebble.size}")
        # no other white pebble may have a size in [a, b)
        for other in whites:
            if other is not pebble and pebble.level <= other.level and other.size < left.size:
                out.append(f"white {other.place} inside the size window of {pebble.place}")
        # everything between the doubled-size closing position and the
        # backing black pebble is solidly covered, with no white starts
        if pebble.level + 1 <= s.n:
            j = closing[pebble.level + 1]
            if j is not None and j < left.start:
                if _free_until(gaps, left.start) > _free_until(gaps, j):
                    out.append(f"free leaf between {j} and {left.start} (window of white {pebble.place})")
                for other in whites:
                    if j <= other.start < left.start:
                        out.append(f"white {other.place} starts inside [{j}, {left.start})")

    free_total = s.total_free_bandwidth()
    places: list = []  # the first free place of each level, and its insert site
    sites: list = []
    for level, found in enumerate(first_free):
        if found is None:
            if free_total >= (1 << level):
                out.append(f"bandwidth {free_total} fits level {level} but no free place")
            places.append(None)
            sites.append(None)
            continue
        place, free, k = found  # pebs[:k] start left of the place
        if free >= (1 << level):
            out.append(f"free bandwidth before first free {Place(*place)} >= its size")
        if k < len(pebs) and (not colors[k] or pebs[k].level <= level):
            out.append(
                f"right neighbor {pebs[k].place} of first free {Place(*place)} "
                "not a bigger black pebble"
            )
        places.append(place)
        sites.append((place[1], pebs[k - 1], colors[k - 1]) if k else (place[1], None, True))

    if pebs:
        trimmed = s.copy()
        trimmed.remove_pebble(pebs[-1].id)
        if trimmed.validate():
            out.append("removing the last pebble broke validity")

    for pebble, black in zip(pebs, colors):
        if s.is_black(pebble.id) != black:
            out.append(f"color disagreement at {pebble.place}")
    # each query's answers at every level, compared at once and read level
    # by level only when they differ
    levels = range(s.n + 1)
    answers = (
        ("first_free_place", [s.first_free_place(level) for level in levels], places),
        ("insert_site", [s.insert_site(level) for level in levels], sites),
        ("last_of_level", [s.last_of_level(level) for level in levels], last),
        ("closing_position", [s.closing_position(level) for level in levels], closing),
    )
    if any(got != want for _, got, want in answers):
        out += [
            f"{query} disagreement at level {level}"
            for level in levels
            for query, got, want in answers
            if got[level] != want[level]
        ]
    for pos in range(0, leaves + 1, max(1, leaves // 8)):
        if s.free_bandwidth_before(pos) != _free_until(gaps, pos):
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


def _rebuild(n: int, segments, budget: int):
    """The state of a walk key, its pebbles placed one by one."""
    s = Situation(n)
    for start, level, count in segments:
        for k in range(count):
            s.place_pebble(level, start + (k << level))
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

    Deduplicates on the segment list, read once the cross-check has
    passed, and expands each state once.  The per-edge checks (any
    exception from ``apply``, insert bound, ``cross_check`` of every pebble
    copy against the segment list, charge) run on every edge, and a failed
    cross-check has stage ``index``; the state checks (``validate``,
    ``structural_failures``, the P4 audit) run on the first edge that
    reaches a state, the first edge back to the empty root included.  A
    negative ``budget`` raises ``ValueError``, as a negative height or
    depth does.  Stops at the first failure and reports the request
    sequence leading to it.  Full branch coverage is required exactly
    when the bounds reach every branch (height >= 4 and depth >= 6), and
    a miss is a ``coverage`` failure; smaller instances pass without the
    deep branches.
    """
    if n < 0:
        raise ValueError(f"height must be >= 0, got {n}")
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
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

    transitions = max_insert_moves = max_injected = 0
    coverage: dict[str, int] = {}
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
                except Exception as exc:  # a broken allocator fails the walk, not ``verify``
                    fail(key, token, "exception", f"{type(exc).__name__}: {exc}")
                    break
                transitions += 1
                coverage[log.branch] = coverage.get(log.branch, 0) + 1
                if log.renamed:
                    coverage["insert-renamed"] = coverage.get("insert-renamed", 0) + 1
                if log.swaps:
                    coverage["delete-swap"] = coverage.get("delete-swap", 0) + log.swaps
                if log.iterations:
                    coverage["delete-iteration"] = coverage.get("delete-iteration", 0) + 1
                if log.kind == INSERT:
                    moves = len(log.moved)
                    max_insert_moves = max(max_insert_moves, moves)
                    if moves > 3:
                        fail(key, token, "insert-bound", f"{moves} reassignments")
                        break
                try:
                    s.cross_check()
                except InvariantError as exc:
                    fail(key, token, "index", str(exc))
                    break
                key2 = s.segments()  # canonical once the cross-check has passed
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
                max_injected = max(max_injected, info.injected)
                if info.findings:  # each edge is expanded once, so its note is new
                    report.notes.append(f"after {' '.join(trace_of(key, token))}: {info.findings}")
                if first:
                    p4 = ledger.audit(s)
                    if p4:
                        fail(key, token, "audit", "; ".join(map(str, p4[:3])))
                        break
                    checked.add(key2)
                    if key2 not in parents:  # only the root is there before its first check
                        parents[key2] = (key, token)
                        nxt.append(key2)
        frontier = nxt
    report.states = len(parents)
    report.transitions = transitions
    report.max_insert_moves = max_insert_moves
    report.max_injected = max_injected
    report.coverage = coverage
    missing = report.missing_coverage()
    if report.ok and n >= 4 and depth >= 6 and missing:
        report.ok = False
        report.failures.append(VerifyFailure((), "coverage", f"unhit branches: {missing}"))
    report.seconds = time.perf_counter() - t0
    return report
