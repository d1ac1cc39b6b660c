"""Brute-force oracles and exhaustive small-instance verification.

Everything here recomputes answers by plain scans over the pebble list,
independent of the segment list the allocator walks, so oracle/allocator
disagreements surface as failures.  One position-ordered pass over
``s.pebbles()`` (``_scan``) yields the pebbles and their rule C colors,
the maximal free gaps between them with a running count of the free
leaves before each, every level's first free place, closing position,
last pebble and least level right of that pebble, and the black
contiguity breaks.  Every scan answer is read from that pass, a count
of free leaves by one bisection into the running counts, so a pass
costs O(pebbles + n) and nothing is sized by ``2**n``.
``structural_failures`` makes one such pass per call, and compares it
with the three segment walks a request runs, :func:`~ovsfalloc.layout.site`,
``last`` and ``closing``, at every level: each field a walk returns,
its segment index read as the pebbles on either side of it.

``exhaustive_verify`` is one breadth-first walk over every admissible
request sequence up to a depth bound.  Every edge (one request from one
state) is checked for an exception, the insert reassignment bound and
the charge of the request, its branches are counted, and the reached
state's id maps are cross-checked with its segment list, a
mismatch being an ``index`` failure.  That check proves the segments
ordered, disjoint and maximal, so the walk then keys the state on its
segment list, which is canonical.  Φ is a function of the pebbles, so
the key fixes the whole state, and what depends only on it (validity,
every structural property of valid situations, oracle agreement and the
independent recount of Φ) is checked on the state's first arrival
alone.  At height >= 4 and depth >= 6, where every branch is reachable,
a branch the walk never ran is a ``coverage`` failure.

``MUTANTS`` names the mutants the walk must catch, each one line of
``allocator.py`` replaced; ``mutant_apply`` builds the mutant's ``apply``.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from dataclasses import dataclass, field
from operator import itemgetter
from typing import NamedTuple

from . import allocator, layout
from .allocator import (
    DELETE_LEVEL, EXIT_END, EXIT_NO_FIT, INSERT, PLACE_DIRECT, PLACE_OVER_SMALL, ROTATE_PAIR,
    SHUFFLE_BLACK, SHUFFLE_WHITE, Request, apply,
)
from .coins import DEFAULT_BUDGET, CoinLedger
from .model import AllocationError, InvariantError, Pebble, Place, Situation
from .model import check_height

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
    indexed by level, 0 to n; "next" is the index of the first pebble
    past a gap or place, or from a position on.  A white pebble's own
    checks need the whole pass, so ``trailing`` holds its index where
    they belong."""

    pebs: list[Pebble]
    colors: list[bool]  # rule C, per pebble: True = black, no strictly bigger pebble earlier
    whites: list[Pebble]
    gaps: list[tuple[int, int, int, int]]  # maximal free runs: (start, end, free before, next)
    first_free: list  # per level: (start, free before, next), or None
    # per level: (its last black end, else first bigger start; next; the
    # largest level before it or -1), or None
    closing: list
    last: list  # per level: (index of its last pebble, least level right of it or None), or None
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
    closing: list = [None] * levels
    last_index: dict[int, int] = {}  # level -> index of its last pebble, in the order of those
    breaks: list[tuple[int, str]] = []
    trailing: list = []
    biggest = -1  # largest level so far
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
        black = biggest <= level  # so the first pebble is black, and black sizes never decrease
        colors.append(black)
        gapped = start > prev_end
        if gapped and start - prev_end < prev_size:
            trailing.append(f"gap {start - prev_end} after {pebs[i - 1].place} smaller than the pebble")
        if not prev_black:
            trailing.append(i - 1)
        if black:
            # a black pebble is as big as any before it, so the previous
            # black pebble is the last black one of ``level`` if any is
            if level == black_level and start != black_start + size:
                breaks.append((level, f"black level-{level} pebbles not contiguous: {black_start}, {start}"))
            black_level = level
            black_start = start
            closing[level] = (start + size, i + 1, level)
            if level > biggest:  # the first pebble bigger than the levels between
                for lower in range(biggest + 1, level):
                    closing[lower] = (start, i, biggest)
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
            first.append((start, free + start - lo, k))
            level += 1
    first += [None] * (levels - level)
    last: list = [None] * levels
    low = None
    for level in reversed(last_index):  # by their last pebble, right to left
        last[level] = (last_index[level], low)
        if low is None or level < low:
            low = level
    return _Scan(pebs, colors, whites, gaps, first, closing, last, breaks, trailing)


def _free_until(gaps: list[tuple[int, int, int, int]], pos: int) -> int:
    """Free leaves before ``pos``: one bisection into the gap starts."""
    g = bisect_left(gaps, pos, key=_FIRST) - 1  # the last gap starting before ``pos``
    if g < 0:
        return 0
    lo, hi, free, _ = gaps[g]
    return free + (hi if hi < pos else pos) - lo


def _seg_cut(segs, i: int):
    """The starts either side of the cut before segment ``i``: of that
    segment and of the last pebble of the one before (None where there is
    none); None for an index outside ``0..len(segs)``."""
    if not 0 <= i <= len(segs):
        return None
    after = segs[i][0] if i < len(segs) else None
    if not i:
        return after, None
    first, level, count = segs[i - 1]
    return after, first + ((count - 1) << level)


def _peb_cut(pebs: list[Pebble], k: int):
    """The starts of pebble ``k`` and of the one before it (None where there is none)."""
    return (pebs[k].start if k < len(pebs) else None), (pebs[k - 1].start if k else None)


# ----------------------------------------------------------------------
# structural properties of valid situations


def structural_failures(s: Situation) -> list[str]:
    """Check every structural property a valid situation must satisfy.

    Assumes ``s.validate()`` already came back empty; returns human-
    readable descriptions of any failed property, and of any answer of the
    walks over the situation's segments that disagrees with the scan.
    """
    pebs, colors, whites, gaps, first_free, closing, last, breaks, trailing = _scan(s)
    leaves = s.leaves
    out: list[str] = []
    if pebs and pebs[0].start != 0:
        out.append(f"first pebble at {pebs[0].start}, not 0")
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
        found = closing[pebble.level + 1] if pebble.level < s.n else None
        if found is not None and found[0] < left.start:
            j = found[0]
            if _free_until(gaps, left.start) > _free_until(gaps, j):
                out.append(f"free leaf between {j} and {left.start} (window of white {pebble.place})")
            for other in whites:
                if j <= other.start < left.start:
                    out.append(f"white {other.place} starts inside [{j}, {left.start})")

    free_total = s.total_free_bandwidth()
    for level, found in enumerate(first_free):
        if found is None:
            if free_total >= (1 << level):
                out.append(f"bandwidth {free_total} fits level {level} but no free place")
            continue
        start, free, k = found  # pebs[:k] start left of the place
        if free >= (1 << level):
            out.append(f"free bandwidth before first free {Place(level, start)} >= its size")
        if k < len(pebs) and (not colors[k] or pebs[k].level <= level):
            out.append(
                f"right neighbor {pebs[k].place} of first free {Place(level, start)} "
                "not a bigger black pebble"
            )

    if pebs:
        trimmed = s.copy()
        trimmed.remove_pebble(pebs[-1].id)
        if trimmed.validate():
            out.append("removing the last pebble broke validity")

    # the walks a request runs, every field at every level, a segment index
    # read as the starts either side of it; compared at once, and read level
    # by level only when they differ
    segs = s.segments()
    levels = range(s.n + 1)
    sites = [layout.site(segs, leaves, level) for level in levels]
    lasts = [layout.last(segs, level) for level in levels]
    closings = [layout.closing(segs, level) for level in levels]
    answers = (  # (walk, its answers, the scan's); ``f and ...`` keeps a None
        ("site", [f and (f[1], _seg_cut(segs, f[0]), f[2]) for f in sites],
         [f and (f[0], _peb_cut(pebs, f[2]), not f[2] or colors[f[2] - 1]) for f in first_free]),
        ("last", [f and (f[1], f[2], _seg_cut(segs, f[0] + 1)) for f in lasts],
         [f and (pebs[f[0]].start, f[1], _peb_cut(pebs, f[0] + 1)) for f in last]),
        ("closing", [f and (f[1], _seg_cut(segs, f[0]), f[2]) for f in closings],
         [f and (f[0], _peb_cut(pebs, f[1]), f[2]) for f in closing]),
    )
    if any(got != want for _, got, want in answers):
        out += [
            f"{walk} disagreement at level {level}"
            for level in levels
            for walk, got, want in answers
            if got[level] != want[level]
        ]
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
    states: int = 0
    transitions: int = 0
    max_insert_moves: int = 0
    max_injected: int = 0
    coverage: dict[str, int] = field(default_factory=dict)
    failures: list[VerifyFailure] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures

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


# the verifier's mutants: name -> (a line of ``allocator.py``, the line
# that replaces it); each disables one subtle step the checks must notice
MUTANTS = {
    "skip-delete-swap": ("if g and any(seg[1] > q_level for seg in segs[: g - 1]):", "if False:"),
    "skip-insert-rename": ("renamed = a < b_size", "renamed = False"),
}


def mutant_apply(name: str):
    """``apply`` of ``allocator.py`` with the line ``MUTANTS[name]`` names
    replaced; ``ValueError`` unless that line occurs exactly once."""
    if name not in MUTANTS:
        raise ValueError(f"unknown mutant {name!r}, not one of {', '.join(sorted(MUTANTS))}")
    line, replacement = MUTANTS[name]
    path = allocator.__file__
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines(keepends=True)
    hits = [i for i, text in enumerate(lines) if text.strip() == line]
    if len(hits) != 1:
        raise ValueError(f"mutant {name!r}: {len(hits)} lines of allocator.py read {line!r}, not 1")
    lines[hits[0]] = lines[hits[0]].replace(line, replacement)
    # ``@dataclass`` looks the module up in ``sys.modules`` by this name
    namespace = {"__name__": allocator.__name__, "__package__": allocator.__package__}
    exec(compile("".join(lines), path, "exec"), namespace)
    return namespace["apply"]


def exhaustive_verify(
    n: int,
    depth: int,
    mutant: str | None = None,
    budget: int = DEFAULT_BUDGET,
) -> VerifyReport:
    """BFS over all admissible request sequences of at most ``depth``
    requests, checking every edge and every state it reaches.

    Deduplicates on the segment list, read once the cross-check has
    passed, and expands each state once.  The per-edge checks (any
    exception from ``apply``, insert bound, ``cross_check`` of the id
    maps against the segment list, charge) run on every edge, and a failed
    cross-check has stage ``index``; the state checks (``validate``,
    ``structural_failures``, the P4 audit) run on the first edge that
    reaches a state, the first edge back to the empty root included.  A
    negative ``budget`` or ``depth`` raises ``ValueError``, as does a
    height that :func:`~ovsfalloc.model.check_height` refuses.  Stops at
    the first failure and reports the request sequence leading to it;
    stops early once a level adds no state (the report's ``depth`` stays
    the bound asked for).  Full branch coverage is required exactly when
    the bounds reach every branch (height >= 4 and depth >= 6), and a miss
    is a ``coverage`` failure; smaller instances pass without the deep
    branches.  A ``mutant`` names an entry of ``MUTANTS``: the walk then
    runs that edit of the allocator (:func:`mutant_apply`) in place of
    ``apply``; an unknown name raises ``ValueError``.
    """
    check_height(n)
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    step = apply if mutant is None else mutant_apply(mutant)
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
        report.failures.append(VerifyFailure(trace_of(key, token), stage, detail))

    transitions = max_insert_moves = max_injected = 0
    coverage: dict[str, int] = {}
    for _ in range(depth):
        if report.failures or not frontier:  # an empty frontier reaches nothing deeper
            break
        nxt = []
        for key in frontier:
            if report.failures:
                break
            base_s, base_ledger = _rebuild(n, key, budget)
            for request, token in _admissible(base_s, inserts, deletes):
                s = base_s.copy()
                ledger = base_ledger.copy()
                try:
                    log = step(s, request)
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
    if not report.failures and n >= 4 and depth >= 6 and missing:
        report.failures.append(VerifyFailure((), "coverage", f"unhit branches: {missing}"))
    report.seconds = time.perf_counter() - t0
    return report
