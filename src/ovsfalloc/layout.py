"""Aligned places, the allocator's error types, and the walks and edits of
a position-ordered layout.

A *place* of level ``l`` is an aligned leaf interval
``[i*2**l, (i+1)*2**l)``.  :func:`scan_runs` walks a layout given as runs
of contiguous equal-size pebbles, the form :class:`~ovsfalloc.model.Situation`
stores, and finds in one pass every P1/P2/P3, alignment and overlap breach
(see the ``model`` module for the properties) and the maximal free runs
that the coin audit recounts.  The scan follows every checked request, so
it keeps its state in local scalars and builds no value for a check that
passes; hot paths build a ``Place`` as ``tuple.__new__(Place, (level,
start))``, without the NamedTuple's Python-level ``__new__``.

The allocator's walks over the same runs (:func:`site`, :func:`last`,
:func:`closing`) hand back run indices, and :func:`respan` rewrites a
window of runs in one slice assignment; none of them reads an id.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple


class AllocationError(Exception):
    """Base class for all allocator errors."""


class BandwidthError(AllocationError):
    """Request does not fit into the remaining free bandwidth."""


class RequestError(AllocationError):
    """Malformed or inapplicable request (bad level, unknown id, ...)."""


class InvariantError(AllocationError):
    """An internal expectation failed; the input situation was not valid."""


class Place(NamedTuple):
    """Aligned interval ``[start, start + 2**level)``."""

    level: int
    start: int

    @property
    def size(self) -> int:
        return 1 << self.level

    @property
    def end(self) -> int:
        return self.start + (1 << self.level)

    def __str__(self) -> str:
        return f"{self.size}@{self.start}"


@dataclass(frozen=True, slots=True)
class Violation:
    """One independently re-checkable breach of a structural constraint.

    ``kind`` is one of ``P1 P2 P3 P4 alignment overlap``; ``pebbles`` holds
    the witness ids and ``place`` the witness place where one applies.
    """

    kind: str
    pebbles: tuple[int, ...] = ()
    place: Place | None = None
    detail: str = ""

    def __str__(self) -> str:
        bits = [self.kind]
        if self.pebbles:
            bits.append("pebbles=" + ",".join(map(str, self.pebbles)))
        if self.place is not None:
            bits.append(f"place={self.place}")
        if self.detail:
            bits.append(self.detail)
        return " ".join(bits)


class PebbleScan(NamedTuple):
    """What one position-ordered walk over the pebbles (or the segments
    that hold them) finds.

    ``violations`` are all P1/P2/P3, alignment and overlap breaches, in
    the order :meth:`Situation.validate` returns them.  ``runs`` are the
    maximal free runs ``(start, end, x_level)`` in position order, where
    ``x_level`` is the least level of the pebbles right of the run (None
    for a run with no pebble to its right).
    """

    violations: tuple[Violation, ...]
    runs: tuple[tuple[int, int, int | None], ...]


def scan_runs(runs, leaves: int, witness) -> PebbleScan:
    """One pass over ``runs``, each ``(start, level, count)``: ``count``
    contiguous pebbles of ``level``, the first at ``start``, in start order.
    ``witness(i, k)``, the id of pebble ``k`` of run ``i``, is called only
    for a breach that names that pebble.

    P2 and P3 are judged on a window of the previous two pebbles, kept as
    scalars.  The violations are stably sorted by place start; at one
    start, the pebbles' own alignment/overlap/P1 breaches come first, then
    P2, then P3.  A scan with no breach sorts nothing.  Free runs follow a
    running maximum end, so overlapping pebbles still leave only leaves
    that no pebble covers.

    A run's pebbles share one level, so a well-formed run, one that starts
    at or after the covered prefix, is aligned and ends inside the tree, is
    judged in one step: each of its pebbles has the color and the free
    bandwidth before it of the first, no gap opens inside it, and P3
    cannot fire there.  Any other run is walked one pebble per step.
    """
    out: list[Violation] = []
    p2: list[Violation] = []
    p3: list[Violation] = []
    # free gaps (start, end, least level of the pebbles since the gap
    # before); that level is unused for the first gap
    gaps: list[tuple[int, int, int]] = []
    low = 0  # least level since the last gap
    top = -1  # largest level seen so far
    uncovered = 0  # ``prev_end`` less the leaves covered so far, overlap-clamped
    prev_end = 0
    # the window: run, index in run and level of the pebble before the last
    # (``pp_*``) and of the last (``p_*``, with its start); the first pebble
    # is always black, so ``pp_*`` is set whenever the last pebble is white
    pp_i = pp_k = pp_level = p_k = p_level = p_start = 0
    p_i = -1  # no pebble yet
    prev_black = True
    for i, (start, level, count) in enumerate(runs):
        size = 1 << level
        end = start + (count << level)
        if prev_end <= start < end <= leaves and not start & (size - 1):
            if start == prev_end:
                if level < low:
                    low = level
            else:
                gaps.append((prev_end, start, low))
                low = level
                uncovered += start - prev_end
            black = top <= level
            if uncovered >= size:  # the free bandwidth before the run
                detail = f"free bandwidth {uncovered} >= {size}"
                out += [
                    Violation("P1", (witness(i, j),), Place(level, start + (j << level)), detail)
                    for j in range(count)
                ]
            prev_end = end
            if level > top:
                top = level
            if not prev_black:
                if not black:
                    p2.append(Violation("P2", (witness(p_i, p_k), witness(i, 0)), Place(level, start)))
                elif pp_level == level:
                    # no level above ``level`` precedes this pebble, so ``pp`` is black
                    witnesses = (witness(pp_i, pp_k), witness(p_i, p_k), witness(i, 0))
                    p3.append(Violation("P3", witnesses, Place(p_level, p_start)))
            if count > 1:
                if not black:  # a white pebble after each white pebble of the run
                    p2 += [
                        Violation("P2", (witness(i, j - 1), witness(i, j)), Place(level, start + (j << level)))
                        for j in range(1, count)
                    ]
                pp_i, pp_k, pp_level = i, count - 2, level
            else:
                pp_i, pp_k, pp_level = p_i, p_k, p_level
            p_i, p_k, p_level = i, count - 1, level
            p_start = end - size
            prev_black = black
            continue
        for k in range(count):
            end = start + size
            covered = prev_end - uncovered  # overlap-clamped
            if start & (size - 1):
                out.append(Violation("alignment", (witness(i, k),), Place(level, start)))
            if start == prev_end:
                if level < low:
                    low = level
            elif start > prev_end:
                gaps.append((prev_end, start, low))
                low = level
            else:
                if p_i >= 0:
                    witnesses = (witness(p_i, p_k), witness(i, k))
                    out.append(Violation("overlap", witnesses, Place(level, start)))
                if level < low:
                    low = level
            black = top <= level
            if start - covered >= size:
                detail = f"free bandwidth {start - covered} >= {size}"
                out.append(Violation("P1", (witness(i, k),), Place(level, start), detail))
            hi = end if end < leaves else leaves
            lo = start if start > prev_end else prev_end
            if hi > lo:
                covered += hi - lo
            if end > prev_end:
                prev_end = end
            uncovered = prev_end - covered
            if level > top:
                top = level
            if not prev_black:
                if not black:
                    p2.append(Violation("P2", (witness(p_i, p_k), witness(i, k)), Place(level, start)))
                elif pp_level == level:
                    witnesses = (witness(pp_i, pp_k), witness(p_i, p_k), witness(i, k))
                    p3.append(Violation("P3", witnesses, Place(p_level, p_start)))
            pp_i, pp_k, pp_level = p_i, p_k, p_level
            p_i, p_k, p_level = i, k, level
            p_start = start
            prev_black = black
            start = end
    violations = ()
    if out or p2 or p3:
        violations = tuple(sorted(out + p2 + p3, key=lambda v: v.place.start))
    # each gap sees the least level of every block after it: a suffix minimum
    free: list[tuple[int, int, int | None]] = []
    for gap_start, gap_end, before in reversed(gaps):
        free.append((gap_start, gap_end, low))
        if before < low:
            low = before
    free.reverse()
    if prev_end < leaves:
        free.append((prev_end, leaves, None))
    return tuple.__new__(PebbleScan, (violations, tuple(free)))  # as for Place


def site(runs: list, leaves: int, level: int) -> tuple[int, int, bool] | None:
    """``(i, start, black)``: in a tree of ``leaves``, the first free place
    of ``level`` starts at ``start``, just before run ``i``, and the pebble
    that ends run ``i - 1`` is black by rule C (true when there is none):
    no run before its own has a bigger level.  None when no place of
    ``level`` is free.  One walk, left to right."""
    size = 1 << level
    cursor = i = 0  # start of the free run ending at run ``i``
    top = below = -1  # largest level of the runs walked, and of all but the last
    for first, lv, count in runs:
        start = (cursor + size - 1) & -size
        if start + size <= first:
            break
        below = top
        if lv > top:
            top = lv
        cursor = first + (count << lv)
        i += 1
    else:
        start = (cursor + size - 1) & -size
        if start + size > leaves:
            return None
    return i, start, not i or below <= runs[i - 1][1]


def last(runs: list, level: int) -> tuple[int, int, int | None] | None:
    """``(i, start, low)``: the last pebble of ``level`` starts at ``start``
    and ends run ``i``, and ``low`` is the least level of the runs after it
    (None if none); None when no run has ``level``.  One walk, right to left."""
    low = None
    for i in range(len(runs) - 1, -1, -1):
        first, lv, count = runs[i]
        if lv == level:
            return i, first + ((count - 1) << lv), low
        if low is None or lv < low:
            low = lv
    return None


def closing(runs: list, level: int) -> tuple[int, int, int] | None:
    """``(j, cp, top)``: the closing position ``cp`` of ``level``, the
    position after its last black pebble or, with none, the start of the
    first bigger pebble; ``j`` the first run from ``cp`` on, and ``top``
    the largest level of the runs before ``j`` (-1 for none).  None when
    there is no closing position."""
    found, top = None, -1
    for j, (first, lv, count) in enumerate(runs):
        if lv > level:  # every later pebble of ``level`` is white
            return (j, first, top) if found is None else found
        if lv > top:
            top = lv
        if lv == level:
            found = j + 1, first + (count << lv), top
    return found


def respan(runs: list, lo: int, cut: int, to: int, new: list) -> int:
    """Replace the pebbles in ``[cut, to)``, held from run ``lo`` on (the
    first run past ``cut`` when none is), by the runs ``new``, in position
    order, merging touching runs of one level, the runs on either side
    too.  Returns the change in the number of runs; InvariantError, with
    nothing changed, where two runs overlap."""
    hi, end = lo, len(runs)
    while hi < end and runs[hi][0] < to:
        hi += 1
    if hi > lo:
        first, level, count = runs[lo]
        if first < cut:
            new.insert(0, (first, level, (cut - first) >> level))
        first, level, count = runs[hi - 1]
        if (stop := first + (count << level)) > to:
            new.append((to, level, (stop - to) >> level))
    a, b = lo - (lo > 0), hi + (hi < end)
    if a < lo:
        new.insert(0, runs[a])
    if hi < end:
        new.append(runs[hi])
    merged = new[:1]
    if merged:
        first, level, count = merged[0]
    for run in new[1:]:
        start, lv, n = run
        if (stop := first + (count << level)) > start:
            raise InvariantError(f"place {Place(lv, start)} is not free")
        if stop == start and lv == level:
            count += n
            merged[-1] = (first, level, count)
        else:
            merged.append(run)
            first, level, count = run
    runs[a:b] = merged
    return len(merged) - (b - a)
