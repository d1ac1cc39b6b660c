"""Fully sorted baseline allocator (the linear-cost comparison point).

The baseline keeps pebbles sorted by size with only the alignment-forced
gaps between them: every pebble sits at the lowest admissible aligned
position given all smaller-or-equal pebbles.  So every non-empty level is
one run, a single ``(start, level, count)`` segment of the situation, and
the segments ascend by level; both requests are one pass over them.

An insert lands at the end of its size run, rounded up to its size.  When
that slot starts the next run, the run's first pebble is displaced to the
run's end, which may start the run after it, and so on: the cascade moves
at most one pebble per level.  A delete removes the rightmost pebble of
the level, and each higher run whose aligned start moved one slot left
shifts there by moving its last pebble to its front.

So each request rotates a block of consecutive runs by one slot, and it
is one ``Situation.rotate_runs`` call over the segment indices the pass
already holds: no lookup of a pebble by position, no search for a free
slot and no bisection per hop.

Per-request cost is therefore bounded by the number of levels, and on
cascade workloads it really grows linearly with the height, which is the
contrast the main allocator is measured against.
"""

from __future__ import annotations

from bisect import bisect_right
from operator import itemgetter

from .allocator import DELETE_LEVEL, INSERT, MoveLog, admit_insert, hand_over, take_last
from .model import InvariantError, Place, Situation

_LEVEL = itemgetter(1)


def baseline_insert(s: Situation, level: int) -> MoveLog:
    size = admit_insert(s, level)
    runs = s.segments()
    i = bisect_right(runs, level, key=_LEVEL)  # runs[:i] hold the levels <= level
    start, lv, count = runs[i - 1] if i else (0, 0, 0)
    slot = (start + (count << lv) + size - 1) & -size  # the new pebble's, rounded up
    j, lv, target = i, level, slot  # runs[i:j] cascade; the last one displaced and its slot
    for start, run_level, count in runs[i:]:
        if start != target:
            break
        j, lv, target = j + 1, run_level, start + (count << run_level)
    if target + (1 << lv) > s.leaves:
        raise InvariantError("sorted layout overflow; baseline state corrupt")
    moved = s.rotate_runs(i, j, True)  # each run's first pebble to its end, logged bottom up
    pid = s._place(i, level, slot)  # between runs[i - 1] and the rotated runs[i]
    placed = (pid, Place(level, slot))
    return MoveLog(INSERT, level, placed, moved, None, None, 0, 0, "baseline-insert")


def baseline_delete(s: Situation, level: int) -> MoveLog:
    removed = take_last(s, level)[1]
    end, lo, hi = 0, 0, 0  # end of the runs passed so far, after their shifts; runs[lo:hi] shift
    for k, (start, lv, count) in enumerate(s.segments()):
        size = 1 << lv
        want = (end + size - 1) & -size
        if want < start:
            if start - want != size:
                raise InvariantError("sorted layout drifted by more than one slot")
            if lo < hi < k:
                raise InvariantError("sorted layout drifted: a run between two shifted ones stays")
            if lo == hi:
                lo = k
            hi, start = k + 1, want
        end = start + (count << lv)
    moved = s.rotate_runs(lo, hi, False)  # each run's last pebble to its front
    return MoveLog(DELETE_LEVEL, level, None, moved, removed, None, 0, 0, "baseline-delete")


def baseline_delete_by_id(s: Situation, pid: int) -> MoveLog:
    """Delete-by-id via the same reduction the main allocator uses."""
    return hand_over(s, pid, baseline_delete(s, s.pebble(pid).level))
