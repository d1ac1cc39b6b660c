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

So every hop rotates one run, and it is one segment step:
``Situation.move_at`` is given the start the pass already holds and
rewrites that run's segment in place, with no lookup of the pebble by
position and no search for a free slot.

Per-request cost is therefore bounded by the number of levels, and on
cascade workloads it really grows linearly with the height, which is the
contrast the main allocator is measured against.
"""

from __future__ import annotations

from bisect import bisect_right
from operator import itemgetter

from .allocator import DELETE_LEVEL, INSERT, MoveLog, hand_over
from .model import BandwidthError, InvariantError, Place, RequestError, Situation

_LEVEL = itemgetter(1)


def baseline_insert(s: Situation, level: int) -> MoveLog:
    if not 0 <= level <= s.n:
        raise RequestError(f"level {level} out of [0, {s.n}]")
    size = 1 << level
    if size > s.total_free_bandwidth():
        raise BandwidthError(f"size {size} exceeds free bandwidth {s.total_free_bandwidth()}")
    runs = s.segments()
    i = bisect_right(runs, level, key=_LEVEL)  # runs[:i] hold the levels <= level
    start, lv, count = runs[i - 1] if i else (0, 0, 0)
    place = Place(level, -(-(start + (count << lv)) // size) * size)
    hops = []  # (start of a run the cascade passes, where its first pebble goes)
    lv, target = place
    for start, run_level, count in runs[i:]:
        if start != target:
            break
        lv, target = run_level, start + (count << run_level)
        hops.append((start, target))
    if target + (1 << lv) > s.leaves:
        raise InvariantError("sorted layout overflow; baseline state corrupt")
    moved = []
    for start, new_start in reversed(hops):  # top down, each onto a free slot
        p = s.move_at(start, new_start)
        old, new = tuple.__new__(Place, (p.level, start)), tuple.__new__(Place, (p.level, new_start))
        moved.append((p.id, old, new))
    moved.reverse()  # logged bottom up
    new = s.place_pebble(level, place.start)
    log = MoveLog(INSERT, level=level, placed=(new.id, place), branch="baseline-insert")
    log.moved = moved
    return log


def baseline_delete(s: Situation, level: int) -> MoveLog:
    if not 0 <= level <= s.n:
        raise RequestError(f"level {level} out of [0, {s.n}]")
    removed = s.remove_last(level)
    if removed is None:
        raise RequestError(f"no pebble of level {level}")
    victim = removed[0]
    log = MoveLog(DELETE_LEVEL, level=level, removed=victim.id, branch="baseline-delete")
    end = 0  # end of the runs passed so far, after their shifts
    for start, lv, count in s.segments():
        size = 1 << lv
        want = -(-end // size) * size
        if want < start:
            if start - want != size:
                raise InvariantError("sorted layout drifted by more than one slot")
            mover = s.move_at(start + (count - 1) * size, want)
            old, new = tuple.__new__(Place, (lv, mover.start)), tuple.__new__(Place, (lv, want))
            log.moved.append((mover.id, old, new))
            start = want
        end = start + count * size
    return log


def baseline_delete_by_id(s: Situation, pid: int) -> MoveLog:
    """Delete-by-id via the same reduction the main allocator uses."""
    return hand_over(s, pid, baseline_delete(s, s.pebble(pid).level))
