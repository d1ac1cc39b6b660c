"""Fully sorted baseline allocator (the linear-cost comparison point).

The baseline keeps pebbles sorted by size with only the alignment-forced
gaps between them: every pebble sits at the lowest admissible aligned
position given all smaller-or-equal pebbles.  An insert lands at the end
of its size run; whoever occupied that slot is removed and re-inserted at
the end of its own run, cascading upward through at most one pebble per
level.  A delete removes the rightmost pebble of the level and pulls each
higher run back left by at most one slot.

Per-request cost is therefore bounded by the number of levels, and on
cascade workloads it really grows linearly with the height, which is the
contrast the main allocator is measured against.
"""

from __future__ import annotations

from .allocator import DELETE_LEVEL, INSERT, MoveLog, hand_over
from .model import BandwidthError, InvariantError, Place, RequestError, Situation


def _run_target(s: Situation, level: int) -> int:
    """Lowest aligned slot after every pebble of size <= 2**level."""
    end = 0
    for lv in range(level + 1):
        starts = s.level_starts(lv)
        if starts:
            end = max(end, starts[-1] + (1 << lv))
    size = 1 << level
    return -(-end // size) * size


def baseline_insert(s: Situation, level: int) -> MoveLog:
    if not 0 <= level <= s.n:
        raise RequestError(f"level {level} out of [0, {s.n}]")
    if (1 << level) > s.total_free_bandwidth():
        raise BandwidthError(f"size {1 << level} exceeds free bandwidth")
    log = MoveLog(INSERT, level=level)
    carry: tuple[int, Place] | None = None  # displaced pebble: (id, old place)
    carry_level = level
    while True:
        target = _run_target(s, carry_level)
        if target + (1 << carry_level) > s.leaves:
            raise InvariantError("sorted layout overflow; baseline state corrupt")
        occupier = s.pebble_at(target)
        displaced = None
        if occupier is not None:
            displaced = (occupier.id, occupier.place, occupier.level)
            s.remove_pebble(occupier.id)
        if carry is None:
            new = s.place_pebble(carry_level, target)
            log.placed = (new.id, new.place)
        else:
            s.place_pebble(carry_level, target, pid=carry[0])
            log.moved.append((carry[0], carry[1], Place(carry_level, target)))
        if displaced is None:
            break
        carry = (displaced[0], displaced[1])
        carry_level = displaced[2]
    log.branch = "baseline-insert"
    return log


def baseline_delete(s: Situation, level: int) -> MoveLog:
    if not 0 <= level <= s.n:
        raise RequestError(f"level {level} out of [0, {s.n}]")
    victim = s.rightmost_of_level(level)
    if victim is None:
        raise RequestError(f"no pebble of level {level}")
    log = MoveLog(DELETE_LEVEL, level=level)
    log.removed = victim.id
    s.remove_pebble(victim.id)
    prev_end = 0
    for lv in range(s.n + 1):
        starts = s.level_starts(lv)
        if not starts:
            continue
        size = 1 << lv
        want = -(-prev_end // size) * size
        first = starts[0]
        if want < first:
            if first - want != size:
                raise InvariantError("sorted layout drifted by more than one slot")
            mover = s.rightmost_of_level(lv)
            old = mover.place
            s.move_pebble(mover.id, want)
            log.moved.append((mover.id, old, Place(lv, want)))
            starts = s.level_starts(lv)
        prev_end = starts[-1] + size
    log.branch = "baseline-delete"
    return log


def baseline_delete_by_id(s: Situation, pid: int) -> MoveLog:
    """Delete-by-id via the same reduction the main allocator uses."""
    return hand_over(s, pid, baseline_delete(s, s.pebble(pid).level))
