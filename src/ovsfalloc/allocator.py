"""Insert and delete procedures with O(1)-amortized reallocations.

Both procedures mutate the situation in place and return a
:class:`MoveLog` describing the request: the newly placed pebble, every
reassignment as (id, old place, new place), the removed pebble and the
number of compaction iterations a deletion performed.

Admissibility errors (bad level, insufficient bandwidth, missing pebble)
are raised before anything is mutated, so a rejected request leaves the
situation bit-identical.  Both procedures assume the input situation is
valid; replaying through :mod:`ovsfalloc.replay` re-validates after every
request unless explicitly disabled.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .model import (
    BandwidthError,
    InvariantError,
    Place,
    RequestError,
    Situation,
)

INSERT = "insert"
DELETE_LEVEL = "delete_level"
DELETE_ID = "delete_id"

# insert branch labels (which arm of the case analysis ran)
PLACE_DIRECT = "place-direct"  # left neighbor absent or black
PLACE_OVER_SMALL = "place-over-small"  # white neighbor backed by smaller black
ROTATE_PAIR = "rotate-pair"  # backing black has the requested size
SHUFFLE_WHITE = "shuffle-white"  # bigger backing black, closing pebble white
SHUFFLE_BLACK = "shuffle-black"  # bigger backing black, closing pebble black

# delete exit labels
EXIT_END = "delete-end-of-tree"  # nothing remains right of the gap
EXIT_NO_FIT = "delete-no-fit"  # smallest right pebble does not fit the gap


@dataclass(frozen=True, slots=True)
class Request:
    """One trace step: insert at a level, or delete by level / by id."""

    kind: str
    level: int | None = None
    id: int | None = None


@dataclass(slots=True)
class AllocatorOptions:
    """Testing hooks that disable individual algorithm steps.

    Used by the verification harness to prove the test suite notices the
    subtle steps; production callers keep the defaults.
    """

    skip_delete_swap: bool = False
    skip_insert_rename: bool = False


_DEFAULTS = AllocatorOptions()


@dataclass(slots=True)
class MoveLog:
    """Everything one request did, in deterministic order.

    ``moved`` holds net reassignments (original place before the request,
    final place after it); its length is the reassignment cost.  A code
    handover performed for a delete-by-id is reported in ``relabel`` and
    costs zero moves unless the caller opts into counting it.
    """

    kind: str
    level: int | None = None
    placed: tuple[int, Place] | None = None
    moved: list[tuple[int, Place, Place]] = field(default_factory=list)
    removed: int | None = None
    relabel: tuple[int, int] | None = None
    iterations: int = 0
    swaps: int = 0
    branch: str = ""
    renamed: bool = False

    def cost(self, count_relabel: bool = False) -> int:
        extra = 1 if (count_relabel and self.relabel is not None) else 0
        return len(self.moved) + extra

    def op_token(self) -> str:
        if self.kind == INSERT:
            return f"I{self.level}"
        if self.kind == DELETE_LEVEL:
            return f"D{self.level}"
        return f"DID{self.removed}"


def insert(s: Situation, level: int, options: AllocatorOptions | None = None) -> MoveLog:
    """Insert a pebble of ``level`` into a valid situation.

    The new pebble lands on the first free place of its size; if that
    breaks an invariant, at most three existing pebbles are reassigned to
    repair it.
    """
    options = options or _DEFAULTS
    if not 0 <= level <= s.n:
        raise RequestError(f"level {level} out of [0, {s.n}]")
    a = 1 << level
    if a > s.total_free_bandwidth():
        raise BandwidthError(
            f"size {a} exceeds free bandwidth {s.total_free_bandwidth()}"
        )
    site = s.insert_site(level)
    if site is None:
        raise InvariantError(
            "no free place despite sufficient bandwidth; input situation invalid"
        )
    start, left, black = site
    log = MoveLog(INSERT, level=level)
    if black:
        new = s.place_pebble(level, start)
        log.placed = (new.id, new.place)
        log.branch = PLACE_DIRECT
        return log

    b = left  # white neighbor of the target place
    c = s.pebble_before(b.start)
    if c is None:
        raise InvariantError("white pebble without left neighbor; input invalid")

    if c.size < a:
        new = s.place_pebble(level, start)
        log.placed = (new.id, new.place)
        log.branch = PLACE_OVER_SMALL
        return log

    if c.size == a:
        # rotate: new pebble right after the backing black, old white after it
        s.remove_pebble(b.id)
        new = s.place_pebble(level, c.end)
        s.place_pebble(b.level, new.end, pid=b.id)
        log.placed = (new.id, new.place)
        log.moved.append((b.id, b.place, tuple.__new__(Place, (b.level, new.end))))
        log.branch = ROTATE_PAIR
        return log

    # c > a: shuffle around the closing position
    s.remove_pebble(b.id)
    renamed = a < b.size and not options.skip_insert_rename
    big_level = b.level if renamed else level
    small_level = level if renamed else b.level
    big = 1 << big_level
    cp = s.closing_position(big_level)
    if cp is None:
        raise InvariantError("no closing position; input situation invalid")
    d = s.pebble_at(cp)
    if d is None:
        raise InvariantError(f"no pebble at closing position {cp}; input invalid")

    # the white pebble's original slot (== the place right after its backer)
    # goes to a black closing pebble ``d`` (the appendix placement), else to
    # the right neighbour ``e`` of a white ``d``, which moves past the pair
    e = None
    if not s.is_black(d.id):
        e = s.pebble_after(d.start)
        if e is None:
            raise InvariantError("white closing pebble without right neighbor")
    s.remove_pebble(d.id)
    if e is not None:
        s.remove_pebble(e.id)
    if renamed:
        s.place_pebble(big_level, cp, pid=b.id)
        new = s.place_pebble(small_level, cp + big)
    else:
        new = s.place_pebble(big_level, cp)
        s.place_pebble(small_level, cp + big, pid=b.id)
    d_start = b.start if e is None else cp + big + (1 << small_level)
    s.place_pebble(d.level, d_start, pid=d.id)
    if e is not None:
        s.place_pebble(e.level, b.start, pid=e.id)
    log.placed = (new.id, new.place)
    log.moved.append((b.id, b.place, tuple.__new__(Place, (b.level, cp if renamed else cp + big))))
    log.moved.append((d.id, d.place, tuple.__new__(Place, (d.level, d_start))))
    if e is not None:
        log.moved.append((e.id, e.place, tuple.__new__(Place, (e.level, b.start))))
    log.branch = SHUFFLE_BLACK if e is None else SHUFFLE_WHITE
    log.renamed = renamed
    return log


def delete_last(
    s: Situation, level: int, options: AllocatorOptions | None = None
) -> MoveLog:
    """Remove the rightmost pebble of ``level`` and repair the situation.

    The gap is repeatedly filled with the rightmost smallest pebble found
    to its right; each iteration pushes the gap rightward until nothing
    remains to its right or the candidate no longer fits.
    """
    options = options or _DEFAULTS
    if not 0 <= level <= s.n:
        raise RequestError(f"level {level} out of [0, {s.n}]")
    removed = s.remove_last(level)
    if removed is None:
        raise RequestError(f"no pebble of level {level}")
    victim, x_level = removed
    log = MoveLog(DELETE_LEVEL, level=level)
    log.removed = victim.id
    gap = victim.start

    # ``x_level`` is the least level right of the gap.  The filler is the
    # last pebble of that level, so the walk that finds it also yields the
    # least level right of its source, the next gap: nothing there moves.
    first_seen: dict[int, Place] = {}  # insertion order is the order of first moves
    while True:
        if x_level is None:
            log.branch = EXIT_END
            break
        x = 1 << x_level
        if not s.block_free(x_level, gap):
            log.branch = EXIT_NO_FIT
            break
        found = s.last_of_level(x_level)
        if found is None or found[0].start <= gap:
            raise InvariantError(f"no level-{x_level} pebble right of gap {gap}")
        mover, next_level = found
        source = mover.start
        s.move_at(source, gap)
        first_seen.setdefault(mover.id, mover.place)
        log.iterations += 1
        q = s.pebble_before(gap)
        if (
            not options.skip_delete_swap
            and q is not None
            and not s.is_black(q.id)
        ):
            w = s.pebble_before(q.start)
            if w is not None and w.level == x_level:
                # swap the filler with the white pebble it would trap
                if gap - q.start != x:
                    raise InvariantError("swap geometry broken; input invalid")
                q_start = q.start
                s.remove_pebble(q.id)
                s.move_at(gap, q_start)
                s.place_pebble(q.level, gap, pid=q.id)
                first_seen.setdefault(q.id, q.place)
                log.swaps += 1
        gap, x_level = source, next_level

    for pid, old in first_seen.items():  # every moved pebble is still live
        new = s.pebble(pid).place
        if old != new:
            log.moved.append((pid, old, new))
    return log


def delete_by_id(
    s: Situation, pid: int, options: AllocatorOptions | None = None
) -> MoveLog:
    """Delete a specific pebble via the delete-at-level reduction.

    The rightmost pebble of the same level is physically removed; if that
    was a different pebble, its code is handed over to the requested one,
    so the requested identity disappears without an extra reassignment.
    """
    return hand_over(s, pid, delete_last(s, s.pebble(pid).level, options))


def hand_over(s: Situation, pid: int, log: MoveLog) -> MoveLog:
    """Make ``log``, a delete at ``pid``'s level, the delete of ``pid``: if
    another pebble was removed, its code passes to ``pid``'s pebble."""
    log.kind = DELETE_ID
    if log.removed != pid:
        survivor = log.removed
        s.relabel_pebble(pid, survivor)
        log.relabel = (pid, survivor)
        log.removed = pid
    return log


# the field each request kind needs, and the kind's name in the error
_NEEDS = {
    INSERT: ("level", "insert"),
    DELETE_LEVEL: ("level", "delete"),
    DELETE_ID: ("id", "delete-by-id"),
}


def check_request(request: Request) -> None:
    """Raise :class:`RequestError` unless ``request`` is of a known kind and
    carries the field that kind needs."""
    try:
        needed, name = _NEEDS[request.kind]
    except KeyError:
        raise RequestError(f"unknown request kind {request.kind!r}") from None
    if getattr(request, needed) is None:
        raise RequestError(f"{name} request without {needed}")


def apply(s: Situation, request: Request, options: AllocatorOptions | None = None) -> MoveLog:
    """Dispatch one request."""
    check_request(request)
    if request.kind == INSERT:
        return insert(s, request.level, options)
    if request.kind == DELETE_LEVEL:
        return delete_last(s, request.level, options)
    return delete_by_id(s, request.id, options)
