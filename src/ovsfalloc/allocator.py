"""Insert and delete procedures with O(1)-amortized reallocations.

Both procedures mutate the situation in place and return a
:class:`MoveLog` describing the request: the newly placed pebble, every
reassignment as (id, old place, new place), the removed pebble and the
number of compaction iterations a deletion performed.

A request works on the situation's segment list by index: one walk
finds the insert site (with its left pebble and that pebble's color),
the delete's victim or a filler, and the request rewrites only what it
touches at that index.  A direct insert is one O(1) placement; the
rotate and shuffle arms compute the new places of the window's pebbles
and splice them in once; a deletion carries its gap as a segment index,
so its fit test and its swap test read neighbouring segments, and a
by-id delete resolves its id once.  Every id it reads or logs is read
checked; a :class:`~ovsfalloc.layout.Place` is built only for the log.

Admissibility errors (bad level, insufficient bandwidth, missing pebble)
are raised before anything is mutated, so a rejected request leaves the
situation bit-identical; ``admit_insert`` and ``take_last`` hold these
rules, for the sorted baseline too.  Both procedures assume the input
situation is valid; replaying through :mod:`ovsfalloc.replay`
re-validates after every request unless explicitly disabled.

The procedures carry no test switches: the verifier's mutants are edits
of this source, each named in :data:`ovsfalloc.oracle.MUTANTS`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

from .layout import closing, last, site
from .model import BandwidthError, InvariantError, Place, RequestError, Situation

_at = partial(tuple.__new__, Place)  # _at((level, start)): a Place, no NamedTuple __new__ call

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


def insert(s: Situation, level: int) -> MoveLog:
    """Insert a pebble of ``level`` into a valid situation.

    The new pebble lands on the first free place of its size; if that
    breaks an invariant, at most three existing pebbles are reassigned to
    repair it.
    """
    a = admit_insert(s, level)
    segs = s._segs
    found = site(segs, s.leaves, level)
    if found is None:
        raise InvariantError("no free place despite sufficient bandwidth; input situation invalid")
    i, start, black = found
    if i:  # b, the pebble left of the place, ends segment i - 1
        first, b_level, count = segs[i - 1]
        b_start = first + ((count - 1) << b_level)
        b_id = s._id(b_start)
    if not black:  # c: the pebble before the white b, and where it ends
        if count > 1:
            c_level, c_end = b_level, b_start
        elif i > 1:
            first, c_level, count = segs[i - 2]
            c_end = first + (count << c_level)
        else:
            raise InvariantError("white pebble without left neighbor; input invalid")
    if black or 1 << c_level < a:
        pid = s._place(i, level, start)
        branch = PLACE_DIRECT if black else PLACE_OVER_SMALL
        return MoveLog(INSERT, level, (pid, _at((level, start))), [], None, None, 0, 0, branch)

    b_size = 1 << b_level
    if 1 << c_level == a:
        # rotate: new pebble right after the backing black, old white after it
        pid = s._splice((i - 1, b_start, b_start + b_size,
                         [(None, level, None, c_end), (b_id, b_level, b_start, c_end + a)]))
        moved = [(b_id, _at((b_level, b_start)), _at((b_level, c_end + a)))]
        return MoveLog(INSERT, level, (pid, _at((level, c_end))), moved, None, None, 0, 0,
                       ROTATE_PAIR)

    # c > a: shuffle around the closing position
    renamed = a < b_size
    big_level = b_level if renamed else level
    small_level = level if renamed else b_level
    big = 1 << big_level
    found = closing(segs, big_level)
    if found is None:
        raise InvariantError("no closing position; input situation invalid")
    j, cp, top = found  # d, the pebble at cp, starts segment j
    if j >= i or segs[j][0] != cp or cp == b_start:
        raise InvariantError(f"no pebble at closing position {cp} before {b_start}; input invalid")
    d_id, (_, d_level, count) = s._id(cp), segs[j]
    d_end = cp + (1 << d_level)

    # the white pebble's original slot (== the place right after its backer)
    # goes to a black closing pebble ``d`` (the appendix placement), else to
    # the right neighbour ``e`` of a white ``d``, which moves past the pair
    if renamed:
        pair = [(b_id, b_level, b_start, cp), (None, level, None, cp + big)]
    else:
        pair = [(None, level, None, cp), (b_id, b_level, b_start, cp + big)]
    d_black = top <= d_level  # rule C: no segment before d's has a bigger level
    if d_black:
        d_start, head_end, tail = b_start, d_end, (d_id, d_level, cp, b_start)
    else:
        e_start, e_level = (d_end, d_level) if count > 1 else segs[j + 1][:2]
        if e_start >= b_start:
            raise InvariantError("white closing pebble without right neighbor")
        d_start = cp + big + (1 << small_level)
        pair.append((d_id, d_level, cp, d_start))
        head_end, tail = e_start + (1 << e_level), (s._id(e_start), e_level, e_start, b_start)
    pid = s._splice((j, cp, head_end, pair), (i - 1, b_start, b_start + b_size, [tail]))
    moved = [(b_id, _at((b_level, b_start)), _at((b_level, cp if renamed else cp + big))),
             (d_id, _at((d_level, cp)), _at((d_level, d_start)))]
    if not d_black:
        moved.append((tail[0], _at((tail[1], tail[2])), _at((tail[1], b_start))))
    return MoveLog(INSERT, level, (pid, _at((level, cp + big if renamed else cp))), moved,
                   None, None, 0, 0, SHUFFLE_BLACK if d_black else SHUFFLE_WHITE, renamed)


def delete_last(s: Situation, level: int) -> MoveLog:
    """Remove the rightmost pebble of ``level`` and repair the situation.

    The gap is repeatedly filled with the rightmost smallest pebble found
    to its right; each iteration pushes the gap rightward until nothing
    remains to its right or the candidate no longer fits.
    """
    g, removed, gap, x_level = take_last(s, level)
    segs, leaves = s._segs, s.leaves

    # ``x_level`` is the least level right of the gap, and segment ``g`` is
    # the first past it.  The filler is the last pebble of that level, so
    # the walk that finds it also yields the least level right of its
    # source, the next gap: nothing there moves.
    first_seen: dict[int, tuple[int, int]] = {}  # id -> (level, start) before; order of first moves
    now: dict[int, int] = {}  # id -> start, of each moved pebble
    iterations = swaps = 0
    branch = EXIT_END
    while x_level is not None:
        x = 1 << x_level
        if gap & (x - 1) or gap + x > leaves or (g < len(segs) and segs[g][0] < gap + x):
            branch = EXIT_NO_FIT
            break
        found = last(segs, x_level)
        if found is None or found[1] <= gap:
            raise InvariantError(f"no level-{x_level} pebble right of gap {gap}")
        i, source, next_level = found
        pid = s._id(source)
        after = len(segs) - i - 1  # the segments past the source, which stay
        first_seen.setdefault(pid, (x_level, source))
        iterations += 1
        now[pid] = gap
        q_level = segs[g - 1][1] if g else -1  # q: the pebble before the gap
        if g and any(seg[1] > q_level for seg in segs[: g - 1]):
            first, _, count = segs[g - 1]
            w_level = q_level if count > 1 else segs[g - 2][1]  # w: the pebble before q
            if w_level == x_level:
                # swap the filler with the white pebble it would trap
                q_start = first + ((count - 1) << q_level)
                if gap - q_start != x:
                    raise InvariantError("swap geometry broken; input invalid")
                q_id = s._id(q_start)
                first_seen.setdefault(q_id, (q_level, q_start))
                swapped = [(pid, x_level, source, q_start), (q_id, q_level, q_start, gap)]
                s._splice((g - 1, q_start, gap, swapped), (i, source, source + x, []))
                now[pid], now[q_id] = q_start, gap
                swaps += 1
        if now[pid] == gap:  # no swap: the filler lands in the gap
            s._drop_last(i, source, pid)
            s._place(g, x_level, gap, pid)
        gap, g, x_level = source, len(segs) - after, next_level

    moved = []
    for pid, (lv, old) in first_seen.items():  # every moved pebble is still live
        if now[pid] != old:
            moved.append((pid, _at((lv, old)), _at((lv, now[pid]))))
    return MoveLog(DELETE_LEVEL, level, None, moved, removed, None, iterations, swaps, branch)


def delete_by_id(s: Situation, pid: int) -> MoveLog:
    """Delete a specific pebble via the delete-at-level reduction.

    The rightmost pebble of the same level is physically removed; if that
    was a different pebble, its code is handed over to the requested one,
    so the requested identity disappears without an extra reassignment.
    The id is resolved, checked, once.
    """
    return hand_over(s, pid, delete_last(s, s._by_id(pid)[2]))


def admit_insert(s: Situation, level: int) -> int:
    """The size of an insert at ``level``, checked to fit the free bandwidth."""
    if not 0 <= level <= s.n:
        raise RequestError(f"level {level} out of [0, {s.n}]")
    size, free = 1 << level, s.total_free_bandwidth()
    if size > free:
        raise BandwidthError(f"size {size} exceeds free bandwidth {free}")
    return size


def take_last(s: Situation, level: int) -> tuple[int, int, int, int | None]:
    """Remove the last pebble of ``level``, found and read as
    ``s.last_of_level(level)`` finds it; return the index of the first
    segment past its place, its id, its start, and the least level right
    of it or None.  Refuses, with nothing changed, a level it cannot hold."""
    if not 0 <= level <= s.n:
        raise RequestError(f"level {level} out of [0, {s.n}]")
    found = last(s._segs, level)
    if found is None:
        raise RequestError(f"no pebble of level {level}")
    i, start, low = found
    pid = s._id(start)
    return s._drop_last(i, start, pid), pid, start, low


def hand_over(s: Situation, pid: int, log: MoveLog) -> MoveLog:
    """Make ``log``, a delete at ``pid``'s level, the delete of ``pid``: if
    another pebble was removed, its code passes to ``pid``'s pebble."""
    log.kind = DELETE_ID
    if log.removed != pid:
        s.relabel_pebble(pid, log.removed)
        log.relabel, log.removed = (pid, log.removed), pid
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


def apply(s: Situation, request: Request) -> MoveLog:
    """Dispatch one request."""
    check_request(request)
    if request.kind == INSERT:
        return insert(s, request.level)
    if request.kind == DELETE_LEVEL:
        return delete_last(s, request.level)
    return delete_by_id(s, request.id)
