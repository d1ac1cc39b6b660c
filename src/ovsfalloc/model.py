"""Pebble-sequence model of an aligned bandwidth allocation.

The bandwidth of a height-``n`` code tree is the leaf interval
``[0, 2**n)``.  A *place* of level ``l`` is an aligned interval
``[i*2**l, (i+1)*2**l)``; a *pebble* is an allocated code occupying one
place.  A :class:`Situation` is the full allocator state: the tree height
plus a set of pairwise disjoint, aligned pebbles.

Colors are never stored.  A pebble is *black* when no strictly bigger
pebble starts before it, otherwise *white*.  A situation is *valid* when

* P1: the free bandwidth before any pebble is strictly smaller than the
  pebble,
* P2: two white pebbles never sit next to each other in position order,
* P3: no white pebble has black left and right neighbors of equal size.

The query methods scan or bisect one position-ordered list of segments,
each a maximal run of contiguous equal-size pebbles.  In a valid
situation every level holds one contiguous black run and at most one
white pebble, so that list is O(n) long and no part of the state is
sized by ``2**n``.  ``validate`` re-checks all of this (plus alignment
and disjointness) in one walk over the segments, O(1) per segment, which
also yields the free runs that the coin audit recounts and is kept until
the next mutation.  The walk does not trust the segment list: each stored
pebble copy is checked against it where the copy is read or written, and
``Situation.cross_check`` checks every copy at once.

A Situation is a self-contained value: instances share no mutable state,
may be moved freely between threads, and a single instance must not be
mutated concurrently.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, NamedTuple

BLACK = "black"
WHITE = "white"


class AllocationError(Exception):
    """Base class for all allocator errors."""


class BandwidthError(AllocationError):
    """Request does not fit into the remaining free bandwidth."""


class RequestError(AllocationError):
    """Malformed or inapplicable request (bad level, unknown id, ...)."""


class InvariantError(AllocationError):
    """An internal expectation failed; the input situation was not valid."""


class SnapshotError(AllocationError):
    """Snapshot text could not be parsed."""


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
class Pebble:
    """One allocated code: stable id, level and starting position.

    A value: moving or relabelling a pebble installs a new one, so a
    pebble held by a caller keeps the place and id it was read with.
    """

    id: int
    level: int
    start: int

    @property
    def size(self) -> int:
        return 1 << self.level

    @property
    def end(self) -> int:
        return self.start + (1 << self.level)

    @property
    def place(self) -> Place:
        return Place(self.level, self.start)


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


def scan_pebbles(seq: Iterable[Pebble], leaves: int) -> PebbleScan:
    """One pass over ``seq``, position ordered pebbles over ``leaves``
    positions: every breach (see :class:`PebbleScan`) and the free runs.

    Each pebble is a run of one for :func:`_scan_runs`, and carries its own
    id, so a list may repeat a start.
    """
    seq = list(seq)
    return _scan_runs([(p.start, p.level, 1) for p in seq], leaves, lambda i, k: seq[i].id)


def _scan_runs(runs, leaves: int, witness) -> PebbleScan:
    """One pass over ``runs``, each ``(start, level, count)``: ``count``
    contiguous pebbles of ``level``, the first at ``start``.  The result is
    :func:`scan_pebbles` of the pebbles the runs hold, in order.
    ``witness(i, k)``, the id of pebble ``k`` of run ``i``, is called only
    for a breach that names that pebble.

    P2 and P3 are judged on a window of the previous two pebbles.  The
    violations are stably sorted by place start; at one start, the pebbles'
    own alignment/overlap/P1 breaches come first, then P2, then P3.  Free
    runs follow a running maximum end, so overlapping pebbles still leave
    only leaves that no pebble covers.

    A run's pebbles share one level, so a run that starts at or after the
    end of the covered prefix and ends inside the tree is judged in one
    step: each of its pebbles has the color and the free bandwidth before
    it of the first, no gap opens inside it, and P3 cannot fire there.
    Any other run (overlap, or past the tree's end) is walked one pebble
    per step.
    """
    out: list[Violation] = []
    p2: list[Violation] = []
    p3: list[Violation] = []
    gaps: list[tuple[int, int]] = []
    lows: list[int] = []  # lows[i]: least level of the pebbles between gaps i - 1 and i
    low = 0  # least level since the last gap; lows[0], before any gap, is unused
    top = -1  # largest level seen so far
    covered = 0  # leaves covered so far, overlap-clamped
    prev_end = 0
    # window entries (run index, index in run, level, start): ``pp`` and
    # ``prev`` precede the step's first pebble; the first pebble is always
    # black, so ``pp`` exists whenever ``prev`` is white
    pp = prev = None
    prev_black = True
    for i, (start, level, count) in enumerate(runs):
        size = 1 << level
        k = 0  # pebbles of the run judged so far
        while k < count:
            m = count - k  # pebbles judged in this step
            end = start + (m << level)
            if start < prev_end or end > leaves:
                m = 1
                end = start + size
            if start & (size - 1):
                out += [
                    Violation("alignment", (witness(i, k + j),), Place(level, start + (j << level)))
                    for j in range(m)
                ]
            if start == prev_end:
                if level < low:
                    low = level
            elif start > prev_end:
                lows.append(low)
                gaps.append((prev_end, start))
                low = level
            else:
                if prev is not None:
                    witnesses = (witness(prev[0], prev[1]), witness(i, k))
                    out.append(Violation("overlap", witnesses, Place(level, start)))
                if level < low:
                    low = level
            black = top <= level
            if covered < start and start - covered >= size:
                detail = f"free bandwidth {start - covered} >= {size}"
                out += [
                    Violation("P1", (witness(i, k + j),), Place(level, start + (j << level)), detail)
                    for j in range(m)
                ]
            hi = end if end < leaves else leaves
            lo = start if start > prev_end else prev_end
            if hi > lo:
                covered += hi - lo
            if end > prev_end:
                prev_end = end
            if level > top:
                top = level
            if not prev_black:
                if not black:
                    witnesses = (witness(prev[0], prev[1]), witness(i, k))
                    p2.append(Violation("P2", witnesses, Place(level, start)))
                elif pp[2] == level:
                    # no level above ``level`` precedes this pebble, so ``pp`` is black
                    witnesses = (witness(pp[0], pp[1]), witness(prev[0], prev[1]), witness(i, k))
                    p3.append(Violation("P3", witnesses, Place(prev[2], prev[3])))
            k += m
            if m > 1:
                if not black:  # a white pebble after each white pebble of the step
                    p2 += [
                        Violation(
                            "P2",
                            (witness(i, k - m + j - 1), witness(i, k - m + j)),
                            Place(level, start + (j << level)),
                        )
                        for j in range(1, m)
                    ]
                pp = (i, k - 2, level, end - 2 * size)
            else:
                pp = prev
            prev = (i, k - 1, level, end - size)
            prev_black = black
            start = end
    out += p2
    out += p3
    out.sort(key=lambda v: v.place.start)
    # each gap sees the least level of every block after it: a suffix minimum
    free: list[tuple[int, int, int | None]] = []
    if prev_end < leaves:
        free.append((prev_end, leaves, None))
    lows.append(low)
    x_level = None
    for i in range(len(gaps) - 1, -1, -1):
        block = lows[i + 1]
        if x_level is None or block < x_level:
            x_level = block
        free.append((*gaps[i], x_level))
    free.reverse()
    return PebbleScan(tuple(out), tuple(free))


_START = itemgetter(0)


def _seg_end(seg: tuple[int, int, int]) -> int:
    start, level, count = seg
    return start + (count << level)


def _stray(pebble: Pebble | None, start: int, level: int) -> InvariantError:
    """The error for a stored copy that is not the pebble of ``level`` the
    segment list puts at ``start``."""
    return InvariantError(f"the pebble stored at {start} is {pebble}, not the segments' {Place(level, start)}")


def _starts(seg: tuple[int, int, int]) -> range:
    """Starts of the pebbles of one segment, in order."""
    start, level, count = seg
    return range(start, start + (count << level), 1 << level)


class Situation:
    """Mutable allocator state over ``2**n`` leaf positions.

    ``_peb`` maps ids to pebbles and ``_at`` starts to pebbles.  Positions
    live in ``_segs``, a start-ordered list of ``(start, level, count)``
    segments: ``count`` contiguous pebbles of ``level``, the first at
    ``start``, with no equal-level pebble touching either end.  Every
    positional query is a scan or bisection of that one list; rule C
    colors a pebble by a prefix-max scan over it.

    The segment list is not trusted to agree with the pebble copies in
    ``_at`` and ``_peb``: every read of a copy is checked against the place
    the list gives it, every write checks the copy it replaces, and
    :meth:`cross_check` compares all of them in O(pebbles).  A mismatch
    raises :class:`InvariantError`.

    ``_scan`` keeps the last :class:`PebbleScan`, walked over the segments,
    so that ``validate`` and the coin audit of one state share a single
    walk.  ``_install``, ``_uninstall`` and ``relabel_pebble``, the only
    writers of ``_peb``, ``_at`` and ``_segs``, drop it; ``copy`` shares it,
    since it is immutable.
    """

    def __init__(self, n: int):
        if n < 0:
            raise ValueError(f"tree height must be >= 0, got {n}")
        self.n = n
        self.leaves = 1 << n
        self._peb: dict[int, Pebble] = {}
        self._at: dict[int, Pebble] = {}  # start -> pebble
        self._segs: list[tuple[int, int, int]] = []
        self._scan: PebbleScan | None = None
        self._occupied = 0
        self._next_id = 1

    # ------------------------------------------------------------------
    # segment list maintenance

    def _slot(self, start: int, end: int) -> int:
        """Index of the first segment starting after ``start``, or -1 when
        some pebble covers part of ``[start, end)``."""
        segs = self._segs
        i = bisect_right(segs, start, key=_START)
        if i and _seg_end(segs[i - 1]) > start:
            return -1
        if i < len(segs) and segs[i][0] < end:
            return -1
        return i

    def _install(self, pebble: Pebble) -> None:
        level, start = pebble.level, pebble.start
        end = start + (1 << level)
        segs = self._segs
        i = self._slot(start, end)
        if i < 0:
            raise InvariantError(f"place {pebble.place} is not free")
        if start in self._at:
            raise InvariantError(f"a pebble is stored at free start {start}")
        lo, hi, first, count = i, i, start, 1  # segs[lo:hi] merge into one
        if i and segs[i - 1][1] == level and _seg_end(segs[i - 1]) == start:
            lo, first, count = i - 1, segs[i - 1][0], segs[i - 1][2] + 1
        if i < len(segs) and segs[i][1] == level and segs[i][0] == end:
            hi, count = i + 1, count + segs[i][2]
        segs[lo:hi] = [(first, level, count)]
        self._scan = None
        self._peb[pebble.id] = pebble
        self._at[start] = pebble
        self._occupied += 1 << level

    def _uninstall(self, pid: int) -> Pebble:
        try:
            pebble = self._peb.pop(pid)
        except KeyError:
            raise InvariantError(f"no pebble {pid} is stored by id") from None
        level, start = pebble.level, pebble.start
        if self._at.pop(start, None) is not pebble:
            raise InvariantError(f"pebble {pid} is not the one stored at its start {start}")
        segs = self._segs
        i = bisect_right(segs, start, key=_START) - 1
        first, seg_level, count = segs[i] if i >= 0 else (start, level, 0)  # none: an empty one
        left = (start - first) >> level  # pebbles of the segment before this one
        if seg_level != level or left >= count or first + (left << level) != start:
            raise InvariantError(f"no segment holds pebble {pid} at {pebble.place}")
        parts = []
        if left:
            parts.append((first, level, left))
        if left + 1 < count:
            parts.append((start + (1 << level), level, count - left - 1))
        segs[i : i + 1] = parts
        self._scan = None
        self._occupied -= 1 << level
        return pebble

    def block_free(self, level: int, start: int) -> bool:
        """True iff the aligned place ``[start, start + 2**level)`` holds no
        pebble and no part of one."""
        size = 1 << level
        if start % size or start < 0 or start + size > self.leaves:
            return False
        return self._slot(start, start + size) >= 0

    # ------------------------------------------------------------------
    # construction and bookkeeping

    def place_pebble(self, level: int, start: int, pid: int | None = None) -> Pebble:
        """Install a new pebble; raises :class:`RequestError` on misuse."""
        if not 0 <= level <= self.n:
            raise RequestError(f"level {level} out of [0, {self.n}]")
        if start % (1 << level):
            raise RequestError(f"start {start} not aligned to size {1 << level}")
        if start < 0 or start + (1 << level) > self.leaves:
            raise RequestError(f"place {Place(level, start)} outside the tree")
        if not self.block_free(level, start):
            raise RequestError(f"place {Place(level, start)} is not free")
        if pid is None:
            pid = self._next_id
        if pid in self._peb:
            raise RequestError(f"pebble id {pid} already present")
        self._next_id = max(self._next_id, pid + 1)
        pebble = Pebble(pid, level, start)
        self._install(pebble)
        return pebble

    def remove_pebble(self, pid: int) -> Pebble:
        if pid not in self._peb:
            raise RequestError(f"unknown pebble id {pid}")
        return self._uninstall(pid)

    def move_pebble(self, pid: int, new_start: int) -> None:
        """Reassign an existing pebble to a new aligned free place."""
        pebble = self._uninstall(pid)
        size = 1 << pebble.level
        try:
            if new_start % size or new_start < 0 or new_start + size > self.leaves:
                raise InvariantError(f"misaligned move of {pid} to {new_start}")
            self._install(Pebble(pid, pebble.level, new_start))
        except InvariantError:
            self._install(pebble)
            raise

    def relabel_pebble(self, old_id: int, new_id: int) -> None:
        """Hand ``old_id``'s pebble the identity ``new_id`` (code handover)."""
        old = self.pebble(old_id)
        if new_id in self._peb:
            raise RequestError(f"pebble id {new_id} already present")
        del self._peb[old_id]
        self._scan = None
        self._peb[new_id] = self._at[old.start] = Pebble(new_id, old.level, old.start)

    def copy(self) -> "Situation":
        other = Situation.__new__(Situation)
        other.n = self.n
        other.leaves = self.leaves
        other._peb = dict(self._peb)
        other._at = dict(self._at)
        other._segs = list(self._segs)
        other._scan = self._scan
        other._occupied = self._occupied
        other._next_id = self._next_id
        return other

    # ------------------------------------------------------------------
    # basic queries

    def __len__(self) -> int:
        return len(self._peb)

    def __contains__(self, pid: int) -> bool:
        return pid in self._peb

    def pebble(self, pid: int) -> Pebble:
        try:
            pebble = self._peb[pid]
        except KeyError:
            raise RequestError(f"unknown pebble id {pid}") from None
        if self.pebble_at(pebble.start) is not pebble:
            raise InvariantError(f"pebble {pid} is not the one the segments put at {pebble.start}")
        return pebble

    def _read(self, start: int, level: int) -> Pebble:
        """The pebble stored at ``start``, where the segment list puts one
        of ``level``; InvariantError when the stored copy disagrees."""
        pebble = self._at.get(start)
        if pebble is None or pebble.start != start or pebble.level != level:
            raise _stray(pebble, start, level)
        return pebble

    def pebbles(self) -> list[Pebble]:
        """Pebbles in position order, as a fresh list, each checked against
        its segment."""
        get = self._at.get
        out = []
        append = out.append
        for first, level, count in self._segs:
            for start in range(first, first + (count << level), 1 << level):
                pebble = get(start)
                if pebble is None or pebble.start != start or pebble.level != level:
                    raise _stray(pebble, start, level)
                append(pebble)
        return out

    def segments(self) -> tuple[tuple[int, int, int], ...]:
        """The ``(start, level, count)`` segments, position ordered."""
        return tuple(self._segs)

    def to_pairs(self) -> tuple[tuple[int, int], ...]:
        """Canonical ``(start, level)`` view, position ordered."""
        return tuple((start, seg[1]) for seg in self._segs for start in _starts(seg))

    def level_count(self, level: int) -> int:
        return sum(count for _, lv, count in self._segs if lv == level)

    def level_starts(self, level: int) -> tuple[int, ...]:
        return tuple(start for seg in self._segs if seg[1] == level for start in _starts(seg))

    def pebble_at(self, start: int) -> Pebble | None:
        """The pebble starting at ``start``, or None."""
        segs = self._segs
        i = bisect_right(segs, start, key=_START)
        if i:
            first, level, count = segs[i - 1]
            k = (start - first) >> level
            if k < count and first + (k << level) == start:
                return self._read(start, level)
        if start in self._at:
            raise InvariantError(f"a pebble is stored at {start}, where no segment puts one")
        return None

    def pebble_before(self, pos: int) -> Pebble | None:
        """Nearest pebble starting strictly left of ``pos``."""
        segs = self._segs
        i = bisect_left(segs, pos, key=_START)
        if i == 0:
            return None
        first, level, count = segs[i - 1]
        k = min(count - 1, (pos - 1 - first) >> level)
        return self._read(first + (k << level), level)

    def pebble_after(self, pos: int) -> Pebble | None:
        """Nearest pebble starting strictly right of ``pos``."""
        segs = self._segs
        i = bisect_right(segs, pos, key=_START)
        if i:
            first, level, count = segs[i - 1]
            k = ((pos - first) >> level) + 1
            if k < count:
                return self._read(first + (k << level), level)
        if i == len(segs):
            return None
        return self._read(segs[i][0], segs[i][1])

    def rightmost_of_level(self, level: int) -> Pebble | None:
        for first, lv, count in reversed(self._segs):
            if lv == level:
                return self._read(first + ((count - 1) << lv), lv)
        return None

    def smallest_level_right(self, pos: int) -> int | None:
        """Level of the smallest pebble starting strictly right of ``pos``."""
        best = None
        for first, level, count in self._segs:
            if (best is None or level < best) and first + ((count - 1) << level) > pos:
                best = level
        return best

    # ------------------------------------------------------------------
    # spec operations

    def is_black(self, pid: int) -> bool:
        pebble = self.pebble(pid)
        for first, level, _ in self._segs:
            if first >= pebble.start:
                break
            if level > pebble.level:
                return False
        return True

    def color_of(self, pid: int) -> str:
        """Rule C: black iff no strictly bigger pebble starts earlier."""
        return BLACK if self.is_black(pid) else WHITE

    def free_bandwidth_before(self, pos: int) -> int:
        """Number of free leaf positions strictly before ``pos``."""
        if not 0 <= pos <= self.leaves:
            raise RequestError(f"position {pos} out of [0, {self.leaves}]")
        free = pos
        for seg in self._segs:
            if seg[0] >= pos:
                break
            free -= min(_seg_end(seg), pos) - seg[0]
        return free

    def total_free_bandwidth(self) -> int:
        return self.leaves - self._occupied

    def first_free_place(self, level: int) -> Place | None:
        """Free aligned place of ``level`` with minimal start, or None."""
        if not 0 <= level <= self.n:
            raise RequestError(f"level {level} out of [0, {self.n}]")
        size = 1 << level
        cursor = 0  # start of the free run ending at the next segment
        for seg in self._segs:
            start = (cursor + size - 1) & -size
            if start + size <= seg[0]:
                return Place(level, start)
            cursor = _seg_end(seg)
        start = (cursor + size - 1) & -size
        return Place(level, start) if start + size <= self.leaves else None

    def closing_position(self, level: int) -> int | None:
        """Position after the last black pebble of ``level``; if there is
        none, the start of the first pebble of a bigger level; else None."""
        if not 0 <= level <= self.n:
            raise RequestError(f"level {level} out of [0, {self.n}]")
        last_black = None
        for seg in self._segs:
            if seg[1] > level:  # every later pebble of ``level`` is white
                return seg[0] if last_black is None else last_black
            if seg[1] == level:
                last_black = _seg_end(seg)
        return last_black

    def pebble_scan(self) -> PebbleScan:
        """The :func:`scan_pebbles` result of the current pebbles, walked
        over the segments, O(segments), at most once between two
        mutations; a witness id is read from ``_at`` only for a breach."""
        scan = self._scan
        if scan is None:
            scan = self._scan = _scan_runs(self._segs, self.leaves, self._witness)
        return scan

    def _witness(self, i: int, k: int) -> int:
        first, level, _ = self._segs[i]
        return self._read(first + (k << level), level).id

    def cross_check(self) -> None:
        """Compare every stored pebble copy with the segment list, in
        O(pebbles): the segments are ordered, disjoint, maximal and inside
        the tree, ``_at`` holds exactly their pebbles and ``_peb`` the same
        values by id, and the occupied bandwidth is theirs.  Raises
        :class:`InvariantError` on the first mismatch."""
        end = 0  # end of the segment before ``seg``
        level = None  # its level
        for seg in self._segs:
            if seg[2] < 1 or seg[0] < end or (seg[0] == end and seg[1] == level):
                raise InvariantError(f"segment {seg} does not follow one ending at {end}")
            end, level = _seg_end(seg), seg[1]
        if end > self.leaves:
            raise InvariantError(f"segments end at {end}, past the tree's {self.leaves}")
        pebbles = self.pebbles()
        peb = self._peb
        if len(self._at) != len(pebbles):
            raise InvariantError(f"{len(self._at)} pebbles stored by start, {len(pebbles)} in segments")
        if len(peb) != len(pebbles) or any(peb.get(p.id) is not p for p in pebbles):
            raise InvariantError("the pebbles stored by id are not those in segments")
        occupied = sum(count << level for _, level, count in self._segs)
        if occupied != self._occupied:
            raise InvariantError(f"occupied bandwidth {self._occupied}, segments hold {occupied}")

    def validate(self) -> list[Violation]:
        """All P1/P2/P3, alignment and overlap breaches, position ordered,
        as a fresh list; the walk behind it is kept until the next mutation."""
        return list(self.pebble_scan().violations)

    # ------------------------------------------------------------------
    # snapshot text format

    def serialize(self) -> str:
        lines = [f"n={self.n}"]
        lines.extend(f"{p.size}@{p.start}" for p in self.pebbles())
        return "\n".join(lines) + "\n"


def parse_snapshot(text: str) -> Situation:
    """Parse the ``n=<height>`` / ``<size>@<start>`` snapshot format."""
    lines = text.splitlines()
    header = None
    situation = None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if header is None:
            if not line.startswith("n="):
                raise SnapshotError(f"line {lineno}: expected 'n=<height>' header")
            try:
                header = int(line[2:])
            except ValueError:
                raise SnapshotError(f"line {lineno}: bad height {line[2:]!r}") from None
            if header < 0:
                raise SnapshotError(f"line {lineno}: negative height {header}")
            situation = Situation(header)
            continue
        try:
            size_s, start_s = line.split("@")
            size, start = int(size_s), int(start_s)
        except ValueError:
            raise SnapshotError(f"line {lineno}: expected '<size>@<start>'") from None
        if size <= 0 or size & (size - 1):
            raise SnapshotError(f"line {lineno}: size {size} is not a power of two")
        try:
            situation.place_pebble(size.bit_length() - 1, start)
        except AllocationError as exc:
            raise SnapshotError(f"line {lineno}: {exc}") from None
    if situation is None:
        raise SnapshotError("empty snapshot: missing 'n=<height>' header")
    return situation
