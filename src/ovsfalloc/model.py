"""Pebble-sequence model of an aligned bandwidth allocation.

The bandwidth of a height-``n`` code tree is the leaf interval
``[0, 2**n)``.  A *place* of level ``l`` is an aligned interval
``[i*2**l, (i+1)*2**l)`` (:class:`~ovsfalloc.layout.Place`); a *pebble* is
an allocated code occupying one place.  A :class:`Situation` is the full
allocator state: the tree height plus a set of pairwise disjoint, aligned
pebbles.

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
and disjointness) in one walk over the segments, O(1) per segment
(:func:`~ovsfalloc.layout.scan_runs`), which also yields the free runs
that the coin audit recounts and is kept until the next mutation.  The
walk does not trust the segment list: each stored pebble copy is checked
against it where the copy is read or written, and
``Situation.cross_check`` checks every copy at once.

The allocator's reads take one walk each.  ``insert_site`` returns the
first free place of a level with the pebble left of it and that pebble's
color, which rule C gives from the largest level of the segments before
it; ``last_of_level`` returns a level's last pebble with the least level
right of it, walking right to left.

Only ``place_pebble``, ``remove_pebble``, ``move_at`` and
``relabel_pebble`` change the state; ``move_pebble`` is ``move_at`` by id,
and ``remove_last`` is ``remove_pebble``'s own code run on the pebble
that ``last_of_level`` finds.
``move_at`` finds the pebble at a start with one bisection.  When the
move rotates a run, the run's first pebble to just past its end or its
last to just before its start, it rewrites that one segment in place:
each hop of the sorted baseline's cascade is such a step.

A Situation is a self-contained value: instances share no mutable state,
may be moved freely between threads, and a single instance must not be
mutated concurrently.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from operator import itemgetter

from .layout import PebbleScan, Place, Violation, scan_runs

BLACK = "black"
WHITE = "white"

# the tallest tree any entry point builds: the state is O(height), but a
# per-level list of a height read from a file must not exhaust memory
MAX_TREE_HEIGHT = 1024


class AllocationError(Exception):
    """Base class for all allocator errors."""


class BandwidthError(AllocationError):
    """Request does not fit into the remaining free bandwidth."""


class RequestError(AllocationError):
    """Malformed or inapplicable request (bad level, unknown id, ...)."""


class InvariantError(AllocationError):
    """An internal expectation failed; the input situation was not valid."""


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
        return tuple.__new__(Place, (self.level, self.start))  # no NamedTuple __new__ call


_SET_ID, _SET_LEVEL, _SET_START = (Pebble.__dict__[f].__set__ for f in ("id", "level", "start"))


def _pebble(pid: int, level: int, start: int) -> Pebble:
    """``Pebble(pid, level, start)`` with its slots set directly: the frozen
    dataclass ``__init__`` calls ``object.__setattr__`` per field and takes
    about a fifth of a cascade hop."""
    pebble = object.__new__(Pebble)
    _SET_ID(pebble, pid)
    _SET_LEVEL(pebble, level)
    _SET_START(pebble, start)
    return pebble


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
    walk.  ``place_pebble``, ``remove_pebble`` (whose code ``remove_last``
    runs), ``move_at`` and ``relabel_pebble``, the only writers of ``_peb``,
    ``_at`` and ``_segs`` (the list through ``_cut`` and ``_join``), drop
    it; ``copy`` shares it, since it is immutable.
    """

    def __init__(self, n: int):
        if not 0 <= n <= MAX_TREE_HEIGHT:
            raise ValueError(f"tree height must be in [0, {MAX_TREE_HEIGHT}], got {n}")
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

    def _by_id(self, pid: int) -> tuple[int, int, Pebble]:
        """``(i, k, pebble)``: the pebble with id ``pid`` is pebble ``k`` of
        segment ``i``, and the copy stored at its start is the same object."""
        pebble = self._peb.get(pid)
        if pebble is None:
            raise RequestError(f"unknown pebble id {pid}")
        start = pebble.start
        segs = self._segs
        i = bisect_right(segs, start, key=_START) - 1
        first, level, count = segs[i] if i >= 0 else (start, 0, 0)  # none: an empty one
        k = (start - first) >> level
        if k >= count or first + (k << level) != start or self._read(start, level) is not pebble:
            raise InvariantError(f"pebble {pid} is not the one the segments put at {start}")
        return i, k, pebble

    def _cut(self, i: int, k: int) -> int:
        """Replace segment ``i`` by the runs left and right of its pebble
        ``k``; returns how many there are."""
        first, level, count = self._segs[i]
        parts = [(first, level, k)] if k else []
        if k + 1 < count:
            parts.append((first + ((k + 1) << level), level, count - k - 1))
        self._segs[i : i + 1] = parts
        return len(parts)

    def _join(self, lo: int, hi: int, first: int, level: int, count: int) -> None:
        """Replace ``_segs[lo:hi]`` by the run of ``count`` pebbles of
        ``level`` from ``first``, merged with an equal-level segment that
        touches either end."""
        segs = self._segs
        if lo and segs[lo - 1][1] == level and _seg_end(segs[lo - 1]) == first:
            lo -= 1
            first, count = segs[lo][0], count + segs[lo][2]
        if hi < len(segs) and segs[hi][1] == level and segs[hi][0] == first + (count << level):
            count += segs[hi][2]
            hi += 1
        segs[lo:hi] = [(first, level, count)]

    def block_free(self, level: int, start: int) -> bool:
        """True iff the aligned place ``[start, start + 2**level)`` holds no
        pebble and no part of one; a level above the tree fits nowhere."""
        if level < 0:
            raise RequestError(f"level {level} is negative")
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
        i = self._slot(start, start + (1 << level))
        if i < 0:
            raise RequestError(f"place {Place(level, start)} is not free")
        if pid is None:
            pid = self._next_id
        if pid in self._peb:
            raise RequestError(f"pebble id {pid} already present")
        if start in self._at:
            raise InvariantError(f"a pebble is stored at free start {start}")
        self._next_id = max(self._next_id, pid + 1)
        self._join(i, i, start, level, 1)
        self._scan = None
        self._peb[pid] = self._at[start] = pebble = _pebble(pid, level, start)
        self._occupied += 1 << level
        return pebble

    def remove_pebble(self, pid: int) -> Pebble:
        return self._remove(*self._by_id(pid))

    def remove_last(self, level: int) -> tuple[Pebble, int | None] | None:
        """Remove the last pebble of ``level``, found and read as
        :meth:`last_of_level` finds it, and return what that returns; None,
        with nothing changed, when no pebble has ``level``."""
        found = self._last(level)
        if found is None:
            return None
        i, pebble, low = found
        if self._peb.get(pebble.id) is not pebble:
            raise InvariantError(f"pebble {pebble.id} at {pebble.start} is not the one stored by id")
        self._remove(i, self._segs[i][2] - 1, pebble)
        return pebble, low

    def _remove(self, i: int, k: int, pebble: Pebble) -> Pebble:
        """Remove ``pebble``, checked to be pebble ``k`` of segment ``i``."""
        self._cut(i, k)
        self._scan = None
        del self._peb[pebble.id], self._at[pebble.start]
        self._occupied -= 1 << pebble.level
        return pebble

    def move_at(self, start: int, new_start: int) -> Pebble:
        """Move the pebble at ``start`` to the free aligned place of its
        level at ``new_start`` and return it as it was, or raise
        :class:`InvariantError` with nothing changed.

        A move of a run's first pebble to just past its end, or of its last
        to just before its start, rotates the run: its one segment is
        rewritten in place, or merged with an equal-level neighbour that it
        now touches.  Any other move cuts the pebble out of its segment and
        joins it where ``_slot`` finds room."""
        segs = self._segs
        i = bisect_right(segs, start, key=_START) - 1
        first, level, count = segs[i] if i >= 0 else (start, 0, 0)  # none: an empty one
        k = (start - first) >> level
        if k >= count or first + (k << level) != start:
            raise InvariantError(f"no segment puts a pebble at {start}")
        pebble = self._read(start, level)
        if self._peb.get(pebble.id) is not pebble:
            raise InvariantError(f"pebble {pebble.id} at {start} is not the one stored by id")
        size = 1 << level
        if new_start & (size - 1) or new_start < 0 or new_start + size > self.leaves:
            raise InvariantError(f"misaligned move of {pebble.id} to {new_start}")
        if new_start in self._at:
            raise InvariantError(f"a pebble is stored at {new_start}, the move's free start")
        end = first + (count << level)
        if k == 0 and new_start == end or k == count - 1 and new_start == first - size:
            lo = first + size if new_start == end else new_start  # where the run starts after
            hi = lo + (count << level)
            left = segs[i - 1] if i else (0, 0, 0)  # or an empty one at 0
            right = segs[i + 1] if i + 1 < len(segs) else (self.leaves, -1, 0)  # or at the end
            left_end = left[0] + (left[2] << left[1])
            if left_end > lo or right[0] < hi:
                raise InvariantError(f"place {Place(level, new_start)} is not free")
            if left_end == lo and left[1] == level or right[0] == hi and right[1] == level:
                self._join(i, i + 1, lo, level, count)
            else:
                segs[i] = (lo, level, count)
        else:
            j = self._slot(new_start, new_start + size)
            if j < 0:
                raise InvariantError(f"place {Place(level, new_start)} is not free")
            parts = self._cut(i, k)
            if j > i:  # past segment ``i``, which the cut made ``parts`` segments
                j += parts - 1
            self._join(j, j, new_start, level, 1)
        self._scan = None
        del self._at[start]
        self._peb[pebble.id] = self._at[new_start] = _pebble(pebble.id, level, new_start)
        return pebble

    def move_pebble(self, pid: int, new_start: int) -> None:
        """:meth:`move_at` for the pebble with id ``pid``."""
        self.move_at(self.pebble(pid).start, new_start)

    def relabel_pebble(self, old_id: int, new_id: int) -> None:
        """Hand ``old_id``'s pebble the identity ``new_id`` (code handover)."""
        old = self.pebble(old_id)
        if new_id in self._peb:
            raise RequestError(f"pebble id {new_id} already present")
        del self._peb[old_id]
        self._scan = None
        self._next_id = max(self._next_id, new_id + 1)
        self._peb[new_id] = self._at[old.start] = _pebble(new_id, old.level, old.start)

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
        return self._by_id(pid)[2]

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
        for first, level, count in self._segs:
            for start in range(first, first + (count << level), 1 << level):
                pebble = get(start)
                if pebble is None or pebble.start != start or pebble.level != level:
                    raise _stray(pebble, start, level)
                out.append(pebble)
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

    def last_of_level(self, level: int) -> tuple[Pebble, int | None] | None:
        """The last pebble of ``level``, read checked, and the least level
        of the pebbles right of it (None if there are none), in one
        right-to-left walk; None when no pebble has ``level``."""
        found = self._last(level)
        return None if found is None else found[1:]

    def _last(self, level: int) -> tuple[int, Pebble, int | None] | None:
        """``(i, pebble, low)``: the last pebble of ``level`` ends segment
        ``i``, and ``low`` is the least level of the segments after it."""
        segs = self._segs
        low = None
        for i in range(len(segs) - 1, -1, -1):
            first, lv, count = segs[i]
            if lv == level:
                return i, self._read(first + ((count - 1) << lv), lv), low
            if low is None or lv < low:
                low = lv
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
        """Rule C, in one walk up to the segment that holds ``pid``, where
        its stored copy is read checked."""
        pebble = self._peb.get(pid)
        if pebble is None:
            raise RequestError(f"unknown pebble id {pid}")
        start, black = pebble.start, True
        for first, level, count in self._segs:
            if first + (count << level) > start:  # the first segment reaching past ``start``
                on_a_start = first <= start and not (start - first) % (1 << level)
                if on_a_start and self._read(start, level) is pebble:
                    return black
                break
            if level > pebble.level:
                black = False
        raise InvariantError(f"pebble {pid} is not the one the segments put at {start}")

    def color_of(self, pid: int) -> str:
        """Rule C: black iff no strictly bigger pebble starts earlier."""
        return BLACK if self.is_black(pid) else WHITE

    def free_bandwidth_before(self, pos: int) -> int:
        """Number of free leaf positions strictly before ``pos``."""
        if not 0 <= pos <= self.leaves:
            raise RequestError(f"position {pos} out of [0, {self.leaves}]")
        free = pos
        for first, level, count in self._segs:
            if first >= pos:
                break
            end = first + (count << level)
            free -= (end if end < pos else pos) - first
        return free

    def total_free_bandwidth(self) -> int:
        return self.leaves - self._occupied

    def first_free_place(self, level: int) -> Place | None:
        """Free aligned place of ``level`` with minimal start, or None."""
        if not 0 <= level <= self.n:
            raise RequestError(f"level {level} out of [0, {self.n}]")
        size = 1 << level
        cursor = 0  # start of the free run ending at the next segment
        for first, lv, count in self._segs:
            start = (cursor + size - 1) & -size
            if start + size <= first:
                return Place(level, start)
            cursor = first + (count << lv)
        start = (cursor + size - 1) & -size
        return Place(level, start) if start + size <= self.leaves else None

    def insert_site(self, level: int) -> tuple[int, Pebble | None, bool] | None:
        """``(start, left, black)`` in one walk: the start of
        :meth:`first_free_place`, the pebble left of it, read checked, and
        its rule C color (True when there is no left pebble); None when no
        place of ``level`` is free.  The left pebble is the last of the
        segment before the place, black iff no segment before that one has
        a bigger level."""
        if not 0 <= level <= self.n:
            raise RequestError(f"level {level} out of [0, {self.n}]")
        size = 1 << level
        cursor = 0  # start of the free run ending at the next segment
        top = below = -1  # largest level of the segments walked, and of all but the last
        left = None  # the last segment walked
        for seg in self._segs:
            start = (cursor + size - 1) & -size
            if start + size <= seg[0]:
                break
            first, lv, count = left = seg
            below = top
            if lv > top:
                top = lv
            cursor = first + (count << lv)
        else:
            start = (cursor + size - 1) & -size
            if start + size > self.leaves:
                return None
        if left is None:
            return start, None, True
        first, lv, count = left
        return start, self._read(first + ((count - 1) << lv), lv), below <= lv

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
            scan = self._scan = scan_runs(self._segs, self.leaves, self._witness)
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
        end, level, occupied, pebbles = 0, None, 0, 0  # ``seg``'s predecessor; totals so far
        at, peb = self._at, self._peb
        for seg in self._segs:
            first, lv, count = seg
            if count < 1 or first < end or (first == end and lv == level):
                raise InvariantError(f"segment {seg} does not follow one ending at {end}")
            end, level, pebbles = first + (count << lv), lv, pebbles + count
            occupied += count << lv
            for start in range(first, end, 1 << lv):
                pebble = at.get(start)
                if pebble is None or pebble.start != start or pebble.level != lv:
                    raise _stray(pebble, start, lv)
                if peb.get(pebble.id) is not pebble:
                    raise InvariantError("the pebbles stored by id are not those in segments")
        if end > self.leaves:
            raise InvariantError(f"segments end at {end}, past the tree's {self.leaves}")
        if len(at) != pebbles:
            raise InvariantError(f"{len(at)} pebbles stored by start, {pebbles} in segments")
        if len(peb) != pebbles:
            raise InvariantError("the pebbles stored by id are not those in segments")
        if occupied != self._occupied:
            raise InvariantError(f"occupied bandwidth {self._occupied}, segments hold {occupied}")

    def validate(self) -> list[Violation]:
        """All P1/P2/P3, alignment and overlap breaches, position ordered,
        as a fresh list; the walk behind it is kept until the next mutation."""
        return list(self.pebble_scan().violations)
