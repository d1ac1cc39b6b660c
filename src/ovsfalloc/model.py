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

Positions are held once, in one position-ordered list of segments, each a
maximal run of contiguous equal-size pebbles; ids are two inverse maps
over the segment starts (see :class:`Situation`).  In a valid situation
every level holds one contiguous black run and at most one white pebble,
so that list is O(n) long and no part of the state is sized by ``2**n``.
``validate`` re-checks all of this (plus alignment and disjointness) in
one walk over the segments, O(1) per segment
(:func:`~ovsfalloc.layout.scan_runs`), which also yields the free runs
that the coin audit recounts and is kept until the next mutation.

The allocator works on segment indices: one walk of the segments
(:func:`~ovsfalloc.layout.site`, ``last`` or ``closing``) finds its
site, victim or filler and hands back its index, and the request
rewrites what it touches there: one pebble placed (``_place``, whose
freeness test reads the two neighbouring segments) or removed
(``_drop_last``), or a window of neighbouring pebbles rewritten in one
splice (``_splice`` over :func:`~ovsfalloc.layout.respan`, which also
shifts the sorted baseline's runs in ``rotate_runs``); ``move_pebble``
is one such splice of a source and a landing window.  The public
queries (``insert_site``, ``last_of_level``, ``place_pebble``, ...) run
the same walks and build a :class:`Pebble` only where they return one.

A Situation is a self-contained value: instances share no mutable state,
may be moved freely between threads, and a single instance must not be
mutated concurrently.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import FrozenInstanceError
from operator import itemgetter
from typing import NamedTuple

from .layout import (  # the error types are the model's, defined where the run edits raise them
    AllocationError, BandwidthError, InvariantError, PebbleScan, Place, RequestError, Violation,
    closing, last, respan, scan_runs, site,
)

BLACK = "black"
WHITE = "white"

# the tallest tree any entry point builds: the state is O(height), but a
# per-level list of a height read from a file must not exhaust memory
MAX_TREE_HEIGHT = 1024


def check_height(n: int) -> None:
    """Raise ``ValueError`` unless ``0 <= n <= MAX_TREE_HEIGHT``; every
    entry point that sizes anything by a height calls this first."""
    if n < 0:
        raise ValueError(f"height must be >= 0, got {n}")
    if n > MAX_TREE_HEIGHT:
        raise ValueError(f"height must be <= {MAX_TREE_HEIGHT}, got {n}")


class Pebble(NamedTuple):
    """One allocated code: stable id, level and starting position.

    A value, like :class:`~ovsfalloc.layout.Place`, built as
    ``tuple.__new__(Pebble, (id, level, start))`` where a method returns
    one: a frozen dataclass would spend three ``object.__setattr__`` calls
    on each read.  A pebble held by a caller keeps its place and id."""

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

    def __setattr__(self, name: str, value) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")


_START = itemgetter(0)


def _seg_end(seg: tuple[int, int, int]) -> int:
    start, level, count = seg
    return start + (count << level)


def _stray(start: int, pid: int | None) -> InvariantError:
    """The error for a start whose stored id the id map puts elsewhere."""
    return InvariantError(f"the pebble stored at {start} (id {pid}) is not stored by id at {start}")


def _starts(seg: tuple[int, int, int]) -> range:
    """Starts of the pebbles of one segment, in order."""
    start, level, count = seg
    return range(start, start + (count << level), 1 << level)


class Situation:
    """Mutable allocator state over ``2**n`` leaf positions.

    Positions live in ``_segs`` alone, a start-ordered list of
    ``(start, level, count)`` segments: ``count`` contiguous pebbles of
    ``level``, the first at ``start``, with no equal-level pebble touching
    either end.  Every positional query is a walk or bisection of it, or,
    for the allocator, an index into it.  Ids are two int maps
    over the segment starts, ``_id_at`` (start -> id) and ``_start_of``
    (id -> start).  A :class:`Pebble` is built only where a method returns
    one, with the level of its segment.  Every read of an id checks that
    the two maps are inverse at its start, and :meth:`cross_check` checks
    every start; a mismatch raises :class:`InvariantError`.

    ``_scan`` keeps the last :class:`PebbleScan`, walked over the segments,
    so that ``validate`` and the coin audit of one state share a single
    walk.  Every mutator drops it; ``copy`` shares it, since it is immutable.
    """

    def __init__(self, n: int):
        check_height(n)
        self.n = n
        self.leaves = 1 << n
        self._id_at: dict[int, int] = {}
        self._start_of: dict[int, int] = {}
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

    def _index(self, start: int) -> tuple[int, int, int]:
        """``(i, k, level)``: pebble ``k`` of segment ``i`` starts at ``start``, or ``i`` is -1."""
        segs = self._segs
        i = bisect_right(segs, start, key=_START) - 1
        if i >= 0:
            first, level, count = segs[i]
            k = (start - first) >> level
            if k < count and first + (k << level) == start:
                return i, k, level
        return -1, 0, 0

    def _by_id(self, pid: int) -> tuple[int, int, int, int]:
        """``(i, k, level, start)``: pebble ``k`` of segment ``i`` has id ``pid`` in both maps."""
        start = self._start_of.get(pid)
        if start is None:
            raise RequestError(f"unknown pebble id {pid}")
        i, k, level = self._index(start)
        if i < 0 or self._id_at.get(start) != pid:
            raise InvariantError(f"pebble {pid} is not the one the segments put at {start}")
        return i, k, level, start

    def _id(self, start: int) -> int:
        """The id stored at ``start``, where a segment puts a pebble;
        InvariantError unless the maps are inverse there."""
        if self._start_of.get(pid := self._id_at.get(start)) != start:
            raise _stray(start, pid)
        return pid

    def _place(self, i: int, level: int, start: int, pid: int | None = None) -> int:
        """Install a pebble at ``start``, just before segment ``i``, checked
        aligned, inside the tree, clear of the two segments around ``i``,
        storing no id and with an unused id, which it returns; or raise with
        nothing changed.  It joins a touching segment of its level."""
        size = 1 << level
        if start & (size - 1):
            raise RequestError(f"start {start} not aligned to size {size}")
        if start < 0 or start + size > self.leaves:
            raise RequestError(f"place {Place(level, start)} outside the tree")
        segs = self._segs
        lo, hi, first, count = i, i, start, 1
        if i:
            before, lv, n = segs[i - 1]
            if (end := before + (n << lv)) > start:
                raise RequestError(f"place {Place(level, start)} is not free")
            if end == start and lv == level:
                lo, first, count = i - 1, before, n + 1
        if i < len(segs):
            after, lv, n = segs[i]
            if after < start + size:
                raise RequestError(f"place {Place(level, start)} is not free")
            if after == start + size and lv == level:
                hi, count = i + 1, count + n
        pid = self._next_id if pid is None else pid
        if pid in self._start_of:
            raise RequestError(f"pebble id {pid} already present")
        if start in self._id_at:
            raise InvariantError(f"a pebble is stored at free start {start}")
        if pid >= self._next_id:
            self._next_id = pid + 1
        segs[lo:hi] = [(first, level, count)]
        self._scan = None
        self._id_at[start] = pid
        self._start_of[pid] = start
        self._occupied += size
        return pid

    def _splice(self, *windows: tuple[int, int, int, list]) -> int | None:
        """Move a few pebbles and place at most one new one in one rewrite.
        A window ``(lo, cut, to, moves)`` replaces the pebbles in ``[cut,
        to)``, held from segment ``lo`` on, by those ``moves`` puts there,
        ``(id, level, source, destination)`` in position order, with id and
        source None for a new pebble.  Windows go left to right and are
        spliced right to left, once each destination is checked as
        :meth:`_place` checks it, but as an :class:`InvariantError`: its
        callers hold admitted requests.  Returns the new pebble's id."""
        id_at, start_of = self._id_at, self._start_of
        moves = [move for window in windows for move in window[3]]
        sources = [move[2] for move in moves]
        new = None
        for pid, level, _, dst in moves:
            size = 1 << level
            if dst & (size - 1):
                raise InvariantError(f"start {dst} not aligned to size {size}")
            if dst < 0 or dst + size > self.leaves:
                raise InvariantError(f"place {Place(level, dst)} outside the tree")
            if dst in id_at and dst not in sources:
                raise InvariantError(f"a pebble is stored at free start {dst}")
            if pid is None:
                new, grown = self._next_id, size
                if new in start_of:
                    raise RequestError(f"pebble id {new} already present")
        for lo, cut, to, landing in reversed(windows):
            respan(self._segs, lo, cut, to, [(dst, level, 1) for _, level, _, dst in landing])
        self._scan = None
        for src in sources:
            if src is not None:
                del id_at[src]
        if new is not None:
            self._next_id, self._occupied = new + 1, self._occupied + grown
        for pid, _, _, dst in moves:
            id_at[dst] = pid = new if pid is None else pid
            start_of[pid] = dst
        return new

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
        pid = self._place(bisect_right(self._segs, start, key=_START), level, start, pid)
        return tuple.__new__(Pebble, (pid, level, start))

    def remove_pebble(self, pid: int) -> Pebble:
        i, _, level, start = self._by_id(pid)
        respan(self._segs, i, start, start + (1 << level), [])
        self._scan = None
        del self._start_of[pid], self._id_at[start]
        self._occupied -= 1 << level
        return tuple.__new__(Pebble, (pid, level, start))

    def _drop_last(self, i: int, start: int, pid: int) -> int:
        """Remove the last pebble of segment ``i``, at ``start`` with id
        ``pid``; returns the index of the first segment past its place."""
        first, level, count = self._segs[i]
        if count > 1:
            self._segs[i] = (first, level, count - 1)
            i += 1
        else:
            del self._segs[i]
        self._scan = None
        del self._start_of[pid], self._id_at[start]
        self._occupied -= 1 << level
        return i

    def rotate_runs(self, lo: int, hi: int, right: bool) -> list[tuple[int, Place, Place]]:
        """Rotate each of the segments ``lo..hi-1`` by one slot: with
        ``right`` a run's first pebble moves just past its end, else its
        last just before its start, so that the run shifts by one pebble.
        Each hop's id is read checked from its segment, and its destination
        is checked as :meth:`_splice` checks one: aligned, inside the tree
        and storing no id.  The shifted runs overlap nothing
        (:func:`~ovsfalloc.layout.respan`, which merges a run with a touching
        equal-level neighbour).  Returns ``(id, old place, new place)`` per
        hop, in segment order, or raises :class:`InvariantError` with
        nothing changed."""
        if lo >= hi:
            return []
        segs, id_at, start_of = self._segs, self._id_at, self._start_of
        hops, runs = [], []  # (id, level, source, destination) per hop; the shifted runs
        vacated = -1  # the source of the hop next to this one, whose destination it may be
        for i in range(lo, hi):
            first, level, count = segs[i]
            size = 1 << level
            if right:  # top down: the next run's first pebble has left
                src, dst = first, first + (count << level)
                vacated = segs[i + 1][0] if i + 1 < hi else -1
            else:  # bottom up: the previous run's last pebble has left
                src, dst = first + ((count - 1) << level), first - size
            pid = id_at.get(src)
            if pid is None or start_of.get(pid) != src:
                raise _stray(src, pid)
            if dst & (size - 1) or dst < 0 or dst + size > self.leaves:
                raise InvariantError(f"misaligned move of {pid} to {dst}")
            if dst in id_at and dst != vacated:
                raise InvariantError(f"a pebble is stored at {dst}, the move's free start")
            hops.append((pid, level, src, dst))
            runs.append((first + size if right else dst, level, count))
            vacated = src
        respan(segs, lo, segs[lo][0], _seg_end(segs[hi - 1]), runs)
        self._scan = None
        for hop in hops:
            del id_at[hop[2]]
        new = tuple.__new__  # no NamedTuple __new__ call per Place
        moved = []
        for pid, level, src, dst in hops:
            id_at[dst], start_of[pid] = pid, dst
            moved.append((pid, new(Place, (level, src)), new(Place, (level, dst))))
        return moved

    def move_pebble(self, pid: int, new_start: int) -> None:
        """Move the pebble with id ``pid`` to the free place of its level at
        ``new_start``: its source and landing windows in one :meth:`_splice`,
        which checks the landing as it checks every destination.  Raises
        :class:`InvariantError` with nothing changed where that place is not
        free, aligned and inside the tree."""
        i, _, level, start = self._by_id(pid)
        size = 1 << level
        j = self._slot(new_start, new_start + size)
        if j < 0:
            raise InvariantError(f"place {Place(level, new_start)} is not free")
        source = (i, start, start + size, [])
        landing = (j, new_start, new_start + size, [(pid, level, start, new_start)])
        self._splice(*((source, landing) if start < new_start else (landing, source)))

    def relabel_pebble(self, old_id: int, new_id: int) -> None:
        """Hand ``old_id``'s pebble the identity ``new_id`` (code handover).
        The pebble stays where it is, so its id is read as every id is, the
        two maps checked inverse at its start, with no search of the
        segments: a delete by id has resolved it against them already."""
        start = self._start_of.get(old_id)
        if start is None:
            raise RequestError(f"unknown pebble id {old_id}")
        if self._id_at.get(start) != old_id:
            raise InvariantError(f"pebble {old_id} is not the one stored at {start}")
        if new_id in self._start_of:
            raise RequestError(f"pebble id {new_id} already present")
        del self._start_of[old_id]
        self._scan = None
        self._next_id = max(self._next_id, new_id + 1)
        self._start_of[new_id], self._id_at[start] = start, new_id

    def copy(self) -> "Situation":
        other = Situation.__new__(Situation)
        other.n, other.leaves = self.n, self.leaves
        other._id_at, other._start_of = dict(self._id_at), dict(self._start_of)
        other._segs, other._scan = list(self._segs), self._scan  # the scan is immutable, so shared
        other._occupied, other._next_id = self._occupied, self._next_id
        return other

    # ------------------------------------------------------------------
    # basic queries

    def __len__(self) -> int:
        return len(self._start_of)

    def __contains__(self, pid: int) -> bool:
        return pid in self._start_of

    def pebble(self, pid: int) -> Pebble:
        return tuple.__new__(Pebble, (pid, *self._by_id(pid)[2:]))

    def _read(self, start: int, level: int) -> Pebble:
        """The pebble at ``start``, where the segment list puts one of
        ``level``; InvariantError unless the maps are inverse there."""
        return tuple.__new__(Pebble, (self._id(start), level, start))

    def pebbles(self) -> list[Pebble]:
        """Pebbles in position order, as a fresh list, each read checked."""
        return [self._read(start, seg[1]) for seg in self._segs for start in _starts(seg)]

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
        i, _, level = self._index(start)
        if i >= 0:
            return self._read(start, level)
        if start in self._id_at:
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
        return None if i == len(segs) else self._read(segs[i][0], segs[i][1])

    def rightmost_of_level(self, level: int) -> Pebble | None:
        found = self.last_of_level(level)
        return None if found is None else found[0]

    def last_of_level(self, level: int) -> tuple[Pebble, int | None] | None:
        """The last pebble of ``level``, read checked, and the least level
        of the pebbles right of it (None if there are none), in one
        right-to-left walk; None when no pebble has ``level``."""
        found = last(self._segs, level)
        return None if found is None else (self._read(found[1], level), found[2])

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
        """Rule C: no segment before the one that holds ``pid``, checked in
        both maps, has a bigger level."""
        i, _, level, _ = self._by_id(pid)
        return all(seg[1] <= level for seg in self._segs[:i])

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
        found = site(self._segs, self.leaves, level)
        return None if found is None else Place(level, found[1])

    def insert_site(self, level: int) -> tuple[int, Pebble | None, bool] | None:
        """``(start, left, black)`` in one walk: the start of
        :meth:`first_free_place`, the pebble left of it, read checked, and
        its rule C color (True when there is no left pebble); None when no
        place of ``level`` is free."""
        if not 0 <= level <= self.n:
            raise RequestError(f"level {level} out of [0, {self.n}]")
        found = site(self._segs, self.leaves, level)
        if found is None:
            return None
        i, start, black = found
        if not i:
            return start, None, True
        first, lv, count = self._segs[i - 1]
        return start, self._read(first + ((count - 1) << lv), lv), black

    def closing_position(self, level: int) -> int | None:
        """Position after the last black pebble of ``level``; if there is
        none, the start of the first pebble of a bigger level; else None."""
        if not 0 <= level <= self.n:
            raise RequestError(f"level {level} out of [0, {self.n}]")
        found = closing(self._segs, level)
        return None if found is None else found[1]

    def pebble_scan(self) -> PebbleScan:
        """The :func:`~ovsfalloc.layout.scan_runs` result of the segments,
        O(segments), at most once between two mutations; a witness id is
        read, checked, only for a breach."""
        scan = self._scan
        if scan is None:
            scan = self._scan = scan_runs(self._segs, self.leaves, self._witness)
        return scan

    def _witness(self, i: int, k: int) -> int:
        first, level, _ = self._segs[i]
        return self._read(first + (k << level), level).id

    def cross_check(self) -> None:
        """Check the id maps against the segment list, in O(pebbles): the
        segments are ordered, maximal and inside the tree, each map is the
        other's inverse over exactly their starts, and the occupied bandwidth
        is theirs.  Raises :class:`InvariantError` on the first mismatch."""
        end, level, occupied, pebbles = 0, None, 0, 0  # ``seg``'s predecessor; totals so far
        id_at, start_of = self._id_at, self._start_of
        for seg in self._segs:
            first, lv, count = seg
            if count < 1 or first < end or (first == end and lv == level):
                raise InvariantError(f"segment {seg} does not follow one ending at {end}")
            end, level, pebbles = first + (count << lv), lv, pebbles + count
            occupied += count << lv
            for start in range(first, end, 1 << lv):
                pid = id_at.get(start)
                if pid is None:
                    raise _stray(start, pid)
                if start_of.get(pid) != start:
                    raise InvariantError("the pebbles stored by id are not those in segments")
        if end > self.leaves:
            raise InvariantError(f"segments end at {end}, past the tree's {self.leaves}")
        if len(id_at) != pebbles:
            raise InvariantError(f"{len(id_at)} pebbles stored by start, {pebbles} in segments")
        if len(start_of) != pebbles:
            raise InvariantError("the pebbles stored by id are not those in segments")
        if occupied != self._occupied:
            raise InvariantError(f"occupied bandwidth {self._occupied}, segments hold {occupied}")

    def validate(self) -> list[Violation]:
        """All P1/P2/P3, alignment and overlap breaches, position ordered,
        as a fresh list; the walk behind it is kept until the next mutation."""
        return list(self.pebble_scan().violations)
