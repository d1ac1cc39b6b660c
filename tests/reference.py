"""The paper's definitions, read per leaf: the one reference the tests
compare the program with.

Every answer here comes from the pebble list in position order and from
a leaf array, one byte per leaf, set where a pebble covers it.  Nothing
reads free gaps or running counts, and the segments only where a walk's
answer is a segment index, counted from their starts, so the structures
the program indexes by share no code with what they are checked against.
A state costs O(2**n) here, so the reference serves small trees.

The definitions (the ``model`` and ``coins`` modules state them too):

* rule C: a pebble is black when no strictly bigger pebble comes before
  it in the list, else white;
* P1: the free bandwidth before a pebble, its start less the leaves of
  the tree that the pebbles before it cover, is smaller than the pebble;
* P2: no two white pebbles are neighbours in the list;
* P3: no white pebble sits between black neighbours of one level;
* a free run is a maximal run of free leaves, each with the least level
  of the pebbles that start at or after its end (``x_level``);
* the canonical free places are the maximal free aligned places, and Φ
  sums P4's ``floor(2p / x)`` over those with a pebble to their right,
  ``x`` the size of the smallest such pebble.

A list here is position ordered: no pebble starts left of one before it,
which is the order a ``Situation`` keeps.  It may overlap, be misaligned
or run past the tree's end.
"""

from __future__ import annotations

from ovsfalloc import layout
from ovsfalloc.layout import PebbleScan, Place, Violation


def colors(pebs) -> list[bool]:
    """Rule C per pebble: True = black."""
    out = []
    biggest = -1
    for pebble in pebs:
        out.append(biggest <= pebble.level)
        biggest = max(biggest, pebble.level)
    return out


def violations(pebs, leaves: int) -> list[Violation]:
    """Every alignment, overlap, P1, P2 and P3 breach of ``pebs`` over
    ``leaves`` leaves, stably sorted by place start: at one start a
    pebble's own breaches (alignment, overlap, P1) come first, then P2,
    then P3.  An overlap names the pebble before in the list and the
    pebble, a P3 the white pebble and both its neighbours."""
    occ = bytearray(max([leaves] + [p.end for p in pebs]))
    black = colors(pebs)
    own = []
    for i, p in enumerate(pebs):
        start, size = p.start, 1 << p.level
        if start % size:
            own.append(Violation("alignment", (p.id,), p.place))
        if 1 in occ[start : start + size]:
            own.append(Violation("overlap", (pebs[i - 1].id, p.id), p.place))
        free = start - occ.count(1, 0, leaves)
        if free >= size:
            own.append(Violation("P1", (p.id,), p.place, f"free bandwidth {free} >= {size}"))
        occ[start : start + size] = b"\1" * size
    p2 = [
        Violation("P2", (pebs[i - 1].id, pebs[i].id), pebs[i].place)
        for i in range(1, len(pebs))
        if not black[i - 1] and not black[i]
    ]
    p3 = [
        Violation("P3", (pebs[i - 1].id, pebs[i].id, pebs[i + 1].id), pebs[i].place)
        for i in range(1, len(pebs) - 1)
        if not black[i] and black[i - 1] and black[i + 1] and pebs[i - 1].level == pebs[i + 1].level
    ]
    return sorted(own + p2 + p3, key=lambda v: v.place.start)


def _occupancy(pebs, leaves: int) -> bytearray:
    """The leaf array: the tree's leaves and every leaf a pebble covers."""
    occ = bytearray(max([leaves] + [p.end for p in pebs]))
    for p in pebs:
        occ[p.start : p.end] = b"\1" * p.size
    return occ


def _least_level_from(pebs, pos: int) -> int | None:
    """The least level of the pebbles that start at or after ``pos``."""
    return min((p.level for p in pebs if p.start >= pos), default=None)


def free_runs(pebs, leaves: int) -> tuple[tuple[int, int, int | None], ...]:
    """The maximal free runs ``(start, end, x_level)`` of the leaf array,
    in position order.  The array reaches past the tree only as far as a
    pebble does, so a run ends at the tree's end or at a pebble."""
    occ = _occupancy(pebs, leaves)
    runs = []
    start = occ.find(0)
    while start != -1:
        end = occ.find(1, start)
        if end == -1:
            end = len(occ)
        runs.append((start, end, _least_level_from(pebs, end)))
        start = occ.find(0, end)
    return tuple(runs)


def scan(pebs, leaves: int) -> PebbleScan:
    """What ``layout.scan_runs`` must return for the same pebbles."""
    pebs = list(pebs)
    return PebbleScan(tuple(violations(pebs, leaves)), free_runs(pebs, leaves))


def required_coins(p: int, x: int) -> int:
    """P4: a free place of size ``p`` whose smallest right pebble has size
    ``x`` carries ``floor(2p / x)`` coins."""
    return 2 * p // x


class Leaves:
    """One situation read per leaf: its pebbles, their colours and its
    leaf array, and every answer the program's queries and walks must give."""

    def __init__(self, s):
        self.s = s
        self.n = s.n
        self.leaves = s.leaves
        self.pebs = s.pebbles()
        self.black = colors(self.pebs)
        self.occ = _occupancy(self.pebs, self.leaves)

    def free_before(self, pos: int) -> int:
        """The free leaves left of ``pos``."""
        return self.occ.count(0, 0, pos)

    def free_total(self) -> int:
        return self.occ.count(0, 0, self.leaves)

    def first_free_place(self, level: int) -> Place | None:
        """The leftmost aligned place of ``level`` with every leaf free."""
        size = 1 << level
        for start in range(0, self.leaves - size + 1, size):
            if 1 not in self.occ[start : start + size]:
                return Place(level, start)
        return None

    def closing_position(self, level: int) -> int | None:
        """The end of the last black pebble of ``level``; with none, the
        start of the first bigger pebble; else None."""
        last_black = first_bigger = None
        for p, black in zip(self.pebs, self.black):
            if black and p.level == level:
                last_black = p.end
            if p.level > level and first_bigger is None:
                first_bigger = p.start
        return first_bigger if last_black is None else last_black

    def _segments_before(self, pos: int) -> int:
        """The situation's segments that start left of ``pos``."""
        return sum(seg[0] < pos for seg in self.s.segments())

    def site(self, level: int):
        """What ``layout.site`` must return: ``(i, start, black)``, the
        first free place's start, the segments left of it and the colour
        of the pebble left of it (True with none)."""
        place = self.first_free_place(level)
        if place is None:
            return None
        left = [b for p, b in zip(self.pebs, self.black) if p.start < place.start]
        return self._segments_before(place.start), place.start, not left or left[-1]

    def last(self, level: int):
        """What ``layout.last`` must return: ``(i, start, low)``, the last
        pebble of ``level``, the segment that holds it and the least level
        of the pebbles right of it (None with none)."""
        at = [i for i, p in enumerate(self.pebs) if p.level == level]
        if not at:
            return None
        start = self.pebs[at[-1]].start
        low = min((p.level for p in self.pebs[at[-1] + 1 :]), default=None)
        return self._segments_before(start + 1) - 1, start, low

    def closing(self, level: int):
        """What ``layout.closing`` must return: ``(j, cp, top)``, the
        closing position, the segments left of it and the largest level of
        the pebbles left of it (-1 with none)."""
        cp = self.closing_position(level)
        if cp is None:
            return None
        top = max((p.level for p in self.pebs if p.start < cp), default=-1)
        return self._segments_before(cp), cp, top

    def canonical_places(self) -> list[Place]:
        """The maximal free aligned places, in position order: a free place
        whose parent place is not free, found from the whole tree down."""
        out = []

        def visit(level: int, start: int) -> None:
            end = start + (1 << level)
            if 1 not in self.occ[start:end]:
                out.append(Place(level, start))
            elif 0 in self.occ[start:end]:
                visit(level - 1, start)
                visit(level - 1, start + (1 << (level - 1)))

        visit(self.n, 0)
        return out

    def potential(self) -> int:
        """Φ: P4's coins summed over the canonical free places."""
        total = 0
        for place in self.canonical_places():
            x_level = _least_level_from(self.pebs, place.end)
            if x_level is not None:
                total += required_coins(place.size, 1 << x_level)
        return total

    def structural_failures(self) -> list[str]:
        """What ``oracle.structural_failures`` must return, message for
        message and in its order.  The agreement messages compare the
        program's walks over the situation's segments, read from ``layout``,
        with the ones above; the free bandwidth a level must fit is the
        situation's own total, as there."""
        s, pebs, black, n, leaves = self.s, self.pebs, self.black, self.n, self.leaves
        whites = [p for p, b in zip(pebs, black) if not b]
        out: list[str] = []
        if pebs and pebs[0].start != 0:
            out.append(f"first pebble at {pebs[0].start}, not 0")
        for before, pebble in zip(whites, whites[1:]):
            if pebble.level <= before.level:
                out.append(f"white sizes not strictly increasing at {pebble.place}")
        for level in range(n + 1):
            starts = [p.start for p, b in zip(pebs, black) if b and p.level == level]
            for a, b in zip(starts, starts[1:]):
                if b != a + (1 << level):
                    out.append(f"black level-{level} pebbles not contiguous: {a}, {b}")

        for i, pebble in enumerate(pebs):
            nxt = pebs[i + 1] if i + 1 < len(pebs) else None
            gap = (leaves if nxt is None else nxt.start) - pebble.end
            if 0 < gap < pebble.size:
                out.append(f"gap {gap} after {pebble.place} smaller than the pebble")
            if not black[i]:  # rule C makes the first pebble black
                left = pebs[i - 1]
                if not black[i - 1]:
                    out.append(f"white pebble {pebble.place} behind a white neighbor")
                if left.level <= pebble.level:
                    out.append(f"white pebble {pebble.place} not behind a bigger pebble")
                if left.end != pebble.start:
                    out.append(f"free space between {left.place} and white {pebble.place}")
                if gap < left.size - pebble.size:
                    out.append(f"white {pebble.place}: trailing gap {gap} < {left.size - pebble.size}")
                for other in whites:  # no other white pebble has a size in [a, b)
                    if other is not pebble and pebble.level <= other.level and other.size < left.size:
                        out.append(f"white {other.place} inside the size window of {pebble.place}")
                # between the doubled-size closing position and the backing
                # black pebble every leaf is covered and no white pebble starts
                j = self.closing_position(pebble.level + 1) if pebble.level < n else None
                if j is not None and j < left.start:
                    if 0 in self.occ[j : left.start]:
                        out.append(f"free leaf between {j} and {left.start} (window of white {pebble.place})")
                    for other in whites:
                        if j <= other.start < left.start:
                            out.append(f"white {other.place} starts inside [{j}, {left.start})")
            if nxt is not None and gap > 0 and not black[i + 1]:
                out.append(f"white pebble {nxt.place} right after free space")

        free_total = s.total_free_bandwidth()
        levels = range(n + 1)
        for level in levels:
            place = self.first_free_place(level)
            if place is None:
                if free_total >= (1 << level):
                    out.append(f"bandwidth {free_total} fits level {level} but no free place")
                continue
            if self.free_before(place.start) >= place.size:
                out.append(f"free bandwidth before first free {place} >= its size")
            right = [i for i, p in enumerate(pebs) if p.start > place.start]
            if right and (not black[right[0]] or pebs[right[0]].level <= level):
                out.append(
                    f"right neighbor {pebs[right[0]].place} of first free {place} "
                    "not a bigger black pebble"
                )
        if pebs and violations(pebs[:-1], leaves):
            out.append("removing the last pebble broke validity")

        segs = s.segments()
        for level in levels:
            for walk, got, want in (
                ("site", layout.site(segs, leaves, level), self.site(level)),
                ("last", layout.last(segs, level), self.last(level)),
                ("closing", layout.closing(segs, level), self.closing(level)),
            ):
                if got != want:
                    out.append(f"{walk} disagreement at level {level}")
        return out
