"""Differential test of the one-pass structural oracle against the one it
replaced.

``reference_structural_failures`` and its helpers are
``oracle.structural_failures`` as it stood before its scan became one
pass with running free counts, kept verbatim apart from their names (the
scan oracles included, as ``reference_scan_*``).  Every situation below
must get the same list of failures, in the same order and with the same
text, and the same scan answers: the reachable states of two verifier
walks, random situations (valid and not), and valid states whose indexed
queries are planted wrong.
"""

from __future__ import annotations

import bisect
import random

import pytest

from ovsfalloc import oracle
from ovsfalloc.model import Pebble, Place, RequestError, Situation
from ovsfalloc.oracle import (
    exhaustive_verify,
    scan_closing_position,
    scan_first_free_place,
    scan_free_before,
    structural_failures,
)


def _scan(s: Situation) -> tuple[list[Pebble], list[bool], list[tuple[int, int]]]:
    """One position-ordered pass over ``s.pebbles()``: the pebbles, their
    rule C colors (True = black: no strictly bigger pebble earlier) and the
    maximal free gaps ``(start, end)`` between them.

    Gaps follow a running maximum end, so overlapping pebbles still leave
    only leaves that no pebble covers.
    """
    pebs = s.pebbles()
    colors = []
    gaps = []
    biggest = -1
    covered = 0  # end of the covered prefix
    for pebble in pebs:
        level = pebble.level
        start = pebble.start
        colors.append(biggest <= level)
        if level > biggest:
            biggest = level
        if start > covered:
            gaps.append((covered, start))
        end = start + (1 << level)
        if end > covered:
            covered = end
    if covered < s.leaves:
        gaps.append((covered, s.leaves))
    return pebs, colors, gaps


def _first_free(gaps: list[tuple[int, int]], levels: int) -> list[Place | None]:
    """Lowest aligned place inside one free gap, for each level below
    ``levels``, in one pass: a gap that holds a place of some level holds
    one of every smaller level, so the gaps are met in level order."""
    out: list[Place | None] = []
    for lo, hi in gaps:
        while len(out) < levels:
            size = 1 << len(out)
            start = (lo + size - 1) & -size
            if start + size > hi:
                break
            out.append(Place(len(out), start))
    return out + [None] * (levels - len(out))


def _free_before(gaps: list[tuple[int, int]], pos: int) -> int:
    return sum((hi if hi < pos else pos) - lo for lo, hi in gaps if lo < pos)


def _any_free(gaps: list[tuple[int, int]], lo: int, hi: int) -> bool:
    """Is any leaf of ``[lo, hi)`` free?"""
    return any(a < hi and b > lo for a, b in gaps)


def _closing_positions(
    pebs: list[Pebble], colors: list[bool], levels: int
) -> list[int | None]:
    """Closing position of each level below ``levels``: the end of its last
    black pebble, else the start of the first bigger pebble, else None."""
    last_black: list[int | None] = [None] * levels
    first_bigger: list[int | None] = [None] * levels
    biggest = 0  # no earlier pebble is bigger than any level >= this
    for pebble, black in zip(pebs, colors):
        level = pebble.level
        if black and level < levels:
            last_black[level] = pebble.start + (1 << level)
        for lower in range(biggest, min(level, levels)):
            first_bigger[lower] = pebble.start
        if level > biggest:
            biggest = level
    return [b if b is not None else f for b, f in zip(last_black, first_bigger)]


def reference_scan_first_free_place(s: Situation, level: int) -> Place | None:
    if level < 0:
        raise RequestError(f"level {level} is negative")
    if level > s.n:
        return None  # no place of ``level`` fits in the tree
    return _first_free(_scan(s)[2], level + 1)[level]


def reference_scan_free_before(s: Situation, pos: int) -> int:
    if not 0 <= pos <= s.leaves:
        raise RequestError(f"position {pos} out of [0, {s.leaves}]")
    return _free_before(_scan(s)[2], pos)


def reference_scan_closing_position(s: Situation, level: int) -> int | None:
    if level < 0:
        raise RequestError(f"level {level} is negative")
    if level > s.n:
        return None  # no pebble of ``level`` or bigger fits in the tree
    pebs, colors, _ = _scan(s)
    return _closing_positions(pebs, colors, level + 1)[level]


def reference_structural_failures(s: Situation) -> list[str]:
    """Check every structural property a valid situation must satisfy.

    Assumes ``s.validate()`` already came back empty; returns human-
    readable descriptions of any failed property, and of any answer of the
    situation's indexed queries that disagrees with the scan.
    """
    out: list[str] = []
    pebs, colors, gaps = _scan(s)
    leaves = s.leaves
    levels = range(s.n + 1)
    first_free = _first_free(gaps, s.n + 1)
    closing = _closing_positions(pebs, colors, s.n + 1)

    if pebs and pebs[0].start != 0:
        out.append(f"first pebble at {pebs[0].start}, not 0")

    last_black = -1
    for pebble, black in zip(pebs, colors):
        if black:
            if pebble.level < last_black:
                out.append(f"black sizes decrease at {pebble.place}")
            last_black = max(last_black, pebble.level)
    last_white = -1
    for pebble, black in zip(pebs, colors):
        if not black:
            if pebble.level <= last_white:
                out.append(f"white sizes not strictly increasing at {pebble.place}")
            last_white = pebble.level

    black_start: dict[int, int] = {}  # level -> start of its last black pebble so far
    breaks: dict[int, list[str]] = {}  # level -> its contiguity breaches
    for pebble, black in zip(pebs, colors):
        if black:
            level = pebble.level
            a = black_start.get(level)
            if a is not None and pebble.start != a + (1 << level):
                breaks.setdefault(level, []).append(
                    f"black level-{level} pebbles not contiguous: {a}, {pebble.start}"
                )
            black_start[level] = pebble.start
    for level in sorted(breaks):
        out += breaks[level]

    whites = [pebble for pebble, black in zip(pebs, colors) if not black]

    for i, (pebble, black) in enumerate(zip(pebs, colors)):
        nxt = pebs[i + 1] if i + 1 < len(pebs) else None
        gap = (nxt.start if nxt else leaves) - pebble.end
        if gap > 0 and gap < pebble.size:
            out.append(f"gap {gap} after {pebble.place} smaller than the pebble")
        if not black:
            if i == 0:
                out.append(f"white pebble {pebble.place} with no left neighbor")
                continue
            left = pebs[i - 1]
            if not colors[i - 1]:
                out.append(f"white pebble {pebble.place} behind a white neighbor")
            if left.level <= pebble.level:
                out.append(f"white pebble {pebble.place} not behind a bigger pebble")
            if left.end != pebble.start:
                out.append(f"free space between {left.place} and white {pebble.place}")
            if gap < left.size - pebble.size:
                out.append(
                    f"white {pebble.place}: trailing gap {gap} < "
                    f"{left.size - pebble.size}"
                )
            # no other white pebble may have a size in [a, b)
            for other in whites:
                if other is pebble:
                    continue
                if pebble.level <= other.level and other.size < left.size:
                    out.append(
                        f"white {other.place} inside the size window of "
                        f"{pebble.place}"
                    )
            # everything between the doubled-size closing position and the
            # backing black pebble is solidly covered, with no white starts
            if pebble.level + 1 <= s.n:
                j = closing[pebble.level + 1]
                if j is not None and j < left.start:
                    if _any_free(gaps, j, left.start):
                        out.append(
                            f"free leaf between {j} and {left.start} "
                            f"(window of white {pebble.place})"
                        )
                    for other in whites:
                        if j <= other.start < left.start:
                            out.append(
                                f"white {other.place} starts inside "
                                f"[{j}, {left.start})"
                            )
        if gap > 0 and nxt is not None and not colors[i + 1]:
            # a pebble right after free space must be black
            out.append(f"white pebble {nxt.place} right after free space")

    free_total = s.total_free_bandwidth()
    starts = [pebble.start for pebble in pebs]
    for level, place in zip(levels, first_free):
        if free_total >= (1 << level) and place is None:
            out.append(f"bandwidth {free_total} fits level {level} but no free place")
        if place is not None:
            if _free_before(gaps, place.start) >= place.size:
                out.append(f"free bandwidth before first free {place} >= its size")
            idx = bisect.bisect_right(starts, place.start)
            if idx < len(pebs):
                nxt = pebs[idx]
                if not colors[idx] or nxt.size <= place.size:
                    out.append(
                        f"right neighbor {nxt.place} of first free {place} "
                        "not a bigger black pebble"
                    )

    if pebs:
        trimmed = s.copy()
        trimmed.remove_pebble(pebs[-1].id)
        if trimmed.validate():
            out.append("removing the last pebble broke validity")

    last: dict[int, tuple[Pebble, int | None]] = {}  # level -> its last pebble, least level right
    low = None
    for pebble in reversed(pebs):
        if pebble.level not in last:
            last[pebble.level] = (pebble, low)
        if low is None or pebble.level < low:
            low = pebble.level

    for pebble, black in zip(pebs, colors):
        if s.is_black(pebble.id) != black:
            out.append(f"color disagreement at {pebble.place}")
    for level in levels:
        place = first_free[level]
        if s.first_free_place(level) != place:
            out.append(f"first_free_place disagreement at level {level}")
        site = None
        if place is not None:
            i = bisect.bisect_left(starts, place.start)  # pebs[:i] start left of the place
            site = (place.start, pebs[i - 1], colors[i - 1]) if i else (place.start, None, True)
        if s.insert_site(level) != site:
            out.append(f"insert_site disagreement at level {level}")
        if s.last_of_level(level) != last.get(level):
            out.append(f"last_of_level disagreement at level {level}")
        if s.closing_position(level) != closing[level]:
            out.append(f"closing_position disagreement at level {level}")
    for pos in range(0, leaves + 1, max(1, leaves // 8)):
        if s.free_bandwidth_before(pos) != _free_before(gaps, pos):
            out.append(f"free_bandwidth_before disagreement at {pos}")
    return out


# ----------------------------------------------------------------------
# the situations compared


def _agrees(s: Situation) -> bool:
    """Assert that both oracles give ``s`` the same failures and the same
    scan answers; True when ``s`` fails some property."""
    problems = reference_structural_failures(s)
    assert structural_failures(s) == problems
    for level in range(-1, s.n + 3):
        for new, ref in (
            (scan_first_free_place, reference_scan_first_free_place),
            (scan_closing_position, reference_scan_closing_position),
        ):
            if level < 0:
                with pytest.raises(RequestError, match="level -1 is negative"):
                    new(s, level)
            else:
                assert new(s, level) == ref(s, level)
    for pos in range(-1, s.leaves + 2):
        if 0 <= pos <= s.leaves:
            assert scan_free_before(s, pos) == reference_scan_free_before(s, pos)
        else:
            with pytest.raises(RequestError, match=rf"position {pos} out of"):
                scan_free_before(s, pos)
    return bool(problems)


def _walk_states(monkeypatch, n: int, depth: int) -> list[Situation]:
    """A copy of every state ``exhaustive_verify(n, depth)`` reaches, by
    first arrival."""
    states: dict = {}
    real_apply = oracle.apply

    def apply_(s, request):
        log = real_apply(s, request)
        states.setdefault(s.to_pairs(), s.copy())
        return log

    monkeypatch.setattr(oracle, "apply", apply_)
    report = exhaustive_verify(n, depth)
    monkeypatch.undo()
    assert report.ok and report.states == len(states)
    return list(states.values())


@pytest.mark.parametrize("n, depth, count", [(4, 17, 305), (5, 6, 494)])
def test_every_walk_state_matches_the_reference(monkeypatch, n, depth, count):
    states = _walk_states(monkeypatch, n, depth)
    assert len(states) == count
    for s in states:
        assert not _agrees(s)


def _random_situation(rng: random.Random) -> Situation:
    """Random pebbles placed where they fit: mostly invalid situations."""
    n = rng.randint(0, 6)
    s = Situation(n)
    for _ in range(rng.randint(1, 2 * n + 2)):
        level = rng.randint(0, n)
        start = rng.randrange(s.leaves >> level) << level
        if s.block_free(level, start):
            s.place_pebble(level, start)
    return s


def test_random_situations_match_the_reference():
    rng = random.Random(18)
    failing = sum(_agrees(_random_situation(rng)) for _ in range(3_000))
    assert 1_000 < failing < 2_900  # valid and invalid situations both


PLANTS = {
    "is_black": lambda real: lambda self, pid: not real(self, pid),
    "first_free_place": lambda real: lambda self, level: (
        None if real(self, level) is not None else Place(level, 0)
    ),
    "insert_site": lambda real: lambda self, level: (
        (lambda site: site and (site[0], site[1], not site[2]))(real(self, level))
    ),
    "last_of_level": lambda real: lambda self, level: (
        (lambda found: found and (found[0], (found[1] or 0) + 1))(real(self, level))
    ),
    "closing_position": lambda real: lambda self, level: (real(self, level) or 0) + 1,
    "free_bandwidth_before": lambda real: lambda self, pos: real(self, pos) + (pos % 3 == 1),
    "total_free_bandwidth": lambda real: lambda self: real(self) + 8,
}


@pytest.mark.parametrize("query", sorted(PLANTS))
def test_planted_query_faults_match_the_reference(monkeypatch, query):
    states = _walk_states(monkeypatch, 4, 17)
    real = vars(Situation)[query]
    monkeypatch.setattr(Situation, query, PLANTS[query](real))
    failing = sum(_agrees(s) for s in states)
    assert failing > len(states) // 2
