"""Aligned places, and the one-pass scan of a position-ordered layout.

A *place* of level ``l`` is an aligned leaf interval
``[i*2**l, (i+1)*2**l)``.  :func:`scan_runs` walks a layout given as runs
of contiguous equal-size pebbles, the form :class:`~ovsfalloc.model.Situation`
stores, and finds in one pass every P1/P2/P3, alignment and overlap breach
(see the ``model`` module for the properties) and the maximal free runs
that the coin audit recounts.  :func:`scan_pebbles` is the same walk over
a plain pebble list.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, NamedTuple

if TYPE_CHECKING:
    from .model import Pebble


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

    Each pebble is a run of one for :func:`scan_runs`, and carries its own
    id, so a list may repeat a start.
    """
    seq = list(seq)
    return scan_runs([(p.start, p.level, 1) for p in seq], leaves, lambda i, k: seq[i].id)


def scan_runs(runs, leaves: int, witness) -> PebbleScan:
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
