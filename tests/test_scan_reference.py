"""Differential test of the run scan against the walk it replaced.

``reference_scan_runs`` is ``layout.scan_runs`` as it stood before its
window became scalars and a clean scan stopped building its breach
lists, kept verbatim apart from its name.  Every scan below must give
the same ``PebbleScan``: the same violations in the same order, with the
same witnesses, and the same free runs.
"""

from __future__ import annotations

import random

import pytest

from ovsfalloc.layout import PebbleScan, Place, Violation, scan_runs
from test_model import _trace_states


def reference_scan_runs(runs, leaves: int, witness) -> PebbleScan:
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


def _raw_runs(rng, leaves):
    """A run list no mutator builds: most runs follow the one before at
    an aligned start, some after a gap, the rest land anywhere, so lists
    are unsorted, overlapping, misaligned or past the tree's end."""
    runs = []
    end = 0
    for _ in range(rng.randrange(8)):
        level = rng.randrange(4)
        size = 1 << level
        if rng.random() < 0.6:
            start = -(-end // size) * size + size * rng.choice((0, 0, 0, 1, 2))
        else:
            start = rng.randrange(leaves + 4)
        count = rng.randint(1, 5)
        runs.append((start, level, count))
        end = max(end, start + (count << level))
    if rng.random() < 0.2:
        rng.shuffle(runs)
    return runs


def _witness(i, k):
    return 100 * (i + 1) + k


def test_scan_matches_reference_on_raw_run_lists():
    rng = random.Random(20075)
    kinds = set()
    clean = 0
    for _ in range(20_000):
        for leaves in (16, 32):
            runs = _raw_runs(rng, leaves)
            expected = reference_scan_runs(runs, leaves, _witness)
            assert scan_runs(runs, leaves, _witness) == expected, (runs, leaves)
            kinds.update(v.kind for v in expected.violations)
            clean += not expected.violations and any(count > 1 for _, _, count in runs)
    assert kinds == {"alignment", "overlap", "P1", "P2", "P3"}
    assert clean > 1000  # valid lists with runs judged in one step


def _no_witness(i, k):
    raise AssertionError(f"witness({i}, {k}) called on a clean state")


@pytest.mark.parametrize("by_id", [False, True])
def test_scan_matches_reference_on_trace_states(by_id):
    # every trace state is valid, so its scan never names a pebble
    states = 0
    for s in _trace_states(by_id):
        expected = reference_scan_runs(s._segs, s.leaves, s._witness)
        assert expected.violations == ()
        assert scan_runs(s._segs, s.leaves, _no_witness) == expected
        states += 1
    assert states == 9 * 301
