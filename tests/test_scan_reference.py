"""The run scan against the per-leaf reference of ``reference.py``.

``layout.scan_runs`` judges a run of pebbles of one level in one step
where it can; ``reference.scan`` reads the same pebbles one by one from
a leaf array.  Every scan below must give the same ``PebbleScan``: the
same violations in the same order, with the same witnesses, and the same
free runs.
"""

from __future__ import annotations

import random

import pytest

import reference
from ovsfalloc.layout import scan_runs
from ovsfalloc.model import Pebble
from test_model import _trace_states


def _raw_runs(rng, leaves):
    """A run list no mutator builds: most runs follow the one before at
    an aligned start, some after a gap, the rest land anywhere, so lists
    overlap, are misaligned or run past the tree's end.  The list is put
    in start order, the only order a ``Situation`` keeps."""
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
    return sorted(runs, key=lambda run: run[0])


def _witness(i, k):
    return 100 * (i + 1) + k


def test_scan_matches_reference_on_raw_run_lists():
    rng = random.Random(20075)
    kinds = set()
    clean = mixed = 0
    for _ in range(20_000):
        for leaves in (16, 32):
            runs = _raw_runs(rng, leaves)
            pebs = [
                Pebble(_witness(i, k), level, start + (k << level))
                for i, (start, level, count) in enumerate(runs)
                for k in range(count)
            ]
            expected = reference.scan(pebs, leaves)
            assert scan_runs(runs, leaves, _witness) == expected, (runs, leaves)
            kinds.update(v.kind for v in expected.violations)
            clean += not expected.violations and any(count > 1 for _, _, count in runs)
            at = {}  # an own breach and a P2/P3 breach at one start
            for v in expected.violations:
                at.setdefault(v.place.start, set()).add(v.kind in ("P2", "P3"))
            mixed += any(len(sides) == 2 for sides in at.values())
    assert kinds == {"alignment", "overlap", "P1", "P2", "P3"}
    assert clean > 1000  # valid lists with runs judged in one step
    assert mixed > 1000


def _no_witness(i, k):
    raise AssertionError(f"witness({i}, {k}) called on a clean state")


@pytest.mark.parametrize("by_id", [False, True])
def test_scan_matches_reference_on_trace_states(by_id):
    # every trace state is valid, so its scan never names a pebble
    states = 0
    for s in _trace_states(by_id):
        expected = reference.scan(s.pebbles(), s.leaves)
        assert expected.violations == ()
        assert scan_runs(s._segs, s.leaves, _no_witness) == expected
        states += 1
    assert states == 9 * 301
