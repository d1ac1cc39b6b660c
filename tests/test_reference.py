"""The program against the per-leaf reference of ``reference.py``.

Every answer (``validate``, the structural oracle and the fields of its
scan, Φ and the P4 audit, the queries only the bench reads) is compared
on every state of the n=3, 4 and 5 closures, on every layout of disjoint
aligned places up to height 3 and on random situations; ``test_oracle``
adds the states of random traces, ``test_model`` random layouts built by
moves, and ``test_scan_reference`` the run scan on raw run lists.  A
fault planted into a walk a request runs must be flagged by
``structural_failures``, in the reference's words, and one planted into
a bench-only query by ``agrees``.
"""

from __future__ import annotations

import random

import pytest

import reference
from ovsfalloc import layout, oracle
from ovsfalloc.coins import CoinLedger, potential
from ovsfalloc.model import Place, Situation
from ovsfalloc.oracle import _free_until, _scan, exhaustive_verify, structural_failures


def agrees(s: Situation) -> bool:
    """Assert that the program answers as the reference on ``s``; True when
    ``s`` fails some structural property."""
    ref = reference.Leaves(s)
    pebs, n, leaves = ref.pebs, s.n, s.leaves
    assert s.pebble_scan() == reference.scan(pebs, leaves)
    assert s.validate() == list(s.pebble_scan().violations)
    problems = ref.structural_failures()
    assert structural_failures(s) == problems
    # the oracle's scan, field by field
    scan = _scan(s)
    assert scan.pebs == pebs and scan.colors == ref.black
    assert scan.whites == [p for p, black in zip(pebs, ref.black) if not black]
    runs = reference.free_runs(pebs, leaves)
    assert [(lo, hi) for lo, hi, _, _ in scan.gaps] == [(lo, hi) for lo, hi, _ in runs]
    for lo, hi, free, k in scan.gaps:
        assert free == ref.free_before(lo)
        assert k == sum(p.start < hi for p in pebs)
    for level in range(n + 1):
        place = ref.first_free_place(level)
        if place is not None:
            place = (place.start, ref.free_before(place.start), sum(p.start < place.start for p in pebs))
        assert scan.first_free[level] == place
        closing = ref.closing(level)
        if closing is not None:
            _, cp, top = closing
            closing = (cp, sum(p.start < cp for p in pebs), top)
        assert scan.closing[level] == closing
        last = ref.last(level)
        if last is not None:
            last = ([p.start for p in pebs].index(last[1]), last[2])
        assert scan.last[level] == last
    for pos in range(leaves + 1):
        assert _free_until(scan.gaps, pos) == ref.free_before(pos)
    assert s.total_free_bandwidth() == ref.free_total()
    # the queries no request runs, which only the bench reads
    assert [s.is_black(p.id) for p in pebs] == ref.black
    for level in range(n + 1):
        assert s.first_free_place(level) == ref.first_free_place(level)
        assert s.closing_position(level) == ref.closing_position(level)
    for pos in range(leaves + 1):
        assert s.free_bandwidth_before(pos) == ref.free_before(pos)
    # Φ, in closed form and by the audit's recount
    assert potential(s) == ref.potential()
    assert CoinLedger(s).audit(s) == []
    return bool(problems)


_WALKS: dict = {}


def _walk_states(n: int, depth: int) -> list[Situation]:
    """A copy of every state ``exhaustive_verify(n, depth)`` reaches, by
    first arrival; each walk is made once per session."""
    if (n, depth) not in _WALKS:
        states: dict = {}
        real_apply = oracle.apply

        def apply_(s, request):
            log = real_apply(s, request)
            states.setdefault(s.to_pairs(), s.copy())
            return log

        oracle.apply = apply_
        try:
            report = exhaustive_verify(n, depth)
        finally:
            oracle.apply = real_apply
        assert report.ok and report.states == len(states)
        _WALKS[n, depth] = list(states.values())
    return _WALKS[n, depth]


@pytest.mark.parametrize(
    "n, depth, count",
    [(3, 9, 45), (4, 17, 305), (5, 33, 3_585), pytest.param(6, 65, 74_012, marks=pytest.mark.slow)],
)
def test_every_closure_state_matches_the_reference(n, depth, count):
    # each depth is the one at which the walk closes: no request reaches a new state
    states = _walk_states(n, depth)
    assert len(states) == count
    for s in states:
        assert not agrees(s)


@pytest.mark.parametrize(
    "n, depth, most",
    [(3, 9, 3), (4, 17, 5), (5, 33, 7), pytest.param(6, 65, 9, marks=pytest.mark.slow)],
)
def test_segment_counts_over_each_closure(n, depth, most):
    # the counts the scan's cost follows, as measured (none is proved): the
    # most segments in one state are 2n - 3, and no level holds three
    states = _walk_states(n, depth)
    assert max(len(s.segments()) for s in states) == most
    for s in states:
        levels = [level for _, level, _ in s.segments()]
        assert all(levels.count(level) <= 2 for level in levels), s.segments()


def _layouts(level, start):
    """Every set of disjoint aligned places inside the place ``(level,
    start)``, as ``(level, start)`` pairs."""
    yield ()
    yield ((level, start),)
    if level:
        half = 1 << (level - 1)
        for left in _layouts(level - 1, start):
            for right in _layouts(level - 1, start + half):
                if left or right:
                    yield left + right


def test_every_small_layout_matches_the_reference():
    # 2, 5, 26 and 677 layouts at heights 0 to 3, most of them invalid
    counts = []
    failing = 0
    for n in range(4):
        layouts = list(_layouts(n, 0))
        counts.append(len(layouts))
        for pairs in layouts:
            s = Situation(n)
            for level, start in pairs:
                s.place_pebble(level, start)
            failing += agrees(s)
    assert counts == [2, 5, 26, 677]
    assert failing > 500


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
    failing = sum(agrees(_random_situation(rng)) for _ in range(3_000))
    assert 1_000 < failing < 2_900  # valid and invalid situations both


def _raw_situation(n, segs):
    """A Situation whose segment list is ``segs`` as given (unsorted,
    overlapping, misaligned or past the tree end), with inverse id maps
    over its starts."""
    s = Situation(n)
    s._segs = list(segs)
    pid = 0
    for start, level, count in segs:
        for k in range(count):
            pid += 1
            s._id_at[start + (k << level)] = pid
            s._start_of[pid] = start + (k << level)
    return s


def test_misaligned_situations_match_the_reference():
    # disjoint runs at any start: a pebble may end off its own alignment,
    # so the gap before the next pebble or the tree's end can be smaller
    # than the pebble, which no aligned layout shows
    rng = random.Random(27)
    short_gaps = 0
    for _ in range(3_000):
        segs = sorted((rng.randrange(14), rng.randrange(3), rng.randint(1, 3)) for _ in range(rng.randrange(5)))
        covered = [q for start, level, count in segs for q in range(start, start + (count << level))]
        if len(set(covered)) < len(covered) or max(covered, default=0) >= 16:
            continue  # overlapping, or past the tree's end
        s = _raw_situation(4, segs)
        problems = structural_failures(s)
        assert problems == reference.Leaves(s).structural_failures(), segs
        short_gaps += any(text.endswith("smaller than the pebble") for text in problems)
    assert short_gaps > 100


# faults planted into what ``structural_failures`` reads (a walk, as it
# calls it through ``layout``, or the situation's free bandwidth), and into
# the queries only the bench reads, which ``agrees`` compares instead
PLANTS = {
    "site": (layout, lambda real: lambda runs, leaves, level: (
        (lambda found: found and (found[0], found[1], not found[2]))(real(runs, leaves, level))
    )),
    "last": (layout, lambda real: lambda runs, level: (
        (lambda found: found and (found[0], found[1], (found[2] or 0) + 1))(real(runs, level))
    )),
    "total_free_bandwidth": (Situation, lambda real: lambda self: real(self) + 8),
    "is_black": (Situation, lambda real: lambda self, pid: not real(self, pid)),
    "first_free_place": (Situation, lambda real: lambda self, level: (
        None if real(self, level) is not None else Place(level, 0)
    )),
    "closing_position": (Situation, lambda real: lambda self, level: (real(self, level) or 0) + 1),
    "free_bandwidth_before": (Situation, lambda real: lambda self, pos: real(self, pos) + (pos % 3 == 1)),
}
BENCH_ONLY = {"is_black", "first_free_place", "closing_position", "free_bandwidth_before"}


@pytest.mark.parametrize("name", sorted(PLANTS))
def test_planted_query_faults_match_the_reference(monkeypatch, name):
    states = _walk_states(4, 17)
    owner, plant = PLANTS[name]
    monkeypatch.setattr(owner, name, plant(getattr(owner, name)))
    caught = 0
    for s in states:
        problems = structural_failures(s)
        assert problems == reference.Leaves(s).structural_failures()
        if name in BENCH_ONLY:  # no structural check reads it
            assert problems == []
            try:
                agrees(s)
            except AssertionError:
                caught += 1
        else:
            caught += bool(problems)
    assert caught > len(states) // 2
