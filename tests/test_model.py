import ast
import collections
import inspect
import pickle
import random
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ovsfalloc.allocator import INSERT, apply, delete_last, insert, take_last
from ovsfalloc.baseline import baseline_delete, baseline_insert
from ovsfalloc.layout import last, scan_runs, site
from ovsfalloc.model import (
    BLACK,
    WHITE,
    InvariantError,
    Pebble,
    Place,
    RequestError,
    MAX_TREE_HEIGHT,
    Situation,
    check_height,
)
from ovsfalloc.oracle import exhaustive_verify
from ovsfalloc.replay import replay
from ovsfalloc.workloads import TraceError, gen_cascade_trace, gen_random_trace, parse_trace
import reference
from test_bench_contract import _spans
from test_reference import _raw_situation, agrees


def build(n, pebs):
    s = Situation(n)
    ids = {}
    for size, start in pebs:
        p = s.place_pebble(size.bit_length() - 1, start)
        ids[(size, start)] = p.id
    return s, ids


def test_color_single_pebble_black():
    s, ids = build(3, [(2, 4)])
    assert s.color_of(ids[(2, 4)]) == BLACK


def test_color_smaller_after_bigger_is_white():
    s, ids = build(3, [(4, 0), (1, 4)])
    assert s.color_of(ids[(1, 4)]) == WHITE


def test_color_mixed_sequence():
    s, ids = build(5, [(4, 0), (4, 4), (8, 8), (1, 16)])
    assert s.color_of(ids[(1, 16)]) == WHITE
    for key in [(4, 0), (4, 4), (8, 8)]:
        assert s.color_of(key and ids[key]) == BLACK


def test_color_unknown_id():
    s, _ = build(2, [])
    with pytest.raises(RequestError):
        s.color_of(99)


def test_free_bandwidth_before():
    s, _ = build(3, [])
    assert s.free_bandwidth_before(8) == 8
    s, _ = build(3, [(1, 0), (2, 2)])
    assert s.free_bandwidth_before(2) == 1
    s, _ = build(5, [(4, 0), (4, 4), (8, 8), (1, 16)])
    assert s.free_bandwidth_before(16) == 0
    assert s.free_bandwidth_before(32) == s.total_free_bandwidth()


def test_first_free_place():
    s, _ = build(3, [])
    assert s.first_free_place(1) == Place(1, 0)
    s, _ = build(5, [(4, 0), (4, 4), (8, 8), (1, 16)])
    assert s.first_free_place(2) == Place(2, 20)
    s, _ = build(2, [(2, 0), (2, 2)])
    assert s.first_free_place(0) is None
    assert s.first_free_place(2) is None


def test_closing_position():
    s, _ = build(3, [(1, 0), (1, 1), (4, 4)])
    assert s.closing_position(0) == 2
    s, _ = build(5, [(4, 0), (4, 4), (8, 8), (1, 16)])
    assert s.closing_position(2) == 8
    s, _ = build(3, [(4, 0)])
    assert s.closing_position(1) == 0
    s, _ = build(3, [])
    assert s.closing_position(0) is None


def test_total_free_bandwidth():
    s, _ = build(3, [])
    assert s.total_free_bandwidth() == 8
    s, _ = build(3, [(4, 0), (1, 4)])
    assert s.total_free_bandwidth() == 3


def test_validate_p1():
    s, ids = build(2, [(1, 1)])
    kinds = [v.kind for v in s.validate()]
    assert kinds == ["P1"]


def test_validate_clean_mixed():
    # a white pebble between black neighbors of different sizes is fine
    s, _ = build(5, [(4, 0), (4, 4), (1, 8), (8, 16)])
    assert s.validate() == []


def _per_pebble_scan(seq, leaves):
    """``scan_runs`` of ``seq`` with each pebble a run of one."""
    return scan_runs([(p.start, p.level, 1) for p in seq], leaves, lambda i, k: seq[i].id)


def _random_pebble_list(rng):
    """Up to ten pebbles of levels 0-3 at starts 0-24, in position order,
    most of them misaligned, overlapping or breaking P1-P3."""
    seq = [
        Pebble(pid, rng.randrange(4), rng.randrange(25))
        for pid in range(1, rng.randrange(10) + 1)
    ]
    return sorted(seq, key=lambda p: p.start)


def test_validate_matches_three_pass_reference():
    # ``reference.violations`` judges the own breaches, P2 and P3 in three
    # passes; over 32 leaves every violation kind and their order at a
    # shared start are exercised, and over 16 the lists cross the tree's end
    rng = random.Random(20071)
    kinds = set()
    mixed = 0  # lists with an own breach and a P2/P3 breach at one start
    for _ in range(20_000):
        seq = _random_pebble_list(rng)
        for leaves in (16, 32):
            expected = reference.violations(seq, leaves)
            assert list(_per_pebble_scan(seq, leaves).violations) == expected, seq
        kinds.update(v.kind for v in expected)
        at = {}
        for v in expected:
            at.setdefault(v.place.start, set()).add(v.kind in ("P2", "P3"))
        mixed += any(len(sides) == 2 for sides in at.values())
    assert kinds == {"alignment", "overlap", "P1", "P2", "P3"}
    assert mixed > 1000


def test_scan_runs_match_reference():
    rng = random.Random(20072)
    for _ in range(5_000):
        seq = _random_pebble_list(rng)
        for leaves in (16, 32):
            assert _per_pebble_scan(seq, leaves).runs == reference.free_runs(seq, leaves), seq


def _assert_scan_fresh(s):
    fresh = _per_pebble_scan(s.pebbles(), s.leaves)
    assert s.validate() == list(fresh.violations)
    assert s.pebble_scan() == fresh


def test_kept_scan_is_dropped_by_every_mutation():
    # an invalid layout, so the violations name pebbles and a relabel shows
    s, ids = build(4, [(4, 0), (1, 5), (2, 8)])
    _assert_scan_fresh(s)
    assert s.validate() is not s.validate()
    s.validate().clear()  # the caller's list is its own
    _assert_scan_fresh(s)

    s.place_pebble(0, 4)
    _assert_scan_fresh(s)
    s.remove_pebble(ids[(1, 5)])
    _assert_scan_fresh(s)
    s.move_pebble(ids[(2, 8)], 12)
    _assert_scan_fresh(s)
    with pytest.raises(InvariantError):
        s.move_pebble(ids[(2, 8)], 13)  # misaligned: refused with nothing changed
    _assert_scan_fresh(s)
    before = s.validate()
    assert any(ids[(2, 8)] in v.pebbles for v in before)
    s.relabel_pebble(ids[(2, 8)], 99)
    _assert_scan_fresh(s)
    assert s.validate() != before

    c = s.copy()
    assert c.pebble_scan() is s.pebble_scan()
    c.place_pebble(0, 7)
    _assert_scan_fresh(c)
    _assert_scan_fresh(s)
    d = s.copy()
    s.remove_pebble(99)
    _assert_scan_fresh(s)
    _assert_scan_fresh(d)
    assert d.validate() != s.validate()


def test_validate_overlap_reported():
    # overlap is unrepresentable through Situation, so hand the validator
    # a position-ordered list with a rogue pebble inside the 8@8 place
    seq = [
        Pebble(1, 2, 0),
        Pebble(2, 2, 4),
        Pebble(3, 3, 8),
        Pebble(99, 0, 12),
        Pebble(4, 3, 16),
    ]
    out = list(_per_pebble_scan(seq, 32).violations)
    assert any(v.kind == "overlap" and 99 in v.pebbles for v in out)


def test_validate_p2_pair():
    s, ids = build(2, [(2, 0), (1, 2), (1, 3)])
    out = s.validate()
    assert [v.kind for v in out] == ["P2"]
    assert set(out[0].pebbles) == {ids[(1, 2)], ids[(1, 3)]}


def test_validate_p3():
    s = Situation(3)
    a = s.place_pebble(1, 0)
    b = s.place_pebble(0, 2)
    c = s.place_pebble(1, 4)
    out = s.validate()
    assert any(v.kind == "P3" and b.id in v.pebbles for v in out)


def test_place_pebble_rejections():
    s = Situation(3)
    with pytest.raises(RequestError):
        s.place_pebble(1, 1)  # misaligned
    with pytest.raises(RequestError):
        s.place_pebble(4, 0)  # level above the tree
    s.place_pebble(1, 0)
    with pytest.raises(RequestError):
        s.place_pebble(0, 1)  # occupied


def test_block_free_rejects_a_negative_level():
    s = Situation(3)
    with pytest.raises(RequestError, match="level -1 is negative"):
        s.block_free(-1, 0)
    assert not s.block_free(4, 0)  # a level above the tree fits nowhere


def test_new_ids_follow_a_relabel():
    s = Situation(3)
    p = s.place_pebble(0, 0)
    s.relabel_pebble(p.id, 2)
    log = insert(s, 0)  # admissible: it must not reuse id 2
    assert log.placed[0] == 3
    assert sorted(q.id for q in s.pebbles()) == [2, 3]


def test_situation_refuses_a_height_above_the_bound():
    assert Situation(MAX_TREE_HEIGHT).leaves == 1 << MAX_TREE_HEIGHT
    with pytest.raises(ValueError, match=f"^height must be <= {MAX_TREE_HEIGHT}, got {MAX_TREE_HEIGHT + 1}$"):
        Situation(MAX_TREE_HEIGHT + 1)
    with pytest.raises(ValueError, match="got -1"):
        Situation(-1)


def test_copy_is_independent():
    s, ids = build(3, [(2, 0), (1, 2)])
    c = s.copy()
    c.place_pebble(1, 4)
    assert len(s) == 2 and len(c) == 3
    assert s.first_free_place(1) == Place(1, 4)
    pairs = s.to_pairs()
    c.move_pebble(ids[(1, 2)], 6)
    c.relabel_pebble(ids[(2, 0)], 99)
    assert s.to_pairs() == pairs
    assert [(p.id, p.start) for p in s.pebbles()] == [(ids[(2, 0)], 0), (ids[(1, 2)], 2)]
    assert 99 not in s and s.pebble(ids[(1, 2)]).start == 2


def test_pebbles_are_values():
    s, ids = build(3, [(2, 0), (1, 4)])
    held = s.pebble_at(4)
    s.move_pebble(held.id, 6)
    assert held.start == 4 and s.pebble(held.id).start == 6
    first = s.pebble(ids[(2, 0)])
    s.relabel_pebble(first.id, 99)
    assert first.id == ids[(2, 0)] and s.pebble_at(0).id == 99


@pytest.mark.parametrize("value", [Pebble(1, 2, 4), Place(2, 4)], ids=["Pebble", "Place"])
def test_pebbles_and_places_refuse_assignment(value):
    # a NamedTuple has no instance dict: neither a field nor a new attribute can be set
    for name in (*value._fields, "colour"):
        with pytest.raises(AttributeError):
            setattr(value, name, 0)
    assert not hasattr(value, "colour")


def test_height_bounds():
    with pytest.raises(ValueError):
        Situation(-1)
    big = Situation(64)
    top = big.place_pebble(64, 0)
    assert big.to_pairs() == ((0, 64),) and big.validate() == []
    assert big.total_free_bandwidth() == 0
    big.remove_pebble(top.id)
    assert big.first_free_place(64) == Place(64, 0)
    assert Situation(0).total_free_bandwidth() == 1


def _start(pebble):
    return None if pebble is None else pebble.start


def _check_queries_against_scans(s):
    agrees(s)  # every answer that the reference reads per leaf
    pairs = s.to_pairs()
    assert len(s) == len(pairs)
    assert all(s.pebble_at(start).level == level for start, level in pairs)
    for level in range(s.n + 1):
        size = 1 << level
        starts = tuple(start for start, lv in pairs if lv == level)
        assert s.level_starts(level) == starts
        assert s.level_count(level) == len(starts)
        assert _start(s.rightmost_of_level(level)) == (starts[-1] if starts else None)
        for start in range(s.leaves + 1):
            free = (
                start % size == 0
                and start + size <= s.leaves
                and not any(st < start + size and start < st + (1 << lv) for st, lv in pairs)
            )
            assert s.block_free(level, start) == free
    for pos in range(s.leaves + 1):
        before = [start for start, _ in pairs if start < pos]
        after = [start for start, _ in pairs if start > pos]
        assert _start(s.pebble_before(pos)) == (before[-1] if before else None)
        assert _start(s.pebble_after(pos)) == (after[0] if after else None)
        right = [level for start, level in pairs if start > pos]
        assert s.smallest_level_right(pos) == (min(right) if right else None)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_queries_agree_with_scans_on_random_states(seed):
    trace = gen_random_trace(5, 60, seed=seed, insert_ratio=0.6)
    _check_queries_against_scans(replay(trace, audit=False).situation)
    # arbitrary, mostly invalid layouts: segments split and merge anywhere
    rng = random.Random(seed)
    s = Situation(5)
    for _ in range(60):
        level = rng.randint(0, 3)
        start = rng.randrange(0, s.leaves, 1 << level)
        if len(s) and rng.random() < 0.3:
            victim = s.pebble(rng.choice([p.id for p in s.pebbles()]))
            target = start - start % victim.size
            if rng.random() < 0.5:
                s.remove_pebble(victim.id)
            elif s.block_free(victim.level, target):
                s.move_pebble(victim.id, target)
        elif s.block_free(level, start):
            s.place_pebble(level, start)
    _check_queries_against_scans(s)


def _trace_states(by_id):
    """The empty state and every state after a request of valid random
    traces, at heights where runs are long."""
    for n in range(2, 11):
        trace = gen_random_trace(n, 300, seed=100 + n, insert_ratio=0.6, by_id=by_id)
        s = Situation(n)
        yield s
        for request in trace.requests:
            apply(s, request)
            yield s


@pytest.mark.parametrize("by_id", [False, True])
def test_segment_scan_matches_pebble_scan_on_trace_states(by_id):
    states = 0
    for s in _trace_states(by_id):
        _assert_scan_fresh(s)
        states += 1
    assert states == 9 * 301


def _state(s):
    return list(s._segs), dict(s._id_at), dict(s._start_of), s._occupied, s._next_id


@pytest.mark.parametrize("by_id", [False, True])
def test_one_walk_reads_match_the_reads_they_replace(by_id):
    # the walks site and last against the queries a request composed
    # before, and take_last against remove_pebble of the last
    states = 0
    for s in _trace_states(by_id):
        segs = s.segments()
        for level in range(s.n + 1):
            place = s.first_free_place(level)
            found = None
            if place is not None:
                left = s.pebble_before(place.start)
                i = sum(seg[0] < place.start for seg in segs)  # the first segment past the place
                found = (i, place.start, left is None or s.is_black(left.id))
            assert site(s._segs, s.leaves, level) == found

            starts = s.level_starts(level)
            victim = s.pebble_at(starts[-1]) if starts else None
            found = None
            if victim is not None:
                i = sum(seg[0] <= victim.start for seg in segs) - 1  # the segment it ends
                found = (i, victim.start, s.smallest_level_right(victim.start))
            assert last(s._segs, level) == found
            walked = s.copy()
            if victim is not None:
                composed = s.copy()
                g, pid, start, low = take_last(walked, level)
                assert (pid, start, low) == (victim.id, victim.start, found[2])
                assert g == sum(seg[0] < start for seg in walked._segs)  # the first segment past it
                composed.remove_pebble(victim.id)
                assert _state(walked) == _state(composed)
            else:
                with pytest.raises(RequestError):
                    take_last(walked, level)
                assert _state(walked) == _state(s)
        states += 1
    assert states == 9 * 301


@pytest.mark.parametrize(
    "start,walk",
    [
        (8, lambda s: insert(s, 0)),  # left of the first free unit place, 10
        (40, lambda s: insert(s, 3)),  # left of the first free 8@48
        (4, lambda s: delete_last(s, 2)),
        (40, lambda s: delete_last(s, 3)),
        (4, lambda s: take_last(s, 2)),
        (40, lambda s: take_last(s, 3)),
    ],
)
def test_one_walk_reads_refuse_a_stray_copy(start, walk):
    # the id map puts the pebble each request reads after its walk one leaf
    # short of its start: the read, through Situation._id, refuses it
    s = _valid_state()
    s._start_of[s._id_at[start]] = start - 1
    before = _state(s)
    with pytest.raises(InvariantError):
        walk(s)
    assert _state(s) == before


def test_remove_last_refuses_a_stray_id_copy():
    # the id map puts the last pebble at a free start: the checked id read
    # that take_last shares with insert's read of the pebble left of the
    # first free 8@48 refuses it in both
    s = _valid_state()
    s._start_of[s._id_at[40]] = 48
    before = _state(s)
    with pytest.raises(InvariantError):
        insert(s, 3)
    with pytest.raises(InvariantError):
        take_last(s, 3)
    assert _state(s) == before


def test_segment_scan_matches_pebble_scan_on_arbitrary_layouts():
    # layouts built through the public mutators, most of them invalid:
    # white runs, P1 runs and P3 windows across segment ends
    rng = random.Random(20073)
    kinds = set()
    for _ in range(400):
        n = rng.randint(2, 6)
        s = Situation(n)
        for _ in range(40):
            level = rng.randint(0, min(n, 3))
            start = rng.randrange(0, s.leaves, 1 << level)
            if len(s) and rng.random() < 0.25:
                s.remove_pebble(rng.choice([p.id for p in s.pebbles()]))
            elif s.block_free(level, start):
                s.place_pebble(level, start)
            _assert_scan_fresh(s)
            kinds.update(v.kind for v in s.validate())
    assert kinds == {"P1", "P2", "P3"}


def test_segment_scan_matches_pebble_scan_on_raw_segment_lists():
    # segment lists no mutator builds, so every irregular case of the run
    # scan is compared with the per-pebble scan of the same pebbles
    rng = random.Random(20074)
    kinds = set()
    for _ in range(5_000):
        segs = []
        for _ in range(rng.randrange(6)):
            level = rng.randrange(3)
            segs.append((rng.randrange(20), level, rng.randint(1, 4)))
        if rng.random() < 0.7:
            segs.sort()
        starts = [start + (k << level) for start, level, count in segs for k in range(count)]
        if len(set(starts)) != len(starts):
            continue  # one start holds one copy, so the walk could not list both
        s = _raw_situation(4, segs)
        for leaves in (16, 32):
            s.leaves = leaves
            s._scan = None
            pebs = s.pebbles()
            assert s.pebble_scan() == _per_pebble_scan(pebs, leaves), segs
            if pebs == sorted(pebs, key=lambda p: p.start):
                assert s.pebble_scan() == reference.scan(pebs, leaves), segs
            kinds.update(v.kind for v in s.validate())
    assert kinds == {"alignment", "overlap", "P1", "P2", "P3"}


def _valid_state():
    # segments 2x4@0 (black), 2@8 (white), 4x8@16 (black) at height 6
    s = Situation(6)
    for level, start in [(2, 0), (2, 4), (1, 8), (3, 16), (3, 24), (3, 32), (3, 40)]:
        s.place_pebble(level, start)
    assert s.validate() == [] and len(s.segments()) == 3
    s.cross_check()
    return s


def _stray_at_key(s):
    s._id_at[12] = 99  # an id at a free start, with no inverse


def _peb_outside(s):
    s._start_of[s._id_at[24]] = 64  # the id map puts it past the tree's end


def _smaller_interior_copy(s):
    s._start_of[s._id_at[24]] = 23  # the id map puts it at a smaller, unaligned start


def _dropped_at_key(s):
    del s._id_at[32]  # the id map still puts its pebble there


def _segment_short_by_one(s):
    start, level, count = s._segs[-1]
    s._segs[-1] = (start, level, count - 1)


def _segment_split(s):
    start, level, count = s._segs[0]
    s._segs[:1] = [(start, level, 1), (start + (1 << level), level, count - 1)]


def _occupied_off(s):
    s._occupied -= 1


@pytest.mark.parametrize(
    "corrupt",
    [
        _stray_at_key,
        _peb_outside,
        _smaller_interior_copy,
        _dropped_at_key,
        _segment_short_by_one,
        _segment_split,
        _occupied_off,
    ],
)
def test_cross_check_finds_each_planted_corruption(corrupt):
    s = _valid_state()
    corrupt(s)
    with pytest.raises(InvariantError):
        s.cross_check()


def test_validate_alone_misses_what_the_cross_check_finds():
    # the segment walk reads no stored id for a valid layout, so these
    # corruptions leave validate() clean: the cross-check is what sees them
    for corrupt in (_stray_at_key, _peb_outside, _smaller_interior_copy):
        s = _valid_state()
        corrupt(s)
        s._scan = None
        assert s.validate() == []
        with pytest.raises(InvariantError):
            s.cross_check()


def test_checked_reads_refuse_a_stray_copy():
    s = _valid_state()
    _smaller_interior_copy(s)
    victim = s._id_at[24]
    for read in (
        lambda: s.pebble(victim),
        lambda: s.is_black(victim),
        lambda: s.relabel_pebble(victim, 77),
        lambda: s.pebble_at(24),
        lambda: s.pebble_before(25),
        lambda: s.pebble_after(16),
        lambda: s.pebbles(),
        lambda: s.remove_pebble(victim),
    ):
        with pytest.raises(InvariantError):
            read()

    s = _valid_state()
    last = s.pebble_at(40)
    s._id_at[40] = 77  # the start map holds an id the id map puts nowhere
    with pytest.raises(InvariantError):
        s.rightmost_of_level(3)
    with pytest.raises(InvariantError):
        s.pebble(last.id)
    with pytest.raises(InvariantError):
        s.relabel_pebble(last.id, 77)

    s = _valid_state()
    _peb_outside(s)
    moved = s._id_at[24]
    with pytest.raises(InvariantError):
        s.pebble(moved)
    with pytest.raises(InvariantError):
        s.move_pebble(moved, 48)

    s = _valid_state()
    _stray_at_key(s)
    with pytest.raises(InvariantError):
        s.pebble_at(12)
    with pytest.raises(InvariantError):
        s.place_pebble(2, 12)
    assert s.pebble_at(13) is None

    s = _valid_state()
    _segment_short_by_one(s)  # the id at 40 is stored, but no segment holds it
    with pytest.raises(InvariantError):
        s.pebble_at(40)
    with pytest.raises(InvariantError):
        s.pebble(s._id_at[40])
    with pytest.raises(InvariantError):
        s.remove_pebble(s._id_at[40])


def test_violation_witnesses_are_read_checked():
    # an invalid layout: its witnesses are read from the stored ids
    s, ids = build(4, [(4, 0), (1, 5), (2, 8)])
    assert any(ids[(1, 5)] in v.pebbles for v in s.validate())
    s._start_of[ids[(1, 5)]] = 6  # the id map puts the witness elsewhere
    s._scan = None
    with pytest.raises(InvariantError):
        s.validate()


def _stored(s):
    """Every stored part of ``s`` but the kept scan, as bytes."""
    return pickle.dumps((s.n, s.leaves, s._id_at, s._start_of, s._segs, s._occupied, s._next_id))


def _reference_move(s, pid, new_start):
    """The move of ``pid`` as a removal and a re-placing of the same id, on
    a copy of ``s``; None where the new place is not a free aligned place
    of the pebble's level inside the tree."""
    ref = s.copy()
    old = ref.remove_pebble(pid)
    try:
        ref.place_pebble(old.level, new_start, pid=pid)
    except RequestError:
        return None
    return ref


def _move(s, start, new_start):
    return s.move_pebble(s._id_at[start], new_start)


def _random_layout(rng):
    s = Situation(rng.randint(3, 6))
    for _ in range(rng.randint(1, 30)):
        level = rng.randint(0, min(s.n, 2))
        start = rng.randrange(0, s.leaves, 1 << level)
        if s.block_free(level, start):
            s.place_pebble(level, start)
    return s


def _move_targets(rng, s, first, level, count, k):
    """(kind, new start) pairs for pebble ``k`` of the segment
    ``(first, level, count)``: the run's rotations, where they apply, and
    an arbitrary, a misaligned and a past-the-end start."""
    size = 1 << level
    end = first + (count << level)
    out = []
    if k == 0:
        out.append(("rotate-right", end))
    if k == count - 1:
        out.append(("rotate-left", first - size))
    out.append(("other", rng.randrange(0, s.leaves, size)))
    if size > 1:
        out.append(("misaligned", rng.randrange(0, s.leaves, size) + rng.randrange(1, size)))
    out.append(("past-end", s.leaves + rng.randrange(0, 3) * size))
    return out


def test_move_matches_a_remove_and_replace():
    rng = random.Random(20075)
    seen = collections.Counter()
    for _ in range(1_500):
        s = _random_layout(rng)
        first, level, count = rng.choice(s.segments())
        k = rng.randrange(count)
        start = first + (k << level)
        for kind, new_start in _move_targets(rng, s, first, level, count, k):
            pebble = s.pebble_at(start)
            ref = _reference_move(s, pebble.id, new_start) if new_start != start else None
            c = s.copy()
            before = _stored(c)
            if ref is None:
                with pytest.raises(InvariantError):
                    _move(c, start, new_start)
                assert _stored(c) == before
                c.cross_check()
                seen["refused " + (kind if kind != "other" else "not-free")] += 1
                continue
            assert _move(c, start, new_start) is None
            c.cross_check()
            assert c._segs == ref._segs and c._occupied == ref._occupied
            assert c._id_at == ref._id_at and c._start_of == ref._start_of
            assert c.pebble(pebble.id) == Pebble(pebble.id, level, new_start)
            _assert_scan_fresh(c)
            seen[kind] += 1
            if kind.startswith("rotate") and len(c._segs) < len(s._segs):
                seen["merge " + kind] += 1
    assert all(
        seen[kind] > 20
        for kind in (
            "rotate-right",
            "rotate-left",
            "merge rotate-right",
            "merge rotate-left",
            "other",
            "refused rotate-right",
            "refused rotate-left",
            "refused not-free",
            "refused misaligned",
            "refused past-end",
        )
    ), seen


def test_move_refuses_a_stray_copy_and_changes_nothing():
    s = _valid_state()  # segments 2x4@0, 2@8, 4x8@16 at height 6
    pebble = s.pebble_at(16)
    assert _reference_move(s, pebble.id, 48) is not None  # a rotation to the run's end

    def plant_at_target(c):
        c._id_at[48] = 99
        return lambda: c._id_at.pop(48)

    def plant_id_copy(c):
        c._start_of[pebble.id] = 24  # the id map puts it elsewhere
        return lambda: c._start_of.__setitem__(pebble.id, 16)

    def plant_start_copy(c):
        c._id_at[16] = 98  # the start map holds an id the id map puts at 24
        c._start_of[98] = 24

        def restore():
            c._id_at[16] = pebble.id
            del c._start_of[98]

        return restore

    for plant in (plant_at_target, plant_id_copy, plant_start_copy):
        c = s.copy()
        before = _stored(c)
        restore = plant(c)
        with pytest.raises(InvariantError):
            _move(c, 16, 48)
        restore()
        assert _stored(c) == before, plant.__name__
        c.cross_check()
    for new_start in (16, 20, 24, 64):  # its own place, misaligned, taken, past the end
        c = s.copy()
        with pytest.raises(InvariantError):
            _move(c, 16, new_start)
        assert _stored(c) == _stored(s)
    c = s.copy()
    with pytest.raises(RequestError):
        c.move_pebble(999, 48)  # no pebble has that id
    assert _stored(c) == _stored(s)


def _per_hop(s, lo, hi, right):
    """``rotate_runs(lo, hi, right)`` as one ``move_pebble`` per hop, in
    its order; returns the moves in segment order."""
    segs = s.segments()
    moved = []
    for i in range(hi - 1, lo - 1, -1) if right else range(lo, hi):
        first, level, count = segs[i]
        if right:
            src, dst = first, first + (count << level)
        else:
            src, dst = first + ((count - 1) << level), first - (1 << level)
        pid = s.pebble_at(src).id
        s.move_pebble(pid, dst)
        moved.append((pid, Place(level, src), Place(level, dst)))
    return moved[::-1] if right else moved


def _rotation_states():
    """The sorted layouts the baseline reaches on random traces at heights
    2 to 10 and after every prefix of a height-8 cascade trace, then
    arbitrary layouts, whose equal-level runs can merge."""
    for trace in [gen_random_trace(n, 120, seed=300 + n, insert_ratio=0.6) for n in range(2, 11)] + [
        gen_cascade_trace(8, 400)
    ]:
        s = Situation(trace.n)
        yield s
        for request in trace.requests:
            (baseline_insert if request.kind == INSERT else baseline_delete)(s, request.level)
            yield s
    rng = random.Random(20075)
    for _ in range(800):
        yield _random_layout(rng)


def test_rotate_runs_matches_the_per_hop_path():
    rng = random.Random(20076)
    seen = collections.Counter()
    for s in _rotation_states():
        count = len(s.segments())
        blocks = [(lo, hi, right) for lo in range(count) for hi in range(lo + 1, count + 1) for right in (True, False)]
        for lo, hi, right in rng.sample(blocks, min(len(blocks), 8)):
            batched, hopped = s.copy(), s.copy()
            try:
                moved = _per_hop(hopped, lo, hi, right)
            except InvariantError:
                with pytest.raises(InvariantError):
                    batched.rotate_runs(lo, hi, right)
                assert _stored(batched) == _stored(s)
                seen["refused"] += 1
                continue
            assert batched.rotate_runs(lo, hi, right) == moved
            batched.cross_check()
            assert batched.segments() == hopped.segments()
            assert all(batched.pebble(p.id) == hopped.pebble(p.id) for p in s.pebbles())
            merged = len(batched.segments()) < count
            seen[("merged " if merged else "") + ("right" if right else "left")] += 1
    assert all(seen[kind] > 50 for kind in ("refused", "right", "left", "merged right", "merged left")), seen


def test_rotate_runs_refuses_with_nothing_changed():
    # segments 2x4@0, 2@8, 4x8@16 and 8@56 at height 6
    s = _valid_state()
    s.place_pebble(3, 56)
    top = s._id_at[16]

    def stored_at_destination(c):
        c._id_at[48] = 99  # where 4x8@16's first pebble goes

    def no_inverse(c):
        c._id_at[16] = 98

    def inverse_elsewhere(c):
        c._start_of[top] = 24

    cases = [
        (stored_at_destination, 2, 3, True),
        (no_inverse, 2, 3, True),
        (inverse_elsewhere, 1, 3, True),  # refused at the block's second run
        (None, 0, 1, True),  # 2x4@0 would end at 12, past 2@8's start
        (None, 0, 2, True),  # 2x4@0 would end at 12, past the rotated 2@10
        (None, 2, 4, True),  # 8@56 would pass the tree's end
        (None, 0, 1, False),  # 2x4@0 would start at -4
        (None, 1, 2, False),  # 2@6 would overlap 2x4@0
    ]
    for plant, lo, hi, right in cases:
        c = s.copy()
        if plant is not None:
            s.copy().rotate_runs(lo, hi, right)  # the same rotation, unplanted, is fine
            plant(c)
        before = _stored(c)
        with pytest.raises(InvariantError):
            c.rotate_runs(lo, hi, right)
        assert _stored(c) == before, (plant, lo, hi, right)


def test_every_entry_point_refuses_a_height_above_the_bound():
    # each refuses before sizing anything by the height: a list of one
    # entry per level (1,026 of them, over 8 KiB) would pass the 4 KiB peak
    n = MAX_TREE_HEIGHT + 1
    message = f"height must be <= {MAX_TREE_HEIGHT}, got {n}"
    calls = [
        lambda: check_height(n),
        lambda: Situation(n),
        lambda: exhaustive_verify(n, 1),
        lambda: gen_random_trace(n, 1, seed=1, insert_ratio=0.5),
        lambda: gen_cascade_trace(n, 1),
        lambda: parse_trace(f"n={n}\nI 0\n"),
    ]
    for call in calls:
        tracemalloc.start()
        try:
            with pytest.raises((ValueError, TraceError)) as info:
                call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(info.value).endswith(message)
        assert peak < 4096, (str(info.value), peak)
    check_height(MAX_TREE_HEIGHT)
    with pytest.raises(ValueError, match="^height must be >= 0, got -1$"):
        check_height(-1)


def _attributes_used(path):
    """Attribute names read in the module at ``path``, each outside a def
    of its own name (a recursive call is no caller)."""
    used, defs = set(), []

    class Uses(ast.NodeVisitor):
        def visit_FunctionDef(self, node):
            defs.append(node.name)
            self.generic_visit(node)
            defs.pop()

        def visit_Attribute(self, node):
            if node.attr not in defs:
                used.add(node.attr)
            self.generic_visit(node)

    Uses().visit(ast.parse(path.read_text(encoding="utf-8")))
    return used


def test_every_public_situation_method_has_a_caller_or_a_bench_span():
    # a public method that nothing in src/ calls and the bench does not
    # patch by name is a second path to keep in step: delete it instead
    spans = _spans()
    patched = set(spans.MUTATE + spans.QUERY)
    patched |= {attr.split(".")[1] for _, _, attr in spans.SPANS if attr.startswith("Situation.")}
    src = Path(inspect.getfile(Situation)).parent
    used = set().union(*(_attributes_used(path) for path in src.glob("*.py")))
    idle = [
        name
        for name, value in vars(Situation).items()
        if inspect.isfunction(value) and not name.startswith("_") and name not in used | patched
    ]
    assert idle == []
