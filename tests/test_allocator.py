import pytest
from hypothesis import given, settings, strategies as st

from ovsfalloc.allocator import (
    AllocatorOptions,
    Request,
    apply,
    delete_by_id,
    delete_last,
    insert,
)
from ovsfalloc.model import (
    BandwidthError,
    Place,
    RequestError,
    Situation,
)
from ovsfalloc.replay import replay
from ovsfalloc.workloads import gen_random_trace


def build(n, pebs):
    s = Situation(n)
    for size, start in pebs:
        s.place_pebble(size.bit_length() - 1, start)
    return s


def moved_view(log):
    return [(str(old), str(new)) for _, old, new in log.moved]


# ----------------------------------------------------------------------
# insert


def test_insert_into_empty_lands_at_zero():
    s = Situation(3)
    log = insert(s, 1)
    assert s.to_pairs() == ((0, 1),)
    assert log.moved == [] and log.branch == "place-direct"


def test_insert_rotate_pair():
    # backing black pebble has the requested size: rotate the white out
    s = build(4, [(4, 0), (1, 4)])
    log = insert(s, 2)
    assert s.to_pairs() == ((0, 2), (4, 2), (8, 0))
    assert moved_view(log) == [("1@4", "1@8")]
    assert log.branch == "rotate-pair"
    assert s.validate() == []


def test_insert_shuffle_black_with_shared_backer():
    # the closing pebble is the white pebble's own backer
    s = build(5, [(4, 0), (4, 4), (8, 8), (1, 16)])
    log = insert(s, 2)
    assert s.to_pairs() == ((0, 2), (4, 2), (8, 2), (12, 0), (16, 3))
    assert moved_view(log) == [("1@16", "1@12"), ("8@8", "8@16")]
    assert log.branch == "shuffle-black"
    assert s.validate() == []


def test_insert_shuffle_black_distinct_closing_pebble():
    s = build(4, [(1, 0), (1, 1), (2, 2), (4, 4), (1, 8)])
    log = insert(s, 0)
    assert s.to_pairs() == ((0, 0), (1, 0), (2, 0), (3, 0), (4, 2), (8, 1))
    assert moved_view(log) == [("1@8", "1@3"), ("2@2", "2@8")]
    assert s.validate() == []


def test_insert_shuffle_white():
    s = build(4, [(2, 0), (1, 2), (4, 4), (2, 8)])
    log = insert(s, 1)
    assert s.to_pairs() == ((0, 1), (2, 1), (4, 1), (6, 0), (8, 2))
    assert moved_view(log) == [("2@8", "2@4"), ("1@2", "1@6"), ("4@4", "4@8")]
    assert log.branch == "shuffle-white" and len(log.moved) == 3
    assert s.validate() == []


def test_insert_rename_when_request_smaller_than_white():
    s = build(4, [(1, 0), (1, 1), (2, 2), (4, 4), (2, 8)])
    log = insert(s, 0)
    assert log.renamed and log.branch == "shuffle-black"
    assert s.to_pairs() == ((0, 0), (1, 0), (2, 1), (4, 1), (6, 0), (8, 2))
    assert moved_view(log) == [("2@8", "2@4"), ("4@4", "4@8")]
    # the new pebble keeps the requested size even though the bigger
    # physical slot was filled by the pre-existing pebble
    assert log.placed[1] == Place(0, 6)
    assert s.validate() == []


def test_insert_over_smaller_backer():
    s = build(3, [(2, 0), (1, 2)])
    log = insert(s, 2)
    assert log.branch == "place-over-small"
    assert s.to_pairs() == ((0, 1), (2, 0), (4, 2))
    assert s.validate() == []


def test_insert_rejections_leave_state_unchanged():
    s = build(2, [(2, 0), (1, 2)])
    before = s.to_pairs()
    with pytest.raises(BandwidthError):
        insert(s, 1)
    with pytest.raises(RequestError):
        insert(s, 7)
    assert s.to_pairs() == before


# ----------------------------------------------------------------------
# delete


def test_delete_exits_when_candidate_misaligned():
    s = build(2, [(1, 0), (1, 1), (2, 2)])
    log = delete_last(s, 0)
    assert s.to_pairs() == ((0, 0), (2, 1))
    assert log.moved == [] and log.iterations == 0
    assert log.branch == "delete-no-fit"
    assert s.validate() == []


def test_delete_single_compaction_step():
    s = build(3, [(1, 0), (2, 2), (2, 4)])
    log = delete_last(s, 0)
    assert s.to_pairs() == ((0, 1), (2, 1))
    assert moved_view(log) == [("2@4", "2@0")]
    assert log.iterations == 1 and log.branch == "delete-end-of-tree"
    assert s.validate() == []


def test_delete_only_pebble():
    s = build(2, [(4, 0)])
    log = delete_last(s, 2)
    assert s.to_pairs() == () and log.iterations == 0
    assert s.validate() == []


def test_delete_swap_protects_trapped_white():
    s = build(4, [(2, 0), (1, 2), (4, 4), (2, 8)])
    log = delete_last(s, 2)
    assert s.to_pairs() == ((0, 1), (2, 1), (4, 0))
    assert log.swaps == 1 and log.iterations == 1
    assert moved_view(log) == [("2@8", "2@2"), ("1@2", "1@4")]
    assert s.validate() == []


def test_delete_swap_skipped_breaks_p3():
    s = build(4, [(2, 0), (1, 2), (4, 4), (2, 8)])
    delete_last(s, 2, AllocatorOptions(skip_delete_swap=True))
    assert any(v.kind == "P3" for v in s.validate())


def test_delete_missing_level_rejected():
    s = build(3, [(2, 0)])
    with pytest.raises(RequestError):
        delete_last(s, 0)
    assert s.to_pairs() == ((0, 1),)


# ----------------------------------------------------------------------
# delete by id


def test_delete_by_id_of_last_pebble_is_plain_delete():
    s = build(2, [(1, 0), (1, 1), (2, 2)])
    ids = {p.start: p.id for p in s.pebbles()}
    log = delete_by_id(s, ids[1])
    assert s.to_pairs() == ((0, 0), (2, 1))
    assert log.relabel is None and log.removed == ids[1]


def test_delete_by_id_relabels_survivor():
    s = build(2, [(1, 0), (1, 1), (2, 2)])
    ids = {p.start: p.id for p in s.pebbles()}
    log = delete_by_id(s, ids[0])
    assert s.to_pairs() == ((0, 0), (2, 1))
    assert log.relabel == (ids[0], ids[1])
    assert log.removed == ids[0]
    # the surviving level-0 pebble now carries the other code
    assert s.pebble_at(0).id == ids[1]
    assert ids[0] not in s


def test_delete_by_id_twice_is_an_error():
    s = build(2, [(1, 0), (2, 2)])
    pid = s.pebble_at(0).id
    delete_by_id(s, pid)
    with pytest.raises(RequestError):
        delete_by_id(s, pid)


def test_move_cost_counts_relabel_only_on_request():
    s = build(2, [(1, 0), (1, 1), (2, 2)])
    pid = s.pebble_at(0).id
    log = delete_by_id(s, pid)
    assert log.cost() == 0
    assert log.cost(count_relabel=True) == 1


# ----------------------------------------------------------------------
# apply and properties


def test_apply_dispatch():
    s = Situation(2)
    log = apply(s, Request("insert", level=0))
    assert s.to_pairs() == ((0, 0),)
    with pytest.raises(RequestError):
        apply(s, Request("delete_level", level=1))
    assert s.to_pairs() == ((0, 0),)
    with pytest.raises(RequestError):
        apply(s, Request("bogus"))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 100_000), ratio=st.sampled_from([0.4, 0.6, 0.8]))
def test_requests_preserve_validity_and_insert_bound(seed, ratio):
    trace = gen_random_trace(5, 50, seed=seed, insert_ratio=ratio)
    s = Situation(trace.n)
    for request in trace.requests:
        log = apply(s, request)
        if request.kind == "insert":
            assert len(log.moved) <= 3
        assert s.validate() == []


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_by_id_traces_preserve_validity(seed):
    trace = gen_random_trace(4, 40, seed=seed, insert_ratio=0.6, by_id=True)
    res = replay(trace, validate_each=True, audit=True)
    assert res.stats.p4_failures == 0


def test_determinism_identical_logs():
    trace = gen_random_trace(6, 300, seed=11, insert_ratio=0.6)
    a = replay(trace, log_format="text")
    b = replay(trace, log_format="text")
    assert a.request_lines == b.request_lines
    assert a.situation.to_pairs() == b.situation.to_pairs()
