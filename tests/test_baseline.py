from dataclasses import fields

import pytest

from ovsfalloc.allocator import DELETE_ID, DELETE_LEVEL, INSERT, MoveLog, Request, hand_over
from ovsfalloc.allocator import delete_last, insert
from ovsfalloc.baseline import baseline_delete, baseline_delete_by_id, baseline_insert
from ovsfalloc.model import BandwidthError, InvariantError, Place, RequestError, Situation
from ovsfalloc.replay import ReplayError, replay
from ovsfalloc.workloads import Trace, gen_cascade_trace, gen_random_trace


def build(n, pebs):
    s = Situation(n)
    for size, start in pebs:
        s.place_pebble(size.bit_length() - 1, start)
    return s


def canonical_pairs(n, sizes):
    """Sorted-compact layout: each pebble at the lowest admissible slot."""
    end = 0
    out = []
    for size in sorted(sizes):
        start = -(-end // size) * size
        out.append((start, size.bit_length() - 1))
        end = start + size
    assert end <= (1 << n)
    return tuple(out)


def test_insert_into_empty():
    s = Situation(3)
    log = baseline_insert(s, 0)
    assert s.to_pairs() == ((0, 0),)
    assert log.moved == []


def test_insert_after_existing_run_no_moves():
    s = build(3, [(1, 0), (2, 2)])
    log = baseline_insert(s, 1)
    assert s.to_pairs() == ((0, 0), (2, 1), (4, 1))
    assert log.moved == []


def test_insert_cascade_displaces_one_pebble_per_level():
    s = build(4, [(1, 0), (1, 1), (2, 2), (4, 4)])
    log = baseline_insert(s, 0)
    assert s.to_pairs() == canonical_pairs(4, [1, 1, 1, 2, 4])
    assert [(str(o), str(n)) for _, o, n in log.moved] == [
        ("2@2", "2@4"),
        ("4@4", "4@8"),
    ]


def test_insert_smallest_displaces_front():
    s = build(3, [(2, 0), (4, 4)])
    log = baseline_insert(s, 0)
    assert s.to_pairs() == ((0, 0), (2, 1), (4, 2))
    assert len(log.moved) == 1


def test_delete_rightmost_of_level():
    s = build(2, [(1, 0), (1, 1), (2, 2)])
    log = baseline_delete(s, 0)
    assert s.to_pairs() == ((0, 0), (2, 1))
    assert log.moved == []


def test_delete_pulls_runs_back():
    s = build(3, [(1, 0), (2, 2), (2, 4)])
    log = baseline_delete(s, 0)
    assert s.to_pairs() == ((0, 1), (2, 1))
    assert [(str(o), str(n)) for _, o, n in log.moved] == [("2@4", "2@0")]


def test_delete_only_pebble_and_missing_level():
    s = build(2, [(2, 0)])
    assert baseline_delete(s, 1).moved == []
    assert s.to_pairs() == ()
    with pytest.raises(RequestError):
        baseline_delete(s, 1)


def test_insert_rejects_when_full():
    s = build(2, [(2, 0), (2, 2)])
    with pytest.raises(BandwidthError):
        baseline_insert(s, 0)


def test_delete_by_id_relabels():
    s = build(2, [(1, 0), (1, 1), (2, 2)])
    first = s.pebble_at(0).id
    last = s.pebble_at(1).id
    log = baseline_delete_by_id(s, first)
    assert log.relabel == (first, last)
    assert s.pebble_at(0).id == last


def test_layout_stays_sorted_compact_under_random_traffic():
    trace = gen_random_trace(6, 400, seed=5, insert_ratio=0.6)
    s = Situation(trace.n)
    for request in trace.requests:
        if request.kind == "insert":
            log = baseline_insert(s, request.level)
        else:
            log = baseline_delete(s, request.level)
        assert len(log.moved) <= s.n  # one displaced pebble per higher level
        sizes = [p.size for p in s.pebbles()]
        assert s.to_pairs() == canonical_pairs(s.n, sizes)


def test_cascade_cost_grows_with_height():
    m = 300
    means = []
    for n in (2, 3, 6, 8):
        trace = gen_cascade_trace(n, m)
        res = replay(trace, allocator="baseline", audit=False)
        means.append(res.stats.mean_moves)
    assert means == sorted(means)
    assert means[1] > means[0]  # the height-3 cascade already moves more
    assert means[-1] > 3.0


def test_cascade_hops_read_no_pebble_and_search_no_slot(monkeypatch):
    # each request is one segment pass: it hands rotate_runs the block of
    # segment indices it holds, no hop bisects, and the new pebble is placed
    # at the index the pass holds
    calls = {"pebble_at": 0, "_slot": 0, "_index": 0, "move_at": 0, "rotate_runs": 0}
    for name in calls:
        def counted(self, *args, _name=name, _fn=getattr(Situation, name)):
            calls[_name] += 1
            return _fn(self, *args)

        monkeypatch.setattr(Situation, name, counted)
    trace = gen_cascade_trace(10, 600)
    res = replay(trace, allocator="baseline")
    assert res.stats.total_moves > 2_000
    assert calls == {
        "pebble_at": 0,
        "_slot": 0,
        "_index": 0,
        "move_at": 0,
        "rotate_runs": len(trace.requests),
    }


def test_cascade_trace_single_request():
    trace = gen_cascade_trace(4, 1)
    assert len(trace) == 1
    res_b = replay(trace, allocator="baseline", audit=False)
    res_p = replay(trace, allocator="paper")
    assert res_b.stats.total_moves == 0
    assert res_p.stats.total_moves == 0


@pytest.mark.parametrize(
    "request_",
    [
        Request(INSERT),
        Request(DELETE_LEVEL),
        Request(DELETE_ID),
        Request("resize", level=0),
        Request(INSERT, level=3),
        Request(INSERT, level=2),
        Request(DELETE_LEVEL, level=1),
        Request(DELETE_ID, id=7),
    ],
)
def test_malformed_requests_fail_alike_on_both_allocators(request_):
    trace = Trace(2, [Request(INSERT, level=0), request_])
    messages = []
    for allocator in ("paper", "baseline"):
        with pytest.raises(ReplayError) as info:
            replay(trace, allocator=allocator)
        messages.append(str(info.value))
    assert messages[0] == messages[1]
    assert messages[0].startswith("request 2: ")


# ----------------------------------------------------------------------
# the per-level rescanning baseline the one-pass version replaced, kept
# verbatim as the reference


def _ref_run_target(s: Situation, level: int) -> int:
    """Lowest aligned slot after every pebble of size <= 2**level."""
    end = 0
    for lv in range(level + 1):
        starts = s.level_starts(lv)
        if starts:
            end = max(end, starts[-1] + (1 << lv))
    size = 1 << level
    return -(-end // size) * size


def _ref_baseline_insert(s: Situation, level: int) -> MoveLog:
    if not 0 <= level <= s.n:
        raise RequestError(f"level {level} out of [0, {s.n}]")
    if (1 << level) > s.total_free_bandwidth():
        raise BandwidthError(f"size {1 << level} exceeds free bandwidth")
    log = MoveLog(INSERT, level=level)
    carry: tuple[int, Place] | None = None  # displaced pebble: (id, old place)
    carry_level = level
    while True:
        target = _ref_run_target(s, carry_level)
        if target + (1 << carry_level) > s.leaves:
            raise InvariantError("sorted layout overflow; baseline state corrupt")
        occupier = s.pebble_at(target)
        displaced = None
        if occupier is not None:
            displaced = (occupier.id, occupier.place, occupier.level)
            s.remove_pebble(occupier.id)
        if carry is None:
            new = s.place_pebble(carry_level, target)
            log.placed = (new.id, new.place)
        else:
            s.place_pebble(carry_level, target, pid=carry[0])
            log.moved.append((carry[0], carry[1], Place(carry_level, target)))
        if displaced is None:
            break
        carry = (displaced[0], displaced[1])
        carry_level = displaced[2]
    log.branch = "baseline-insert"
    return log


def _ref_baseline_delete(s: Situation, level: int) -> MoveLog:
    if not 0 <= level <= s.n:
        raise RequestError(f"level {level} out of [0, {s.n}]")
    victim = s.rightmost_of_level(level)
    if victim is None:
        raise RequestError(f"no pebble of level {level}")
    log = MoveLog(DELETE_LEVEL, level=level)
    log.removed = victim.id
    s.remove_pebble(victim.id)
    prev_end = 0
    for lv in range(s.n + 1):
        starts = s.level_starts(lv)
        if not starts:
            continue
        size = 1 << lv
        want = -(-prev_end // size) * size
        first = starts[0]
        if want < first:
            if first - want != size:
                raise InvariantError("sorted layout drifted by more than one slot")
            mover = s.rightmost_of_level(lv)
            old = mover.place
            s.move_pebble(mover.id, want)
            log.moved.append((mover.id, old, Place(lv, want)))
            starts = s.level_starts(lv)
        prev_end = starts[-1] + size
    log.branch = "baseline-delete"
    return log


def _run_both(s: Situation, request: Request) -> tuple[Situation, MoveLog, MoveLog]:
    """Serve ``request`` on a copy of ``s`` by the reference and on ``s`` by
    the current baseline; return the copy and both logs."""
    ref = s.copy()
    if request.kind == INSERT:
        return ref, _ref_baseline_insert(ref, request.level), baseline_insert(s, request.level)
    if request.kind == DELETE_LEVEL:
        return ref, _ref_baseline_delete(ref, request.level), baseline_delete(s, request.level)
    level = ref.pebble(request.id).level
    old = hand_over(ref, request.id, _ref_baseline_delete(ref, level))
    return ref, old, baseline_delete_by_id(s, request.id)


def _differential_traces():
    for n in range(2, 11):
        for by_id in (False, True):
            for ratio in (0.4, 0.6, 0.8):
                seed = n * 10 + int(ratio * 10)
                yield gen_random_trace(n, 150, seed=seed, insert_ratio=ratio, by_id=by_id)
    for n in range(2, 13):
        yield gen_cascade_trace(n, 2 * n + 40)


def test_one_pass_baseline_matches_per_level_reference():
    requests = 0
    for trace in _differential_traces():
        s = Situation(trace.n)
        for request in trace.requests:
            ref, old, new = _run_both(s, request)
            assert s.to_pairs() == ref.to_pairs()
            assert [p.id for p in s.pebbles()] == [p.id for p in ref.pebbles()]
            for name in (f.name for f in fields(MoveLog)):
                assert getattr(new, name) == getattr(old, name), (trace.n, request, name)
            requests += 1
    assert requests > 8000


@pytest.mark.parametrize(
    "insert_, pebs, level, error, message",
    [
        (True, [], 3, RequestError, "level 3 out of [0, 2]"),
        (True, [(4, 0)], 0, BandwidthError, "size 1 exceeds free bandwidth 0"),
        (False, [(2, 0)], 0, RequestError, "no pebble of level 0"),
    ],
)
def test_admission_errors_are_one_rule_on_both_allocators(insert_, pebs, level, error, message):
    paper_fn, baseline_fn = (insert, baseline_insert) if insert_ else (delete_last, baseline_delete)
    for fn in (paper_fn, baseline_fn):
        s = build(2, pebs)
        with pytest.raises(error) as info:
            fn(s, level)
        assert str(info.value) == message
        assert s.to_pairs() == build(2, pebs).to_pairs()
