import collections
import hashlib
import json
import sys
import time
from dataclasses import fields

import pytest
from hypothesis import given, settings, strategies as st

from ovsfalloc import allocator, layout, oracle
from ovsfalloc.allocator import apply
from ovsfalloc.cli import main
from ovsfalloc.coins import CoinLedger
from ovsfalloc.model import Place, RequestError, Situation
from ovsfalloc.oracle import exhaustive_verify, structural_failures
from ovsfalloc.replay import replay
from ovsfalloc.workloads import gen_random_trace, parse_trace
from reference import Leaves
from test_reference import _walk_states, agrees


def build(n, pebs):
    s = Situation(n)
    for size, start in pebs:
        s.place_pebble(size.bit_length() - 1, start)
    return s


def test_canput_on_empty():
    s = Situation(3)
    for level in range(4):
        assert s.first_free_place(level) == Leaves(s).first_free_place(level) == Place(level, 0)


def test_canput_sees_fragmentation():
    # enough free bandwidth but no aligned place: the classic blocked case
    s = build(2, [(1, 1), (1, 3)])
    assert s.total_free_bandwidth() == Leaves(s).free_total() == 2
    assert Leaves(s).first_free_place(1) is None
    assert s.first_free_place(1) is None


def test_canput_matches_first_free_place():
    s = build(5, [(4, 0), (4, 4), (8, 8), (1, 16)])
    places = [s.first_free_place(level) for level in range(6)]
    assert places == [Leaves(s).first_free_place(level) for level in range(6)]
    assert places == [Place(0, 17), Place(1, 18), Place(2, 20), Place(3, 24), None, None]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_valid_states_with_bandwidth_always_fit(seed):
    trace = gen_random_trace(4, 40, seed=seed, insert_ratio=0.6)
    s = Situation(trace.n)
    for request in trace.requests:
        apply(s, request)
        ref = Leaves(s)
        free = ref.free_total()
        for level in range(s.n + 1):
            if (1 << level) <= free:
                assert ref.first_free_place(level) is not None
                assert s.first_free_place(level) == ref.first_free_place(level)


def test_structural_failures_clean_on_valid_state():
    s = build(4, [(2, 0), (1, 2), (4, 4), (2, 8)])
    assert s.validate() == []
    assert structural_failures(s) == []


def test_structural_failures_flag_broken_states():
    # first pebble not at zero breaks more than one property
    s = build(3, [(2, 2)])
    problems = structural_failures(s)
    assert any("not 0" in p for p in problems)


def _off(field):
    """A walk's answer with field ``field`` wrong: a bool flipped, a number
    or a missing low one more."""

    def wrong(found):
        if found is None:
            return None
        value = found[field]
        return found[:field] + (not value if isinstance(value, bool) else (value or 0) + 1,) + found[field + 1:]

    return wrong


WALK_FIELDS = {"site": ("i", "start", "black"), "last": ("i", "start", "low"), "closing": ("j", "cp", "top")}


@pytest.mark.parametrize(
    "walk,wrong",
    [
        ("site", lambda found: found and (0, found[1], True)),  # no pebble left of the place
        ("last", lambda found: None),
    ]
    + [pytest.param(walk, _off(k), id=f"{walk}-{name}") for walk, names in WALK_FIELDS.items() for k, name in enumerate(names)],
)
def test_structural_failures_check_the_one_walk_reads(monkeypatch, walk, wrong):
    # each field a walk returns, made wrong as structural_failures reads it,
    # is flagged as that walk's disagreement and nothing else, in the
    # reference's words
    real = getattr(layout, walk)
    states = _walk_states(4, 17)
    monkeypatch.setattr(layout, walk, lambda *args: wrong(real(*args)))
    flagged = 0
    for s in states:
        problems = structural_failures(s)
        assert all(p.startswith(f"{walk} disagreement at level ") for p in problems), problems
        assert problems == Leaves(s).structural_failures()
        flagged += bool(problems)
    assert flagged > len(states) // 2


def test_structural_failures_run_the_walks_and_no_bench_query(monkeypatch):
    # each walk once per level of every state, and none of the queries
    # only the bench reads, nor a pebble resolved by id
    calls = collections.Counter()
    for owner, names in (
        (Situation, ("is_black", "first_free_place", "closing_position", "free_bandwidth_before", "pebble")),
        (layout, ("site", "last", "closing")),
    ):
        for name in names:
            def counted(*args, _name=name, _fn=getattr(owner, name)):
                calls[_name] += 1
                return _fn(*args)

            monkeypatch.setattr(owner, name, counted)
    states = _walk_states(4, 17)
    for s in states:
        assert structural_failures(s) == []
    assert calls == {walk: 5 * len(states) for walk in ("site", "last", "closing")}


def test_exhaustive_tiny_all_pass():
    report = exhaustive_verify(1, 2)
    assert report.ok and report.failures == []
    report = exhaustive_verify(2, 4)
    assert report.ok
    assert report.max_insert_moves <= 3


def test_exhaustive_rejects_negative_bounds():
    with pytest.raises(ValueError, match="height must be >= 0, got -1"):
        exhaustive_verify(-1, 2)
    with pytest.raises(ValueError, match="depth must be >= 0, got -1"):
        exhaustive_verify(2, -1)
    with pytest.raises(ValueError, match="budget must be >= 0, got -1"):
        exhaustive_verify(2, 2, budget=-1)
    assert exhaustive_verify(2, 2, budget=0).ok


def test_exhaustive_counts_are_deterministic():
    a = exhaustive_verify(2, 4)
    b = exhaustive_verify(2, 4)
    assert (a.states, a.transitions, a.coverage) == (b.states, b.transitions, b.coverage)


def test_exhaustive_full_coverage_at_acceptance_bounds():
    report = exhaustive_verify(4, 6)
    assert report.ok
    assert report.missing_coverage() == []


def test_certificate_constant_on_every_edge():
    # the charge iterations + ΔΦ of every reachable edge stays at most 2
    for n in range(1, 5):
        report = exhaustive_verify(n, 6)
        assert report.ok and report.max_injected <= 2


def test_mutations_detected():
    r = exhaustive_verify(4, 6, mutant="skip-delete-swap")
    assert not r.ok
    assert any(f.stage in ("validate", "structure") for f in r.failures)
    r = exhaustive_verify(4, 6, mutant="skip-insert-rename")
    assert not r.ok


def test_each_mutant_line_occurs_once_in_the_allocator():
    with open(allocator.__file__, encoding="utf-8") as fh:
        lines = [text.strip() for text in fh]
    for name, (line, _) in oracle.MUTANTS.items():
        assert lines.count(line) == 1, name
        assert oracle.mutant_apply(name) is not allocator.apply


@pytest.mark.parametrize("line", ["no such line", "s.remove_pebble(b.id)"])
def test_mutant_line_not_found_once_names_the_mutant(monkeypatch, line):
    # a line that matches nothing, and one that matches twice
    monkeypatch.setitem(oracle.MUTANTS, "stale", (line, "pass"))
    with pytest.raises(ValueError, match="mutant 'stale'"):
        oracle.mutant_apply("stale")
    with pytest.raises(ValueError, match="mutant 'stale'"):
        exhaustive_verify(2, 1, mutant="stale")


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 1_000_000), n=st.sampled_from([5, 6]))
def test_structural_properties_hold_beyond_exhaustive_bounds(seed, n):
    trace = gen_random_trace(n, 80, seed=seed, insert_ratio=0.65)
    s = replay(trace, audit=False).situation
    assert structural_failures(s) == []


def test_exhaustive_height_zero():
    report = exhaustive_verify(0, 3)
    assert report.ok


def test_coverage_required_only_where_every_branch_is_reachable():
    # height 3 closes at 45 states and 148 edges by depth 9, so two
    # branches stay unhit at any depth
    closed = exhaustive_verify(3, 12)
    assert (closed.states, closed.transitions) == (45, 148)
    # height 4 reaches them only from depth 5, and coverage is required
    # only from depth 6
    for report in (closed, exhaustive_verify(4, 4)):
        assert report.ok and report.failures == []
        assert report.missing_coverage() == ["shuffle-white", "delete-swap"]


CLOSURE_DIGESTS = {  # sha256 of json.dumps(report.to_dict()), recorded with states keyed on pebble places
    3: "273918b4fc3b2be846866dd895501c9a8825152caf3026aad4cef2365f0bbe85",
    4: "025505632c7fa15292b1a0cccde01abe1bb53881b1b097d51ccfc99ce6eca6a5",
}


@pytest.mark.parametrize("n, depth, states, edges", [(3, 9, 45, 148), (4, 17, 305, 1375)])
def test_small_closures_are_pinned(monkeypatch, n, depth, states, edges):
    # the walk keys a state on its segments; counting the states by their
    # pebbles instead must give the same number, so the segment key neither
    # merges two states nor splits one
    reached = set()
    real_apply = oracle.apply

    def apply_(s, request):
        log = real_apply(s, request)
        reached.add(s.to_pairs())
        return log

    monkeypatch.setattr(oracle, "apply", apply_)
    report = exhaustive_verify(n, depth)
    assert report.ok and (report.states, report.transitions) == (states, edges)
    assert len(reached) == report.states
    assert hashlib.sha256(json.dumps(report.to_dict()).encode()).hexdigest() == CLOSURE_DIGESTS[n]
    # the walk is closed: one more request reaches no new state and no new edge
    deeper = exhaustive_verify(n, depth + 1)
    assert deeper.ok and (deeper.states, deeper.transitions) == (states, edges)


@pytest.mark.parametrize("n, depth, findings", [(4, 17, 324), (5, 6, 459)])
def test_every_finding_edge_leaves_one_note(monkeypatch, n, depth, findings):
    # each edge is expanded once and its trace is unique, so no note repeats
    edges = []
    real_settle = CoinLedger.settle

    def settle(self, s, log):
        info = real_settle(self, s, log)
        if info.findings:
            edges.append(log)
        return info

    monkeypatch.setattr(CoinLedger, "settle", settle)
    report = exhaustive_verify(n, depth, budget=0)
    assert report.ok
    assert len(report.notes) == len(set(report.notes)) == len(edges) == findings


def test_unhit_branch_fails_where_coverage_is_required(monkeypatch):
    monkeypatch.setattr(oracle, "COVERAGE_TARGETS", oracle.COVERAGE_TARGETS + ("never",))
    report = exhaustive_verify(4, 6)
    assert not report.ok
    assert [str(f) for f in report.failures] == [
        "[coverage] after <empty>: unhit branches: ['never']"
    ]
    assert exhaustive_verify(4, 5).ok


def test_any_exception_from_apply_fails_the_walk(monkeypatch, capsys):
    def broken(s, level):
        raise TypeError("planted")

    monkeypatch.setattr(allocator, "insert", broken)
    report = exhaustive_verify(3, 2)
    assert not report.ok
    assert [str(f) for f in report.failures] == ["[exception] after I0: TypeError: planted"]
    assert main(["verify", "--height", "3", "--depth", "2"]) == 1
    captured = capsys.readouterr()
    assert "failure: [exception] after I0: TypeError: planted" in captured.out
    assert captured.err == ""


@pytest.mark.parametrize(
    "pairs, failure",
    [
        # the root is known before the walk starts, yet an edge back to it
        # is still the empty state's first check
        ((), "[structure] after I0 D0: planted"),
        (((0, 1), (2, 0)), "[structure] after I1 I0: planted"),
    ],
)
def test_failing_state_fails_on_its_first_arrival(monkeypatch, pairs, failure):
    # pinned from the walk that ran every check on every edge
    real = oracle.structural_failures

    def planted(s):
        return ["planted"] if s.to_pairs() == pairs else real(s)

    monkeypatch.setattr(oracle, "structural_failures", planted)
    report = exhaustive_verify(4, 6)
    assert not report.ok
    assert [str(f) for f in report.failures] == [failure]


@pytest.mark.parametrize("n, depth", [(4, 6), (5, 6)])
def test_each_state_checked_once(monkeypatch, n, depth):
    calls = {"structure": 0, "validate": 0, "cross_check": 0}
    reached = set()
    real_apply = oracle.apply
    real_structure = oracle.structural_failures
    real_validate = Situation.validate
    real_cross_check = Situation.cross_check

    def apply_(s, request):
        log = real_apply(s, request)
        reached.add(s.to_pairs())
        return log

    def structure(s):
        calls["structure"] += 1
        return real_structure(s)

    def cross_check(self):
        calls["cross_check"] += 1
        return real_cross_check(self)

    def validate(self):
        # structural_failures validates a trimmed copy; count the walk's own calls
        if sys._getframe(1).f_code is exhaustive_verify.__code__:
            calls["validate"] += 1
        return real_validate(self)

    monkeypatch.setattr(oracle, "apply", apply_)
    monkeypatch.setattr(oracle, "structural_failures", structure)
    monkeypatch.setattr(Situation, "validate", validate)
    monkeypatch.setattr(Situation, "cross_check", cross_check)
    report = exhaustive_verify(n, depth)
    assert report.ok
    assert report.transitions == {4: 603, 5: 1988}[n] > len(reached) == report.states
    # the index guard runs on every edge, the state checks once per state
    assert calls == {
        "structure": len(reached),
        "validate": len(reached),
        "cross_check": report.transitions,
    }


def _split_first_segment(s):
    start, level, count = s._segs[0]
    s._segs[:1] = [(start, level, 1), (start + (1 << level), level, count - 1)]


def _bump_occupied(s):
    s._occupied += 1


def _drop_id(s):
    del s._start_of[s.pebbles()[-1].id]


def _misplace_last(s):
    # both id maps agree on a start the segment list does not hold
    last = s.pebbles()[-1]
    del s._id_at[last.start]
    s._id_at[last.start + 1] = last.id
    s._start_of[last.id] = last.start + 1


def _stray_at_key(s):
    s._id_at[s.first_free_place(0).start] = 10**6


@pytest.mark.parametrize("repeat", [False, True], ids=["first", "repeat"])
@pytest.mark.parametrize(
    "corrupt, detail",
    [
        (_split_first_segment, "does not follow one ending at"),
        (_bump_occupied, "occupied bandwidth"),
        (_drop_id, "the pebbles stored by id are not those in segments"),
        (_misplace_last, "the pebble stored at"),
        (_stray_at_key, "pebbles stored by start"),
    ],
    ids=["split-segment", "occupied", "dropped-id", "misplaced", "stray-at-key"],
)
def test_index_guard_fires_on_every_arrival(monkeypatch, corrupt, detail, repeat):
    reached = set()
    corrupted = []
    real_apply = oracle.apply

    def apply_(s, request):
        before = s.to_pairs()
        log = real_apply(s, request)
        key = s.to_pairs()
        if (
            (key in reached) == repeat
            and not corrupted
            and s._segs
            and s._segs[0][2] > 1
            and s.total_free_bandwidth()
        ):
            corrupt(s)
            corrupted.append((before, log.op_token(), key))
        reached.add(key)
        return log

    monkeypatch.setattr(oracle, "apply", apply_)
    report = exhaustive_verify(4, 6)
    assert not report.ok and len(corrupted) == 1
    [failure] = report.failures
    assert failure.stage == "index"
    assert detail in failure.detail
    before, token, key = corrupted[0]
    assert failure.trace[-1] == token
    assert _replay_tokens(4, failure.trace[:-1]) == before
    assert _replay_tokens(4, failure.trace) == key


def _replay_tokens(n, tokens):
    """The pairs of the state a walk trace such as ``("I1", "D0")`` reaches."""
    text = f"n={n}\n" + "".join(f"{tok[0]} {tok[1:]}\n" for tok in tokens)
    return replay(parse_trace(text)).situation.to_pairs()


def test_queries_reject_out_of_range_arguments():
    s = build(3, [(2, 0), (1, 4)])
    assert s.free_bandwidth_before(0) == 0
    assert s.free_bandwidth_before(8) == 5
    for pos in (-1, 9):
        with pytest.raises(RequestError, match=rf"position {pos} out of \[0, 8\]"):
            s.free_bandwidth_before(pos)
    for query in (s.first_free_place, s.closing_position):
        for level in (-1, s.n + 1, 10**6):
            with pytest.raises(RequestError, match=rf"level {level} out of \[0, 3\]"):
                query(level)


def test_gap_oracle_matches_per_leaf_reference():
    # the states of random traces, both delete forms, up to height 8
    for n in range(3, 9):
        for by_id in (False, True):
            trace = gen_random_trace(n, 30, seed=n, insert_ratio=0.6, by_id=by_id)
            s = Situation(n)
            for request in trace.requests:
                apply(s, request)
                assert not agrees(s)


def test_structural_checks_on_a_tall_tree():
    # no scan buffer is sized by 2**n, so a height-40 tree is checkable
    for by_id in (False, True):
        trace = gen_random_trace(40, 300, seed=7, insert_ratio=0.6, by_id=by_id)
        s = Situation(trace.n)
        for i, request in enumerate(trace.requests):
            apply(s, request)
            assert structural_failures(s) == []


def test_report_ok_is_exactly_no_failures(monkeypatch):
    mutant = exhaustive_verify(4, 6, mutant="skip-delete-swap")
    assert mutant.failures and not mutant.ok
    passing = exhaustive_verify(3, 4)
    assert passing.failures == [] and passing.ok
    monkeypatch.setattr(oracle, "COVERAGE_TARGETS", oracle.COVERAGE_TARGETS + ("never",))
    coverage = exhaustive_verify(4, 6)
    assert [f.stage for f in coverage.failures] == ["coverage"] and not coverage.ok
    assert "ok" not in {f.name for f in fields(oracle.VerifyReport)}


def test_walk_stops_when_no_state_is_left_to_expand():
    # height 2 closes by depth 10: a huge bound returns the same walk, at once
    t0 = time.perf_counter()
    huge = exhaustive_verify(2, 10**9)
    assert time.perf_counter() - t0 < 1.0
    assert huge.to_dict() == exhaustive_verify(2, 10).to_dict()
    assert huge.depth == 10**9


def test_unknown_mutant_is_a_value_error():
    with pytest.raises(ValueError, match="unknown mutant 'bogus', not one of skip-delete-swap, skip-insert-rename"):
        exhaustive_verify(3, 2, mutant="bogus")
