import hashlib
import json
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from ovsfalloc import allocator, oracle
from ovsfalloc.allocator import AllocatorOptions, apply
from ovsfalloc.cli import main
from ovsfalloc.coins import CoinLedger
from ovsfalloc.model import Pebble, Place, RequestError, Situation
from ovsfalloc.oracle import (
    canput_oracle,
    exhaustive_verify,
    scan_closing_position,
    scan_first_free_place,
    scan_free_before,
    structural_failures,
)
from ovsfalloc.replay import replay
from ovsfalloc.workloads import gen_random_trace, parse_trace


def build(n, pebs):
    s = Situation(n)
    for size, start in pebs:
        s.place_pebble(size.bit_length() - 1, start)
    return s


def test_canput_on_empty():
    s = Situation(3)
    for level in range(4):
        assert canput_oracle(s, level)


def test_canput_sees_fragmentation():
    # enough free bandwidth but no aligned place: the classic blocked case
    s = build(2, [(1, 1), (1, 3)])
    assert s.total_free_bandwidth() == 2
    assert not canput_oracle(s, 1)
    assert s.first_free_place(1) is None


def test_canput_matches_first_free_place():
    s = build(5, [(4, 0), (4, 4), (8, 8), (1, 16)])
    for level in range(6):
        place = scan_first_free_place(s, level)
        assert (place is not None) == canput_oracle(s, level)
        assert place == s.first_free_place(level)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_valid_states_with_bandwidth_always_fit(seed):
    trace = gen_random_trace(4, 40, seed=seed, insert_ratio=0.6)
    s = Situation(trace.n)
    for request in trace.requests:
        apply(s, request)
        free = s.total_free_bandwidth()
        for level in range(s.n + 1):
            if (1 << level) <= free:
                assert canput_oracle(s, level)


def test_structural_failures_clean_on_valid_state():
    s = build(4, [(2, 0), (1, 2), (4, 4), (2, 8)])
    assert s.validate() == []
    assert structural_failures(s) == []


def test_structural_failures_flag_broken_states():
    # first pebble not at zero breaks more than one property
    s = build(3, [(2, 2)])
    problems = structural_failures(s)
    assert any("not 0" in p for p in problems)


@pytest.mark.parametrize(
    "walk,wrong",
    [
        # the pebble left of the place is reported black, or missing
        ("insert_site", lambda site: site and (site[0], site[1], not site[2])),
        ("insert_site", lambda site: site and (site[0], None, True)),
        # the least level right of the last pebble is off by one, or missing
        ("last_of_level", lambda found: found and (found[0], (found[1] or 0) + 1)),
        ("last_of_level", lambda found: None),
    ],
)
def test_structural_failures_check_the_one_walk_reads(monkeypatch, walk, wrong):
    s = build(4, [(2, 0), (1, 2), (4, 4), (2, 8)])
    real = getattr(Situation, walk)
    monkeypatch.setattr(Situation, walk, lambda self, level: wrong(real(self, level)))
    problems = structural_failures(s)
    assert problems and all(p.startswith(f"{walk} disagreement at level ") for p in problems)


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
    r = exhaustive_verify(4, 6, options=AllocatorOptions(skip_delete_swap=True))
    assert not r.ok
    assert any(f.stage in ("validate", "structure") for f in r.failures)
    r = exhaustive_verify(4, 6, options=AllocatorOptions(skip_insert_rename=True))
    assert not r.ok


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

    def apply_(s, request, options=None):
        log = real_apply(s, request, options)
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
    def broken(s, level, options=None):
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

    def apply_(s, request, options=None):
        log = real_apply(s, request, options)
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
    del s._peb[s.pebbles()[-1].id]


def _misplace_last(s):
    # both pebble indexes agree on a pebble the segment list does not hold
    last = s.pebbles()[-1]
    s._at[last.start] = s._peb[last.id] = Pebble(last.id, last.level, last.start + 1)


def _stray_at_key(s):
    start = s.first_free_place(0).start
    s._at[start] = Pebble(10**6, 0, start)


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

    def apply_(s, request, options=None):
        before = s.to_pairs()
        log = real_apply(s, request, options)
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


def test_scan_oracles_reject_out_of_range_arguments():
    s = build(3, [(2, 0), (1, 4)])
    assert scan_free_before(s, 0) == 0
    assert scan_free_before(s, 8) == 5
    for pos in (-1, 9):
        with pytest.raises(RequestError, match=rf"position {pos} out of \[0, 8\]"):
            scan_free_before(s, pos)
    for level in (s.n + 1, 10**6):
        assert scan_closing_position(s, level) is None
    assert scan_first_free_place(s, 4) is None and not canput_oracle(s, 4)
    for scan in (scan_closing_position, scan_first_free_place, canput_oracle):
        with pytest.raises(RequestError, match="level -1 is negative"):
            scan(s, -1)


# ----------------------------------------------------------------------
# the per-leaf scan oracle the gap-based one replaced, kept as the reference


def _ref_occupancy(s: Situation) -> bytearray:
    occ = bytearray(s.leaves)
    for pebble in s.pebbles():
        for i in range(pebble.start, min(pebble.end, s.leaves)):
            occ[i] = 1
    return occ


def _ref_scan_colors(s: Situation) -> list[bool]:
    """True = black, by position order: no strictly bigger pebble earlier."""
    out = []
    biggest = -1
    for pebble in s.pebbles():
        out.append(biggest <= pebble.level)
        biggest = max(biggest, pebble.level)
    return out


def _ref_scan_first_free_place(s: Situation, level: int) -> Place | None:
    size = 1 << level
    if size > s.leaves:
        return None
    occ = _ref_occupancy(s)
    for start in range(0, s.leaves, size):
        if not any(occ[start : start + size]):
            return Place(level, start)
    return None


def _ref_scan_free_before(s: Situation, pos: int) -> int:
    occ = _ref_occupancy(s)
    return sum(1 for i in range(pos) if not occ[i])


def _ref_scan_closing_position(s: Situation, level: int) -> int | None:
    last_black = None
    biggest = -1
    first_bigger = None
    for pebble in s.pebbles():
        if pebble.level == level and biggest <= level:
            last_black = pebble.start + pebble.size
        if pebble.level > level and first_bigger is None:
            first_bigger = pebble.start
        biggest = max(biggest, pebble.level)
    if last_black is not None:
        return last_black
    return first_bigger


def _ref_structural_failures(s: Situation, check_agreement: bool = True) -> list[str]:
    out: list[str] = []
    pebs = list(s.pebbles())
    colors = _ref_scan_colors(s)
    occ = _ref_occupancy(s)
    leaves = s.leaves

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

    for level in range(s.n + 1):
        slots = [p.start for p, b in zip(pebs, colors) if b and p.level == level]
        size = 1 << level
        for a, b in zip(slots, slots[1:]):
            if b != a + size:
                out.append(f"black level-{level} pebbles not contiguous: {a}, {b}")

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
            for other, ob in zip(pebs, colors):
                if other is pebble or ob:
                    continue
                if pebble.level <= other.level and other.size < left.size:
                    out.append(
                        f"white {other.place} inside the size window of "
                        f"{pebble.place}"
                    )
            # everything between the doubled-size closing position and the
            # backing black pebble is solidly covered, with no white starts
            if pebble.level + 1 <= s.n:
                j = _ref_scan_closing_position(s, pebble.level + 1)
                if j is not None and j < left.start:
                    if any(not occ[q] for q in range(j, left.start)):
                        out.append(
                            f"free leaf between {j} and {left.start} "
                            f"(window of white {pebble.place})"
                        )
                    for other, ob in zip(pebs, colors):
                        if not ob and j <= other.start < left.start:
                            out.append(
                                f"white {other.place} starts inside "
                                f"[{j}, {left.start})"
                            )
        if gap > 0 and nxt is not None and not colors[i + 1]:
            # a pebble right after free space must be black
            out.append(f"white pebble {nxt.place} right after free space")

    free_total = s.total_free_bandwidth()
    for level in range(s.n + 1):
        place = _ref_scan_first_free_place(s, level)
        if free_total >= (1 << level) and place is None:
            out.append(f"bandwidth {free_total} fits level {level} but no free place")
        if place is not None:
            if _ref_scan_free_before(s, place.start) >= place.size:
                out.append(f"free bandwidth before first free {place} >= its size")
            idx = next(
                (i for i, p in enumerate(pebs) if p.start > place.start), None
            )
            if idx is not None:
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

    if check_agreement:
        for pebble, black in zip(pebs, colors):
            if s.is_black(pebble.id) != black:
                out.append(f"color disagreement at {pebble.place}")
        for level in range(s.n + 1):
            if s.first_free_place(level) != _ref_scan_first_free_place(s, level):
                out.append(f"first_free_place disagreement at level {level}")
            if s.closing_position(level) != _ref_scan_closing_position(s, level):
                out.append(f"closing_position disagreement at level {level}")
        for pos in range(0, leaves + 1, max(1, leaves // 8)):
            if s.free_bandwidth_before(pos) != _ref_scan_free_before(s, pos):
                out.append(f"free_bandwidth_before disagreement at {pos}")
    return out


def _matches_reference(s: Situation) -> bool:
    """Assert the gap-based oracle answers exactly as the per-leaf one; True
    when ``s`` fails some structural property."""
    problems = _ref_structural_failures(s)
    assert structural_failures(s) == problems
    for level in range(s.n + 2):
        assert scan_first_free_place(s, level) == _ref_scan_first_free_place(s, level)
        assert scan_closing_position(s, level) == _ref_scan_closing_position(s, level)
    for pos in range(s.leaves + 1):
        assert scan_free_before(s, pos) == _ref_scan_free_before(s, pos)
    return bool(problems)


def test_gap_oracle_matches_per_leaf_reference():
    rng = random.Random(5)
    failing = 0
    for _ in range(2_400):
        n = rng.randint(0, 6)
        s = Situation(n)
        for _ in range(rng.randint(1, 2 * n + 2)):
            level = rng.randint(0, n)
            start = rng.randrange(s.leaves >> level) << level
            if s.block_free(level, start):
                s.place_pebble(level, start)
        failing += _matches_reference(s)
    assert failing > 1_000
    for n in range(3, 9):
        for by_id in (False, True):
            trace = gen_random_trace(n, 30, seed=n, insert_ratio=0.6, by_id=by_id)
            s = Situation(n)
            for request in trace.requests:
                apply(s, request)
                assert not _matches_reference(s)


def test_structural_checks_on_a_tall_tree():
    # no scan buffer is sized by 2**n, so a height-40 tree is checkable
    for by_id in (False, True):
        trace = gen_random_trace(40, 300, seed=7, insert_ratio=0.6, by_id=by_id)
        s = Situation(trace.n)
        for i, request in enumerate(trace.requests):
            apply(s, request)
            assert structural_failures(s) == []
            if i % 10 == 0:
                for level in range(s.n + 1):
                    assert scan_first_free_place(s, level) == s.first_free_place(level)
