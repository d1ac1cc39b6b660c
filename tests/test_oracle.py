import pytest
from hypothesis import given, settings, strategies as st

from ovsfalloc.allocator import AllocatorOptions
from ovsfalloc.model import Situation
from ovsfalloc.oracle import (
    canput_oracle,
    exhaustive_verify,
    scan_first_free_place,
    structural_failures,
)
from ovsfalloc.replay import replay
from ovsfalloc.workloads import gen_random_trace


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
    from ovsfalloc.allocator import apply

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
    r = exhaustive_verify(4, 6, options=AllocatorOptions(skip_delete_swap=True),
                          require_coverage=False)
    assert not r.ok
    assert any(f.stage in ("validate", "structure") for f in r.failures)
    r = exhaustive_verify(4, 6, options=AllocatorOptions(skip_insert_rename=True),
                          require_coverage=False)
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


def test_deepening_note_when_branches_unreachable():
    # at height 3 two branches are unreachable; forcing coverage must fail
    # after the bounded depth extension rather than loop forever
    report = exhaustive_verify(3, 4, require_coverage=True, max_depth_extension=1)
    assert not report.ok
    assert any(f.stage == "coverage" for f in report.failures)
