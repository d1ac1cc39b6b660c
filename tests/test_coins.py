import json
from dataclasses import fields

import pytest
from hypothesis import given, settings, strategies as st

from ovsfalloc.allocator import apply, delete_last, insert
from ovsfalloc.coins import (
    CoinLedger,
    closed_run_potential,
    potential,
    run_potential,
)
from ovsfalloc.coins import SettleInfo
from ovsfalloc.model import Situation
from ovsfalloc.replay import replay
from ovsfalloc.workloads import gen_random_trace, parse_trace
import reference
from reference import required_coins


def build(n, pebs):
    s = Situation(n)
    for size, start in pebs:
        s.place_pebble(size.bit_length() - 1, start)
    return s


def test_required_coins_formula():
    # P4: a free place of size p whose smallest right pebble has size x
    # needs floor(2p / x) coins; the run [p, 2p) is one aligned place
    for p, x, coins in ((2, 4, 1), (1, 4, 0), (4, 4, 2), (8, 2, 8)):
        assert required_coins(p, x) == coins
        assert run_potential(p, 2 * p, x.bit_length() - 1, 4) == coins


def _run_places(n: int, start: int, end: int):
    """The reference's canonical places of a height-``n`` tree whose one
    free run is ``[start, end)``, every other leaf a unit pebble."""
    s = Situation(n)
    for pos in (*range(start), *range(end, 1 << n)):
        s.place_pebble(0, pos)
    return reference.Leaves(s).canonical_places()


def test_run_potential_counts_the_reference_places():
    # every run of every tree up to height 6, against every right pebble level
    for n in range(7):
        leaves = 1 << n
        for start in range(leaves):
            for end in range(start + 1, leaves + 1):
                places = _run_places(n, start, end)
                for x_level in range(n + 1):
                    x = 1 << x_level
                    literal = sum(required_coins(p.size, x) for p in places)
                    assert run_potential(start, end, x_level, n) == literal, (
                        n, start, end, x_level,
                    )


def test_closed_run_potential_matches_literal_count():
    # every run of every tree up to height 7, against every right pebble level
    for n in range(8):
        leaves = 1 << n
        for start in range(leaves):
            for end in range(start + 1, leaves + 1):
                for x_level in range(n + 1):
                    literal = run_potential(start, end, x_level, n)
                    assert closed_run_potential(start, end, x_level) == literal, (
                        n, start, end, x_level,
                    )


@pytest.mark.parametrize("by_id", [False, True])
def test_potential_matches_per_run_reference(by_id):
    states = 0
    for n in range(3, 17):
        trace = gen_random_trace(n, 500, seed=n, insert_ratio=0.6, by_id=by_id)
        s = Situation(n)
        for request in trace.requests:
            apply(s, request)
            assert potential(s) == reference.Leaves(s).potential(), (n, s.to_pairs())
            states += 1
    assert states == 14 * 500


def test_audit_empty_situation():
    s = Situation(3)
    ledger = CoinLedger(s)
    assert ledger.audit(s) == []
    assert ledger.balance() == 0


def test_audit_needs_coin_before_bigger_pebble():
    s = build(2, [(1, 0), (2, 2)])
    ledger = CoinLedger(s)
    # the unit gap before the size-2 pebble needs the one coin of Φ
    assert ledger.balance() == 1
    assert ledger.audit(s) == []
    ledger.load_coins({})
    out = ledger.audit(s)
    assert len(out) == 1 and out[0].kind == "P4"
    assert out[0].detail == "potential 1 by scan != balance 0"


def test_settle_insert_into_empty_injects_nothing():
    s = Situation(3)
    ledger = CoinLedger(s)
    log = insert(s, 1)
    info = ledger.settle(s, log)
    assert info.injected == 0
    assert ledger.audit(s) == []


def test_settle_insert_rotate_needs_no_coins():
    s = build(4, [(4, 0), (1, 4)])
    ledger = CoinLedger(s)
    log = insert(s, 2)
    info = ledger.settle(s, log)
    assert info.injected == 0
    assert ledger.balance() == 0
    assert ledger.audit(s) == []


def test_settle_insert_funds_half_size_gap_left_of_moved_pebble():
    # the shuffle leaves a gap of half the displaced pebble's size behind;
    # exactly one fresh coin must land on it
    s = build(6, [(8, 0), (8, 8), (16, 16), (1, 32)])
    ledger = CoinLedger(s)
    assert ledger.balance() == 0
    log = insert(s, 1)
    info = ledger.settle(s, log)
    assert info.injected == 1
    assert ledger.balance() == 1
    assert ledger.audit(s) == []


def test_settle_delete_no_iteration_funds_new_gap():
    s = build(2, [(1, 0), (1, 1), (2, 2)])
    ledger = CoinLedger(s)
    log = delete_last(s, 0)
    info = ledger.settle(s, log)
    assert log.iterations == 0
    assert ledger.consumed_total == 0 and info.injected == 1
    assert ledger.balance() == 1
    assert ledger.audit(s) == []


def test_settle_delete_consumes_one_coin_per_iteration():
    s = build(3, [(1, 0), (2, 2), (2, 4)])
    ledger = CoinLedger(s)
    log = delete_last(s, 0)
    info = ledger.settle(s, log)
    assert log.iterations == 1 and ledger.consumed_total == 1
    assert ledger.audit(s) == []
    ledger.balance_check()


def test_settle_delete_of_only_pebble_is_free():
    s = build(2, [(4, 0)])
    ledger = CoinLedger(s)
    log = delete_last(s, 2)
    info = ledger.settle(s, log)
    assert info.injected == 0 and ledger.consumed_total == 0
    assert ledger.audit(s) == []


def test_budget_findings_reported_not_fatal():
    s = build(3, [(1, 0), (2, 2), (2, 4)])
    ledger = CoinLedger(s, budget=0)
    log = delete_last(s, 0)
    info = ledger.settle(s, log)
    assert ledger.audit(s) == []  # settlement still completes
    # with a zero budget any fresh coin trips a finding on some requests
    s2 = build(2, [(1, 0), (1, 1), (2, 2)])
    ledger2 = CoinLedger(s2, budget=0)
    log2 = delete_last(s2, 0)
    info2 = ledger2.settle(s2, log2)
    assert info2.findings == ["injected 1 coins exceeds budget 0"]


def test_replay_coin_line_format():
    # the pebbles of ``build(3, [(1, 0), (2, 2), (2, 4)])``, then a delete
    # whose one compaction iteration spends the coin on free leaf 1: Φ 1 -> 0
    trace = parse_trace("n=3\nI 0\nI 1\nI 1\nD 0\n")
    text = replay(trace, log_format="text").request_lines
    assert text[-1] == "iters=1 injected=0 consumed=1 balance=0 p4=ok"
    entry = json.loads(replay(trace, log_format="jsonl").request_lines[-1])
    assert entry["coins"] == {"injected": 0, "consumed": 1, "balance": 0, "p4": "ok"}


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 100_000), ratio=st.sampled_from([0.5, 0.7]))
def test_ledger_invariants_on_random_traces(seed, ratio):
    trace = gen_random_trace(5, 60, seed=seed, insert_ratio=ratio)
    res = replay(trace, validate_each=True, audit=True, audit_every=1)
    assert res.stats.p4_failures == 0
    res.ledger.balance_check()
    # conservation: everything injected or seeded is on the ledger, was
    # consumed by iterations, or was discarded with the last free place
    led = res.ledger
    assert (
        led.seeded_total + led.injected_total - led.consumed_total - led.discarded_total
        == led.balance()
    )


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_injection_bounded_by_default_budget(seed):
    trace = gen_random_trace(6, 120, seed=seed, insert_ratio=0.6)
    res = replay(trace, validate_each=False, audit=True)
    assert res.stats.max_injected <= 4
    assert res.stats.budget_findings == 0


def test_settle_info_holds_the_charge_alone():
    # the coins a request consumes are its iterations, kept on the MoveLog
    assert [f.name for f in fields(SettleInfo)] == ["injected", "findings"]


def test_consumed_coins_are_the_delete_iterations():
    trace = gen_random_trace(6, 400, seed=5, insert_ratio=0.55, by_id=True)
    res = replay(trace)
    led = res.ledger
    assert res.stats.total_delete_iterations > 0
    assert led.consumed_total == res.stats.total_delete_iterations == res.stats.total_consumed
    assert (
        led.seeded_total + led.injected_total - led.consumed_total - led.discarded_total
        == led.balance()
    )
    # with no ledger nothing is consumed, whatever the deletes iterated
    bare = replay(trace, audit=False).stats
    assert bare.total_delete_iterations > 0 and bare.total_consumed == 0
