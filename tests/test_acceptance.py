"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines and the
measured numbers; the whole module is also exercised by a plain ``pytest``.
"""

import time

import pytest

from ovsfalloc.oracle import exhaustive_verify
from ovsfalloc.render import render
from ovsfalloc.replay import replay
from ovsfalloc.workloads import gen_cascade_trace, gen_random_trace


def _report(name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {name}: {status}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def test_exhaustive_correctness():
    t0 = time.perf_counter()
    reports = [exhaustive_verify(n, 6) for n in range(1, 5)]
    elapsed = time.perf_counter() - t0
    ok = all(r.ok for r in reports)
    covered = reports[-1].missing_coverage() == []
    detail = (
        f"states={sum(r.states for r in reports)} "
        f"transitions={sum(r.transitions for r in reports)} "
        f"unhit={reports[-1].missing_coverage()} time={elapsed:.1f}s"
    )
    _report("exhaustive-correctness", ok and covered and elapsed < 60.0, detail)


def test_insert_cost_bound():
    worst = 0
    t0 = time.perf_counter()
    for seed in range(1, 6):
        trace = gen_random_trace(16, 100_000, seed=seed, insert_ratio=0.6)
        stats = replay(trace, validate_each=False, audit=False).stats
        worst = max(worst, stats.max_insert_moves)
    exhaustive = exhaustive_verify(4, 6)
    worst = max(worst, exhaustive.max_insert_moves)
    elapsed = time.perf_counter() - t0
    _report(
        "insert-cost-bound",
        worst <= 3,
        f"max insert reassignments={worst} over 5x100k requests, {elapsed:.0f}s",
    )


def test_lemma_free_place_exists_when_bandwidth_fits():
    # the exhaustive walk checks, on every reachable valid situation, that
    # whenever the free bandwidth covers a level some aligned free place
    # exists (and that the indexed query finds the scan-minimal one)
    reports = [exhaustive_verify(n, 6) for n in range(1, 5)]
    bad = [f for r in reports for f in r.failures]
    _report(
        "free-place-whenever-bandwidth",
        all(r.ok for r in reports),
        f"violations={bad[:1]}",
    )


def test_amortized_bound():
    t0 = time.perf_counter()
    means = {}
    worst_injected = 0
    p4_failures = 0
    findings = 0
    for n in (8, 12, 16):
        for ratio in (0.5, 0.7):
            trace = gen_random_trace(n, 100_000, seed=1, insert_ratio=ratio)
            stats = replay(
                trace, validate_each=False, audit=True, audit_every=2000
            ).stats
            means[(n, ratio)] = stats.mean_moves
            worst_injected = max(worst_injected, stats.max_injected)
            p4_failures += stats.p4_failures
            findings += stats.budget_findings
    elapsed = time.perf_counter() - t0
    worst_mean = max(means.values())
    ok = worst_mean <= 10.0 and worst_injected <= 8 and p4_failures == 0
    _report(
        "amortized-bound",
        ok and elapsed < 300.0,
        f"max mean moves/request={worst_mean:.3f} (C<=10) "
        f"max injected={worst_injected} (K<=8) p4_failures={p4_failures} "
        f"budget_findings={findings} time={elapsed:.0f}s",
    )


def test_baseline_contrast():
    m = 1200
    baseline_means = []
    paper_means = []
    for n in (4, 6, 8, 10, 12):
        trace = gen_cascade_trace(n, m)
        baseline_means.append(
            replay(trace, allocator="baseline", audit=False).stats.mean_moves
        )
        paper_means.append(replay(trace, allocator="paper").stats.mean_moves)
    increasing = all(a < b for a, b in zip(baseline_means, baseline_means[1:]))
    anchor = paper_means[0]
    flat = all(abs(v - anchor) <= 0.2 * anchor for v in paper_means)
    _report(
        "baseline-contrast",
        increasing and flat,
        f"baseline={['%.2f' % v for v in baseline_means]} "
        f"paper={['%.3f' % v for v in paper_means]}",
    )


def test_determinism():
    traces = [
        gen_random_trace(8, 5_000, seed=5, insert_ratio=0.6),
        gen_random_trace(6, 2_000, seed=9, insert_ratio=0.5, by_id=True),
        gen_cascade_trace(8, 500),
    ]
    ok = True
    for trace in traces:
        a = replay(trace, log_format="text")
        b = replay(trace, log_format="text")
        ok = ok and a.request_lines == b.request_lines
        ok = ok and a.stats.stat_lines() == b.stats.stat_lines()
        ok = ok and render(a.situation) == render(b.situation)
    _report("determinism", ok, f"{len(traces)} traces replayed twice")


def test_mutation_sensitivity():
    swap = exhaustive_verify(4, 6, mutant="skip-delete-swap")
    rename = exhaustive_verify(4, 6, mutant="skip-insert-rename")
    _report(
        "mutation-sensitivity",
        (not swap.ok) and (not rename.ok),
        f"swap-off -> {swap.failures[:1]}; rename-off -> {rename.failures[:1]}",
    )
