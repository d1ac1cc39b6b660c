"""Tests of the benchmark itself (not collected by the package's test suite).

    python3 -m pytest -q perfbench/test_perfbench.py

Workloads run here at reduced sizes; the checks are the ones the benchmark
makes on every run.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import cases
import run
from spans import SPANS, Tracer, module

# the spans each workload must fire, as named in the per-layer metric map
MAPPED = {
    "random16": {
        "workloads.parse_trace",
        "replay.replay",
        "allocator.apply",
        "allocator.insert",
        "allocator.delete_last",
        "model.init",
        "model.validate",
        "coins.settle",
        "coins.audit",
    },
    "checked12": {
        "cli.main",
        "workloads.parse_trace",
        "replay.replay",
        "allocator.apply",
        "allocator.delete_by_id",
        "model.mutate.relabel_pebble",
        "model.validate",
        "coins.settle",
        "coins.audit",
    },
    "verify5": {
        "oracle.exhaustive_verify",
        "oracle.structural",
        "oracle.rebuild",
        "allocator.apply",
        "model.init",
        "model.copy",
        "model.validate",
        "coins.settle",
        "coins.audit",
        "coins.copy",
    },
    "cascade12": {
        "workloads.parse_trace",
        "replay.replay",
        "baseline.insert",
        "baseline.delete",
        "allocator.apply",
        "coins.settle",
    },
}

SMALL = {"random16": 3000, "checked12": 400, "cascade12": 600}


@pytest.fixture(scope="module", autouse=True)
def package():
    run.import_package()


@pytest.fixture
def workdir():
    """A scratch directory inside the checkout, as the benchmark itself uses."""
    with tempfile.TemporaryDirectory(dir=run.ROOT, prefix=".perfbench-") as tmp:
        yield Path(tmp)


def small_case(name: str):
    case = type(cases.CASES[name])()
    if name in SMALL:
        case.requests = SMALL[name]
    return case


def traced_pair(name: str, seed: int, workdir: Path):
    case = small_case(name)
    item = case.prepare(seed, workdir)
    tally = run.Tally()
    _, outcome = run.play(case, item)
    tracer, _ = run.counted(case, item, tally)
    return outcome, tracer, tally


@pytest.mark.parametrize("name", sorted(MAPPED))
def test_mapped_spans_fire_and_counts_agree(name, workdir):
    outcome, tracer, tally = traced_pair(name, 7, workdir)
    assert tally.failed == 0 and outcome.failures == []
    assert MAPPED[name] <= tracer.fired()
    metrics = run.layer_metrics(tracer, outcome)
    assert sum(metrics[f"allocator.branch.{b}"] for b in cases.BRANCHES) == tracer.counts["requests"]
    assert tracer.counts["segments_max"] >= 1


@pytest.mark.parametrize("name", ["random16", "checked12"])
def test_same_seed_same_counts(name, workdir):
    first, first_tracer, _ = traced_pair(name, 3, workdir)
    again, again_tracer, _ = traced_pair(name, 3, workdir)
    assert first.signature == again.signature
    assert first_tracer.counts == again_tracer.counts
    other, _, _ = traced_pair(name, 4, workdir)
    assert other.signature != first.signature


def test_every_span_site_is_restored():
    before = {name: _current(mod, attr) for name, mod, attr in SPANS}
    tracer = Tracer()
    tracer.install()
    try:
        assert all(_current(mod, attr) is not before[name] for name, mod, attr in SPANS)
        assert module("cli").replay is module("replay").replay
        assert sys.modules["ovsfalloc"].replay is module("replay").replay
        assert module("oracle").apply is module("allocator").apply
    finally:
        tracer.uninstall()
    assert all(_current(mod, attr) is before[name] for name, mod, attr in SPANS)
    assert module("cli").replay is before["replay.replay"]


def _current(mod: str, attr: str):
    owner = module(mod)
    for part in attr.split("."):
        owner = getattr(owner, part)
    return owner


def test_program_errors_are_counted_not_raised(workdir):
    class Broken(cases.Random16):
        requests = 50

        def run(self, text):
            trace = module("workloads").parse_trace(text)
            situation = module("model").Situation(trace.n)
            raise module("model").InvariantError(f"broken on purpose at {len(situation)}")

    case = Broken()
    tally = run.Tally()
    seconds, outcome = run.play(case, case.prepare(1, workdir))
    tally.add(outcome)
    assert seconds is None
    assert tally.failed == 1 and tally.attempted == 50


def test_wrong_counts_fail_the_run(workdir):
    case = small_case("random16")
    item = case.prepare(2, workdir)
    tally = run.Tally()
    _, outcome = run.play(case, item)
    tally.add(outcome)
    tally.reference[0] = dict(outcome.signature, total_moves=outcome.signature["total_moves"] + 1)
    run.counted(case, item, tally)
    assert tally.failed == 1


def test_without_the_package_the_benchmark_exits_nonzero(workdir):
    shutil.copy(run.ROOT / "BENCHMARK.json", workdir)
    shutil.copytree(run.ROOT / "perfbench", workdir / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify5", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=workdir, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_result_line_names_every_metric():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify5", "--seed", "1",
         "--seconds", "1", "--trace", "1"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}
    assert result["metrics"]["oracle.edges"]["value"] > 0
