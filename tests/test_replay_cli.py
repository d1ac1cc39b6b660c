import hashlib
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ovsfalloc import cli, coins, model
from ovsfalloc.cli import main
from ovsfalloc.coins import CoinLedger
from ovsfalloc.model import InvariantError, Situation
from ovsfalloc.render import render
from ovsfalloc.replay import ReplayError, replay
from ovsfalloc.workloads import (
    Trace,
    gen_cascade_trace,
    gen_random_trace,
    parse_trace,
    serialize_trace,
)


def test_render_examples():
    assert render(Situation(2)) == "...."
    s = Situation(3)
    s.place_pebble(2, 0)
    s.place_pebble(0, 4)
    assert render(s) == "[BBBB][W]..."


def test_render_distinguishes_situations():
    a = Situation(2)
    a.place_pebble(1, 0)
    b = Situation(2)
    b.place_pebble(1, 2)
    assert render(a) != render(b)


def test_replay_stats_for_known_trace():
    trace = parse_trace("n=3\nI 0\nI 1\nI 1\nD 0\n")
    res = replay(trace, log_format="text")
    assert res.stats.m == 4
    assert res.stats.total_moves == 1  # the single compaction relocation
    assert res.stats.total_delete_iterations == 1
    assert res.stats.p4_failures == 0
    assert res.request_lines[-2].startswith("req=4 op=D0 ")
    assert "moved=3:2@4->2@0" in res.request_lines[-2]
    assert res.request_lines[-1] == "iters=1 injected=0 consumed=1 balance=0 p4=ok"


def test_replay_error_cites_request_index():
    trace = Trace(2, parse_trace("n=2\nI 0\n").requests * 5)
    with pytest.raises(ReplayError, match="request 5"):
        replay(trace)


def test_replay_jsonl_logs():
    trace = parse_trace("n=3\nI 1\nD 1\n")
    res = replay(trace, log_format="jsonl")
    entries = [json.loads(line) for line in res.request_lines]
    assert entries[0]["op"] == "I1"
    assert entries[1]["coins"]["p4"] == "ok"


def test_count_relabel_switch():
    trace = parse_trace("n=2\nI 0\nI 0\nDID 1\n")
    plain = replay(trace)
    counted = replay(trace, count_relabel=True)
    assert plain.stats.total_moves == 0
    assert counted.stats.total_moves == 1
    assert counted.stats.relabels == 1


# sha256 of each replay's request lines followed by its stat lines; a
# change to any move, coin line or statistic on these traces must be
# deliberate and update the digest
PINNED_TRACES = {
    "by-id12": lambda: gen_random_trace(12, 5000, seed=4, insert_ratio=0.6, by_id=True),
    "cascade12": lambda: gen_cascade_trace(12, 5000),
    "random8": lambda: gen_random_trace(8, 5000, seed=3, insert_ratio=0.6),
}
PINNED = {
    ("by-id12", "paper"): "beb84777640fa5043d9706e2aa949f10632e99209e240acd88be07d7c53396e9",
    ("by-id12", "baseline"): "cf2041d41736e65837e964a436fea3f11d761122a23be61502ecbc428bc71410",
    ("cascade12", "paper"): "fd9bbc001bdc0d81a5a47cc3ba932c4b490145bef9b6800134c47beb4e97331e",
    ("cascade12", "baseline"): "d0ab463943c016428158c5431339f352641fa1bd0fcbebe019dd4f3de917b934",
    ("random8", "paper"): "8d78c6dc8d93bb4b499c39b14db340e6c08467c25a432a9831cd705de1c91e6f",
    ("random8", "baseline"): "2abad25b85dbd0abe91f9aae61b83936dff78392ff06750bffcc34d4892f0bd2",
}


# sha256 of the same replays' ``req=`` lines followed by every stat line
# that does not depend on the coin accounting: what the allocator did
PINNED_ALLOCATOR = {
    ("by-id12", "paper"): "c414bf49cc0c9c0d41f7917097feda90d5f2bad7ee807e4f6c782bcb21c31456",
    ("by-id12", "baseline"): "14ec291d8a01a2e3602e03f76a3d8ba86c30c30629741ae3df89b06a3f9c1bf8",
    ("cascade12", "paper"): "282c790861d0556e17a82f417ca1ba827fb78588a1df01cdc8296d63f3a415cf",
    ("cascade12", "baseline"): "c243344a32897d0bbf84dff2a03880f6302f4018d797642b987e7d24d9e6d581",
    ("random8", "paper"): "198478f8c163cd36a3a7e07a8035d9b3d834d17aaffc1b97bd339f70eba368f7",
    ("random8", "baseline"): "b65fe21e28b163fdda1b28382aaea1d3e9403d0a414acf9320a8a80f31ef8bd5",
}
COIN_STATS = ("stat.max_coins_injected=", "stat.total_coins_injected=", "stat.budget_findings=")


def _digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


@pytest.mark.parametrize("name,allocator", sorted(PINNED))
def test_replay_output_pinned(name, allocator):
    res = replay(PINNED_TRACES[name](), allocator=allocator, log_format="text")
    assert _digest(res.request_lines + res.stats.stat_lines()) == PINNED[name, allocator]


@pytest.mark.parametrize("name,allocator", sorted(PINNED_ALLOCATOR))
def test_replay_allocator_output_pinned(name, allocator):
    res = replay(PINNED_TRACES[name](), allocator=allocator, log_format="text")
    lines = [line for line in res.request_lines if line.startswith("req=")]
    lines += [line for line in res.stats.stat_lines() if not line.startswith(COIN_STATS)]
    assert _digest(lines) == PINNED_ALLOCATOR[name, allocator]


# sha256 of the same replays' jsonl request lines: one entry per request,
# with its coins for the paper allocator
PINNED_JSONL = {
    ("by-id12", "paper"): "7ad2a001be7900046c94f17689683ab1b693e8ca6b852b8cb19db8f50e513764",
    ("by-id12", "baseline"): "e908327ea1c4a695f53f1efcfe9daf33e8ef50747bca3b092cc271b47cd65749",
    ("cascade12", "paper"): "59ce33ed941bc81e383b0f6650aeaf8c17a0438652c4f77c3c0f879efddb4bcb",
    ("cascade12", "baseline"): "80530cd525a8d7dbbb7e903ef89861d6197a60a752ed9f2b342e1b968ff4a489",
    ("random8", "paper"): "4fbcfd71ef30937072d57023fbef4d3dac791ddd93eac46ffc8750f3fec35953",
    ("random8", "baseline"): "2d405a65b42e66e81b6c926cc9b68c6548a5c11ce6e562a8d3c8a8c0824b4d74",
}


@pytest.mark.parametrize("name,allocator", sorted(PINNED_JSONL))
def test_replay_jsonl_output_pinned(name, allocator):
    res = replay(PINNED_TRACES[name](), allocator=allocator, log_format="jsonl")
    assert _digest(res.request_lines) == PINNED_JSONL[name, allocator]


def _place(text):
    size, start = text.split("@")
    return int(size), int(start)


@pytest.mark.parametrize("name,allocator", sorted(PINNED_JSONL))
def test_replay_totals_match_the_request_log(name, allocator):
    # the stats recomputed from the jsonl lines alone; relabels are found
    # by following every pebble: a by-id delete relabels when the pebble
    # it names is not the rightmost of its size, which is the one removed
    res = replay(PINNED_TRACES[name](), allocator=allocator, log_format="jsonl")
    entries = [json.loads(line) for line in res.request_lines]
    places = {}  # id -> (size, start)
    relabels = 0
    for entry in entries:
        pid = entry["removed"]
        removed = pid
        if entry["op"].startswith("DID"):
            size = places[pid][0]
            removed = max((p for p in places if places[p][0] == size), key=lambda p: places[p][1])
        if removed is not None:
            del places[removed]
        for move in entry["moved"]:
            mover, _, new = move.partition(":")
            places[int(mover)] = _place(new.split("->")[1])
        if entry["placed"] is not None:
            new_id, _, place = entry["placed"].partition(":")
            places[int(new_id)] = _place(place)
        if removed != pid:
            places[removed] = places.pop(pid)
            relabels += 1
    assert places == {p.id: (p.size, p.start) for p in res.situation.pebbles()}
    moves = [len(e["moved"]) for e in entries]
    insert_moves = [len(e["moved"]) for e in entries if e["op"].startswith("I")]
    coins = [e["coins"] for e in entries if "coins" in e]
    assert len(coins) == (len(entries) if allocator == "paper" else 0)
    injected = [c["injected"] for c in coins]
    stats = res.stats
    assert (stats.m, stats.total_moves, stats.max_moves, stats.max_insert_moves) == (
        len(entries), sum(moves), max(moves), max(insert_moves)
    )
    assert stats.total_delete_iterations == sum(e["iters"] for e in entries)
    assert stats.relabels == relabels
    assert (stats.total_injected, stats.max_injected, stats.total_consumed) == (
        sum(injected), max(injected, default=0), sum(c["consumed"] for c in coins)
    )
    assert relabels > 0 if name == "by-id12" else relabels == 0


@pytest.mark.parametrize("method", ["settle", "audit"])
def test_ledger_errors_cite_request_index(tmp_path, capsys, monkeypatch, method):
    def broken(self, *args):
        raise InvariantError("ledger out of step")

    monkeypatch.setattr(CoinLedger, method, broken)
    path = _write(tmp_path, "t.trace", "n=3\nI 0\nI 1\n")
    assert main(["run", path]) == 1
    assert capsys.readouterr().err == "error: request 1: InvariantError: ledger out of step\n"


# the module, not the same-named function the package exports
REPLAY = importlib.import_module("ovsfalloc.replay")


def _plant_stray_at_key(s):
    s._id_at[s.first_free_place(0).start] = 10**6


def _plant_peb_outside_the_tree(s):
    s._start_of[s.pebbles()[-1].id] = s.leaves + 18  # 4114 at height 12


def _plant_smaller_interior_copy(s):
    # the id map puts an interior pebble one leaf short of its start
    first, level, count = next(seg for seg in s.segments() if seg[1] and seg[2] > 1)
    start = first + (1 << level)
    s._start_of[s._id_at[start]] = start - 1


def _plant_dropped_id(s):
    del s._start_of[s.pebbles()[-1].id]


def _plant_short_segment(s):
    start, level, count = s._segs[-1]
    s._segs[-1:] = [(start, level, count - 1)] if count > 1 else []


PLANTS = [
    _plant_stray_at_key,
    _plant_peb_outside_the_tree,
    _plant_smaller_interior_copy,
    _plant_dropped_id,
    _plant_short_segment,
]
PLANT_AT = 1000


def _plant_once(monkeypatch, plant):
    real = REPLAY.apply
    seen = []

    def apply_(s, request, *args):
        log = real(s, request, *args)
        seen.append(request)
        if len(seen) == PLANT_AT:
            plant(s)
        return log

    monkeypatch.setattr(REPLAY, "apply", apply_)


def _checked12_trace():
    return gen_random_trace(12, 2000, seed=12, insert_ratio=0.6, by_id=True)


@pytest.mark.parametrize("validate_each", [True, False])
@pytest.mark.parametrize("plant", PLANTS)
def test_planted_corruption_fails_the_replay_typed(monkeypatch, plant, validate_each):
    _plant_once(monkeypatch, plant)
    with pytest.raises(ReplayError) as info:
        replay(_checked12_trace(), validate_each=validate_each)
    assert PLANT_AT <= info.value.index <= 2000
    assert str(info.value).startswith(f"request {info.value.index}: ")


@pytest.mark.parametrize("validate_each", [True, False])
def test_by_id_read_of_a_planted_copy_fails_there(monkeypatch, validate_each):
    # request 1071 (DID 385) is the first read of the planted pebble by id
    _plant_once(monkeypatch, _plant_smaller_interior_copy)
    with pytest.raises(ReplayError) as info:
        replay(_checked12_trace(), validate_each=validate_each)
    assert info.value.index == 1071
    assert isinstance(info.value.__cause__, InvariantError)


@pytest.mark.parametrize("plant", PLANTS)
def test_cli_exits_1_on_a_planted_corruption(tmp_path, capsys, monkeypatch, plant):
    path = _write(tmp_path, "t.trace", serialize_trace(_checked12_trace()))
    _plant_once(monkeypatch, plant)
    assert main(["run", path]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: request ") and "Traceback" not in captured.err
    assert captured.out == ""


def test_checked_replay_walks_the_pebbles_once(monkeypatch):
    # validate reads the segments: the only O(pebbles) walk of a checked
    # replay is its final cross-check, which reads the stored copies in its
    # own segment walk, and a valid layout reads no witness
    calls = {"pebbles": 0, "cross_check": 0, "witness": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(Situation, "pebbles", counted("pebbles", Situation.pebbles))
    monkeypatch.setattr(Situation, "cross_check", counted("cross_check", Situation.cross_check))
    monkeypatch.setattr(Situation, "_witness", counted("witness", Situation._witness))
    res = replay(_checked12_trace(), validate_each=True)
    assert res.stats.m == 2000
    assert calls == {"pebbles": 0, "cross_check": 1, "witness": 0}


def test_stat_lines_deterministic_and_exclude_wall_time():
    trace = gen_random_trace(5, 200, seed=3, insert_ratio=0.6)
    a = replay(trace)
    b = replay(trace)
    assert a.stats.stat_lines() == b.stats.stat_lines()
    assert not any("wall" in line for line in a.stats.stat_lines())


# ----------------------------------------------------------------------
# CLI


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_cli_run_text(tmp_path, capsys):
    path = _write(tmp_path, "t.trace", "n=3\nI 0\nI 1\nI 1\nD 0\n")
    assert main(["run", path]) == 0
    out = capsys.readouterr().out
    assert "stat.total_moves=1" in out
    assert "stat.p4_failures=0" in out


def test_cli_run_jsonl(tmp_path, capsys):
    path = _write(tmp_path, "t.trace", "n=2\nI 0\n")
    assert main(["run", path, "--format", "jsonl", "--log"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert json.loads(lines[0])["op"] == "I0"
    assert json.loads(lines[-1])["stats"]["m"] == 1


def test_cli_run_baseline_and_flags(tmp_path, capsys):
    trace = gen_cascade_trace(5, 40)
    from ovsfalloc.workloads import serialize_trace

    path = _write(tmp_path, "c.trace", serialize_trace(trace))
    assert main(["run", path, "--allocator", "baseline", "--no-validate"]) == 0
    out = capsys.readouterr().out
    assert "stat.total_coins_injected=0" in out  # no ledger for the baseline


@pytest.mark.parametrize(
    "flags", [["--no-audit"], ["--audit-every", "1"], ["--budget", "4"]]
)
def test_cli_run_baseline_rejects_coin_flags(tmp_path, capsys, flags):
    # the baseline has no coin certificate, so a coin flag would be ignored
    path = _write(tmp_path, "c.trace", "n=2\nI 0\nI 1\n")
    assert main(["run", path, "--allocator", "baseline", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {flags[0]} needs the paper allocator: the baseline has no coin certificate\n"
    assert main(["run", path, *flags]) == 0  # the paper allocator takes each


@pytest.mark.parametrize("flags", [["--audit-every", "5"], ["--budget", "2"]])
def test_cli_run_no_audit_rejects_ledger_flags(tmp_path, capsys, flags):
    # without a ledger there is nothing to audit and no budget to report
    path = _write(tmp_path, "t.trace", "n=2\nI 0\nI 1\n")
    assert main(["run", path, "--no-audit", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {flags[0]} needs the coin certificate, which --no-audit turns off\n"


def test_cli_run_input_errors(tmp_path, capsys):
    assert main(["run", str(tmp_path / "missing.trace")]) == 2
    bad = _write(tmp_path, "bad.trace", "n=2\nD 0\n")
    assert main(["run", bad]) == 2
    err = capsys.readouterr().err
    assert "request 1" in err


def test_cli_budget_zero_is_applied(tmp_path, capsys):
    text = "n=2\nI 0\nI 0\nI 1\nD 0\n"
    direct = replay(parse_trace(text), budget=0)
    assert direct.stats.budget_findings == 1
    path = _write(tmp_path, "t.trace", text)
    assert main(["run", path, "--budget", "0"]) == 0
    assert "stat.budget_findings=1" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv,message",
    [
        (["run", "{path}", "--budget", "-1"], "--budget must be >= 0, got -1"),
        (["verify", "--height", "2", "--budget", "-1"], "--budget must be >= 0, got -1"),
        (["run", "{path}", "--audit-every", "0"], "--audit-every must be >= 1, got 0"),
        (["run", "{path}", "--audit-every", "-2"], "--audit-every must be >= 1, got -2"),
        (["verify", "--height", "-1"], "--height must be >= 0, got -1"),
        (["verify", "--height", "2", "--depth", "-1"], "--depth must be >= 0, got -1"),
        (["gen", "random", "--height", "3", "--requests", "-1"], "--requests must be >= 0, got -1"),
        (["gen", "cascade", "--height", "3", "--requests", "-1"], "--requests must be >= 0, got -1"),
        (["gen", "random", "--height", "-1", "--requests", "5"], "--height must be >= 0, got -1"),
        (["gen", "cascade", "--height", "-1", "--requests", "5"], "--height must be >= 0, got -1"),
        (["verify", "--height", "1025", "--depth", "1"], "--height must be <= 1024, got 1025"),
        (["gen", "random", "--height", "1025", "--requests", "1"], "--height must be <= 1024, got 1025"),
        (["gen", "cascade", "--height", "1025", "--requests", "1"], "--height must be <= 1024, got 1025"),
    ],
)
def test_cli_rejects_out_of_range_counts(tmp_path, capsys, argv, message):
    path = _write(tmp_path, "t.trace", "n=2\nI 0\n")
    assert main([arg.format(path=path) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n" and captured.out == ""


def test_gen_out_in_a_missing_directory_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "missing" / "x.trace"
    argv = ["gen", "random", "--height", "3", "--requests", "5", "--out", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and str(out) in captured.err
    assert captured.out == "" and not out.exists()


def test_replay_rejects_audit_interval_below_one():
    with pytest.raises(ValueError, match="audit_every must be >= 1, got 0"):
        replay(parse_trace("n=2\nI 0\n"), audit_every=0)


def test_replay_rejects_a_negative_budget():
    # a negative budget would turn every request into a finding
    with pytest.raises(ValueError, match="budget must be >= 0, got -1"):
        replay(parse_trace("n=2\nI 0\n"), budget=-1)
    assert replay(parse_trace("n=2\nI 0\n"), budget=0).stats.m == 1


def test_replay_rejects_unknown_log_format():
    trace = parse_trace("n=2\nI 0\n")
    with pytest.raises(ValueError, match="unknown log_format 'xml'"):
        replay(trace, log_format="xml")
    with pytest.raises(ValueError, match="unknown allocator 'xml'"):
        replay(trace, allocator="xml")
    assert replay(trace, log_format="text").request_lines[0].startswith("req=1 op=I0 ")


def test_python_dash_m_runs_the_cli():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    argv = [sys.executable, "-m", "ovsfalloc", "verify", "--height", "2", "--depth", "2"]
    done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "PASS" in done.stdout


def test_cli_rejects_negative_heights(tmp_path, capsys):
    trace = _write(tmp_path, "neg.trace", "# comment\nn=-1\nI 0\n")
    assert main(["run", trace]) == 2
    assert capsys.readouterr().err == "error: line 2: height must be >= 0, got -1\n"
    snap = _write(tmp_path, "neg.snap", "n=-2\n")
    assert main(["render", snap]) == 2
    assert capsys.readouterr().err == "error: line 1: height must be >= 0, got -2\n"


def test_cli_render_refuses_a_tall_tree(tmp_path, capsys):
    # one character per leaf: 2**64 of them cannot be drawn
    snap = _write(tmp_path, "tall.snap", "n=64\n")
    trace = _write(tmp_path, "tall.trace", "n=64\nI 3\n")
    for argv in (["render", snap], ["render", trace]):
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: height 64 is above 20: too many leaves to draw\n"
    with pytest.raises(model.RequestError):
        render(Situation(64))


def test_cli_render_refuses_a_tall_trace_before_replaying_it(tmp_path, capsys, monkeypatch):
    trace = serialize_trace(gen_random_trace(30, 400, seed=5, insert_ratio=0.7))
    path = _write(tmp_path, "tall.trace", trace)

    def no_replay(*args, **kwargs):
        raise AssertionError("the trace was replayed")

    monkeypatch.setattr(cli, "replay", no_replay)
    assert main(["render", path, "--step", "3"]) == 2
    assert capsys.readouterr().err == "error: height 30 is above 20: too many leaves to draw\n"


def test_cli_run_tall_tree(tmp_path, capsys):
    path = _write(tmp_path, "tall.trace", "n=25\nI 25\nD 25\nI 0\nI 24\n")
    assert main(["run", path]) == 0
    out = capsys.readouterr().out
    assert "stat.m=4" in out and "stat.p4_failures=0" in out


def test_cli_failed_p4_audit_names_its_detail(tmp_path, capsys, monkeypatch):
    # a closed-form Φ one above the literal recount fails the first audit
    real = coins.potential
    monkeypatch.setattr(coins, "potential", lambda s: real(s) + 1)
    path = _write(tmp_path, "t.trace", "n=3\nI 0\nI 1\n")
    assert main(["run", path, "--log"]) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        "error: request 1: P4 audit failed: P4 potential 0 by scan != balance 1\n"
    )
    assert captured.out == ""


# sha256 of the stdout of ``verify --height <h> --depth 6 --format jsonl``
# [``--mutate <step>``]: the states, edges, coverage and first failures of
# each walk; a mutated walk must also exit 1
PINNED_VERIFY = {
    "0": "5f4a7f6fc57e1a89729b85e2bcbbd12da675783cd8d07b2def10f5e89075f7dd",
    "1": "bca0fb89de155c61532192b4da133c719f25b6b71c410d1b0e0850f4edea5aef",
    "2": "225b927643be949affbc6fe1528b9b0ead4b4a95087016b1c252f3a951bf37d2",
    "3": "06f22a12e991f83da16b344e616427f38c52fee6530cd28761d949892d16d54e",
    "4": "1cc7f7cdd5c5eab35920cbce348baa1946162ce5325639fa47874de55d33bd2d",
    "5": "4c4f0fa389e985482ea818915a8dbf837dccc27b41688d25f183d39876b783a5",
    "4-skip-delete-swap": "92216c488968cecec2a7b920d3fb6b80ab369bb70f3b77d5e4a8930b3bd1bdee",
    "4-skip-insert-rename": "42f0746cc6f1ab4f00189094248a6933f752a795f307465ed8d874d7c5492706",
}


@pytest.mark.parametrize("name", sorted(PINNED_VERIFY))
def test_verify_output_pinned(capsys, name):
    height, _, mutate = name.partition("-")
    argv = ["verify", "--height", height, "--depth", "6", "--format", "jsonl"]
    if mutate:
        argv += ["--mutate", mutate]
    assert main(argv) == (1 if mutate else 0)
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == PINNED_VERIFY[name]


def test_cli_verify_pass_and_mutation_fail(capsys):
    assert main(["verify", "--height", "2", "--depth", "4"]) == 0
    assert main(["verify", "--height", "4", "--depth", "6",
                 "--mutate", "skip-delete-swap"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out


def test_cli_render_draws_the_state_a_trace_reaches(tmp_path, capsys):
    path = _write(tmp_path, "t.trace", "n=3\nI 2\nI 0\n")
    assert main(["render", path]) == 0
    assert capsys.readouterr().out == "[BBBB][W]...\n"


def test_cli_render_refuses_an_old_snapshot_file(tmp_path, capsys):
    path = _write(tmp_path, "s.snap", "n=3\n4@0\n1@4\n")
    assert main(["render", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: line 2: unrecognized request '4@0'\n"


def test_cli_render_trace_step(tmp_path, capsys):
    path = _write(tmp_path, "t.trace", "n=2\nI 0\nI 0\nD 0\n")
    assert main(["render", path, "--step", "2"]) == 0
    assert capsys.readouterr().out.strip() == "[B][B].."
    assert main(["render", path]) == 0
    assert capsys.readouterr().out.strip() == "[B]..."


@pytest.mark.parametrize("command", ["run", "render"])
def test_cli_non_utf8_input_is_a_usage_error(tmp_path, capsys, command):
    path = tmp_path / "bad.trace"
    path.write_bytes(b"n=3\nI 0\n\xff\n")
    assert main([command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: {path}: 'utf-8' codec can't decode byte 0xff in position 8: invalid start byte\n"
    )


@pytest.mark.parametrize("command", ["run", "render"])
def test_cli_refuses_a_trace_above_the_height_bound(tmp_path, capsys, command):
    # the parent asked for a list of 10**9 + 1 counts here and ran out of memory
    path = _write(tmp_path, "huge.trace", "n=1000000000\nI 0\n")
    assert main([command, path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: line 1: height must be <= 1024, got 1000000000\n"


def test_cli_gen_cascade_rejects_by_id(tmp_path, capsys):
    out = tmp_path / "c.trace"
    argv = ["gen", "cascade", "--height", "4", "--requests", "5", "--out", str(out), "--by-id"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err == "error: --by-id needs gen random: a cascade trace deletes by level\n"
    argv[1] = "random"
    assert main(argv) == 0 and out.exists()  # gen random takes it


def test_cli_gen_roundtrip(tmp_path, capsys):
    out_path = str(tmp_path / "g.trace")
    assert main(["gen", "random", "--height", "4", "--requests", "25",
                 "--seed", "7", "--out", out_path]) == 0
    trace = parse_trace(open(out_path, encoding="utf-8").read())
    assert len(trace) == 25
    assert main(["gen", "cascade", "--height", "4", "--requests", "5"]) == 0
    assert capsys.readouterr().out.startswith("n=4\n")


@pytest.mark.parametrize("flag, value", [("--seed", "3"), ("--insert-ratio", "0.3")])
def test_cli_gen_cascade_rejects_random_only_flags(tmp_path, capsys, flag, value):
    out = tmp_path / "c.trace"
    argv = ["gen", "cascade", "--height", "4", "--requests", "5", "--out", str(out), flag, value]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err == f"error: {flag} needs gen random: a cascade trace is fixed\n"
    argv[1] = "random"
    assert main(argv) == 0 and out.exists()  # gen random takes it


def test_cli_gen_random_defaults_match_explicit_flags(capsys):
    argv = ["gen", "random", "--height", "5", "--requests", "40"]
    assert main(argv) == 0
    implicit = capsys.readouterr().out
    assert main(argv + ["--seed", "0", "--insert-ratio", "0.6"]) == 0
    assert capsys.readouterr().out == implicit
    assert implicit == serialize_trace(gen_random_trace(5, 40, 0, 0.6))
