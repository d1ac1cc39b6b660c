"""Fuzz gate: whatever the input, the command line ends in exit 0, 1 or 2
with a typed message, never in a traceback.

Generated traces are mutated byte by byte (deletes, inserts, long digit
runs, ``\\xff``, ``-``, ``DID`` and blank lines spliced in) and run
through ``run`` and ``render``; edge-case arguments go through ``gen`` and
``verify``.  Exit 2 prints one ``error:`` line or argparse's usage, and
exit 1 from ``run`` or ``render`` names the failed request.  The examples
are derandomized, so every run tries the same inputs; ``-m slow`` runs a
longer gate.
"""

from __future__ import annotations

import io
import re
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from ovsfalloc.cli import main
from ovsfalloc.workloads import gen_cascade_trace, gen_random_trace, serialize_trace

BASES = [
    serialize_trace(gen_random_trace(4, 6, seed=1, insert_ratio=0.6)).encode(),
    serialize_trace(gen_random_trace(3, 6, seed=2, insert_ratio=0.5, by_id=True)).encode(),
    serialize_trace(gen_cascade_trace(4, 6)).encode(),
]


@st.composite
def mutated_traces(draw) -> bytes:
    data = bytearray(draw(st.sampled_from(BASES)))
    for _ in range(draw(st.integers(1, 4))):
        pos = draw(st.integers(0, len(data)))
        op = draw(st.sampled_from(["delete", "byte", "digits", "splice"]))
        if op == "delete":
            del data[pos : pos + draw(st.integers(1, 4))]
        elif op == "byte":
            data[pos:pos] = bytes([draw(st.integers(0, 255))])
        elif op == "digits":  # a long number, half the time one that was there grown
            ends = [m.end() for m in re.finditer(rb"[0-9]+", data)]
            if ends and draw(st.booleans()):
                pos = draw(st.sampled_from(ends))
            size = draw(st.integers(1, 40))
            data[pos:pos] = draw(st.text("0123456789", min_size=size, max_size=size)).encode()
        else:
            data[pos:pos] = draw(st.sampled_from([b"\xff", b"-", b"DID ", b"\n\n", b"\n"]))
    return bytes(data)


def _flags(draw_from) -> st.SearchStrategy[list[str]]:
    """Any subset of ``draw_from``'s argument groups, in a drawn order."""
    return st.lists(st.sampled_from(draw_from), max_size=4).map(lambda groups: [a for g in groups for a in g])


RUN_FLAGS = [
    ("--allocator", "paper"),
    ("--allocator", "baseline"),
    ("--format", "jsonl"),
    ("--log",),
    ("--no-validate",),
    ("--no-audit",),
    ("--count-relabel",),
    ("--audit-every", "2"),
    ("--audit-every", "0"),
    ("--budget", "0"),
    ("--budget", "-1"),
]
RENDER_FLAGS = [("--step", step) for step in ("0", "3", "-1", "99", "x", "9" * 30)]

VALUES = ["-1", "0", "2", "3", "1025", "9" * 30, "x", ""]
VERIFY_FLAGS = [
    *[("--height", v) for v in VALUES],
    *[("--depth", v) for v in ("-1", "0", "3", "x")],
    ("--budget", "-1"),
    ("--budget", "0"),
    ("--mutate", "skip-delete-swap"),
    ("--mutate", "bogus"),
    ("--format", "jsonl"),
]
GEN_FLAGS = [
    *[("--height", v) for v in VALUES],
    *[("--requests", v) for v in ("-1", "0", "5", "x")],
    *[("--seed", v) for v in ("0", "-7", "9" * 30, "x")],
    *[("--insert-ratio", v) for v in ("0.5", "0", "1", "nan", "inf", "-1", "x")],
    ("--by-id",),
    ("--out", "{tmp}/gen.trace"),
    ("--out", "{tmp}"),  # a directory
    ("--out", "{tmp}/missing/gen.trace"),
]
# each command starts from a small instance that its flags may override
# (argparse keeps the last value), so no example walks or writes much
STARTS = {
    "run": ["run", "{trace}"],
    "render": ["render", "{trace}"],
    "verify": ["verify", "--height", "2", "--depth", "3"],
    "gen random": ["gen", "random", "--height", "3", "--requests", "5"],
    "gen cascade": ["gen", "cascade", "--height", "3", "--requests", "5"],
    "gen other": ["gen", "other", "--height", "3", "--requests", "5"],
}


def _outcome(argv: list[str]) -> tuple[int, str]:
    """``main``'s exit code and what it wrote to stderr; any exception but
    ``SystemExit`` propagates and fails the test."""
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


def _check(argv: list[str]) -> None:
    code, err = _outcome(argv)
    assert code in (0, 1, 2), (argv, code, err)
    if code == 2:
        assert err.startswith("usage: ") or re.fullmatch(r"error: [^\n]*\n", err), (argv, err)
    elif code == 1 and argv[0] in ("run", "render"):
        assert re.fullmatch(r"error: request \d+: [^\n]*\n", err), (argv, err)


def _gate(examples: int):
    @settings(max_examples=examples, deadline=None, derandomize=True, database=None)
    @given(
        data=mutated_traces(),
        command=st.one_of(
            st.tuples(st.just("run"), _flags(RUN_FLAGS)),
            st.tuples(st.just("render"), _flags(RENDER_FLAGS)),
            st.tuples(st.just("verify"), _flags(VERIFY_FLAGS)),
            st.tuples(st.sampled_from(["gen random", "gen cascade", "gen other"]), _flags(GEN_FLAGS)),
        ),
    )
    def gate(tmp_path_factory, data, command):
        name, flags = command
        tmp = tmp_path_factory.getbasetemp()
        trace = tmp / "fuzz.trace"
        trace.write_bytes(data)
        _check([arg.format(tmp=tmp, trace=trace) for arg in STARTS[name] + flags])

    return gate


test_cli_never_ends_in_a_traceback = _gate(600)
test_cli_never_ends_in_a_traceback_long = pytest.mark.slow(_gate(6_000))
