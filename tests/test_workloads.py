import pytest

from ovsfalloc.model import MAX_TREE_HEIGHT
from ovsfalloc.replay import replay
from ovsfalloc.workloads import (
    Trace,
    TraceError,
    gen_cascade_trace,
    gen_random_trace,
    parse_trace,
    serialize_trace,
)


def test_roundtrip_identity():
    trace = gen_random_trace(4, 30, seed=2, insert_ratio=0.5)
    text = serialize_trace(trace)
    assert serialize_trace(parse_trace(text)) == text


def test_parse_tokens_and_comments():
    trace = parse_trace("n=3\n# fill\nI 2\nI 0\nD 0\nDID 1\n")
    kinds = [(r.kind, r.level, r.id) for r in trace.requests]
    assert kinds == [
        ("insert", 2, None),
        ("insert", 0, None),
        ("delete_level", 0, None),
        ("delete_id", None, 1),
    ]


def test_parse_errors_cite_line_numbers():
    with pytest.raises(TraceError, match="line 1"):
        parse_trace("I 2\n")
    with pytest.raises(TraceError, match="line 3"):
        parse_trace("n=2\nI 0\nX 1\n")
    with pytest.raises(TraceError, match="line 2"):
        parse_trace("n=2\nI x\n")


def test_header_refuses_a_height_above_the_bound():
    # refused at the header, before any per-level list is sized by it
    assert parse_trace(f"n={MAX_TREE_HEIGHT}\nI 0\n").n == MAX_TREE_HEIGHT
    with pytest.raises(TraceError) as info:
        parse_trace(f"n={MAX_TREE_HEIGHT + 1}\nI 0\n")
    assert str(info.value) == f"line 1: height must be <= {MAX_TREE_HEIGHT}, got {MAX_TREE_HEIGHT + 1}"
    assert info.value.line == 1


def test_admissibility_errors_cite_request_index():
    with pytest.raises(TraceError, match="request 5"):
        parse_trace("n=2\nI 0\nI 0\nD 0\nD 0\nD 0\n")
    # the file line is cited alongside the request index
    with pytest.raises(TraceError, match="line 6: request 5"):
        parse_trace("n=2\nI 0\nI 0\nD 0\nD 0\nD 0\n")
    with pytest.raises(TraceError, match="request 2"):
        parse_trace("n=2\nI 2\nI 1\n")
    with pytest.raises(TraceError, match="request 1"):
        parse_trace("n=2\nDID 1\n")
    with pytest.raises(TraceError, match="request 3"):
        parse_trace("n=2\nI 0\nDID 1\nDID 1\n")


def test_equal_insert_and_delete_lines_share_one_request():
    trace = parse_trace("n=3\nI 0\nI 1\nI 0\nD 0\nI 1\nD 0\nDID 2\nDID 2\n")
    r = trace.requests
    assert r[0] is r[2] and r[1] is r[4] and r[3] is r[5]
    assert r[0] is not r[1] and r[0] != r[3]
    assert r[6] == r[7] and r[6] is not r[7]  # each DID line is its own request


def test_a_repeated_line_that_fails_names_its_own_line_and_index():
    # each failing line repeats one that passed
    with pytest.raises(TraceError, match="^line 6: request 4: insert of size 2 exceeds free bandwidth 0$"):
        parse_trace("n=2\nI 0\n# c\nI 0\nI 1\nI 1\n")
    with pytest.raises(TraceError, match="^line 5: request 3: deletion of empty level 0"):
        parse_trace("n=2\nI 0\nD 0\n\nD 0\n")


def test_empty_trace():
    trace = gen_random_trace(3, 0, seed=1, insert_ratio=0.5)
    assert len(trace) == 0
    res = replay(trace)
    assert res.stats.m == 0 and res.stats.total_moves == 0


def test_generator_deterministic():
    a = serialize_trace(gen_random_trace(6, 500, seed=42, insert_ratio=0.7))
    b = serialize_trace(gen_random_trace(6, 500, seed=42, insert_ratio=0.7))
    assert a == b
    c = serialize_trace(gen_random_trace(6, 500, seed=43, insert_ratio=0.7))
    assert a != c


def test_generator_rejects_bad_ratio():
    with pytest.raises(ValueError):
        gen_random_trace(3, 10, seed=0, insert_ratio=1.0)


def test_generated_traces_are_admissible_and_replayable():
    trace = gen_random_trace(10, 10_000, seed=1, insert_ratio=0.6)
    res = replay(trace, validate_each=True, audit=True, audit_every=500)
    assert res.stats.m == 10_000
    assert res.stats.p4_failures == 0


def test_by_id_generator_only_emits_did_deletes():
    trace = gen_random_trace(4, 60, seed=9, insert_ratio=0.5, by_id=True)
    assert all(r.kind in ("insert", "delete_id") for r in trace.requests)
    replay(trace)  # liveness fully resolved at parse/generation time
    parse_trace(serialize_trace(trace))


def test_cascade_trace_shape():
    trace = gen_cascade_trace(4, 9)
    tokens = serialize_trace(trace).splitlines()[1:]
    assert tokens == ["I 0", "I 0", "I 1", "I 2", "I 0", "D 0", "I 0", "D 0", "I 0"]
    with pytest.raises(ValueError):
        gen_cascade_trace(1, 5)


def test_cascade_admissible_for_both_allocators():
    trace = gen_cascade_trace(6, 101)
    replay(trace, allocator="paper")
    replay(trace, allocator="baseline", audit=False)


def test_inadmissible_trace_error_carries_line_and_index():
    with pytest.raises(TraceError) as info:
        parse_trace("n=2\nI 0\n# c\nI 0\nI 1\nI 1\n")
    assert (info.value.line, info.value.index) == (6, 4)
    with pytest.raises(TraceError) as info:
        parse_trace("n=2\nX 1\n")
    assert (info.value.line, info.value.index) == (2, None)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: gen_cascade_trace(5, -1), "request count m must be >= 0, got -1"),
        (lambda: gen_cascade_trace(5, -3), "request count m must be >= 0, got -3"),
        (lambda: gen_cascade_trace(-1, 5), "cascade trace needs height >= 2, got -1"),
        (lambda: gen_random_trace(3, -5, 1, 0.5), "request count m must be >= 0, got -5"),
        (lambda: gen_random_trace(-1, 5, 1, 0.5), "height must be >= 0, got -1"),
    ],
)
def test_generators_reject_negative_sizes(make, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        make()
