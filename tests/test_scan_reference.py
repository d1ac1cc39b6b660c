"""The run scan against the per-leaf reference of ``reference.py``.

``layout.scan_runs`` accepts a clean run list in one pass over its runs
and hands any other list to ``layout._walk_pebbles``, which reads the
pebbles one by one; ``reference.scan`` reads the same pebbles one by one
from a leaf array.  Every scan below must give the same ``PebbleScan``:
the same violations in the same order, with the same witnesses, and the
same free runs.  The walk must run on no state the allocator reaches,
and on a raw run list exactly when the list is not one a ``Situation``
can hold clean.  ``SCAN_MUTANTS`` edits the accept pass one line at a
time, and each edit must fail one of these checks.
"""

from __future__ import annotations

import random

import pytest

import reference
from ovsfalloc import layout
from ovsfalloc.model import Pebble
from test_model import _trace_states
from test_reference import _walk_states


def _raw_runs(rng, leaves):
    """A run list no mutator builds: most runs follow the one before at
    an aligned start, some after a gap, the rest land anywhere, so lists
    overlap, are misaligned or run past the tree's end; a run may hold no
    pebble.  The list is put in start order, the only order a
    ``Situation`` keeps."""
    runs = []
    end = 0
    for _ in range(rng.randrange(8)):
        level = rng.randrange(4)
        size = 1 << level
        if rng.random() < 0.6:
            start = -(-end // size) * size + size * rng.choice((0, 0, 0, 1, 2))
        else:
            start = rng.randrange(leaves + 4)
        count = rng.randint(0, 5)
        runs.append((start, level, count))
        end = max(end, start + (count << level))
    return sorted(runs, key=lambda run: run[0])


def _edited_runs(rng, runs, leaves):
    """The runs of a clean state with one edit: a run shifted by its size
    or by a leaf, a level or a count one off (a count may reach 0), a run
    dropped, a run added after one or anywhere, or a unit pebble after the
    last run (past the tree's end in a full tree).  Most such lists break
    one property in one place, the case the accept pass must not miss."""
    runs = list(runs)
    if not runs:
        return [(rng.randrange(leaves), rng.randrange(3), rng.randint(0, 2))]
    i = rng.randrange(len(runs))
    start, level, count = runs[i]
    size = 1 << level
    edit = rng.randrange(8)
    if edit == 0:
        start = max(0, start + rng.choice((-size, size, -1, 1)))
    elif edit == 1:
        level = max(0, level + rng.choice((-1, 1)))
    elif edit == 2:
        count += rng.choice((-1, 1))
    elif edit == 3:
        runs.append((start + (count << level), rng.randrange(level + 2), rng.randint(0, 2)))
    elif edit == 4:
        del runs[i]
        return runs
    elif edit == 5:
        runs.append((rng.randrange(leaves + 2), rng.randrange(3), 1))
    elif edit == 7:
        first, lv, n = runs[-1]
        runs.append((first + (n << lv), 0, 1))
    runs[i] = (start, level, count)  # edit 6 changes nothing
    return sorted(runs, key=lambda run: run[0])


def _witness(i, k):
    return 100 * (i + 1) + k


def _pebbles(runs):
    return [
        Pebble(_witness(i, k), level, start + (k << level))
        for i, (start, level, count) in enumerate(runs)
        for k in range(count)
    ]


def _raw_lists(lists: int, seed: int = 20075):
    rng = random.Random(seed)
    for _ in range(lists):
        for leaves in (16, 32):
            yield _raw_runs(rng, leaves), leaves


def _edited_lists(states, seed: int = 20077):
    rng = random.Random(seed)
    for s in states:
        yield _edited_runs(rng, s._segs, s.leaves), s.leaves


def _expect(lists):
    """``(runs, leaves, reference scan, whether the walk must run)`` per
    list: the walk runs on a breach, and on a clean list with an empty run
    or a pebble past the tree's end, which no ``Situation`` holds."""
    for runs, leaves in lists:
        pebs = _pebbles(runs)
        expected = reference.scan(pebs, leaves)
        walks = bool(expected.violations) or any(count < 1 for _, _, count in runs) or any(
            p.end > leaves for p in pebs
        )
        yield runs, leaves, expected, walks


def _compare(scan_runs, cases) -> tuple[set, int, int]:
    """Assert ``scan_runs`` equals the reference on every case; return the
    violation kinds seen, the clean lists with a run of two pebbles or
    more, and the lists with an own breach and a P2/P3 breach at one start."""
    kinds = set()
    clean = mixed = 0
    for runs, leaves, expected, _ in cases:
        assert scan_runs(runs, leaves, _witness) == expected, (runs, leaves)
        kinds.update(v.kind for v in expected.violations)
        clean += not expected.violations and any(count > 1 for _, _, count in runs)
        at = {}  # an own breach and a P2/P3 breach at one start
        for v in expected.violations:
            at.setdefault(v.place.start, set()).add(v.kind in ("P2", "P3"))
        mixed += any(len(sides) == 2 for sides in at.values())
    return kinds, clean, mixed


def test_scan_matches_reference_on_raw_run_lists():
    kinds, clean, mixed = _compare(layout.scan_runs, _expect(_raw_lists(20_000)))
    assert kinds == {"alignment", "overlap", "P1", "P2", "P3"}
    assert clean > 1000  # clean lists with a run of two pebbles or more, most accepted in one pass
    assert mixed > 1000


def _closure_states():
    for n, depth in ((3, 9), (4, 17), (5, 33)):
        yield from _walk_states(n, depth)


def test_scan_matches_reference_on_edited_closure_states():
    cases = list(_expect(_edited_lists(_closure_states())))
    kinds, clean, _ = _compare(layout.scan_runs, cases)
    assert kinds == {"alignment", "overlap", "P1", "P2", "P3"}
    assert sum(walks for *_, walks in cases) > 1000 and clean > 1000


def _no_witness(i, k):
    raise AssertionError(f"witness({i}, {k}) called on a clean state")


@pytest.mark.parametrize("by_id", [False, True])
def test_scan_matches_reference_on_trace_states(by_id):
    # every trace state is valid, so its scan never names a pebble
    states = 0
    for s in _trace_states(by_id):
        expected = reference.scan(s.pebbles(), s.leaves)
        assert expected.violations == ()
        assert layout.scan_runs(s._segs, s.leaves, _no_witness) == expected
        states += 1
    assert states == 9 * 301


def _walked(runs, leaves, witness):
    raise AssertionError("the per-pebble walk ran")


def _walks_only_where_needed(scan_runs, states, cases) -> int:
    """With its per-pebble walk made to raise (``_walked``), assert that
    ``scan_runs`` accepts every state of ``states``, and walks exactly
    the ``cases`` that need it; return the walks."""
    for s in states:
        assert scan_runs(s._segs, s.leaves, _no_witness).violations == ()
    walks = 0
    for runs, leaves, _, needs_walk in cases:
        try:
            scan_runs(runs, leaves, _witness)
        except AssertionError as walked:
            assert needs_walk, (runs, leaves, walked)
            walks += 1
        else:
            assert not needs_walk, (runs, leaves)
    return walks


def test_no_clean_list_reaches_the_per_pebble_walk(monkeypatch):
    def clean_states():
        yield from _trace_states(False)
        yield from _trace_states(True)
        yield from _closure_states()

    monkeypatch.setattr(layout, "_walk_pebbles", _walked)
    cases = _expect([*_raw_lists(5_000), *_edited_lists(_closure_states())])
    assert _walks_only_where_needed(layout.scan_runs, clean_states(), cases) > 5_000
    for s in clean_states():  # and through ``validate``, past its kept scan
        s._scan = None
        assert s.validate() == []


# One edit of the accept pass in ``layout.scan_runs`` each, ``(line of
# layout.py, replacement)`` as ``oracle.MUTANTS`` edits ``allocator.py``.
# A mutant that lets a breach through must fail the comparison with the
# reference; one in ``FALLS_BACK`` keeps the reference's answers and only
# walks other lists than it should, and must fail the walk check instead.
SCAN_MUTANTS = {
    "overlap": ("if start < prev_end:", "if False:"),
    "count": (
        "if count < 1 or start & ((1 << level) - 1) or uncovered >> level:",
        "if start & ((1 << level) - 1) or uncovered >> level:",
    ),
    "alignment": (
        "if count < 1 or start & ((1 << level) - 1) or uncovered >> level:",
        "if count < 1 or uncovered >> level:",
    ),
    "P1": (
        "if count < 1 or start & ((1 << level) - 1) or uncovered >> level:",
        "if count < 1 or start & ((1 << level) - 1) or uncovered >> level + 1:",
    ),
    "P1-strict": (
        "if count < 1 or start & ((1 << level) - 1) or uncovered >> level:",
        "if count < 1 or start & ((1 << level) - 1) or (uncovered + 1) >> level:",
    ),
    "colour": ("if level >= floor:", "if level + 1 >= floor:"),
    "colour-strict": ("if level >= floor:", "if level > floor:"),
    "P2": ("elif count > 1 or floor > top:  # P2 inside the run, or P2/P3 after a white pebble",
           "elif floor > top:"),
    "P3": ("if level >= floor:", "if level >= top:"),
    "after-white": ("floor = top + 1", "floor = top"),
    "tree-end": ("if prev_end > leaves:", "if False:"),
    "tree-end-strict": ("if prev_end > leaves:", "if prev_end >= leaves:"),
    "tree-end-loose": ("if prev_end > leaves:", "if prev_end > leaves + 1:"),
    "low": ("elif level < low:", "elif level > low:"),
    "gap-low": ("gaps.append((prev_end, start, low))", "gaps.append((prev_end, start, level))"),
}
FALLS_BACK = {"P1-strict", "colour-strict", "tree-end-strict", "tree-end-loose"}


def _mutant_layout(name):
    """The namespace of ``layout.py`` with the line of ``scan_runs`` that
    ``SCAN_MUTANTS[name]`` names replaced; its scans build the real
    module's values."""
    line, replacement = SCAN_MUTANTS[name]
    with open(layout.__file__, encoding="utf-8") as fh:
        lines = fh.read().splitlines(keepends=True)
    first = lines.index("def scan_runs(runs, leaves: int, witness) -> PebbleScan:\n")
    last = lines.index("def _walk_pebbles(runs, leaves: int, witness) -> PebbleScan:\n")
    hits = [i for i in range(first, last) if lines[i].strip() == line]
    assert len(hits) == 1, f"{len(hits)} lines of scan_runs read {line!r}, not 1"
    lines[hits[0]] = lines[hits[0]].replace(line, replacement)
    # ``@dataclass`` looks the module up in ``sys.modules`` by this name
    namespace = {"__name__": layout.__name__, "__package__": layout.__package__}
    exec(compile("".join(lines), layout.__file__, "exec"), namespace)
    namespace.update(Place=layout.Place, Violation=layout.Violation, PebbleScan=layout.PebbleScan)
    return namespace


_SAMPLE: list = []


def _sample() -> list:
    """The fixed cases each mutant runs on, made once per session: raw
    lists, and one edit of each state of the n=4 and n=5 closures."""
    if not _SAMPLE:
        states = [*_walk_states(4, 17), *_walk_states(5, 33)]
        _SAMPLE.extend(_expect([*_raw_lists(1_000), *_edited_lists(states)]))
    return _SAMPLE


@pytest.mark.parametrize("name", sorted(SCAN_MUTANTS))
def test_each_accept_pass_mutant_fails_a_check(name):
    namespace = _mutant_layout(name)
    scan_runs = namespace["scan_runs"]
    if name in FALLS_BACK:
        _compare(scan_runs, _sample())
        namespace["_walk_pebbles"] = _walked
        with pytest.raises(AssertionError):
            _walks_only_where_needed(scan_runs, _walk_states(4, 17), _sample())
    else:
        with pytest.raises(AssertionError):
            _compare(scan_runs, _sample())
