"""Trace files and workload generators.

Trace format: header ``n=<height>``, at most ``MAX_TREE_HEIGHT``, then
one request per line, ``#`` comments allowed, LF endings::

    I <level>    insert at level
    D <level>    delete the last pebble of level
    DID <id>     delete a specific pebble (ids are insert ordinals, 1-based)

Loading checks that every prefix is admissible: inserts fit into the
remaining bandwidth and deletions target a populated level.  For pure
DID traces liveness is fully resolved at load time; in traces mixing D
and DID the deleted identity of a D line depends on the allocator, so DID
liveness is then left to replay.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .allocator import DELETE_ID, DELETE_LEVEL, INSERT, Request
from .model import check_height


class TraceError(Exception):
    def __init__(self, message: str, line: int | None = None, index: int | None = None):
        if index is not None:
            message = f"request {index}: {message}"
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
        self.index = index


@dataclass(slots=True)
class Trace:
    n: int
    requests: list[Request]

    def __len__(self) -> int:
        return len(self.requests)


def _token(request: Request) -> str:
    if request.kind == INSERT:
        return f"I {request.level}"
    if request.kind == DELETE_LEVEL:
        return f"D {request.level}"
    return f"DID {request.id}"


def serialize_trace(trace: Trace) -> str:
    lines = [f"n={trace.n}"]
    lines.extend(_token(r) for r in trace.requests)
    return "\n".join(lines) + "\n"


def check_admissible(trace: Trace, lines: list[int]) -> None:
    """Raise :class:`TraceError` on the first inadmissible prefix of a parsed
    trace, citing the request's index and its file line, ``lines[index - 1]``."""
    free = 1 << trace.n
    counts = [0] * (trace.n + 1)
    id_level: list[int] = []  # the level of each issued id, id k at k - 1
    dead: set[int] = set()
    mixed = any(r.kind == DELETE_LEVEL for r in trace.requests)
    for index, (request, line) in enumerate(zip(trace.requests, lines), start=1):
        if request.kind == INSERT:
            level = request.level
            if not 0 <= level <= trace.n:
                raise TraceError(f"bad insert level {level}", line, index)
            if (1 << level) > free:
                raise TraceError(f"insert of size {1 << level} exceeds free bandwidth {free}", line, index)
            free -= 1 << level
            counts[level] += 1
            id_level.append(level)
            continue
        if request.kind == DELETE_LEVEL:
            level = request.level
            if not 0 <= level <= trace.n:
                raise TraceError(f"bad delete level {level}", line, index)
        else:
            pid = request.id
            if not 1 <= pid <= len(id_level):
                raise TraceError(f"deletion of unissued id {pid}", line, index)
            if not mixed and pid in dead:
                raise TraceError(f"deletion of already deleted id {pid}", line, index)
            dead.add(pid)
            level = id_level[pid - 1]
        if counts[level] == 0:
            raise TraceError(f"deletion of empty level {level}", line, index)
        counts[level] -= 1
        free += 1 << level


def parse_trace(text: str) -> Trace:
    n = None
    requests: list[Request] = []
    request_lines: list[int] = []
    shared: dict[str, Request] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if n is None:
            if not line.startswith("n="):
                raise TraceError("expected 'n=<height>' header", line=lineno)
            try:
                n = int(line[2:])
            except ValueError:
                raise TraceError(f"bad height {line[2:]!r}", line=lineno) from None
            try:
                check_height(n)
            except ValueError as exc:
                raise TraceError(str(exc), line=lineno) from None
            continue
        request = shared.get(line)  # requests are values: one per distinct I/D line
        if request is None:
            parts = line.split()
            try:
                if parts[0] == "I" and len(parts) == 2:
                    request = shared[line] = Request(INSERT, level=int(parts[1]))
                elif parts[0] == "D" and len(parts) == 2:
                    request = shared[line] = Request(DELETE_LEVEL, level=int(parts[1]))
                elif parts[0] == "DID" and len(parts) == 2:
                    request = Request(DELETE_ID, id=int(parts[1]))
                else:
                    raise TraceError(f"unrecognized request {line!r}", line=lineno)
            except ValueError:
                raise TraceError(f"bad number in {line!r}", line=lineno) from None
        requests.append(request)
        request_lines.append(lineno)
    if n is None:
        raise TraceError("empty trace: missing 'n=<height>' header", line=1)
    trace = Trace(n, requests)
    check_admissible(trace, request_lines)
    return trace


def gen_random_trace(
    n: int,
    m: int,
    seed: int,
    insert_ratio: float,
    by_id: bool = False,
) -> Trace:
    """Deterministic random trace; every prefix admissible by construction.

    Insert levels are drawn uniformly and clamped down when the bandwidth
    is short; when nothing fits the request flips to a delete (and the
    other way around), so any mix is always realizable.
    """
    check_height(n)
    if m < 0:
        raise ValueError(f"request count m must be >= 0, got {m}")
    if not 0.0 < insert_ratio < 1.0:
        raise ValueError(f"insert_ratio must be in (0, 1), got {insert_ratio}")
    rng = random.Random(seed)
    free = 1 << n
    counts = [0] * (n + 1)
    live: list[tuple[int, int]] = []  # (id, level), only for by_id traces
    issued = 0
    requests: list[Request] = []
    for _ in range(m):
        want_insert = rng.random() < insert_ratio
        if want_insert and free == 0:
            want_insert = False
        if not want_insert and not any(counts):
            want_insert = True
        if want_insert:
            level = rng.randint(0, n)
            while (1 << level) > free:
                level -= 1
            free -= 1 << level
            counts[level] += 1
            issued += 1
            if by_id:
                live.append((issued, level))
            requests.append(Request(INSERT, level=level))
        elif by_id:
            pid, level = live.pop(rng.randrange(len(live)))
            counts[level] -= 1
            free += 1 << level
            requests.append(Request(DELETE_ID, id=pid))
        else:
            levels = [lv for lv, c in enumerate(counts) if c]
            level = levels[rng.randrange(len(levels))]
            counts[level] -= 1
            free += 1 << level
            requests.append(Request(DELETE_LEVEL, level=level))
    return Trace(n, requests)


def gen_cascade_trace(n: int, m: int) -> Trace:
    """Fill-then-churn pattern that forces the sorted baseline to cascade.

    Setup packs one run per level into the lower half of the tree; the
    loop then alternates a level-0 insert (which displaces one pebble per
    level) with its deletion (which pulls every run back).  The main
    allocator serves the same trace without any reassignment.
    """
    if n < 2:
        raise ValueError(f"cascade trace needs height >= 2, got {n}")
    check_height(n)
    if m < 0:
        raise ValueError(f"request count m must be >= 0, got {m}")
    setup = [Request(INSERT, level=0), Request(INSERT, level=0)]
    setup.extend(Request(INSERT, level=lv) for lv in range(1, n - 1))
    requests: list[Request] = setup[:m]
    while len(requests) < m:
        requests.append(Request(INSERT, level=0))
        if len(requests) < m:
            requests.append(Request(DELETE_LEVEL, level=0))
    return Trace(n, requests)
