"""Online aligned-bandwidth (OVSF / buddy) allocator with constant
amortized reallocations, a potential-function certificate of that bound,
a sorted baseline and a verification harness."""

from .allocator import (
    MoveLog,
    Request,
    apply,
    delete_by_id,
    delete_last,
    insert,
)
from .baseline import baseline_delete, baseline_delete_by_id, baseline_insert
from .coins import CoinLedger
from .model import (
    AllocationError,
    BandwidthError,
    InvariantError,
    Pebble,
    Place,
    RequestError,
    Situation,
    Violation,
)
from .oracle import exhaustive_verify, structural_failures
from .render import render
from .replay import ReplayError, RunStats, replay
from .workloads import (
    Trace,
    TraceError,
    gen_cascade_trace,
    gen_random_trace,
    parse_trace,
    serialize_trace,
)

__all__ = [
    "AllocationError",
    "BandwidthError",
    "CoinLedger",
    "InvariantError",
    "MoveLog",
    "Pebble",
    "Place",
    "ReplayError",
    "Request",
    "RequestError",
    "RunStats",
    "Situation",
    "Trace",
    "TraceError",
    "Violation",
    "apply",
    "baseline_delete",
    "baseline_delete_by_id",
    "baseline_insert",
    "delete_by_id",
    "delete_last",
    "exhaustive_verify",
    "gen_cascade_trace",
    "gen_random_trace",
    "insert",
    "parse_trace",
    "render",
    "replay",
    "serialize_trace",
    "structural_failures",
]

__version__ = "0.1.0"
