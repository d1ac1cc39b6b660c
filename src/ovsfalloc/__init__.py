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
from .coins import CoinLedger, required_coins
from .model import (
    AllocationError,
    BandwidthError,
    InvariantError,
    Pebble,
    Place,
    RequestError,
    Situation,
    SnapshotError,
    Violation,
    parse_snapshot,
)
from .oracle import canput_oracle, exhaustive_verify, structural_failures
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
    "SnapshotError",
    "Trace",
    "TraceError",
    "Violation",
    "apply",
    "baseline_delete",
    "baseline_delete_by_id",
    "baseline_insert",
    "canput_oracle",
    "delete_by_id",
    "delete_last",
    "exhaustive_verify",
    "gen_cascade_trace",
    "gen_random_trace",
    "insert",
    "parse_snapshot",
    "parse_trace",
    "render",
    "replay",
    "required_coins",
    "serialize_trace",
    "structural_failures",
]

__version__ = "0.1.0"
