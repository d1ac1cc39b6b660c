"""Layer spans placed around the public functions of each ovsfalloc module.

The benchmark does not edit ``ovsfalloc``.  For a traced round it swaps
wrappers into the module namespaces and into the ``Situation`` and
``CoinLedger`` class dicts, and restores the originals afterwards.

Modules bind functions by name (``replay`` does ``from .allocator import
apply``), and the package attribute ``ovsfalloc.replay`` is the function,
not the module.  A wrapper is therefore installed at every place that
holds the original function: each ``ovsfalloc`` module in ``sys.modules``
is searched by identity.

Each span is aggregated when it closes: inclusive time, self time
(inclusive minus the time of the spans it called), and calls.  The spans
named in ``KEEP`` also keep every duration, for percentiles.  Counts taken
from the returned ``MoveLog``/``SettleInfo`` are made after the span has
closed; their cost is charged to no layer and is reported as bookkeeping,
so the traced wall time can leave it out.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

PKG = "ovsfalloc"

MUTATE = ("place_pebble", "remove_pebble", "move_pebble", "relabel_pebble")
QUERY = (
    "__len__",
    "__contains__",
    "pebble",
    "pebbles",
    "to_pairs",
    "level_count",
    "level_starts",
    "pebble_at",
    "pebble_before",
    "pebble_after",
    "rightmost_of_level",
    "smallest_level_right",
    "is_black",
    "color_of",
    "free_bandwidth_before",
    "total_free_bandwidth",
    "first_free_place",
    "closing_position",
    "block_free",
)

# (span name, module, attribute); an attribute "Class.method" is patched on the class.
# Spans no metric reads (coins.init, coins.copy, ...) keep that time out of
# their callers' self time.
SPANS = (
    [
        ("workloads.parse_trace", "workloads", "parse_trace"),
        ("replay.replay", "replay", "replay"),
        ("cli.main", "cli", "main"),
        ("allocator.apply", "allocator", "apply"),
        ("allocator.insert", "allocator", "insert"),
        ("allocator.delete_last", "allocator", "delete_last"),
        ("allocator.delete_by_id", "allocator", "delete_by_id"),
        ("baseline.insert", "baseline", "baseline_insert"),
        ("baseline.delete", "baseline", "baseline_delete"),
        ("baseline.delete_by_id", "baseline", "baseline_delete_by_id"),
        ("coins.init", "coins", "CoinLedger.__init__"),
        ("coins.copy", "coins", "CoinLedger.copy"),
        ("coins.load_coins", "coins", "CoinLedger.load_coins"),
        ("coins.settle", "coins", "CoinLedger.settle"),
        ("coins.balance_check", "coins", "CoinLedger.balance_check"),
        ("coins.audit", "coins", "CoinLedger.audit"),
        ("oracle.exhaustive_verify", "oracle", "exhaustive_verify"),
        ("oracle.structural", "oracle", "structural_failures"),
        ("oracle.rebuild", "oracle", "_rebuild"),
        ("model.init", "model", "Situation.__init__"),
        ("model.copy", "model", "Situation.copy"),
        ("model.validate", "model", "Situation.validate"),
    ]
    + [(f"model.mutate.{m}", "model", f"Situation.{m}") for m in MUTATE]
    + [(f"model.query.{m}", "model", f"Situation.{m}") for m in QUERY]
)

KEEP = ("allocator.apply", "coins.settle")

# the segment count walks every pebble, so it is taken on every SAMPLE_EVERY-th request
SAMPLE_EVERY = 256


def package_modules():
    return [m for k, m in list(sys.modules.items()) if k == PKG or k.startswith(PKG + ".")]


def module(name: str):
    """The loaded ``ovsfalloc.<name>`` module (never the same-named function)."""
    return sys.modules[f"{PKG}.{name}"]


def segments(situation, pebbles) -> int:
    """Maximal runs of equal (level, colour) in position order.

    Colours follow rule C: a pebble is black when no strictly bigger
    pebble starts before it.  ``pebbles`` is the unwrapped
    ``Situation.pebbles``.
    """
    runs = 0
    prev = None
    bigger = 0  # 1 + the largest level seen so far
    for p in pebbles(situation):
        key = (p.level, bigger <= p.level + 1)
        bigger = max(bigger, p.level + 1)
        if key != prev:
            runs += 1
            prev = key
    return runs


class Tracer:
    """Spans and counts of one traced round; install, run, uninstall."""

    def __init__(self):
        self.acc: dict[str, list[int]] = {}  # name -> [inclusive ns, self ns, calls]
        self.durations: dict[str, list[int]] = {name: [] for name in KEEP}
        self.counts: Counter = Counter()
        self.bookkeeping_ns = 0
        self._stack = [0]
        self._patches: list[tuple[object, str, object]] = []
        situation = module("model").Situation
        self._len = situation.__len__
        self._pebbles = situation.pebbles

    # ------------------------------------------------------------------
    # patching

    def install(self) -> None:
        after = {
            "allocator.apply": self._after_apply,
            "baseline.insert": self._after_baseline,
            "baseline.delete": self._after_baseline,
            "coins.settle": self._after_settle,
        }
        for name, mod_name, attr in SPANS:
            owner = module(mod_name)
            if "." in attr:
                cls_name, attr = attr.split(".")
                cls = getattr(owner, cls_name)
                wrapper = self._wrap(name, cls.__dict__[attr], after.get(name))
                self._patches.append((cls, attr, cls.__dict__[attr]))
                setattr(cls, attr, wrapper)
                continue
            orig = getattr(owner, attr)
            wrapper = self._wrap(name, orig, after.get(name))
            for mod in package_modules():
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._patches.append((mod, key, orig))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def _wrap(self, name, fn, after):
        stack = self._stack
        acc = self.acc.setdefault(name, [0, 0, 0])
        durations = self.durations.get(name)
        clock = time.perf_counter_ns

        def span(*args, **kwargs):
            stack.append(0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                dur = t1 - t0
                inner = stack.pop()
                acc[0] += dur
                acc[1] += dur - inner
                acc[2] += 1
                if durations is not None:
                    durations.append(dur)
                stack[-1] += dur
            if after is not None:
                after(args, result)
                spent = clock() - t1
                stack[-1] += spent  # neither this span's nor its caller's self time
                self.bookkeeping_ns += spent
            return result

        span.__wrapped__ = fn
        return span

    # ------------------------------------------------------------------
    # counts from what the layers return

    def _state(self, situation, request_no: int) -> None:
        c = self.counts
        c["pebbles_max"] = max(c["pebbles_max"], self._len(situation))
        if request_no % SAMPLE_EVERY == 1:
            c["segments_max"] = max(c["segments_max"], segments(situation, self._pebbles))

    def _after_apply(self, args, log) -> None:
        c = self.counts
        c["requests"] += 1
        moves = len(log.moved)
        c["moves_total"] += moves
        c["moves_max"] = max(c["moves_max"], moves)
        if log.kind == "insert":
            c["inserts"] += 1
            c["insert_moves_max"] = max(c["insert_moves_max"], moves)
        else:
            c["deletes"] += 1
        c["branch." + log.branch] += 1
        c["iterations"] += log.iterations
        c["swaps"] += log.swaps
        c["renames"] += log.renamed
        c["relabels"] += log.relabel is not None
        self._state(args[0], c["requests"])

    def _after_baseline(self, args, log) -> None:
        c = self.counts
        c["baseline_requests"] += 1
        c["baseline_moves_total"] += len(log.moved)
        c["baseline_moves_max"] = max(c["baseline_moves_max"], len(log.moved))
        self._state(args[0], c["baseline_requests"])

    def _after_settle(self, args, info) -> None:
        c = self.counts
        c["settles"] += 1
        c["injected_total"] += info.injected
        c["injected_max"] = max(c["injected_max"], info.injected)
        c["findings"] += len(info.findings)

    # ------------------------------------------------------------------
    # aggregates

    def incl_ns(self, prefix: str) -> int:
        return sum(a[0] for n, a in self.acc.items() if n.startswith(prefix))

    def self_ns(self, prefix: str) -> int:
        return sum(a[1] for n, a in self.acc.items() if n.startswith(prefix))

    def calls(self, prefix: str) -> int:
        return sum(a[2] for n, a in self.acc.items() if n.startswith(prefix))

    def mean_us(self, prefix: str) -> float:
        calls = self.calls(prefix)
        return self.incl_ns(prefix) / calls / 1e3 if calls else 0.0

    def fired(self) -> set[str]:
        return {name for name, a in self.acc.items() if a[2]}
