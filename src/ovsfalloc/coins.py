"""Coin ledger: the executable amortized-cost accounting.

Coins live on free places of the canonical decomposition (greedy maximal
aligned places, left to right, within each maximal free run).  The audited
invariant is P4: a free place of size ``p`` with some pebble to its right,
the smallest of size ``x``, must carry at least ``floor(2p / x)`` coins.

Settlement after each request works mechanically:

* coins whose places were covered or reshaped by the request are released
  into a per-request recycling pool,
* every place in the affected region is re-funded to its required count,
  drawing from the pool first and from fresh injected coins after,
* each compaction iteration of a delete consumes one coin (pool first),
* leftover pool coins are parked on the rightmost free place, never
  dropped while any free place exists.

Fresh injections per request are expected to stay below a small constant
budget; exceeding it is recorded as a finding, not silently absorbed.
The ledger is an auditor only: the allocator never consults it.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field

from .allocator import INSERT, MoveLog
from .model import InvariantError, Place, Situation, Violation


def required_coins(p: int, x: int) -> int:
    """P4 requirement for a free place of size ``p`` and smallest right
    pebble of size ``x``: ``floor(2p / x)``."""
    if p <= 0 or p & (p - 1) or x <= 0 or x & (x - 1):
        raise ValueError(f"sizes must be powers of two, got p={p} x={x}")
    return (2 * p) // x


def iter_places(start: int, end: int, cap_level: int):
    """Greedy canonical decomposition of the free run ``[start, end)``."""
    q = start
    while q < end:
        align = (q & -q) if q else (1 << cap_level)
        size = 1 << cap_level
        while size > align or q + size > end:
            size >>= 1
        yield Place(size.bit_length() - 1, q)
        q += size


@dataclass(slots=True)
class CoinConfig:
    """Per-request fresh-coin budgets (reporting thresholds)."""

    insert_budget: int = 4
    delete_budget: int = 4


@dataclass(slots=True)
class SettleInfo:
    """Per-request accounting summary."""

    injected: int = 0
    consumed: int = 0
    reused: int = 0  # pool coins put back onto places or spent on iterations
    discarded: int = 0
    findings: list[str] = field(default_factory=list)


class CoinLedger:
    """Coin counts over the canonical free places of one situation.

    The ledger mirrors the situation's free runs and is updated from move
    logs; it must see every request in order.  ``audit`` re-derives the
    free structure from the situation itself and is therefore an
    independent check of the bookkeeping.
    """

    def __init__(self, situation: Situation, config: CoinConfig | None = None):
        self.n = situation.n
        self.leaves = situation.leaves
        self.config = config or CoinConfig()
        self.coins: dict[Place, int] = {}
        self._run_start: list[int] = []
        self._run_end: dict[int, int] = {}
        self.injected_total = 0
        self.consumed_total = 0
        self.discarded_total = 0
        self.seeded_total = 0
        self.injected_last = 0
        self.consumed_last = 0
        self.max_injected = 0
        self.findings: list[str] = []
        self._build_from(situation)

    # ------------------------------------------------------------------
    # construction

    def _build_from(self, s: Situation) -> None:
        prev_end = 0
        for pebble in s.pebbles():
            if pebble.start > prev_end:
                self._add_run(prev_end, pebble.start)
            prev_end = pebble.end
        if prev_end < self.leaves:
            self._add_run(prev_end, self.leaves)
        for run_start in self._run_start:
            for place in iter_places(run_start, self._run_end[run_start], self.n):
                need = self._required(s, place)
                if need:
                    self.coins[place] = need
                    self.seeded_total += need
        self.balance_check()

    def copy(self) -> "CoinLedger":
        other = CoinLedger.__new__(CoinLedger)
        other.n = self.n
        other.leaves = self.leaves
        other.config = self.config
        other.coins = dict(self.coins)
        other._run_start = list(self._run_start)
        other._run_end = dict(self._run_end)
        other.injected_total = self.injected_total
        other.consumed_total = self.consumed_total
        other.discarded_total = self.discarded_total
        other.seeded_total = self.seeded_total
        other.injected_last = self.injected_last
        other.consumed_last = self.consumed_last
        other.max_injected = self.max_injected
        other.findings = list(self.findings)
        return other

    def load_coins(self, coins: dict[Place, int]) -> None:
        """Replace all coin counts (harness use); totals are re-based."""
        self.coins = {p: c for p, c in coins.items() if c}
        self.seeded_total = sum(self.coins.values())
        self.injected_total = self.consumed_total = self.discarded_total = 0

    # ------------------------------------------------------------------
    # free-run maintenance

    def _add_run(self, start: int, end: int) -> None:
        bisect.insort(self._run_start, start)
        self._run_end[start] = end

    def _del_run(self, start: int) -> int:
        self._run_start.pop(bisect.bisect_left(self._run_start, start))
        return self._run_end.pop(start)

    def _free_interval(self, a: int, b: int) -> None:
        i = bisect.bisect_right(self._run_start, a) - 1
        if i >= 0:
            left = self._run_start[i]
            if self._run_end[left] == a:
                self._del_run(left)
                a = left
        if b in self._run_end:
            b_end = self._del_run(b)
            b = b_end
        self._add_run(a, b)

    def _occupy_interval(self, a: int, b: int) -> None:
        i = bisect.bisect_right(self._run_start, a) - 1
        if i < 0:
            raise InvariantError(f"occupying [{a},{b}) outside any free run")
        run_start = self._run_start[i]
        run_end = self._run_end[run_start]
        if run_end < b:
            raise InvariantError(f"occupying [{a},{b}) beyond free run end {run_end}")
        self._del_run(run_start)
        if run_start < a:
            self._add_run(run_start, a)
        if b < run_end:
            self._add_run(b, run_end)

    def _region(self, lo: int, hi: int) -> tuple[int, int]:
        """Expand ``[lo, hi)`` to cover whole adjacent/containing runs."""
        i = bisect.bisect_right(self._run_start, lo) - 1
        if i >= 0:
            start = self._run_start[i]
            if self._run_end[start] >= lo:
                lo = min(lo, start)
        j = bisect.bisect_right(self._run_start, hi) - 1
        if j >= 0:
            start = self._run_start[j]
            if self._run_end[start] > hi:
                hi = self._run_end[start]
        return lo, hi

    # ------------------------------------------------------------------
    # settlement

    def _required(self, s: Situation, place: Place) -> int:
        x_level = s.smallest_level_right(place.start)
        if x_level is None:
            return 0
        return required_coins(place.size, 1 << x_level)

    def settle(self, s_after: Situation, log: MoveLog) -> SettleInfo:
        budget = (
            self.config.insert_budget
            if log.kind == INSERT
            else self.config.delete_budget
        )
        return self._settle(s_after, log, budget)

    def _settle(self, s: Situation, log: MoveLog, budget: int) -> SettleInfo:
        info = SettleInfo()
        freed = log.freed_places()
        taken = log.taken_places()
        pool = 0
        if freed or taken:
            points = [p.start for p in freed + taken]
            ends = [p.end for p in freed + taken]
            lo, hi = min(points), max(ends)
            lo, hi = self._region(lo, hi)
            for place in freed:
                self._free_interval(place.start, place.end)
            for place in taken:
                self._occupy_interval(place.start, place.end)
            lo, hi = self._region(lo, hi)
            # release every coin in the affected region into the pool
            for place in [p for p in self.coins if lo <= p.start < hi]:
                pool += self.coins.pop(place)
            # re-fund the region's places to their required counts
            i = bisect.bisect_left(self._run_start, lo)
            while i < len(self._run_start) and self._run_start[i] < hi:
                run_start = self._run_start[i]
                for place in iter_places(run_start, self._run_end[run_start], self.n):
                    need = self._required(s, place)
                    if need:
                        take = min(pool, need)
                        pool -= take
                        info.reused += take
                        info.injected += need - take
                        self.coins[place] = need
                i += 1
            # a touched pebble may tighten the requirement of one place
            # to its left (the only place of half its size that P1 allows)
            for place in taken:
                pool = self._fund_left_of(s, place, pool, info)
        # one coin per compaction iteration
        fresh_paid_from = 0
        if log.iterations:
            pay = min(pool, log.iterations)
            pool -= pay
            info.reused += pay
            info.injected += log.iterations - pay
            info.consumed = log.iterations
            if pay < log.iterations:
                fresh_paid_from = pay + 1
        # park leftovers on the rightmost free place; drop only if none
        if pool:
            if self._run_start:
                last = self._run_start[-1]
                place = None
                for place in iter_places(last, self._run_end[last], self.n):
                    pass
                self.coins[place] = self.coins.get(place, 0) + pool
                info.reused += pool
            else:
                info.discarded = pool
        if info.injected > budget:
            detail = f"injected {info.injected} coins exceeds budget {budget}"
            if fresh_paid_from:
                detail += f" (fresh coins pay iterations from #{fresh_paid_from})"
            info.findings.append(detail)
            self.findings.extend(info.findings)
        self.injected_last = info.injected
        self.consumed_last = info.consumed
        self.injected_total += info.injected
        self.consumed_total += info.consumed
        self.discarded_total += info.discarded
        if info.injected > self.max_injected:
            self.max_injected = info.injected
        return info

    def _fund_left_of(
        self, s: Situation, pebble_place: Place, pool: int, info: SettleInfo
    ) -> int:
        x = pebble_place.size
        if x == 1:
            return pool
        i = bisect.bisect_left(self._run_start, pebble_place.start) - 1
        cumulative = 0
        while i >= 0:
            run_start = self._run_start[i]
            run_end = self._run_end[run_start]
            if run_end > pebble_place.start:
                i -= 1
                continue
            for place in iter_places(run_start, run_end, self.n):
                if 2 * place.size >= x:
                    need = self._required(s, place)
                    have = self.coins.get(place, 0)
                    if need > have:
                        take = min(pool, need - have)
                        pool -= take
                        info.reused += take
                        info.injected += need - have - take
                        self.coins[place] = need
            cumulative += run_end - run_start
            if cumulative >= x:  # P1: no deficit can hide further left
                break
            i -= 1
        return pool

    # ------------------------------------------------------------------
    # auditing

    def balance(self) -> int:
        return sum(self.coins.values())

    def balance_check(self) -> None:
        """Conservation: seeds + injections - spends == current balance."""
        expected = (
            self.seeded_total
            + self.injected_total
            - self.consumed_total
            - self.discarded_total
        )
        if expected != self.balance():
            raise InvariantError(
                f"coin conservation broken: expected {expected}, have {self.balance()}"
            )

    def audit(self, s: Situation) -> list[Violation]:
        """Re-derive the free structure from ``s`` and check P4 everywhere."""
        out: list[Violation] = []
        prev_end = 0
        runs: list[tuple[int, int]] = []
        for pebble in s.pebbles():
            if pebble.start > prev_end:
                runs.append((prev_end, pebble.start))
            prev_end = pebble.end
        if prev_end < self.leaves:
            runs.append((prev_end, self.leaves))
        free_places = set()
        for run_start, run_end in runs:
            for place in iter_places(run_start, run_end, self.n):
                free_places.add(place)
                need = self._required(s, place)
                have = self.coins.get(place, 0)
                if have < need:
                    out.append(
                        Violation(
                            "P4",
                            place=place,
                            detail=f"coins {have} < required {need}",
                        )
                    )
        for place, count in self.coins.items():
            if count and place not in free_places:
                raise InvariantError(f"coins parked on non-free place {place}")
        return out

    def report_line(self, p4_ok: bool) -> str:
        status = "ok" if p4_ok else "fail"
        return (
            f"iters={self.consumed_last} injected={self.injected_last} "
            f"consumed={self.consumed_last} balance={self.balance()} p4={status}"
        )
