"""Potential-function certificate of the amortized bound.

The paper's coins live on free places of the canonical decomposition
(greedy maximal aligned places, left to right, within each maximal free
run).  Its invariant P4 asks that a free place of size ``p`` with some
pebble to its right, the smallest of size ``x``, carry at least
``floor(2p / x)`` coins, and every compaction iteration of a delete spends
one coin.

The least balance that satisfies P4 is the potential

    Φ(s) = Σ floor(2p / x)   over the canonical free places of ``s``,

which depends on the pebbles alone, so no coin is stored.  After each
request the certificate recomputes Φ and charges the request
``max(0, iterations + Φ(after) − Φ(before))`` fresh coins, discarding any
surplus (Tarjan's potential method).  Since Φ(empty) = 0 and Φ ≥ 0, a
charge of at most ``K`` on every request bounds the total iterations of
``m`` requests by ``K·m``.

Φ is computed twice, by different means.  ``potential``, behind every
charge, reads the segment list in one right-to-left pass and counts each
free run in closed form, O(segments).  ``CoinLedger.audit`` recounts Φ by
the definition above, ``iter_places`` and ``required_coins`` on every free
run of the situation's scan (the walk over the segments that ``validate``
makes, shared when both run on one state), so every audit also
cross-checks the closed form.

A charge above the per-request budget is returned as a finding in the
request's :class:`SettleInfo`, not silently absorbed.  The certificate is
an auditor only: the allocator never consults it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .allocator import MoveLog
from .model import InvariantError, Place, Situation, Violation

DEFAULT_BUDGET = 4  # fresh coins per request above which a finding is reported


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


def run_potential(start: int, end: int, x_level: int, cap_level: int) -> int:
    """Φ of the free run ``[start, end)`` whose smallest right pebble has
    level ``x_level``: every place of the run sees the same pebble."""
    x = 1 << x_level
    return sum(required_coins(p.size, x) for p in iter_places(start, end, cap_level))


def closed_run_potential(start: int, end: int, x_level: int) -> int:
    """:func:`run_potential` of a run inside the tree, in O(1)."""
    if x_level == 0:
        return 2 * (end - start)
    k = x_level - 1  # h = 2**k
    core = (end >> k) - ((start + (1 << k) - 1) >> k)
    return core if core > 0 else 0


def potential(s: Situation) -> int:
    """Φ(s) in one right-to-left pass over the segments, O(1) per run.

    Every place of a run sees the same smallest right pebble, of size
    ``x``.  A place of size ``p >= x/2`` needs ``2p/x`` coins, a smaller
    one none, and the places of size at least ``h = x/2`` tile exactly the
    ``h``-aligned core of the run, so its Φ is that core's length over
    ``h``; for ``x = 1`` every place counts, ``2·(end − start)`` in all.
    """
    total = 0
    x_level = None  # least level of the segments right of this one
    right = s.leaves  # start of the segment right of this one
    for start, level, count in reversed(s.segments()):
        end = start + (count << level)
        if end < right and x_level is not None:
            total += closed_run_potential(end, right, x_level)
        if x_level is None or level < x_level:
            x_level = level
        right = start
    if right > 0 and x_level is not None:
        total += closed_run_potential(0, right, x_level)
    return total


@dataclass(slots=True)
class SettleInfo:
    """Per-request accounting summary."""

    injected: int = 0
    consumed: int = 0
    discarded: int = 0
    findings: list[str] = field(default_factory=list)


class CoinLedger:
    """The balance Φ of one situation and the charge of each request.

    ``settle`` recomputes Φ from the situation after every request, so the
    only state is the balance last seen and the running totals; no coin
    sits on any place.  ``audit`` recounts Φ literally, on the free runs
    of the scan that ``validate`` shares, never by the closed form.
    """

    def __init__(self, situation: Situation, budget: int = DEFAULT_BUDGET):
        self.budget = budget
        self._balance = potential(situation)
        self.seeded_total = self._balance
        self.injected_total = 0
        self.consumed_total = 0
        self.discarded_total = 0

    def copy(self) -> "CoinLedger":
        other = CoinLedger.__new__(CoinLedger)
        other.budget = self.budget
        other._balance = self._balance
        other.seeded_total = self.seeded_total
        other.injected_total = self.injected_total
        other.consumed_total = self.consumed_total
        other.discarded_total = self.discarded_total
        return other

    def load_coins(self, coins: dict[Place, int]) -> None:
        """Set the balance to the sum of ``coins`` (harness use); totals are
        re-based."""
        self._balance = sum(coins.values())
        self.seeded_total = self._balance
        self.injected_total = self.consumed_total = self.discarded_total = 0

    def settle(self, s_after: Situation, log: MoveLog) -> SettleInfo:
        """Charge one request ``max(0, iterations + Φ(after) − Φ(before))``
        fresh coins; a negative difference is discarded."""
        after = potential(s_after)
        net = log.iterations + after - self._balance
        info = SettleInfo(
            injected=max(0, net), consumed=log.iterations, discarded=max(0, -net)
        )
        if info.injected > self.budget:
            info.findings.append(f"injected {info.injected} coins exceeds budget {self.budget}")
        self._balance = after
        self.injected_total += info.injected
        self.consumed_total += info.consumed
        self.discarded_total += info.discarded
        return info

    # ------------------------------------------------------------------
    # auditing

    def balance(self) -> int:
        return self._balance

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
        """Recount Φ by its definition (``iter_places`` and
        ``required_coins`` on every free run of ``s.pebble_scan()``, the
        walk over the segments that ``validate`` shares) and compare it
        with the balance that ``settle`` set from the closed form."""
        scanned = 0
        for start, end, x_level in s.pebble_scan().runs:
            if x_level is not None:
                scanned += run_potential(start, end, x_level, s.n)
        if scanned == self._balance:
            return []
        detail = f"potential {scanned} by scan != balance {self._balance}"
        return [Violation("P4", detail=detail)]
