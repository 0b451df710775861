"""Resource-reservation timelines.

The simulator avoids per-cycle ticking.  A shared hardware resource (a DRAM
bank, a channel data bus, the PRTc port, the swap engine) is modelled as a
*timeline*: a monotonically advancing "busy until" timestamp.  A request
that wants the resource at time ``t`` for ``duration`` cycles is granted the
interval ``[start, start + duration)`` where ``start = max(t, busy_until)``,
and the timeline advances.  Queueing delay is therefore ``start - t``.

This reproduces first-order contention (bandwidth saturation, queueing under
bursts) at a tiny fraction of the cost of cycle-accurate simulation; see
DESIGN.md Section 5.
"""

from __future__ import annotations

from typing import List, Tuple

#: Unit alias checked by the RL004 lint rule (see docs/LINTING.md).
#: Marks CPU-cycle quantities (timestamps and durations at the 2 GHz core
#: clock).  Plain ``int`` at run time; the alias keeps cycle arithmetic
#: visibly separate from byte and address arithmetic.
Cycles = int


class Timeline:
    """A single serially-reusable resource."""

    __slots__ = ("busy_until", "total_busy")

    def __init__(self) -> None:
        self.busy_until = 0
        self.total_busy = 0

    def reserve(self, now: Cycles, duration: Cycles) -> Tuple[Cycles, Cycles]:
        """Reserve the resource for *duration* cycles at or after *now*.

        Returns ``(start, end)`` of the granted interval and advances the
        timeline to ``end``.
        """
        start = now if now > self.busy_until else self.busy_until
        end = start + duration
        self.busy_until = end
        self.total_busy += duration
        return start, end

    def next_free(self, now: Cycles) -> Cycles:
        """Return the earliest time at or after *now* the resource is free."""
        return now if now > self.busy_until else self.busy_until

    def utilization(self, elapsed: Cycles) -> float:
        """Return the fraction of *elapsed* cycles the resource was busy."""
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.total_busy / elapsed)


class BankedTimeline:
    """A set of identical resources indexed by an integer (e.g. banks)."""

    __slots__ = ("_timelines",)

    def __init__(self, count: int) -> None:
        if count <= 0:
            raise ValueError("BankedTimeline needs at least one bank")
        self._timelines: List[Timeline] = [Timeline() for _ in range(count)]

    def __len__(self) -> int:
        return len(self._timelines)

    def __getitem__(self, index: int) -> Timeline:
        return self._timelines[index]

    def reserve(self, index: int, now: Cycles, duration: Cycles) -> Tuple[Cycles, Cycles]:
        """Reserve bank *index*; see :meth:`Timeline.reserve`."""
        return self._timelines[index].reserve(now, duration)

    # repro-hot
    def least_loaded(self, now: Cycles) -> int:
        """Return the index of the bank that frees up earliest.

        Scans in index order but stops at the first bank already free at
        *now*: no later bank can be free any earlier, and the full scan
        returns the first index achieving the minimum — so the early exit
        picks exactly the same bank.
        """
        timelines = self._timelines
        best_time = timelines[0].next_free(now)
        if best_time <= now:
            return 0
        best_index = 0
        for index in range(1, len(timelines)):
            free_at = timelines[index].next_free(now)
            if free_at <= now:
                return index
            if free_at < best_time:
                best_time = free_at
                best_index = index
        return best_index

    def utilization(self, elapsed: Cycles) -> float:
        """Return mean utilization across all banks."""
        if not self._timelines:
            return 0.0
        return sum(t.utilization(elapsed) for t in self._timelines) / len(self._timelines)
