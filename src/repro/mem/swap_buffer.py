"""Swap buffers inside the memory modules (Section III-C1, III-D3).

While a swap is in flight, the pages participating in it live (wholly or
partially) in swap buffers.  Requests that target those pages are serviced
from the buffers instead of stalling behind the swap — the paper notes the
buffers "temporarily act as prefetch buffers" for the hot pages being moved.

We model a buffer entry as "the data of segment *key* is available in a
buffer during the time window [available_from, release_at)".  A request for
that segment inside the window is serviced at a fixed SRAM-like latency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.common.stats import StatsRegistry


@dataclass
class _BufferEntry:
    key: int
    available_from: int
    release_at: int


class SwapBufferPool:
    """A fixed number of page-sized buffers keyed by data identity."""

    def __init__(
        self,
        capacity: int,
        stats: StatsRegistry,
        service_latency_cycles: int = 30,
    ):
        if capacity <= 0:
            raise ValueError("swap buffer pool needs positive capacity")
        self.capacity = capacity
        self.stats = stats
        self.service_latency_cycles = service_latency_cycles
        self._entries: Dict[int, _BufferEntry] = {}

    def _expire(self, now: int) -> None:
        expired = [key for key, e in self._entries.items() if e.release_at <= now]
        for key in expired:
            del self._entries[key]

    def try_hold(self, key: int, available_from: int, release_at: int) -> bool:
        """Hold segment *key* in a buffer for the given window.

        Returns False if no buffer is free (the swap then proceeds without
        buffer servicing for this segment, which only costs performance).
        """
        self._expire(available_from)
        if key in self._entries:
            entry = self._entries[key]
            entry.available_from = min(entry.available_from, available_from)
            entry.release_at = max(entry.release_at, release_at)
            return True
        if len(self._entries) >= self.capacity:
            self.stats.add("swap_buffers/allocation_failures")
            return False
        self._entries[key] = _BufferEntry(key, available_from, release_at)
        self.stats.add("swap_buffers/allocations")
        return True

    def service(self, now: int, key: int) -> Optional[int]:
        """Return the finish time of servicing *key* from a buffer, or None.

        None means the data is not in any buffer at time *now*.
        """
        entry = self._entries.get(key)
        if entry is None or not (entry.available_from <= now < entry.release_at):
            return None
        self.stats._counters["swap_buffers/serviced"] += 1.0
        return now + self.service_latency_cycles

    def release(self, key: int) -> None:
        """Explicitly free the buffer holding *key* (no-op if absent)."""
        self._entries.pop(key, None)

    def in_flight(self, now: int, key: int) -> bool:
        """True if *key* currently resides in a buffer."""
        entry = self._entries.get(key)
        return entry is not None and entry.available_from <= now < entry.release_at

    def held_windows(self) -> Dict[int, tuple]:
        """``{key: (available_from, release_at)}`` for every held buffer.

        Checker introspection: expired entries are included until the next
        allocation expires them, so callers filter by their own ``now``.
        """
        return {
            key: (entry.available_from, entry.release_at)
            for key, entry in self._entries.items()
        }

    @property
    def occupancy(self) -> int:
        return len(self._entries)
