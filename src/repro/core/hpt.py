"""The Hot Page Tables — Section III-C3.

Two small fully-associative tables, one for pages currently resident in
DRAM and one for pages currently resident in NVM.  Each entry is a PPN and
a saturating miss counter.  Counters are halved at a fixed interval; an
entry whose counter reaches zero is removed.

* The DRAM HPT *locks* hot pages: a page present in it must not be chosen
  as a swap victim.
* The NVM HPT triggers a *regular swap* when a page's counter reaches the
  swap threshold (6 in Table II — deliberately lower than the PCTc's 14,
  as the HPT is the safety net for pages the PCTc missed).
"""

from __future__ import annotations

import math
from collections import OrderedDict
from typing import Callable, Dict, List, Optional

from repro.common.errors import ConfigError


class HotPageTable:
    """One HPT (instantiate twice: DRAM-side and NVM-side)."""

    def __init__(
        self,
        entries: int,
        counter_max: int,
        decay_interval_cycles: int,
        swap_threshold: Optional[int] = None,
    ):
        if entries < 1:
            raise ConfigError("HPT needs at least one entry")
        self.capacity = entries
        self.counter_max = counter_max
        self.decay_interval_cycles = decay_interval_cycles
        self.swap_threshold = swap_threshold
        self._counters: "OrderedDict[int, int]" = OrderedDict()
        #: The count-1 pages in table order (derived state, keys only):
        #: the eviction victim is the first of them whenever one exists.
        #: Every mutation of ``_counters`` keeps it equal to
        #: ``[page for page, count in _counters.items() if count == 1]``,
        #: including the inline touch in ``PageSeerHmc.handle_request``.
        self._ones: Dict[int, None] = {}
        self._last_decay = 0
        #: When the next halving falls due: ``_last_decay`` plus the
        #: interval, or infinity without decay.  :meth:`advance_time`
        #: keeps it, so a caller tests ``now >= next_decay`` in one read.
        self.next_decay = (
            decay_interval_cycles if decay_interval_cycles > 0 else math.inf
        )
        self.reads = 0
        self.writes = 0
        #: Optional check-event sink (``repro.check``): called as
        #: ``on_event("evict", page)`` / ``on_event("remove", page)`` when
        #: an entry leaves the table — the sanitizer needs these to tell
        #: a legitimate re-insertion from a corrupted counter.
        self.on_event: Optional[Callable[[str, int], None]] = None

    @property
    def epoch(self) -> int:
        """How many decay intervals have been applied so far.

        Counters are monotonically non-decreasing *within* one epoch
        (miss increments only; removal deletes the entry outright), which
        is exactly what the sanitizer's monotonicity checker verifies.
        """
        if self.decay_interval_cycles <= 0:
            return 0
        return self._last_decay // self.decay_interval_cycles

    def counters(self) -> Dict[int, int]:
        """A copy of the page -> counter map (checker introspection)."""
        return dict(self._counters)

    def advance_time(self, now: int) -> None:
        """Apply any counter halvings that became due by *now*."""
        if self.decay_interval_cycles <= 0:
            return
        while now - self._last_decay >= self.decay_interval_cycles:
            self._last_decay += self.decay_interval_cycles
            self.next_decay = self._last_decay + self.decay_interval_cycles
            self._halve_all()

    def _halve_all(self) -> None:
        dead = []
        for page in self._counters:
            self._counters[page] //= 2
            if self._counters[page] == 0:
                dead.append(page)
        for page in dead:
            del self._counters[page]
        self._ones = {page: None for page, count in self._counters.items() if count == 1}

    def record_miss(self, now: int, page: int) -> bool:
        """Count one LLC miss on *page*.

        Returns True when the counter just reached the swap threshold
        (only meaningful for the NVM-side table).
        """
        self.advance_time(now)
        self.reads += 1
        self.writes += 1
        count = self._counters.get(page)
        if count is None:
            if len(self._counters) >= self.capacity:
                self._evict_coldest()
            self._counters[page] = 1
            self._ones[page] = None
            count = 1
        else:
            if count == 1:
                # Leaves count 1, or (counter_max == 1) stays there and
                # moves to the end of the table order with the page.
                del self._ones[page]
            count = min(self.counter_max, count + 1)
            self._counters[page] = count
            self._counters.move_to_end(page)
            if count == 1:
                self._ones[page] = None
        return self.swap_threshold is not None and count == self.swap_threshold

    # repro-hot
    def _evict_coldest(self) -> None:
        """Drop the lowest-count page; ties go to the first in table order.

        Counts never drop below 1 (a new entry starts at 1, and halving
        deletes entries that reach 0), so the first count-1 page in
        table order, the first key of ``_ones``, is the first minimum.
        Pages touched once make that the common case; only a table
        with no page at 1 pays the scan.  The scan stays a Python loop:
        an OrderedDict's value iteration looks each key up again, so
        ``min(counters.values())`` alone costs nearly a full scan, and
        finding the first page at that count costs a second one
        (docs/PERFORMANCE.md, "Memory side at table speed").
        """
        counters = self._counters
        ones = self._ones
        if ones:
            coldest_page = next(iter(ones))
            del ones[coldest_page]
        else:
            coldest_page = None
            coldest_count = None
            for page, count in counters.items():
                if coldest_count is None or count < coldest_count:
                    coldest_page, coldest_count = page, count
            if coldest_page is None:
                return
        del counters[coldest_page]
        if self.on_event is not None:
            self.on_event("evict", coldest_page)

    def is_hot(self, page: int) -> bool:
        """True if the page is currently tracked (DRAM HPT lock check)."""
        return page in self._counters

    def count_of(self, page: int) -> int:
        return self._counters.get(page, 0)

    def remove(self, page: int) -> None:
        """Drop a page (e.g. after its swap has been initiated)."""
        if self._counters.pop(page, None) is not None:
            self._ones.pop(page, None)
            if self.on_event is not None:
                self.on_event("remove", page)

    def pages(self) -> List[int]:
        return list(self._counters)

    @property
    def occupancy(self) -> int:
        return len(self._counters)
