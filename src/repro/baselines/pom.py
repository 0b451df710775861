"""PoM: Part-of-Memory management of the fast tier (Section II-B, IV-B).

PoM swaps 2 KB segments.  The physical space is divided into *swap
groups*: fast segment ``g`` plus the slow segments congruent to ``g``
modulo the number of fast segments (direct-mapped, the restriction the
paper calls out as PoM's weakness).  A slow segment that accumulates
``K`` LLC misses (K = 12 with our memory timing, per Section IV-B) is
*fast-swapped* with the current occupant of its group's fast slot; data
wanders within the group's slow locations, so a remap entry per member is
needed.  The SRC (a 32 KB remap cache) fronts the in-DRAM remap table;
SRC misses stall requests — the waiting time Figure 13 compares.

PoM only reacts *after* misses accumulate, and it has no swap buffers, so
requests that land mid-swap wait for the swap to complete.  Both effects
are what PageSeer's early, buffered swaps remove.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict

from repro.baselines.remap import SegmentHmc, SlotMap
from repro.common.addr import LINES_PER_PAGE
from repro.common.config import SystemConfig
from repro.common.errors import FaultError
from repro.common.stats import StatsRegistry
from repro.sim.hmc_base import DEMAND, WRITEBACK, RequestKind
from repro.vm.os_model import OsModel


class PomHmc(SegmentHmc):
    """The PoM memory controller."""

    scheme_name = "pom"

    def __init__(self, config: SystemConfig, os_model: OsModel, stats: StatsRegistry):
        pom = config.pom
        super().__init__(config, os_model, stats, pom.segment_bytes)
        self.pom = pom
        #: member segment <-> slot it currently occupies.
        self._slots = SlotMap()
        #: per-slow-member saturating miss counters.
        self._counters: Dict[int, int] = {}
        self._last_decay = 0
        #: SRC: LRU cache over swap groups.
        self._src: "OrderedDict[int, None]" = OrderedDict()
        self._src_capacity = max(4, pom.src_entries // pom.src_ways)
        self.swaps = 0

        # Hot-path invariant for the flattened request path (the config
        # dataclasses are frozen, so this cannot drift).
        self._src_latency = pom.src_latency_cycles

    # -- geometry -------------------------------------------------------------
    def group_of(self, segment: int) -> int:
        """The swap group (== fast slot id) a segment belongs to."""
        if segment < self.fast_segments:
            return segment
        return (segment - self.fast_segments) % self.fast_segments

    # -- the request path -------------------------------------------------------
    # repro-hot
    def handle_request(
        self,
        now: int,
        line_spa: int,
        is_write: bool,
        pid: int,
        kind: RequestKind = DEMAND,
    ) -> int:
        """Service one LLC-miss line request; returns the finish time.

        SRC probe (a miss fetches the group's remap entry through
        :meth:`remap_miss`), purge, slot lookup, device access, then
        :meth:`account_service`; a slow access counts toward a swap.
        """
        lines_per_segment = self.lines_per_segment
        fast_segments = self.fast_segments
        segment = line_spa // lines_per_segment
        group = (
            segment
            if segment < fast_segments
            else (segment - fast_segments) % fast_segments
        )

        t = now + self._src_latency
        src = self._src
        if group in src:
            src.move_to_end(group)
            self.stats._counters["pom/src_hits"] += 1.0
        else:
            self.stats._counters["pom/src_misses"] += 1.0
            t = self.remap_miss(t, group)
            if len(src) >= self._src_capacity:
                src.popitem(last=False)
            src[group] = None

        active = self._active
        if active:
            self._purge(t)
            in_flight_end = active.get(segment)
        else:
            in_flight_end = None
        slot = self._slots.slot(segment)
        actual_line = slot * lines_per_segment + line_spa % lines_per_segment
        bulk = kind is WRITEBACK
        dram = slot < fast_segments
        if dram:
            finish = self.dram_access(t, actual_line, is_write, bulk)
        else:
            finish = self.nvm_access(
                t, actual_line - self._nvm_line_base, is_write, bulk
            )
        if in_flight_end is not None and in_flight_end > finish:
            # No swap buffers in PoM: wait for the in-flight swap.
            finish = in_flight_end
            self.stats._counters["pom/waits_for_swap"] += 1.0
        self.account_service(
            now, finish, line_spa // LINES_PER_PAGE, "dram" if dram else "nvm", kind
        )
        if not dram:
            self._count_slow_miss(t, segment)
        return finish

    # -- counters and swaps ------------------------------------------------------
    def _count_slow_miss(self, now: int, segment: int) -> None:
        self._decay(now)
        count = self._counters.get(segment, 0) + 1
        self._counters[segment] = count
        if count >= self.pom.swap_threshold:
            self._counters[segment] = 0
            self._try_swap(now, segment)

    def _decay(self, now: int) -> None:
        interval = self.pom.counter_decay_interval_cycles
        if interval <= 0 or now - self._last_decay < interval:
            return
        while now - self._last_decay >= interval:
            self._last_decay += interval
        dead = []
        for segment in self._counters:
            self._counters[segment] //= 2
            if self._counters[segment] == 0:
                dead.append(segment)
        for segment in dead:
            del self._counters[segment]

    def _try_swap(self, now: int, segment: int) -> None:
        fast_slot = self.group_of(segment)
        if self._segment_is_protected(fast_slot):
            self.stats.add("pom/declined_protected")
            return
        if fast_slot in self._active.values() or segment in self._active:
            self.stats.add("pom/declined_in_flight")
            return
        slots = self._slots
        if slots.occupant(fast_slot) == segment:
            return
        # Fast swap with the group's fast slot.  A fault mid-swap aborts
        # cleanly: no remap state was touched yet, so PoM simply keeps
        # serving the segment from its old slot.
        try:
            end = self._swap_segments(now, fast_slot, slots.slot(segment))
        except FaultError:
            self.stats.add("pom/aborted_swaps")
            return
        occupant = slots.exchange(segment, fast_slot)
        self._active[segment] = end
        self._active[occupant] = end
        self.swaps += 1
        self.stats.add("pom/swaps")
        self.stats.observe("pom/swap_duration", end - now)
