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

import math
from collections import OrderedDict
from typing import Dict

from repro.common.addr import CACHE_LINE_BYTES, PAGE_BYTES
from repro.common.config import SystemConfig
from repro.common.errors import FaultError
from repro.common.stats import StatsRegistry
from repro.sim.hmc_base import DEMAND, WRITEBACK, HmcBase, RequestKind
from repro.vm.os_model import OsModel


class PomHmc(HmcBase):
    """The PoM memory controller."""

    scheme_name = "pom"

    def __init__(self, config: SystemConfig, os_model: OsModel, stats: StatsRegistry):
        super().__init__(config, os_model, stats)
        pom = config.pom
        self.pom = pom
        self.lines_per_segment = pom.segment_bytes // CACHE_LINE_BYTES
        self.pages_per_segment = max(1, pom.segment_bytes // PAGE_BYTES)
        dram_bytes = config.memory.dram.capacity_bytes
        nvm_bytes = config.memory.nvm.capacity_bytes
        self.fast_segments = dram_bytes // pom.segment_bytes
        self.slow_segments = nvm_bytes // pom.segment_bytes
        self.total_segments = self.fast_segments + self.slow_segments

        #: member segment -> slot it currently occupies (identity if absent).
        self._slot_of: Dict[int, int] = {}
        #: slot -> member whose data occupies it (identity if absent).
        self._member_in: Dict[int, int] = {}
        #: per-slow-member saturating miss counters.
        self._counters: Dict[int, int] = {}
        self._last_decay = 0
        #: Adaptive threshold state (original PoM adapts K; Section IV-B
        #: pins it to 12, so adaptation is opt-in via PomConfig).
        self.swap_threshold = pom.swap_threshold
        #: post-swap hit counts of segments currently resident fast.
        self._post_swap_hits: Dict[int, int] = {}
        self._epoch_useful = 0
        self._epoch_wasted = 0
        #: segments participating in an in-flight swap -> completion time.
        self._active: Dict[int, int] = {}
        #: SRC: LRU cache over swap groups.
        self._src: "OrderedDict[int, None]" = OrderedDict()
        self._src_capacity = max(4, pom.src_entries // pom.src_ways)
        self.swaps = 0

        remap_bytes = self.total_segments * 4
        self.reserve_metadata(max(1, math.ceil(remap_bytes / PAGE_BYTES)))

        # Hot-path invariant for the flattened request path (the config
        # dataclasses are frozen, so this cannot drift).
        self._src_latency = pom.src_latency_cycles

    # -- geometry -------------------------------------------------------------
    def group_of(self, segment: int) -> int:
        """The swap group (== fast slot id) a segment belongs to."""
        if segment < self.fast_segments:
            return segment
        return (segment - self.fast_segments) % self.fast_segments

    def _slot(self, segment: int) -> int:
        return self._slot_of.get(segment, segment)

    def _occupant(self, slot: int) -> int:
        return self._member_in.get(slot, slot)

    def _segment_is_protected(self, segment: int) -> bool:
        first_page = (segment * self.pom.segment_bytes) // PAGE_BYTES
        return any(
            self.os_model.is_protected_frame(first_page + index)
            for index in range(self.pages_per_segment)
        )

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

        The per-request pipeline — SRC probe, purge, slot lookup, device
        access, serviced-request accounting — is inlined over the
        structures' own state, the same flattening the PageSeer
        controller's request path uses (the goldens pin the result); the
        miss/decay/swap paths escape to the owning methods.
        """
        stats = self.stats
        counters = stats._counters
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
            counters["pom/src_hits"] += 1.0
        else:
            counters["pom/src_misses"] += 1.0
            fill_done = self.metadata_access(t, group)
            if fill_done > t:
                counters["hmc/remap_wait_cycles"] += fill_done - t
                counters["hmc/remap_misses"] += 1.0
            t = fill_done
            self._src_fill(group)

        active = self._active
        if active:
            self._purge(t)
            in_flight_end = active.get(segment)
        else:
            in_flight_end = None
        slot = self._slot_of.get(segment, segment)
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
            counters["pom/waits_for_swap"] += 1.0

        self._total_serviced += 1
        if dram:
            self._dram_serviced += 1
            counters["hmc/serviced_dram"] += 1.0
        else:
            counters["hmc/serviced_nvm"] += 1.0
        if kind is DEMAND:
            counters["hmc/requests_demand"] += 1.0
        elif bulk:
            counters["hmc/requests_writeback"] += 1.0
        else:
            counters["hmc/requests_pte"] += 1.0
        if not bulk:
            # AMMAT covers processor-visible requests only.
            ammat = finish - now
            stats._sums["hmc/ammat"] += ammat
            stats._counts["hmc/ammat"] += 1
            previous = stats._maxima.get("hmc/ammat")
            if previous is None or ammat > previous:
                stats._maxima["hmc/ammat"] = ammat
        if line_spa >= self._nvm_line_base:
            if dram:
                counters["hmc/positive_accesses"] += 1.0
            else:
                counters["hmc/neutral_accesses"] += 1.0
        elif not dram:
            counters["hmc/negative_accesses"] += 1.0
        else:
            counters["hmc/neutral_accesses"] += 1.0

        if not dram:
            self._count_slow_miss(t, segment)
        elif segment in self._post_swap_hits:
            self._post_swap_hits[segment] += 1
        return finish

    # -- counters and swaps ------------------------------------------------------
    def _count_slow_miss(self, now: int, segment: int) -> None:
        self._decay(now)
        count = self._counters.get(segment, 0) + 1
        self._counters[segment] = count
        if count >= self.swap_threshold:
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
        if self.pom.adaptive_threshold:
            self._adapt_threshold()

    def _adapt_threshold(self) -> None:
        """Move the swap threshold based on how the epoch's swaps paid off.

        If most recent swaps earned fewer post-swap hits than the benefit
        bar, swaps are too cheap to trigger: raise the threshold.  If most
        earned it comfortably, lower the threshold to swap earlier.
        """
        if self._epoch_useful + self._epoch_wasted < 4:
            return
        if self._epoch_wasted > self._epoch_useful:
            self.swap_threshold = min(self.pom.threshold_max, self.swap_threshold + 2)
        elif self._epoch_useful > 2 * self._epoch_wasted:
            self.swap_threshold = max(self.pom.threshold_min, self.swap_threshold - 2)
        self._epoch_useful = 0
        self._epoch_wasted = 0
        self.stats.add("pom/threshold_adaptations")

    def _try_swap(self, now: int, segment: int) -> None:
        group = self.group_of(segment)
        fast_slot = group
        if self._segment_is_protected(fast_slot):
            self.stats.add("pom/declined_protected")
            return
        if fast_slot in self._active.values() or segment in self._active:
            self.stats.add("pom/declined_in_flight")
            return
        occupant = self._occupant(fast_slot)
        if occupant == segment:
            return
        member_slot = self._slot(segment)

        # Fast swap: 2 segment reads + 2 segment writes.  A fault mid-swap
        # aborts cleanly — no remap state was touched yet, so PoM simply
        # keeps serving the segment from its old slot.
        try:
            read_fast = self.memory.transfer_segment(
                now, fast_slot * self.lines_per_segment, self.lines_per_segment, False
            )
            read_slow = self.memory.transfer_segment(
                now, member_slot * self.lines_per_segment, self.lines_per_segment, False
            )
            ready = max(read_fast, read_slow)
            write_fast = self.memory.transfer_segment(
                ready, fast_slot * self.lines_per_segment, self.lines_per_segment, True
            )
            write_slow = self.memory.transfer_segment(
                ready, member_slot * self.lines_per_segment, self.lines_per_segment, True
            )
        except FaultError:
            self.stats.add("pom/aborted_swaps")
            return
        end = max(write_fast, write_slow)

        self._slot_of[segment] = fast_slot
        self._member_in[fast_slot] = segment
        self._slot_of[occupant] = member_slot
        self._member_in[member_slot] = occupant
        # Drop identity mappings to keep the remap dictionaries minimal.
        for member in (segment, occupant):
            if self._slot_of.get(member) == member:
                del self._slot_of[member]
        for slot in (fast_slot, member_slot):
            if self._member_in.get(slot) == slot:
                del self._member_in[slot]

        self._active[segment] = end
        self._active[occupant] = end
        if self.pom.adaptive_threshold:
            self._close_benefit(occupant)
            self._post_swap_hits[segment] = 0
        self.swaps += 1
        self.stats.add("pom/swaps")
        self.stats.observe("pom/swap_duration", end - now)

    def _close_benefit(self, displaced_segment: int) -> None:
        hits = self._post_swap_hits.pop(displaced_segment, None)
        if hits is None:
            return
        if hits >= self.pom.adaptive_benefit_hits:
            self._epoch_useful += 1
        else:
            self._epoch_wasted += 1

    def _purge(self, now: int) -> None:
        finished = [seg for seg, end in self._active.items() if end <= now]
        for seg in finished:
            del self._active[seg]

    # -- SRC ------------------------------------------------------------------------
    def _src_fill(self, group: int) -> None:
        if group not in self._src and len(self._src) >= self._src_capacity:
            self._src.popitem(last=False)
        self._src[group] = None
        self._src.move_to_end(group)
