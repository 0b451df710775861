"""The PageSeer Hybrid Memory Controller — Section III, assembled.

This is the paper's Figure 2 in code: the PRTc on the critical path of
every request, the PCTc and Filter observing the pre-remap miss stream, the
two HPTs classifying hot pages by their *current* residence, the MMU Driver
receiving page-walk hints and intercepting PTE requests, and the Swap
Driver executing swaps through the buffers.
"""

from __future__ import annotations

import math
from typing import Dict, Optional

from repro.common.addr import LINES_PER_PAGE, PAGE_BYTES
from repro.common.config import SystemConfig
from repro.common.stats import StatsRegistry
from repro.core.hpt import HotPageTable
from repro.core.mmu_driver import MmuDriver
from repro.core.pct import (
    EMPTY_PCT_ENTRY,
    FilterEntry,
    FilterTable,
    PageCorrelationTable,
    PctCache,
    PctEntry,
)
from repro.core.prt import PageRemapTable, PrtCache
from repro.core.swap_driver import (
    SwapDriver,
    TRIGGER_MMU,
    TRIGGER_PCT,
    TRIGGER_REGULAR,
)
from repro.mem.swap_buffer import SwapBufferPool
from repro.sim.hmc_base import DEMAND, PTE, WRITEBACK, HmcBase, RequestKind
from repro.vm.os_model import OsModel

#: Table II entry sizes (bytes), used to size the in-DRAM metadata region.
_PRT_ENTRY_BYTES = 3.5
_PCT_ENTRY_BYTES = 10.5


class PageSeerHmc(HmcBase):
    """The complete PageSeer memory controller."""

    scheme_name = "pageseer"

    def __init__(self, config: SystemConfig, os_model: OsModel, stats: StatsRegistry):
        super().__init__(config, os_model, stats)
        ps = config.pageseer
        self.ps = ps

        self.prt = PageRemapTable(self.dram_pages, self.total_pages, ps.prt_ways)
        self.prtc = PrtCache(ps.prtc_entries, ps.prtc_ways, ps.prtc_latency_cycles)
        self.pct = PageCorrelationTable()
        self.pctc = PctCache(ps.pctc_entries, ps.pctc_ways, ps.pctc_latency_cycles)
        self.filter = FilterTable(
            ps.filter_entries, ps.counter_max, ps.pct_prefetch_threshold
        )
        self.dram_hpt = HotPageTable(
            ps.hpt_entries, ps.counter_max, ps.hpt_decay_interval_cycles
        )
        self.nvm_hpt = HotPageTable(
            ps.hpt_entries,
            ps.counter_max,
            ps.hpt_decay_interval_cycles,
            swap_threshold=ps.hpt_swap_threshold,
        )
        self.buffers = SwapBufferPool(ps.swap_buffers, stats)
        #: Pages frozen while a DMA transfer runs (Section III-E).
        self._frozen_pages: set = set()
        self.swap_driver = SwapDriver(
            ps,
            self.memory,
            self.prt,
            self.dram_hpt,
            self.buffers,
            stats,
            is_protected_frame=os_model.is_protected_frame,
            on_swap_in=self._on_swap_in,
            on_swap_out=self._on_swap_out,
            is_frozen=self._frozen_pages.__contains__,
            hot_lines=self._hot_lines_of,
            faults=config.faults if config.faults.enabled else None,
            injector=self.fault_injector,
            is_quarantined=os_model.is_quarantined,
        )
        if self.fault_recovery is not None:
            self.fault_recovery.on_uncorrectable = self._on_uncorrectable
        self.mmu_driver = MmuDriver(
            ps.mmu_driver_pte_lines, self._fetch_pte_line, stats
        )

        # Size and reserve the in-DRAM metadata region (PRT + PCT).
        prt_bytes = int(self.dram_pages * _PRT_ENTRY_BYTES)
        pct_bytes = int(self.total_pages * _PCT_ENTRY_BYTES)
        metadata_pages = max(1, math.ceil((prt_bytes + pct_bytes) / PAGE_BYTES))
        self.reserve_metadata(metadata_pages)
        # Metadata key spaces: a PRT set is keyed by its colour, a PCT
        # entry by this offset plus its page.
        self._prt_metadata_keys = max(1, prt_bytes // 64)

        #: Prefetch-swapped pages still resident in DRAM -> post-swap hits.
        self._prefetch_live: Dict[int, int] = {}
        #: Observed per-page line-usage bitmaps (the SILC-FM extension's
        #: input); only maintained when partial swaps are enabled.
        self._line_usage: Dict[int, int] = {}

        # Hot-path invariants hoisted out of handle_request/_observe_miss
        # (the config dataclasses are frozen, so these cannot drift).
        self._prtc_latency = ps.prtc_latency_cycles
        self._partial_swaps = ps.partial_swaps_enabled
        self._hpt_latency = ps.hpt_latency_cycles
        self._filter_latency = ps.filter_latency_cycles
        self._correlation = ps.correlation_enabled
        self._counter_max = ps.counter_max
        self._pct_threshold = ps.pct_prefetch_threshold

    # -- the regular request path (Section III-D1) ------------------------------
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

        This body is the controller's Figure 2 pipeline in one pass, with
        the hit paths of every structure on it — PRTc probe, Swap Driver
        probe, PRT location lookup, serviced-request accounting, HPT
        touch, PCTc probe — inlined over the structures' own state (the
        miss/decay/eviction paths escape to the owning classes, whose
        methods stay the single source of truth for those transitions).
        The inlined forms replicate the methods' mutations exactly, in
        the same order; the scalar/batched goldens and the equivalence
        suite pin that, and docs/PERFORMANCE.md explains why the request
        path is flattened this way.
        """
        page = line_spa // LINES_PER_PAGE
        prt = self.prt
        colour = page % prt.num_colours
        stats = self.stats
        counters = stats._counters
        bulk = kind is WRITEBACK

        # PRTc: on the critical path of every request (PrtCache.lookup,
        # inlined; the miss path fetches the set from in-DRAM metadata —
        # metadata lines live in reserved DRAM pages, so the fill goes
        # straight to the DRAM entry — and installs it as mmu_hint's
        # prefetch does: the probe just missed, so PrtCache.fill's
        # membership test is skipped).
        t = now + self._prtc_latency
        prtc = self.prtc
        prtc_resident = prtc._resident
        if colour in prtc_resident:
            prtc_resident.move_to_end(colour)
            prtc.hits += 1
        else:
            prtc.misses += 1
            metadata_lines = self._metadata_lines
            metadata_line = metadata_lines[colour % len(metadata_lines)]
            fill_done = self.dram_access(t, metadata_line, False)
            counters["hmc/metadata_accesses"] += 1.0
            if fill_done > t:
                counters["hmc/remap_wait_cycles"] += fill_done - t
                counters["hmc/remap_misses"] += 1.0
            t = fill_done
            prtc.fills += 1
            if len(prtc_resident) >= prtc.capacity_sets:
                prtc_resident.popitem(last=False)
            prtc_resident[colour] = None

        line_offset = line_spa % LINES_PER_PAGE
        if self._partial_swaps:
            self._line_usage[page] = self._line_usage.get(page, 0) | (
                1 << line_offset
            )

        # Swap Driver look-up: in-flight pages are served from the buffers.
        # With no swap in flight only the purge clock needs touching
        # (SwapDriver._purge's first statement); the full probe runs
        # whenever any in-flight state could have expired.
        swap_driver = self.swap_driver
        if swap_driver._active or swap_driver._in_flight_ends:
            buffered = swap_driver.service_if_swapping(t, page)
        else:
            if t > swap_driver.last_purge_time:
                swap_driver.last_purge_time = t
            buffered = None
        residue = swap_driver.partial_residue
        if buffered is not None:
            finish = buffered
            serviced = "buffer"
            resident_dram = True
        elif residue and (residue.get(page, 0) >> line_offset) & 1:
            # SILC-FM extension: this line was not moved by the partial
            # swap — serve it from the page's home location and migrate it
            # into the DRAM frame in the background.
            finish = self._migrate_residue_line(t, page, line_offset, is_write)
            serviced = "nvm"
            resident_dram = True  # the page (frame) is DRAM-resident
        else:
            # PRT location lookup (location_of, inlined; the maps hold an
            # involution, so a missing partner means "at home").
            if page < self.dram_pages:
                location = prt._dram_to_nvm.get(page, page)
            else:
                location = prt._nvm_to_dram.get(page, page)
            resident_dram = location < self.dram_pages
            actual_line = location * LINES_PER_PAGE + line_offset
            if resident_dram:
                finish = self.dram_access(t, actual_line, is_write, bulk)
            else:
                finish = self.nvm_access(
                    t, actual_line - self._nvm_line_base, is_write, bulk
                )
            serviced = "dram" if resident_dram else "nvm"

        # Serviced-request accounting (HmcBase.account_service, inlined
        # against the live stats dicts; reset() clears them in place, so
        # the references stay valid across the measure boundary).
        self._total_serviced += 1
        if serviced == "dram":
            self._dram_serviced += 1
            counters["hmc/serviced_dram"] += 1.0
        elif serviced == "nvm":
            counters["hmc/serviced_nvm"] += 1.0
        else:
            counters["hmc/serviced_buffer"] += 1.0
        if kind is DEMAND:
            counters["hmc/requests_demand"] += 1.0
        elif bulk:
            counters["hmc/requests_writeback"] += 1.0
        else:
            counters["hmc/requests_pte"] += 1.0
        if not bulk:
            # AMMAT covers processor-visible requests; background
            # write-backs drain asynchronously and would distort it.
            ammat = finish - now
            stats._sums["hmc/ammat"] += ammat
            stats._counts["hmc/ammat"] += 1
            previous = stats._maxima.get("hmc/ammat")
            if previous is None or ammat > previous:
                stats._maxima["hmc/ammat"] = ammat
        if page >= self.dram_pages:
            if serviced != "nvm":
                counters["hmc/positive_accesses"] += 1.0
            else:
                counters["hmc/neutral_accesses"] += 1.0
        elif serviced == "nvm":
            counters["hmc/negative_accesses"] += 1.0
        else:
            counters["hmc/neutral_accesses"] += 1.0

        if serviced != "nvm" and page in self._prefetch_live:
            self._prefetch_live[page] += 1

        # Off the critical path: HPTs, PCTc, Filter, swap triggers.
        # HPT decay first (advance_time, fast-pathed: the halving loop
        # only runs when an interval actually elapsed).
        dram_hpt = self.dram_hpt
        nvm_hpt = self.nvm_hpt
        if (
            dram_hpt.decay_interval_cycles > 0
            and t - dram_hpt._last_decay >= dram_hpt.decay_interval_cycles
        ):
            dram_hpt.advance_time(t)
        if (
            nvm_hpt.decay_interval_cycles > 0
            and t - nvm_hpt._last_decay >= nvm_hpt.decay_interval_cycles
        ):
            nvm_hpt.advance_time(t)
        # HPT miss count for the page's current residence (record_miss,
        # inlined minus the advance_time it would repeat, keeping the
        # count-1 index; the DRAM side has no swap threshold, the NVM
        # side triggers a regular swap).
        hpt = dram_hpt if resident_dram else nvm_hpt
        hpt.reads += 1
        hpt.writes += 1
        hpt_counters = hpt._counters
        count = hpt_counters.get(page)
        if count is None:
            if len(hpt_counters) >= hpt.capacity:
                hpt._evict_coldest()
            hpt_counters[page] = 1
            hpt._ones[page] = None
            count = 1
        else:
            if count == 1:
                del hpt._ones[page]
            count = count + 1
            if count > hpt.counter_max:
                count = hpt.counter_max
            hpt_counters[page] = count
            hpt_counters.move_to_end(page)
            if count == 1:
                # counter_max == 1: the page stays at 1, now last.
                hpt._ones[page] = None
        if not resident_dram and count == hpt.swap_threshold:
            # The HPT probe that notices the threshold crossing costs its
            # Table II access latency before the Swap Driver sees it.
            started = swap_driver.request_swap(
                t + self._hpt_latency,
                page,
                TRIGGER_REGULAR,
                self.dram_service_share,
            )
            if started:
                nvm_hpt.remove(page)

        # PCTc probe (PctCache.lookup, inlined; the miss path fetches the
        # entry from the in-DRAM PCT and handles the victim write-back).
        pctc = self.pctc
        history = pctc._resident.get(page)
        if history is not None:
            pctc._resident.move_to_end(page)
            pctc.hits += 1
        else:
            pctc.misses += 1
            history = self._pctc_fill_from_pct(t, page)
        flt = self.filter
        if flt._current_leader.get(pid) == page:
            # Filter same-leader branch (FilterTable.observe_miss,
            # inlined): flurries make repeat misses on the current
            # leader the common case, and that branch raises no
            # triggers and evicts nothing.
            flt.reads += 1
            flt.writes += 1
            entries = flt._entries
            cmax = flt.counter_max
            entry = entries.get(page)
            if entry is not None:
                misses = entry.misses + 1
                entry.misses = misses if misses <= cmax else cmax
            previous = flt._previous_leader.get(pid)
            if previous is not None and previous != page:
                pentry = entries.get(previous)
                if pentry is not None:
                    if pentry.base.follower_ppn == page:
                        misses = pentry.follower_misses + 1
                        pentry.follower_misses = (
                            misses if misses <= cmax else cmax
                        )
                    elif (
                        pentry.new_follower_ppn is None
                        or pentry.new_follower_ppn == page
                    ):
                        pentry.new_follower_ppn = page
                        misses = pentry.new_follower_misses + 1
                        pentry.new_follower_misses = (
                            misses if misses <= cmax else cmax
                        )
        else:
            # A new flurry begins (FilterTable.observe_miss slow path,
            # inlined): close the old leader's flurry, install or renew
            # the new leader's entry — applying evicted entries' PCTc
            # write-backs in place, so no trigger/evicted sequences are
            # allocated — feed the predecessor's follower fields, and
            # raise swap triggers straight from the entry's history.
            # The evicted write-backs and the triggers touch disjoint
            # structures (PCTc vs. Swap Driver), so applying write-backs
            # during eviction preserves the method's observable order.
            flt.reads += 1
            flt.writes += 1
            entries = flt._entries
            cmax = flt.counter_max
            leader = flt._current_leader.get(pid)
            if leader is not None:
                # Remember the old flurry as predecessor and note that
                # this page's flurry followed it (_record_follower).
                flt._previous_leader[pid] = leader
                lentry = entries.get(leader)
                if (
                    lentry is not None
                    and lentry.base.follower_ppn != page
                    and lentry.new_follower_ppn is None
                ):
                    lentry.new_follower_ppn = page
            flt._current_leader[pid] = page
            entry = entries.get(page)
            if entry is None:
                # Per new-flurry slow path, not per-op: a FilterEntry is
                # built once per page flurry that misses the Filter.
                entry = FilterEntry(page, pid, history)  # repro-lint: disable=RL005
                while len(entries) >= flt.capacity:
                    _, victim = entries.popitem(last=False)
                    # FilterTable._drop_leader_state, inlined.
                    victim_pid = victim.pid
                    victim_page = victim.page
                    if flt._current_leader.get(victim_pid) == victim_page:
                        del flt._current_leader[victim_pid]
                    if flt._previous_leader.get(victim_pid) == victim_page:
                        del flt._previous_leader[victim_pid]
                    self._writeback_filter_entry(t, victim)
                entries[page] = entry
            else:
                entries.move_to_end(page)
            misses = entry.misses + 1
            entry.misses = misses if misses <= cmax else cmax
            # _feed_predecessor on the fresh leader.
            previous = flt._previous_leader.get(pid)
            if previous is not None and previous != page:
                pentry = entries.get(previous)
                if pentry is not None:
                    if pentry.base.follower_ppn == page:
                        misses = pentry.follower_misses + 1
                        pentry.follower_misses = (
                            misses if misses <= cmax else cmax
                        )
                    elif (
                        pentry.new_follower_ppn is None
                        or pentry.new_follower_ppn == page
                    ):
                        pentry.new_follower_ppn = page
                        misses = pentry.new_follower_misses + 1
                        pentry.new_follower_misses = (
                            misses if misses <= cmax else cmax
                        )
            # Filter-detected triggers pay the Filter's access latency;
            # only the first miss of an invocation raises them.
            base = entry.base
            threshold = flt.swap_threshold
            if base.count >= threshold:
                swap_driver.request_swap(
                    t + self._filter_latency,
                    page,
                    TRIGGER_PCT,
                    self.dram_service_share,
                )
            if (
                base.follower_ppn is not None
                and base.follower_count >= threshold
                and self._correlation
            ):
                swap_driver.request_swap(
                    t + self._filter_latency,
                    base.follower_ppn,
                    TRIGGER_PCT,
                    self.dram_service_share,
                )
        return finish

    # -- PCT plumbing --------------------------------------------------------------
    # repro-hot
    def _pctc_fill_from_pct(self, now: int, page: int) -> PctEntry:
        """The PCTc miss path: the caller already counted the miss.

        Flattened over the owning classes' state, in their order:
        the PCT metadata read (:meth:`metadata_access`), the PCT read
        (:meth:`PageCorrelationTable.read`), the PCTc install
        (:meth:`PctCache.fill` — the page is absent, since the caller
        just missed it), and the changed victim's write-back.
        """
        metadata_lines = self._metadata_lines
        n_lines = len(metadata_lines)
        access = self.dram_access
        counters = self.stats._counters
        # Fetch from the in-DRAM PCT (off the critical path, real bandwidth).
        access(now, metadata_lines[(self._prt_metadata_keys + page) % n_lines], False)
        counters["hmc/metadata_accesses"] += 1.0
        entry = self.pct._entries.get(page, EMPTY_PCT_ENTRY)
        if not self._correlation:
            # The no-correlation ablation drops the follower fields.
            entry = PctEntry(entry.count)
        pctc = self.pctc
        resident = pctc._resident
        changed = pctc._changed
        pctc.writes += 1
        if len(resident) >= pctc.capacity:
            victim_page, victim_entry = resident.popitem(last=False)
            if changed.pop(victim_page, False):
                self.pct._entries[victim_page] = victim_entry
                access(
                    now,
                    metadata_lines[(self._prt_metadata_keys + victim_page) % n_lines],
                    True,
                )
                counters["hmc/metadata_accesses"] += 1.0
        resident[page] = entry
        changed[page] = False
        return entry

    # repro-hot
    def _writeback_filter_entry(self, now: int, entry: FilterEntry) -> None:
        """Fold a closing flurry into its PCTc history (Section III-C2).

        :meth:`FilterTable.merged_history` and :meth:`PctCache.update`,
        inlined: ``new = current + old / 2`` saturating for leader and
        follower, the follower slot going to whichever follower was seen
        more, and the change bit set only for an effective change.
        """
        counter_max = self._counter_max
        base = entry.base
        base_count = base.count
        base_follower = base.follower_ppn
        base_follower_count = base.follower_count
        count = entry.misses + base_count // 2
        if count > counter_max:
            count = counter_max
        new_follower = entry.new_follower_ppn
        if new_follower is not None and (
            base_follower is None
            or entry.new_follower_misses > entry.follower_misses
        ):
            follower = new_follower
            follower_count = entry.new_follower_misses + base_follower_count // 2
        else:
            follower = base_follower
            follower_count = entry.follower_misses + base_follower_count // 2
        if follower_count > counter_max:
            follower_count = counter_max
        if not self._correlation:
            follower = None
            follower_count = 0
        merged = PctEntry(count, follower, follower_count)
        threshold = self._pct_threshold
        page = entry.page
        pctc = self.pctc
        resident = pctc._resident
        pctc.writes += 1
        if page in resident:
            resident[page] = merged
            resident.move_to_end(page)
        else:
            # PctCache.fill: the victim is dropped without a write-back.
            if len(resident) >= pctc.capacity:
                victim_page, _ = resident.popitem(last=False)
                pctc._changed.pop(victim_page, None)
            resident[page] = merged
            pctc._changed[page] = False
        if (
            (count >= threshold) != (base_count >= threshold)
            or follower != base_follower
            or (follower_count >= threshold) != (base_follower_count >= threshold)
        ):
            pctc._changed[page] = True

    # -- MMU paths (Sections III-B, III-D2) -----------------------------------------
    # repro-hot
    def mmu_hint(
        self, now: int, pte_line_spa: int, pid: int, vpn: int, target_ppn: int
    ) -> None:
        """Receive the MMU's fourth-level signal for one walk.

        The MMU Driver fetches the PTE line (unless it holds it), and the
        PRTc and PCTc entries of the page being translated are prefetched,
        so demand requests do not stall on metadata fills (Section V-B);
        a hot history raises prefetch swaps.  Flattened like
        :meth:`handle_request`: :meth:`MmuDriver.on_hint` with
        :meth:`_fetch_pte_line`, the PRTc probe and fill, and the PCTc
        probe run inline over the structures' own state, in the methods'
        order, and the PCTc miss goes to :meth:`_pctc_fill_from_pct`.
        The differential hint test pins this body against those methods.
        """
        ps = self.ps
        if not ps.mmu_hints_enabled:
            return
        t = now + ps.mmu_hint_latency_cycles
        stats = self.stats
        counters = stats._counters
        counters["hmc/mmu_hints"] += 1.0
        dram_pages = self.dram_pages

        # MMU Driver (on_hint): a cached PTE line needs no fetch.
        counters["mmu_driver/hints"] += 1.0
        driver = self.mmu_driver
        driver_lines = driver._lines
        if pte_line_spa in driver_lines:
            driver_lines.move_to_end(pte_line_spa)
            counters["mmu_driver/hint_already_cached"] += 1.0
        else:
            # The driver's own PTE-line read (_fetch_pte_line) through the
            # PRT location lookup, then its serviced-request accounting.
            page = pte_line_spa // LINES_PER_PAGE
            prt = self.prt
            if page < dram_pages:
                location = prt._dram_to_nvm.get(page, page)
            else:
                location = prt._nvm_to_dram.get(page, page)
            resident_dram = location < dram_pages
            actual_line = location * LINES_PER_PAGE + pte_line_spa % LINES_PER_PAGE
            if resident_dram:
                finish = self.dram_access(t, actual_line, False)
            else:
                finish = self.nvm_access(
                    t, actual_line - self._nvm_line_base, False
                )
            self._total_serviced += 1
            if resident_dram:
                self._dram_serviced += 1
                counters["hmc/serviced_dram"] += 1.0
            else:
                counters["hmc/serviced_nvm"] += 1.0
            counters["hmc/requests_pte"] += 1.0
            ammat = finish - t
            stats._sums["hmc/ammat"] += ammat
            stats._counts["hmc/ammat"] += 1
            previous = stats._maxima.get("hmc/ammat")
            if previous is None or ammat > previous:
                stats._maxima["hmc/ammat"] = ammat
            if page >= dram_pages:
                if resident_dram:
                    counters["hmc/positive_accesses"] += 1.0
                else:
                    counters["hmc/neutral_accesses"] += 1.0
            elif resident_dram:
                counters["hmc/neutral_accesses"] += 1.0
            else:
                counters["hmc/negative_accesses"] += 1.0
            counters["mmu_driver/fetches"] += 1.0
            # MmuDriver._install: the line is absent, so evict LRU if full.
            if len(driver_lines) >= driver.capacity_lines:
                driver_lines.popitem(last=False)
            driver_lines[pte_line_spa] = finish

        # PRTc prefetch: fetch the colour's set unless it is resident
        # (PrtCache.contains/fill without counting a lookup).
        colour = target_ppn % self.prt.num_colours
        prtc = self.prtc
        prtc_resident = prtc._resident
        if colour not in prtc_resident:
            metadata_lines = self._metadata_lines
            metadata_line = metadata_lines[colour % len(metadata_lines)]
            self.dram_access(t, metadata_line, False)
            counters["hmc/metadata_accesses"] += 1.0
            prtc.fills += 1
            if len(prtc_resident) >= prtc.capacity_sets:
                prtc_resident.popitem(last=False)
            prtc_resident[colour] = None
            counters["hmc/prtc_prefetches"] += 1.0

        # PCTc probe (PctCache.lookup); the miss path fills from the PCT.
        pctc = self.pctc
        history = pctc._resident.get(target_ppn)
        if history is not None:
            pctc._resident.move_to_end(target_ppn)
            pctc.hits += 1
        else:
            pctc.misses += 1
            history = self._pctc_fill_from_pct(t, target_ppn)
        threshold = ps.pct_prefetch_threshold
        if history.count >= threshold:
            self.swap_driver.request_swap(
                t, target_ppn, TRIGGER_MMU, self.dram_service_share
            )
        if (
            self._correlation
            and history.follower_ppn is not None
            and history.follower_count >= threshold
        ):
            self.swap_driver.request_swap(
                t, history.follower_ppn, TRIGGER_MMU, self.dram_service_share
            )

    # repro-hot
    def handle_pte_fetch(
        self, now: int, line_spa: int, target_ppn: Optional[int], pid: int
    ) -> int:
        """Serve a walk's PTE-line LLC miss, from the MMU Driver if it can.

        :meth:`MmuDriver.intercept`, inlined; a miss becomes a regular
        PTE request through the (dynamically read) request path.
        """
        driver = self.mmu_driver
        driver_lines = driver._lines
        ready = driver_lines.get(line_spa)
        if ready is None:
            self.stats._counters["mmu_driver/intercept_misses"] += 1.0
            return self.handle_request(now, line_spa, False, pid, PTE)
        driver_lines.move_to_end(line_spa)
        self.stats._counters["mmu_driver/intercept_hits"] += 1.0
        return (ready if ready > now else now) + driver.respond_latency_cycles

    def _fetch_pte_line(self, now: int, line_spa: int) -> int:
        """The MMU Driver's own memory read for a PTE line.

        The driver's ``fetch_line``; :meth:`mmu_hint` runs this body
        inline, so it is reached only through :meth:`MmuDriver.on_hint`.
        """
        page = line_spa // LINES_PER_PAGE
        location = self.prt.location_of(page)
        actual_line = location * LINES_PER_PAGE + (line_spa % LINES_PER_PAGE)
        finish = self.line_access(now, actual_line, False)
        serviced = "dram" if location < self.dram_pages else "nvm"
        self.account_service(now, finish, page, serviced, PTE)
        self.stats.add("mmu_driver/fetches")
        return finish

    # -- fault recovery: quarantine + rescue (repro.faults) -----------------------------
    def _on_uncorrectable(self, now: int, line_spa: int) -> None:
        """An uncorrectable NVM read: quarantine the location, rescue data.

        *line_spa* is the post-remap physical line the request resolved to,
        so its page is the failed NVM *location*.  Two cases:

        * the location holds its own home data (unswapped) — rescue-swap it
          into DRAM, where the rescued copy is pinned (the victim selector
          never evicts a quarantined occupant back to its failed home);
        * the location holds a swapped-out DRAM frame's data — the pair is
          pinned by the quarantine and every later read of that data is
          served degraded; we cannot park data back on a failed frame.

        A failed rescue (engines busy, colour locked) is retried on the
        next uncorrectable read of the same page.
        """
        page = line_spa // LINES_PER_PAGE
        if not self.config.memory.is_nvm_page(page):
            return
        if self.os_model.quarantine_frame(page):
            self.stats.add("faults/quarantined_pages")
        if self.prt.dram_frame_holding(page) is not None:
            return
        if self.swap_driver.rescue_swap(now, page):
            self.stats.add("faults/rescue_swaps")
        else:
            self.stats.add("faults/rescue_failures")

    # -- prefetch-accuracy bookkeeping (Figure 9) --------------------------------------
    def _on_swap_in(self, page: int, trigger: str, now: int) -> None:
        if trigger in (TRIGGER_MMU, TRIGGER_PCT):
            self._prefetch_live[page] = 0
            self.stats.add("hmc/prefetch_swaps")

    def _on_swap_out(self, page: int, now: int) -> None:
        hits = self._prefetch_live.pop(page, None)
        if hits is not None:
            self._close_accuracy(hits)

    def _close_accuracy(self, hits: int) -> None:
        if hits >= self.ps.pct_prefetch_threshold:
            self.stats.add("hmc/prefetch_swaps_accurate")
        else:
            self.stats.add("hmc/prefetch_swaps_inaccurate")

    # -- the SILC-FM partial-swap extension (Section VI) --------------------------------
    def _hot_lines_of(self, page: int) -> int:
        """The observed line-usage bitmap for *page* (0 = unknown)."""
        return self._line_usage.get(page, 0)

    def _migrate_residue_line(
        self, now: int, page: int, line_offset: int, is_write: bool
    ) -> int:
        """Serve a not-yet-moved line from home and pull it into the frame."""
        home_line = page * LINES_PER_PAGE + line_offset
        finish = self.line_access(now, home_line, is_write)
        frame = self.prt.dram_frame_holding(page)
        if frame is not None:
            self.dram_access(finish, frame * LINES_PER_PAGE + line_offset,
                             True, bulk=True)
        residue = self.swap_driver.partial_residue.get(page, 0)
        residue &= ~(1 << line_offset)
        if residue:
            self.swap_driver.partial_residue[page] = residue
        else:
            self.swap_driver.partial_residue.pop(page, None)
        self.stats.add("hmc/residue_line_migrations")
        return finish

    # -- DMA interaction (Section III-E) ---------------------------------------------
    def dma_begin(self, now: int, page_spa: int) -> int:
        """Prepare *page_spa* for a DMA transfer; returns when it may start.

        Any swap in progress for the page is allowed to complete first,
        then the page is frozen: the Swap Driver will neither move it nor
        pick its frame as a victim until :meth:`dma_end`.  DMA requests
        themselves go through :meth:`handle_request`, which remaps them to
        the page's current location.
        """
        ready = now
        end = self.swap_driver.swap_end_for(now, page_spa)
        if end is not None:
            ready = max(ready, end)
        self._frozen_pages.add(page_spa)
        self.stats.add("hmc/dma_freezes")
        return ready

    def dma_end(self, page_spa: int) -> None:
        """Unfreeze the page after the DMA completes.

        Its HMC state is left untouched — as the paper notes, the history
        simply evolves with the new page's miss pattern.
        """
        self._frozen_pages.discard(page_spa)

    def is_frozen(self, page_spa: int) -> bool:
        return page_spa in self._frozen_pages

    def finalize(self, now: int) -> None:
        for entry in self.filter.drain():
            self._writeback_filter_entry(now, entry)
        for hits in self._prefetch_live.values():
            self._close_accuracy(hits)
        self._prefetch_live.clear()
