"""CAMEO: line-granularity swapping (Chou et al., MICRO'14; Section II-B).

CAMEO migrates data in 64 B blocks: *every* access to a block currently in
slow memory triggers a fast swap with the occupant of its swap group's
single fast-memory slot (groups are direct-mapped, as in PoM).  Swap
bandwidth stays low because blocks are tiny, but the scheme needs metadata
per *line* rather than per segment — so its remap cache covers a far
smaller fraction of memory — and it cannot exploit spatial locality: the
next line of the same hot page misses to slow memory again.

The paper discusses CAMEO as background rather than evaluating it; this
implementation rounds out the baseline set and lets the line-versus-page
granularity trade-off be measured directly.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from typing import Dict

from repro.common.addr import CACHE_LINE_BYTES, LINES_PER_PAGE, PAGE_BYTES
from repro.common.config import SystemConfig
from repro.common.errors import FaultError
from repro.common.stats import StatsRegistry
from repro.sim.hmc_base import DEMAND, WRITEBACK, HmcBase, RequestKind
from repro.vm.os_model import OsModel


class CameoHmc(HmcBase):
    """The CAMEO memory controller (64 B swap granularity)."""

    scheme_name = "cameo"

    #: Remap-cache capacity in line entries (same SRAM budget as PoM's SRC,
    #: but each entry covers 64 B instead of 2 KB).
    def __init__(self, config: SystemConfig, os_model: OsModel, stats: StatsRegistry):
        super().__init__(config, os_model, stats)
        dram_bytes = config.memory.dram.capacity_bytes
        nvm_bytes = config.memory.nvm.capacity_bytes
        self.fast_lines = dram_bytes // CACHE_LINE_BYTES
        self.slow_lines = nvm_bytes // CACHE_LINE_BYTES
        self.total_lines = self.fast_lines + self.slow_lines

        #: member line -> slot it occupies / slot -> member in it.
        self._slot_of: Dict[int, int] = {}
        self._member_in: Dict[int, int] = {}
        self._remap_cache: "OrderedDict[int, None]" = OrderedDict()
        self._remap_capacity = max(4, config.pom.src_entries)
        self.swaps = 0

        remap_bytes = self.total_lines  # ~1 B of metadata per line
        self.reserve_metadata(max(1, math.ceil(remap_bytes / PAGE_BYTES)))

        # Hot-path invariants for the flattened request path (the config
        # dataclasses are frozen, so these cannot drift).
        self._src_latency = config.pom.src_latency_cycles

    # -- geometry -------------------------------------------------------------
    def group_of(self, line: int) -> int:
        """The swap group (== fast slot id) a line belongs to."""
        if line < self.fast_lines:
            return line
        return (line - self.fast_lines) % self.fast_lines

    def _slot(self, line: int) -> int:
        return self._slot_of.get(line, line)

    def _line_is_protected(self, line: int) -> bool:
        return self.os_model.is_protected_frame(line // LINES_PER_PAGE)

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

        The per-request pipeline — remap-cache probe, slot lookup,
        device access, serviced-request accounting — is inlined over the
        structures' own state, the same flattening the PageSeer
        controller's request path uses (the goldens pin the result); the
        miss/eviction paths escape to the owning methods.
        """
        stats = self.stats
        counters = stats._counters
        fast_lines = self.fast_lines
        group = (
            line_spa
            if line_spa < fast_lines
            else (line_spa - fast_lines) % fast_lines
        )

        t = now + self._src_latency
        remap_cache = self._remap_cache
        if line_spa in remap_cache:
            remap_cache.move_to_end(line_spa)
            counters["cameo/remap_hits"] += 1.0
        else:
            counters["cameo/remap_misses"] += 1.0
            fill_done = self.metadata_access(t, group)
            if fill_done > t:
                counters["hmc/remap_wait_cycles"] += fill_done - t
                counters["hmc/remap_misses"] += 1.0
            t = fill_done
            self._remap_fill(line_spa)

        slot = self._slot_of.get(line_spa, line_spa)
        bulk = kind is WRITEBACK
        dram = slot < fast_lines
        if dram:
            finish = self.dram_access(t, slot, is_write, bulk)
        else:
            finish = self.nvm_access(
                t, slot - self._nvm_line_base, is_write, bulk
            )

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
            self._swap_in(finish, line_spa, group)
        return finish

    # -- the CAMEO policy: swap on every slow access -----------------------------
    def _swap_in(self, now: int, line: int, group: int) -> None:
        fast_slot = group
        if self._line_is_protected(fast_slot):
            self.stats.add("cameo/declined_protected")
            return
        occupant = self._member_in.get(fast_slot, fast_slot)
        if occupant == line:
            return
        member_slot = self._slot(line)

        # Fast swap of two 64 B blocks: 2 line reads + 2 line writes, issued
        # to the devices themselves rather than through the retrying line
        # entries.  The remap maps are only exchanged after all four
        # accesses succeed, so an injected fault aborts the swap with no
        # state to roll back.  The fast slot is a DRAM line and the
        # member's slot an NVM one (only NVM-resident lines swap in).
        dram = self.memory.dram
        nvm = self.memory.nvm
        slow_line = member_slot - self._nvm_line_base
        try:
            read_fast = dram.access_finish(now, fast_slot, False, True)
            read_slow = nvm.access_finish(now, slow_line, False, True)
            ready = max(read_fast, read_slow)
            dram.access_finish(ready, fast_slot, True, True)
            nvm.access_finish(ready, slow_line, True, True)
        except FaultError:
            self.stats.add("cameo/aborted_swaps")
            return

        self._slot_of[line] = fast_slot
        self._member_in[fast_slot] = line
        self._slot_of[occupant] = member_slot
        self._member_in[member_slot] = occupant
        for member in (line, occupant):
            if self._slot_of.get(member) == member:
                del self._slot_of[member]
        for slot in (fast_slot, member_slot):
            if self._member_in.get(slot) == slot:
                del self._member_in[slot]

        self.swaps += 1
        self.stats.add("cameo/swaps")

    # -- remap cache -----------------------------------------------------------------
    def _remap_lookup(self, line: int) -> bool:
        if line in self._remap_cache:
            self._remap_cache.move_to_end(line)
            self.stats.add("cameo/remap_hits")
            return True
        self.stats.add("cameo/remap_misses")
        return False

    def _remap_fill(self, line: int) -> None:
        if line not in self._remap_cache and len(self._remap_cache) >= self._remap_capacity:
            self._remap_cache.popitem(last=False)
        self._remap_cache[line] = None
        self._remap_cache.move_to_end(line)
