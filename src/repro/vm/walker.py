"""The hardware page walker and its page-walk caches (Section II-C).

A walk steps through the PGD/PUD/PMD/PTE entries of the owning process's
page table.  Upper-level entries can hit in the per-core page-walk cache
(PWC); every entry that has to be fetched first probes the data caches
(L2/L3 — never L1) and, on an LLC miss, goes to main memory.

PageSeer's hook lives here: the instant the walk knows the physical line
holding the needed PTE — i.e. when it *reaches the fourth level* — the MMU
fires a signal to the Hybrid Memory Controller (Section III-B).  The signal
fires on every walk, before the PTE's own cache lookup, exactly as in the
paper.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, List, Optional, Tuple

from repro.common.addr import LEVEL_BITS, WALK_LEVELS
from repro.common.stats import StatsRegistry
from repro.cache.hierarchy import CacheHierarchy
from repro.vm.page_table import PageTable

#: PWC-covered levels: PGD, PUD, PMD entry contents (never the PTE).
_PWC_LEVELS = WALK_LEVELS - 1


class WalkResult:
    """Outcome of one page walk (a ``__slots__`` class; built per walk)."""

    __slots__ = (
        "ppn",
        "finish",
        "latency",
        "pte_line_spa",
        "levels_fetched",
        "pte_reached_memory",
    )

    def __init__(
        self,
        ppn: int,
        finish: int,
        latency: int,
        pte_line_spa: int,
        levels_fetched: int,
        pte_reached_memory: bool,
    ):
        self.ppn = ppn
        self.finish = finish
        self.latency = latency
        self.pte_line_spa = pte_line_spa
        #: Levels actually fetched through the cache hierarchy (1..4).
        self.levels_fetched = levels_fetched
        #: True if the PTE fetch missed in L2 and L3 and reached the HMC.
        self.pte_reached_memory = pte_reached_memory

    def __repr__(self) -> str:
        return (
            f"WalkResult(ppn={self.ppn}, finish={self.finish}, "
            f"latency={self.latency}, pte_line_spa={self.pte_line_spa}, "
            f"levels_fetched={self.levels_fetched}, "
            f"pte_reached_memory={self.pte_reached_memory})"
        )


class PageWalkCache:
    """Per-core translation caches for the three upper levels.

    Level ``i`` (0=PGD, 1=PUD, 2=PMD) caches the *content* of that level's
    entry, keyed by the VPN prefix the entry covers.  A hit at level ``i``
    means the walk can start fetching at level ``i + 1``.
    """

    def __init__(self, entries_per_level: int):
        self.entries_per_level = entries_per_level
        self._levels: List["OrderedDict[Tuple[int, int], None]"] = [
            OrderedDict() for _ in range(_PWC_LEVELS)
        ]

    @staticmethod
    def _prefix(vpn: int, level: int) -> int:
        """VPN prefix covered by a level-*level* entry.

        A PGD entry (level 0) covers a 512 GB region (``vpn >> 27``), a PUD
        entry 1 GB (``vpn >> 18``), a PMD entry 2 MB (``vpn >> 9``).
        """
        return vpn >> (LEVEL_BITS * (WALK_LEVELS - 1 - level))

    def deepest_hit(self, pid: int, vpn: int) -> int:
        """Return the deepest cached level (or -1), updating LRU on the hit."""
        for level in range(_PWC_LEVELS - 1, -1, -1):
            key = (pid, self._prefix(vpn, level))
            entries = self._levels[level]
            if key in entries:
                entries.move_to_end(key)
                return level
        return -1

    def fill(self, pid: int, vpn: int, level: int) -> None:
        """Cache the level-*level* entry covering *vpn*."""
        entries = self._levels[level]
        key = (pid, self._prefix(vpn, level))
        if key not in entries and len(entries) >= self.entries_per_level:
            entries.popitem(last=False)
        entries[key] = None
        entries.move_to_end(key)


class PageWalker:
    """One core's page walker.

    Parameters
    ----------
    core_id:
        Which core's private caches the walker uses.
    hierarchy:
        The data-cache hierarchy (walk entries are cacheable in L2/L3).
    memory_fetch:
        ``(now, line_spa, is_write, is_pte, target_ppn, pid) -> finish`` — sends
        an LLC miss for a page-table line (or a dirty write-back displaced
        by one) to the memory controller.  ``target_ppn`` carries the
        translation result for PTE fetches (the controller would read it
        out of the returned line; passing it avoids simulating memory
        contents).
    mmu_hint:
        Optional ``(now, pte_line_spa, pid, vpn, target_ppn)`` — PageSeer's
        MMU-to-HMC signal; None for baseline systems.
    """

    def __init__(
        self,
        core_id: int,
        hierarchy: CacheHierarchy,
        pwc: PageWalkCache,
        pwc_latency_cycles: int,
        stats: StatsRegistry,
        memory_fetch: Callable[[int, int, bool, bool, Optional[int], int], int],
        mmu_hint: Optional[Callable[[int, int, int, int, int], None]] = None,
    ):
        self.core_id = core_id
        self.hierarchy = hierarchy
        self.pwc = pwc
        self.pwc_latency_cycles = pwc_latency_cycles
        self.stats = stats
        self._memory_fetch = memory_fetch
        self._mmu_hint = mmu_hint

    # repro-hot
    def walk(self, now: int, page_table: PageTable, vpn: int) -> WalkResult:
        """Perform a full walk for a *mapped* VPN; returns timing and PPN.

        The walk is flattened over its helpers' state: the entry lines
        come from the page table's per-VPN memo (:meth:`PageTable.walk_lines`
        fills it), the PPN from its VPN cache, and the PWC probe and fills
        (:meth:`PageWalkCache.deepest_hit`/:meth:`PageWalkCache.fill`) run
        inline — deepest level first, with the same LRU touches.  Stats
        are counted on the live registry dicts with literal keys, as the
        controllers' request paths do.  The hierarchy access, the MMU
        hint, and the memory fetches stay calls: they belong to other
        layers.  The differential walk test pins this body against the
        helper methods.
        """
        pid = page_table.pid
        lines = page_table._walk_lines.get(vpn)
        if lines is None:
            lines = page_table.walk_lines(vpn)
        target_ppn = page_table._vpn_cache.get(vpn)
        if target_ppn is None:
            target_ppn = page_table.translate(vpn)
        assert target_ppn is not None, "walk requires a mapped VPN"
        pte_line_spa = lines[3]
        stats = self.stats
        counters = stats._counters

        # PWC probe (deepest_hit, inlined): PMD, then PUD, then PGD.
        pwc = self.pwc
        pwc_levels = pwc._levels
        key = (pid, vpn >> LEVEL_BITS)
        entries = pwc_levels[2]
        if key in entries:
            entries.move_to_end(key)
            counters["walk/pwc_hits_level2"] += 1.0
            start_level = 3
        else:
            key = (pid, vpn >> (2 * LEVEL_BITS))
            entries = pwc_levels[1]
            if key in entries:
                entries.move_to_end(key)
                counters["walk/pwc_hits_level1"] += 1.0
                start_level = 2
            else:
                key = (pid, vpn >> (3 * LEVEL_BITS))
                entries = pwc_levels[0]
                if key in entries:
                    entries.move_to_end(key)
                    counters["walk/pwc_hits_level0"] += 1.0
                    start_level = 1
                else:
                    start_level = 0

        time = now + self.pwc_latency_cycles
        access = self.hierarchy.access
        core_id = self.core_id
        memory_fetch = self._memory_fetch
        # The upper levels: fetch each entry, then cache it in the PWC
        # (PageWalkCache.fill, inlined).
        for level in range(start_level, _PWC_LEVELS):
            line = lines[level]
            outcome = access(core_id, line, False, False)
            time += outcome.latency_cycles
            if outcome.hit_level is None:
                time = memory_fetch(time, line, False, False, None, pid)
            for dirty_line in outcome.writebacks:
                memory_fetch(time, dirty_line, True, False, None, pid)
            entries = pwc_levels[level]
            key = (pid, vpn >> (LEVEL_BITS * (_PWC_LEVELS - level)))
            if key in entries:
                entries.move_to_end(key)
            else:
                if len(entries) >= pwc.entries_per_level:
                    entries.popitem(last=False)
                entries[key] = None

        # The fourth level's line address is known: signal the HMC before
        # the cache lookup for the PTE (Section III-B).
        if self._mmu_hint is not None:
            self._mmu_hint(time, pte_line_spa, pid, vpn, target_ppn)
        outcome = access(core_id, pte_line_spa, False, False)
        time += outcome.latency_cycles
        pte_reached_memory = outcome.hit_level is None
        if pte_reached_memory:
            counters["walk/pte_llc_misses"] += 1.0
            time = memory_fetch(time, pte_line_spa, False, True, target_ppn, pid)
        for dirty_line in outcome.writebacks:
            memory_fetch(time, dirty_line, True, False, None, pid)

        counters["walk/walks"] += 1.0
        counters["walk/pte_requests"] += 1.0
        latency = time - now
        stats._sums["walk/latency"] += latency
        stats._counts["walk/latency"] += 1
        previous = stats._maxima.get("walk/latency")
        if previous is None or latency > previous:
            stats._maxima["walk/latency"] = latency
        return WalkResult(
            target_ppn,
            time,
            latency,
            pte_line_spa,
            WALK_LEVELS - start_level,
            pte_reached_memory,
        )
