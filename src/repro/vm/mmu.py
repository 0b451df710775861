"""The per-core MMU: L1/L2 TLBs in front of the page walker (Table I)."""

from __future__ import annotations

from repro.common.addr import PAGE_SHIFT
from repro.common.config import SystemConfig
from repro.common.stats import StatsRegistry
from repro.vm.page_table import PageTable
from repro.vm.tlb import Tlb
from repro.vm.walker import PageWalker


class TranslationResult:
    """Outcome of translating one virtual address.

    A ``__slots__`` class: one is built per memory operation.
    """

    __slots__ = ("ppn", "latency", "source", "pte_reached_memory")

    def __init__(
        self,
        ppn: int,
        latency: int,
        source: str,
        pte_reached_memory: bool = False,
    ):
        self.ppn = ppn
        self.latency = latency
        #: "l1", "l2", or "walk".
        self.source = source
        #: Set when a walk happened and its PTE fetch reached main memory.
        self.pte_reached_memory = pte_reached_memory

    def __repr__(self) -> str:
        return (
            f"TranslationResult(ppn={self.ppn}, latency={self.latency}, "
            f"source={self.source!r}, "
            f"pte_reached_memory={self.pte_reached_memory})"
        )


class Mmu:
    """One core's address-translation machinery."""

    def __init__(
        self,
        core_id: int,
        config: SystemConfig,
        walker: PageWalker,
        stats: StatsRegistry,
    ):
        self.core_id = core_id
        self.config = config
        self.walker = walker
        self.stats = stats
        self.l1_tlb = Tlb(config.l1_tlb)
        self.l2_tlb = Tlb(config.l2_tlb)
        # Hot-path invariants: the TLB latencies.
        self._l1_latency = config.l1_tlb.latency_cycles
        self._l2_latency = config.l2_tlb.latency_cycles

    # repro-hot
    def translate(self, now: int, page_table: PageTable, vaddr: int) -> TranslationResult:
        """Translate *vaddr* for the walker's process; VPN must be mapped.

        The counters are bumped on the live registry dict.
        """
        pid = page_table.pid
        vpn = vaddr >> PAGE_SHIFT
        counters = self.stats._counters

        l1_tlb = self.l1_tlb
        ppn = l1_tlb.lookup(pid, vpn)
        if ppn is not None:
            counters["tlb/l1_hits"] += 1.0
            return TranslationResult(ppn, self._l1_latency, "l1")

        latency = self._l1_latency + self._l2_latency
        ppn = self.l2_tlb.lookup(pid, vpn)
        if ppn is not None:
            counters["tlb/l2_hits"] += 1.0
            l1_tlb.fill(pid, vpn, ppn)
            return TranslationResult(ppn, latency, "l2")

        counters["tlb/misses"] += 1.0
        walk = self.walker.walk(now + latency, page_table, vpn)
        ppn = walk.ppn
        self.l2_tlb.fill(pid, vpn, ppn)
        l1_tlb.fill(pid, vpn, ppn)
        return TranslationResult(
            ppn, latency + walk.latency, "walk", walk.pte_reached_memory
        )
