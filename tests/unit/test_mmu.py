"""Unit tests for the MMU front-end (repro.vm.mmu)."""

import itertools

from repro.common.config import default_system_config
from repro.common.stats import StatsRegistry
from repro.cache.hierarchy import CacheHierarchy
from repro.vm.mmu import Mmu
from repro.vm.page_table import PageTable
from repro.vm.walker import PageWalkCache, PageWalker


def make_mmu():
    config = default_system_config(scale=1024, cores=1)
    stats = StatsRegistry()
    hierarchy = CacheHierarchy(config, stats)
    walker = PageWalker(
        0,
        hierarchy,
        PageWalkCache(config.pwc_entries_per_level),
        config.pwc_latency_cycles,
        stats,
        memory_fetch=lambda now, line, w, p, t, pid: now + 100,
    )
    return Mmu(0, config, walker, stats), config, stats


def make_page_table(pid=1):
    counter = itertools.count(10)
    data_counter = itertools.count(1000)
    return PageTable(pid, lambda: next(counter), lambda vpn: next(data_counter))


class TestTranslationPath:
    def test_first_translation_walks(self):
        mmu, _, _ = make_mmu()
        table = make_page_table()
        table.ensure_mapped(5)
        result = mmu.translate(0, table, 5 << 12)
        assert result.source == "walk"
        assert result.ppn == table.translate(5)

    def test_second_translation_hits_l1(self):
        mmu, _, _ = make_mmu()
        table = make_page_table()
        table.ensure_mapped(5)
        mmu.translate(0, table, 5 << 12)
        result = mmu.translate(100, table, 5 << 12)
        assert result.source == "l1"

    def test_l1_hit_latency(self):
        mmu, config, _ = make_mmu()
        table = make_page_table()
        table.ensure_mapped(5)
        mmu.translate(0, table, 5 << 12)
        result = mmu.translate(100, table, 5 << 12)
        assert result.latency == config.l1_tlb.latency_cycles

    def test_l2_hit_after_l1_eviction(self):
        mmu, config, _ = make_mmu()
        table = make_page_table()
        # Fill enough same-set VPNs to push vpn 0 out of the small L1 TLB
        # but keep it in the L2 TLB.
        sets = config.l1_tlb.num_sets
        victims = [k * sets for k in range(config.l1_tlb.ways + 1)]
        for vpn in victims:
            table.ensure_mapped(vpn)
            mmu.translate(0, table, vpn << 12)
        result = mmu.translate(1000, table, victims[0] << 12)
        assert result.source in ("l2", "l1")  # must not need a walk
        assert result.source != "walk"

    def test_walk_latency_larger_than_hits(self):
        mmu, config, _ = make_mmu()
        table = make_page_table()
        table.ensure_mapped(5)
        walk = mmu.translate(0, table, 5 << 12)
        hit = mmu.translate(10_000, table, 5 << 12)
        assert walk.latency > hit.latency

    def test_offset_does_not_matter(self):
        mmu, _, _ = make_mmu()
        table = make_page_table()
        table.ensure_mapped(5)
        a = mmu.translate(0, table, (5 << 12) + 0x10)
        b = mmu.translate(10, table, (5 << 12) + 0xFF0)
        assert a.ppn == b.ppn


class TestStats:
    def test_tlb_miss_counted(self):
        mmu, _, stats = make_mmu()
        table = make_page_table()
        table.ensure_mapped(5)
        mmu.translate(0, table, 5 << 12)
        assert stats.get("tlb/misses") == 1

    def test_hits_counted(self):
        mmu, _, stats = make_mmu()
        table = make_page_table()
        table.ensure_mapped(5)
        mmu.translate(0, table, 5 << 12)
        mmu.translate(10, table, 5 << 12)
        assert stats.get("tlb/l1_hits") == 1
