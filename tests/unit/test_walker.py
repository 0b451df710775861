"""Unit tests for the page walker and PWC (repro.vm.walker)."""

import itertools

from repro.common.addr import line_of
from repro.common.config import default_system_config
from repro.common.stats import StatsRegistry
from repro.cache.hierarchy import CacheHierarchy
from repro.vm.page_table import PageTable
from repro.vm.walker import PageWalkCache, PageWalker


def make_page_table():
    counter = itertools.count(10)
    data_counter = itertools.count(1000)
    return PageTable(1, lambda: next(counter), lambda vpn: next(data_counter))


class FakeMemory:
    """Records walker memory fetches and returns a fixed latency."""

    def __init__(self, latency=100):
        self.latency = latency
        self.fetches = []

    def __call__(self, now, line, is_write, is_pte, target_ppn, pid):
        self.fetches.append((now, line, is_write, is_pte, target_ppn, pid))
        return now + self.latency


class HintRecorder:
    def __init__(self):
        self.hints = []

    def __call__(self, now, pte_line, pid, vpn, target_ppn):
        self.hints.append((now, pte_line, pid, vpn, target_ppn))


def make_walker(hint=None, pwc_entries=8):
    config = default_system_config(scale=1024, cores=1)
    stats = StatsRegistry()
    hierarchy = CacheHierarchy(config, stats)
    memory = FakeMemory()
    pwc = PageWalkCache(pwc_entries)
    walker = PageWalker(
        0, hierarchy, pwc, 2, stats, memory_fetch=memory, mmu_hint=hint
    )
    return walker, memory, hierarchy


class TestWalkBasics:
    def test_returns_correct_ppn(self):
        walker, _, _ = make_walker()
        table = make_page_table()
        ppn = table.ensure_mapped(7)
        result = walker.walk(0, table, 7)
        assert result.ppn == ppn

    def test_cold_walk_fetches_four_levels(self):
        walker, memory, _ = make_walker()
        table = make_page_table()
        table.ensure_mapped(7)
        result = walker.walk(0, table, 7)
        assert result.levels_fetched == 4
        # Cold caches: every level's line reached memory.
        assert len(memory.fetches) == 4

    def test_pte_line_address(self):
        walker, _, _ = make_walker()
        table = make_page_table()
        table.ensure_mapped(7)
        result = walker.walk(0, table, 7)
        assert result.pte_line_spa == line_of(table.pte_entry_address(7))

    def test_latency_positive_and_monotonic(self):
        walker, _, _ = make_walker()
        table = make_page_table()
        table.ensure_mapped(7)
        result = walker.walk(50, table, 7)
        assert result.finish > 50
        assert result.latency == result.finish - 50

    def test_cold_pte_reaches_memory(self):
        walker, _, _ = make_walker()
        table = make_page_table()
        table.ensure_mapped(7)
        assert walker.walk(0, table, 7).pte_reached_memory


class TestPwc:
    def test_second_walk_uses_pwc(self):
        walker, memory, _ = make_walker()
        table = make_page_table()
        table.ensure_mapped(8)
        table.ensure_mapped(9)
        walker.walk(0, table, 8)
        fetches_before = len(memory.fetches)
        result = walker.walk(10_000, table, 9)
        # Upper levels cached in the PWC: only the PTE level is walked.
        assert result.levels_fetched == 1
        # PTE entries 8 and 9 share one 64 B line, now cached in L2/L3.
        assert len(memory.fetches) == fetches_before
        assert not result.pte_reached_memory

    def test_pwc_deepest_hit_priority(self):
        pwc = PageWalkCache(4)
        pwc.fill(1, 0, 0)
        pwc.fill(1, 0, 2)
        assert pwc.deepest_hit(1, 0) == 2

    def test_pwc_miss(self):
        pwc = PageWalkCache(4)
        assert pwc.deepest_hit(1, 0) == -1

    def test_pwc_pid_isolation(self):
        pwc = PageWalkCache(4)
        pwc.fill(1, 0, 2)
        assert pwc.deepest_hit(2, 0) == -1

    def test_pwc_capacity(self):
        pwc = PageWalkCache(2)
        for vpn in (0 << 9, 1 << 9, 2 << 9):  # distinct PMD prefixes
            pwc.fill(1, vpn, 2)
        hits = [pwc.deepest_hit(1, vpn) for vpn in (0 << 9, 1 << 9, 2 << 9)]
        assert hits.count(2) == 2


class TestMmuHint:
    def test_hint_fires_once_per_walk(self):
        hint = HintRecorder()
        walker, _, _ = make_walker(hint=hint)
        table = make_page_table()
        table.ensure_mapped(7)
        walker.walk(0, table, 7)
        assert len(hint.hints) == 1

    def test_hint_carries_translation(self):
        hint = HintRecorder()
        walker, _, _ = make_walker(hint=hint)
        table = make_page_table()
        ppn = table.ensure_mapped(7)
        walker.walk(0, table, 7)
        _, pte_line, pid, vpn, target = hint.hints[0]
        assert pte_line == line_of(table.pte_entry_address(7))
        assert (pid, vpn, target) == (1, 7, ppn)

    def test_hint_fires_before_pte_memory_fetch(self):
        hint = HintRecorder()
        walker, memory, _ = make_walker(hint=hint)
        table = make_page_table()
        table.ensure_mapped(7)
        walker.walk(0, table, 7)
        hint_time = hint.hints[0][0]
        pte_fetch_time = [f for f in memory.fetches if f[3]][0][0]
        assert hint_time <= pte_fetch_time

    def test_hint_fires_even_on_cached_pte(self):
        hint = HintRecorder()
        walker, _, _ = make_walker(hint=hint)
        table = make_page_table()
        table.ensure_mapped(7)
        walker.walk(0, table, 7)
        walker.walk(10_000, table, 7)
        # Second walk: PTE line hits the caches, the hint still fires
        # (Section III-B: the signal is sent on every walk).
        assert len(hint.hints) == 2

    def test_no_hint_when_unwired(self):
        walker, _, _ = make_walker(hint=None)
        table = make_page_table()
        table.ensure_mapped(7)
        walker.walk(0, table, 7)  # must not raise
