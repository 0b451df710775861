"""Unit tests for the Swap Driver (repro.core.swap_driver)."""

from repro.common.config import (
    HybridMemoryConfig,
    PageSeerConfig,
    dram_timing_table1,
    nvm_timing_table1,
)
from repro.common.stats import StatsRegistry
from repro.core.hpt import HotPageTable
from repro.core.prt import PageRemapTable
from repro.core.swap_driver import (
    SwapDriver,
    TRIGGER_MMU,
    TRIGGER_PCT,
    TRIGGER_REGULAR,
    TRIGGER_RESCUE,
)
from repro.mem.main_memory import MainMemory
from repro.mem.swap_buffer import SwapBufferPool
from tests.swap_stubs import FrameStub

DRAM_PAGES = 64
NVM_PAGES = 512
COLOURS = 16  # 64 / 4 ways


class Harness:
    def __init__(self, protected=(), swap_engines=3, bw_enabled=True):
        self.stats = StatsRegistry()
        self.config = PageSeerConfig(
            swap_engines=swap_engines, bandwidth_heuristic_enabled=bw_enabled
        )
        memory_config = HybridMemoryConfig(
            dram=dram_timing_table1(DRAM_PAGES * 4096),
            nvm=nvm_timing_table1(NVM_PAGES * 4096),
        )
        self.memory = MainMemory(memory_config, self.stats)
        self.prt = PageRemapTable(DRAM_PAGES, DRAM_PAGES + NVM_PAGES, 4)
        self.dram_hpt = HotPageTable(64, 63, 100_000)
        self.buffers = SwapBufferPool(24, self.stats)
        self.swapped_in = []
        self.swapped_out = []
        self.driver = SwapDriver(
            self.config,
            self.memory,
            self.prt,
            self.dram_hpt,
            self.buffers,
            self.stats,
            FrameStub(protected),
        )
        self.driver.listeners.append(self._on_swap)

    def _on_swap(self, record):
        if record.occupant is not None:
            self.swapped_out.append(record.occupant)
        self.swapped_in.append((record.page, record.trigger))

    def nvm_page(self, colour=0, index=0):
        """An NVM page of the given colour."""
        page = DRAM_PAGES + colour + index * COLOURS
        assert self.prt.colour_of(page) == colour
        return page


class TestRequestSwap:
    def test_basic_swap_succeeds(self):
        h = Harness()
        page = h.nvm_page()
        assert h.driver.request_swap(0, page, TRIGGER_MMU, 0.0)
        assert h.prt.is_swapped(page)
        assert h.swapped_in == [(page, TRIGGER_MMU)]

    def test_swap_lands_in_matching_colour_frame(self):
        h = Harness()
        page = h.nvm_page(colour=3)
        h.driver.request_swap(0, page, TRIGGER_MMU, 0.0)
        frame = h.prt.dram_frame_holding(page)
        assert h.prt.colour_of(frame) == 3

    def test_dram_home_declined(self):
        h = Harness()
        assert not h.driver.request_swap(0, 5, TRIGGER_MMU, 0.0)
        assert h.stats.get("swap_driver/declined_dram_home") == 1

    def test_already_swapped_declined(self):
        h = Harness()
        page = h.nvm_page()
        h.driver.request_swap(0, page, TRIGGER_MMU, 0.0)
        assert not h.driver.request_swap(0, page, TRIGGER_MMU, 0.0)
        assert h.stats.get("swap_driver/declined_already_swapped") == 1

    def test_bandwidth_heuristic_declines(self):
        h = Harness()
        page = h.nvm_page()
        assert not h.driver.request_swap(0, page, TRIGGER_MMU, 0.96)
        assert h.stats.get("swap_driver/declined_bandwidth") == 1

    def test_bandwidth_heuristic_can_be_disabled(self):
        h = Harness(bw_enabled=False)
        page = h.nvm_page()
        assert h.driver.request_swap(0, page, TRIGGER_MMU, 0.99)

    def test_engine_cap(self):
        h = Harness(swap_engines=1)
        assert h.driver.request_swap(0, h.nvm_page(0), TRIGGER_MMU, 0.0)
        assert not h.driver.request_swap(0, h.nvm_page(1), TRIGGER_MMU, 0.0)
        assert h.stats.get("swap_driver/declined_engines_busy") == 1

    def test_engines_free_after_completion(self):
        h = Harness(swap_engines=1)
        h.driver.request_swap(0, h.nvm_page(0), TRIGGER_MMU, 0.0)
        end = h.driver.records[0].end
        assert h.driver.request_swap(end + 1, h.nvm_page(1), TRIGGER_MMU, 0.0)

    def test_hot_frames_locked(self):
        h = Harness()
        for frame in h.prt.dram_frames_of_colour(0):
            h.dram_hpt.record_miss(0, frame)
        assert not h.driver.request_swap(0, h.nvm_page(0), TRIGGER_MMU, 0.0)
        assert h.stats.get("swap_driver/declined_locked") == 1

    def test_protected_frames_skipped(self):
        h = Harness(protected=set(range(DRAM_PAGES)))
        assert not h.driver.request_swap(0, h.nvm_page(0), TRIGGER_MMU, 0.0)


class TestOptimizedSlowSwap:
    def fill_colour(self, h, colour=0):
        pages = []
        for index, _frame in enumerate(h.prt.dram_frames_of_colour(colour)):
            page = h.nvm_page(colour, index)
            end = 0 if not h.driver.records else h.driver.records[-1].end
            assert h.driver.request_swap(end + 1, page, TRIGGER_REGULAR, 0.0)
            pages.append(page)
        return pages

    def test_eviction_uses_optimized_slow_swap(self):
        h = Harness()
        pages = self.fill_colour(h)
        end = h.driver.records[-1].end
        newcomer = h.nvm_page(0, 10)
        assert h.driver.request_swap(end + 1, newcomer, TRIGGER_REGULAR, 0.0)
        record = h.driver.records[-1]
        assert record.optimized_slow
        assert record.reads == 3 and record.writes == 3

    def test_evicted_page_restored_home(self):
        h = Harness()
        pages = self.fill_colour(h)
        end = h.driver.records[-1].end
        newcomer = h.nvm_page(0, 10)
        h.driver.request_swap(end + 1, newcomer, TRIGGER_REGULAR, 0.0)
        evicted = h.swapped_out[0]
        assert evicted in pages
        assert h.prt.location_of(evicted) == evicted

    def test_simple_swap_is_2r2w(self):
        h = Harness()
        h.driver.request_swap(0, h.nvm_page(), TRIGGER_REGULAR, 0.0)
        record = h.driver.records[0]
        assert not record.optimized_slow
        assert record.reads == 2 and record.writes == 2

    def test_oldest_frame_evicted_first(self):
        h = Harness()
        pages = self.fill_colour(h)
        end = h.driver.records[-1].end
        h.driver.request_swap(end + 1, h.nvm_page(0, 10), TRIGGER_REGULAR, 0.0)
        # The first page swapped in (oldest frame) is the victim.
        assert h.swapped_out == [pages[0]]

    def test_listeners_see_each_commit_once_after_its_stats(self):
        h = Harness()
        seen = []
        h.driver.listeners.append(
            lambda record: seen.append((record, h.stats.get("swap_driver/swaps")))
        )
        pages = self.fill_colour(h)
        end = h.driver.records[-1].end
        h.driver.request_swap(end + 1, h.nvm_page(0, 10), TRIGGER_REGULAR, 0.0)
        assert [record for record, _ in seen] == h.driver.records
        assert [swaps for _, swaps in seen] == [1, 2, 3, 4, 5]
        occupants = [record.occupant for record, _ in seen]
        assert occupants == [None] * 4 + [pages[0]]


class TestBufferServicing:
    def test_in_flight_served_from_buffer(self):
        h = Harness()
        page = h.nvm_page()
        h.driver.request_swap(100, page, TRIGGER_MMU, 0.0)
        record = h.driver.records[0]
        mid = (record.start + record.end) // 2
        finish = h.driver.service_if_swapping(mid, page)
        assert finish is not None
        assert finish <= mid + h.buffers.service_latency_cycles

    def test_not_swapping_returns_none(self):
        h = Harness()
        assert h.driver.service_if_swapping(0, h.nvm_page()) is None

    def test_after_completion_returns_none(self):
        h = Harness()
        page = h.nvm_page()
        h.driver.request_swap(100, page, TRIGGER_MMU, 0.0)
        end = h.driver.records[0].end
        assert h.driver.service_if_swapping(end + 1, page) is None

    def test_partner_frame_also_served(self):
        h = Harness()
        page = h.nvm_page()
        h.driver.request_swap(100, page, TRIGGER_MMU, 0.0)
        frame = h.prt.dram_frame_holding(page)
        record = h.driver.records[0]
        mid = (record.start + record.end) // 2
        assert h.driver.service_if_swapping(mid, frame) is not None


class TestAccounting:
    def test_trigger_counts(self):
        h = Harness()
        h.driver.request_swap(0, h.nvm_page(0), TRIGGER_MMU, 0.0)
        end = h.driver.records[-1].end
        h.driver.request_swap(end + 1, h.nvm_page(1), TRIGGER_PCT, 0.0)
        end = h.driver.records[-1].end
        h.driver.request_swap(end + 1, h.nvm_page(2), TRIGGER_REGULAR, 0.0)
        counts = {
            trigger: h.stats.get(f"swap_driver/swaps_{trigger}")
            for trigger in (TRIGGER_MMU, TRIGGER_PCT, TRIGGER_REGULAR, TRIGGER_RESCUE)
        }
        assert counts == {
            TRIGGER_MMU: 1,
            TRIGGER_PCT: 1,
            TRIGGER_REGULAR: 1,
            TRIGGER_RESCUE: 0,
        }
        assert [record.trigger for record in h.driver.records] == [
            TRIGGER_MMU, TRIGGER_PCT, TRIGGER_REGULAR,
        ]
        assert h.stats.get("swap_driver/swaps") == len(h.driver.records) == 3

    def test_swap_duration_positive(self):
        h = Harness()
        h.driver.request_swap(0, h.nvm_page(), TRIGGER_MMU, 0.0)
        record = h.driver.records[0]
        assert record.end > record.start
