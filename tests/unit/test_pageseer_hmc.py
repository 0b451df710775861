"""Unit tests for the assembled PageSeer controller (repro.core.hmc)."""

from repro.common.addr import LINES_PER_PAGE
from repro.common.config import default_system_config
from repro.common.stats import StatsRegistry
from repro.core.hmc import PageSeerHmc
from repro.sim.hmc_base import RequestKind
from repro.vm.os_model import OsModel


def make_hmc(cores=1, **pageseer_overrides):
    import dataclasses

    config = default_system_config(scale=1024, cores=cores)
    if pageseer_overrides:
        config = dataclasses.replace(
            config,
            pageseer=dataclasses.replace(config.pageseer, **pageseer_overrides),
        )
    stats = StatsRegistry()
    os_model = OsModel(config.memory)
    return PageSeerHmc(config, os_model, stats), config, stats


def nvm_line(hmc, colour=0, index=0, offset=0):
    prt = hmc.prt
    page = hmc.dram_pages + colour + index * prt.num_colours
    assert prt.colour_of(page) == colour
    return page * LINES_PER_PAGE + offset


class TestRequestPath:
    def test_nvm_request_serviced_nvm(self):
        hmc, _, stats = make_hmc()
        finish = hmc.handle_request(0, nvm_line(hmc), False, pid=1)
        assert finish > 0
        assert stats.get("hmc/serviced_nvm") == 1

    def test_dram_request_serviced_dram(self):
        hmc, _, stats = make_hmc()
        # Use a non-metadata DRAM page.
        line = (hmc.dram_pages - 1) * LINES_PER_PAGE
        hmc.handle_request(0, line, False, pid=1)
        assert stats.get("hmc/serviced_dram") == 1

    def test_prtc_miss_records_wait(self):
        hmc, _, stats = make_hmc()
        hmc.handle_request(0, nvm_line(hmc), False, pid=1)
        assert stats.get("hmc/remap_misses") == 1
        assert stats.get("hmc/remap_wait_cycles") > 0

    def test_prtc_hit_no_wait(self):
        hmc, _, stats = make_hmc()
        hmc.handle_request(0, nvm_line(hmc, index=0), False, pid=1)
        waits = stats.get("hmc/remap_misses")
        hmc.handle_request(10_000, nvm_line(hmc, index=1), False, pid=1)
        assert stats.get("hmc/remap_misses") == waits

    def test_ammat_observed_for_demand(self):
        hmc, _, stats = make_hmc()
        hmc.handle_request(0, nvm_line(hmc), False, pid=1)
        assert stats.count("hmc/ammat") == 1

    def test_writeback_excluded_from_ammat(self):
        hmc, _, stats = make_hmc()
        hmc.handle_request(0, nvm_line(hmc), True, pid=1, kind=RequestKind.WRITEBACK)
        assert stats.count("hmc/ammat") == 0


class TestHptSwaps:
    def test_hot_nvm_page_swapped_by_hpt(self):
        hmc, config, stats = make_hmc()
        line = nvm_line(hmc)
        threshold = config.pageseer.hpt_swap_threshold
        now = 0
        for k in range(threshold + 1):
            now = hmc.handle_request(now + 1, line + k % 4, False, pid=1)
        assert stats.get("swap_driver/swaps_regular") == 1
        assert hmc.prt.is_swapped(line // LINES_PER_PAGE)

    def test_post_swap_requests_hit_dram(self):
        hmc, config, _ = make_hmc()
        line = nvm_line(hmc)
        now = 0
        for k in range(config.pageseer.hpt_swap_threshold + 1):
            now = hmc.handle_request(now + 1, line + k, False, pid=1)
        end = hmc.swap_driver.records[0].end
        stats = hmc.stats
        dram_before = stats.get("hmc/serviced_dram")
        hmc.handle_request(end + 10, line, False, pid=1)
        assert stats.get("hmc/serviced_dram") == dram_before + 1

    def test_positive_access_accounting(self):
        hmc, config, stats = make_hmc()
        line = nvm_line(hmc)
        now = 0
        for k in range(config.pageseer.hpt_swap_threshold + 2):
            now = hmc.handle_request(now + 1, line + k, False, pid=1)
        assert stats.get("hmc/positive_accesses") > 0


class TestHptDecay:
    """``handle_request`` halves both HPTs once a request's time reaches
    their ``next_decay``, and not before."""

    INTERVAL = 10_000

    def _dram_page_hits(self, times):
        hmc, _, _ = make_hmc(hpt_decay_interval_cycles=self.INTERVAL)
        page = hmc.dram_pages - 1
        for now in times:
            hmc.handle_request(now, page * LINES_PER_PAGE, False, pid=1)
        return hmc, page

    def test_no_halving_before_next_decay(self):
        hmc, page = self._dram_page_hits([0, 100, 200, self.INTERVAL // 2])
        for hpt in (hmc.dram_hpt, hmc.nvm_hpt):
            assert hpt.epoch == 0
            assert hpt.next_decay == self.INTERVAL
        assert hmc.dram_hpt.count_of(page) == 4

    def test_request_past_next_decay_halves_both_tables(self):
        hmc, page = self._dram_page_hits([0, 100, 200, 300, 5 * self.INTERVAL // 2])
        for hpt in (hmc.dram_hpt, hmc.nvm_hpt):
            assert hpt.epoch == 2
            assert hpt.next_decay == 3 * self.INTERVAL
        # 4 misses quartered by two halvings, then the late request's own.
        assert hmc.dram_hpt.count_of(page) == 2


class TestMmuHints:
    def test_hint_counts(self):
        hmc, _, stats = make_hmc()
        pte_line = 2 * LINES_PER_PAGE  # a DRAM (page-table-ish) line
        hmc.mmu_hint(0, pte_line, pid=1, vpn=5, target_ppn=hmc.dram_pages)
        assert stats.get("hmc/mmu_hints") == 1
        assert stats.get("mmu_driver/hints") == 1

    def test_hints_disabled(self):
        hmc, _, stats = make_hmc(mmu_hints_enabled=False)
        hmc.mmu_hint(0, 0, pid=1, vpn=5, target_ppn=hmc.dram_pages)
        assert stats.get("hmc/mmu_hints") == 0

    def test_hint_prefetches_prtc(self):
        hmc, _, stats = make_hmc()
        target = hmc.dram_pages  # NVM page, colour 0
        hmc.mmu_hint(0, 2 * LINES_PER_PAGE, pid=1, vpn=5, target_ppn=target)
        assert hmc.prtc.contains(hmc.prt.colour_of(target))

    def test_hot_history_triggers_mmu_swap(self):
        from repro.core.pct import PctEntry

        hmc, config, stats = make_hmc()
        target = hmc.dram_pages
        threshold = config.pageseer.pct_prefetch_threshold
        hmc.pct.write(target, PctEntry(threshold, None, 0))
        hmc.mmu_hint(0, 2 * LINES_PER_PAGE, pid=1, vpn=5, target_ppn=target)
        assert stats.get("swap_driver/swaps_mmu") == 1
        assert hmc.prt.is_swapped(target)

    def test_cold_history_no_swap(self):
        hmc, _, stats = make_hmc()
        hmc.mmu_hint(0, 2 * LINES_PER_PAGE, pid=1, vpn=5, target_ppn=hmc.dram_pages)
        assert stats.get("swap_driver/swaps_mmu") == 0

    def test_follower_swapped_with_correlation(self):
        from repro.core.pct import PctEntry

        hmc, config, stats = make_hmc()
        threshold = config.pageseer.pct_prefetch_threshold
        target = hmc.dram_pages
        follower = hmc.dram_pages + 1
        hmc.pct.write(target, PctEntry(threshold, follower, threshold))
        hmc.mmu_hint(0, 2 * LINES_PER_PAGE, pid=1, vpn=5, target_ppn=target)
        assert stats.get("swap_driver/swaps_mmu") == 2
        assert hmc.prt.is_swapped(follower)

    def test_follower_ignored_without_correlation(self):
        from repro.core.pct import PctEntry

        hmc, config, stats = make_hmc(correlation_enabled=False)
        threshold = config.pageseer.pct_prefetch_threshold
        target = hmc.dram_pages
        follower = hmc.dram_pages + 1
        hmc.pct.write(target, PctEntry(threshold, follower, threshold))
        hmc.mmu_hint(0, 2 * LINES_PER_PAGE, pid=1, vpn=5, target_ppn=target)
        assert not hmc.prt.is_swapped(follower)


class TestPteInterception:
    def test_hinted_pte_intercepted(self):
        hmc, _, stats = make_hmc()
        pte_line = 2 * LINES_PER_PAGE
        hmc.mmu_hint(0, pte_line, pid=1, vpn=5, target_ppn=hmc.dram_pages)
        finish = hmc.handle_pte_fetch(10_000, pte_line, hmc.dram_pages, pid=1)
        assert stats.get("mmu_driver/intercept_hits") == 1
        assert finish >= 10_000

    def test_unhinted_pte_goes_to_memory(self):
        hmc, _, stats = make_hmc()
        hmc.handle_pte_fetch(0, 2 * LINES_PER_PAGE, hmc.dram_pages, pid=1)
        assert stats.get("mmu_driver/intercept_misses") == 1
        assert stats.get("hmc/requests_pte") == 1


class TestPrefetchAccuracy:
    def test_accurate_prefetch(self):
        from repro.core.pct import PctEntry

        hmc, config, stats = make_hmc()
        threshold = config.pageseer.pct_prefetch_threshold
        target = hmc.dram_pages
        hmc.pct.write(target, PctEntry(threshold, None, 0))
        hmc.mmu_hint(0, 2 * LINES_PER_PAGE, pid=1, vpn=5, target_ppn=target)
        # Hit the swapped page enough times to justify the swap.
        now = hmc.swap_driver.records[0].end + 1
        line = target * LINES_PER_PAGE
        for k in range(threshold + 1):
            now = hmc.handle_request(now + 1, line + k % LINES_PER_PAGE, False, 1)
        hmc.finalize(now)
        assert stats.get("hmc/prefetch_swaps_accurate") == 1
        assert stats.get("hmc/prefetch_swaps_inaccurate") == 0

    def test_inaccurate_prefetch(self):
        from repro.core.pct import PctEntry

        hmc, config, stats = make_hmc()
        target = hmc.dram_pages
        hmc.pct.write(target, PctEntry(config.pageseer.pct_prefetch_threshold, None, 0))
        hmc.mmu_hint(0, 2 * LINES_PER_PAGE, pid=1, vpn=5, target_ppn=target)
        hmc.finalize(1_000_000)
        assert stats.get("hmc/prefetch_swaps_inaccurate") == 1


class TestFilterIntegration:
    def test_flurry_learned_and_written_back(self):
        hmc, config, _ = make_hmc()
        page_a = hmc.dram_pages + 2
        page_b = hmc.dram_pages + 3
        now = 0
        for _ in range(20):
            now = hmc.handle_request(now + 1, page_a * LINES_PER_PAGE, False, 1)
        for _ in range(20):
            now = hmc.handle_request(now + 1, page_b * LINES_PER_PAGE, False, 1)
        hmc.finalize(now)
        # finalize drains the Filter into the PCTc (the in-DRAM PCT is only
        # written on PCTc eviction of a changed entry).
        entry = hmc.pctc.lookup(page_a)
        assert entry is not None
        assert entry.count >= config.pageseer.pct_prefetch_threshold
        assert entry.follower_ppn == page_b
