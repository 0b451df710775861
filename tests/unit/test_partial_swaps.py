"""Unit tests for the SILC-FM partial-swap extension (Section VI)."""

from repro.common.addr import LINES_PER_PAGE
from repro.core.pct import PctEntry

from tests.unit.test_pageseer_hmc import make_hmc, nvm_line


def make_partial_hmc(**extra):
    # The NVM HPT is neutralised (threshold at counter max) so the tests
    # control exactly when swaps happen via the MMU-hint path.
    extra.setdefault("hpt_swap_threshold", 63)
    return make_hmc(partial_swaps_enabled=True, **extra)


def build_sparse_usage(hmc, page, lines):
    """Touch only *lines* of the page so the bitmap marks them hot."""
    now = 0
    for offset in lines:
        now = hmc.handle_request(now + 1, page * LINES_PER_PAGE + offset, False, 1)
    return now


def seed_hot_history(hmc, page, threshold, follower=None):
    """Give *page* a hot PCT history in both the DRAM PCT and the PCTc.

    (Touching the page during bitmap building leaves a cold PCTc entry
    that would otherwise shadow a write to the in-DRAM PCT.)"""
    entry = PctEntry(threshold, follower, threshold if follower else 0)
    hmc.pct.write(page, entry)
    hmc.pctc.update(page, entry, effective_change=True)


class TestPartialSwapExecution:
    def test_sparse_page_swapped_partially(self):
        hmc, config, stats = make_partial_hmc()
        page = nvm_line(hmc) // LINES_PER_PAGE
        build_sparse_usage(hmc, page, range(8))
        seed_hot_history(hmc, page, config.pageseer.pct_prefetch_threshold)
        hmc.mmu_hint(10_000, 2 * LINES_PER_PAGE, pid=1, vpn=5, target_ppn=page)
        assert hmc.prt.is_swapped(page)
        assert stats.get("swap_driver/partial_swaps") == 1
        residue = hmc.swap_driver.partial_residue[page]
        # The 8 touched lines moved; 56 remain as residue.
        assert bin(residue).count("1") == LINES_PER_PAGE - 8

    def test_dense_page_swapped_whole(self):
        hmc, config, stats = make_partial_hmc()
        page = nvm_line(hmc) // LINES_PER_PAGE
        build_sparse_usage(hmc, page, range(config.pageseer.partial_swap_full_threshold))
        assert not hmc.prt.is_swapped(page)
        seed_hot_history(hmc, page, config.pageseer.pct_prefetch_threshold)
        hmc.mmu_hint(10_000, 2 * LINES_PER_PAGE, pid=1, vpn=5, target_ppn=page)
        assert hmc.prt.is_swapped(page)
        assert stats.get("swap_driver/partial_swaps") == 0
        assert page not in hmc.swap_driver.partial_residue

    def test_unknown_bitmap_moves_whole_page(self):
        hmc, config, stats = make_partial_hmc()
        page = nvm_line(hmc, index=3) // LINES_PER_PAGE
        hmc.pct.write(page, PctEntry(config.pageseer.pct_prefetch_threshold, None, 0))
        hmc.mmu_hint(0, 2 * LINES_PER_PAGE, pid=1, vpn=5, target_ppn=page)
        assert hmc.prt.is_swapped(page)
        assert page not in hmc.swap_driver.partial_residue

    def test_disabled_by_default(self):
        hmc, config, stats = make_hmc()
        page = nvm_line(hmc) // LINES_PER_PAGE
        build_sparse_usage(hmc, page, range(4))
        assert stats.get("swap_driver/partial_swaps") == 0


class TestResidueMigration:
    def make_partially_swapped(self):
        hmc, config, stats = make_partial_hmc()
        page = nvm_line(hmc) // LINES_PER_PAGE
        build_sparse_usage(hmc, page, range(8))
        seed_hot_history(hmc, page, config.pageseer.pct_prefetch_threshold)
        hmc.mmu_hint(10_000, 2 * LINES_PER_PAGE, pid=1, vpn=5, target_ppn=page)
        assert page in hmc.swap_driver.partial_residue
        end = hmc.swap_driver.records[-1].end
        return hmc, stats, page, end

    def test_moved_line_serviced_dram(self):
        hmc, stats, page, end = self.make_partially_swapped()
        dram_before = stats.get("hmc/serviced_dram")
        hmc.handle_request(end + 10, page * LINES_PER_PAGE + 0, False, 1)
        assert stats.get("hmc/serviced_dram") == dram_before + 1

    def test_residue_line_serviced_from_home_then_migrated(self):
        hmc, stats, page, end = self.make_partially_swapped()
        offset = 40  # untouched line
        assert hmc.swap_driver.partial_residue[page] & (1 << offset)
        nvm_before = stats.get("hmc/serviced_nvm")
        hmc.handle_request(end + 10, page * LINES_PER_PAGE + offset, False, 1)
        assert stats.get("hmc/serviced_nvm") == nvm_before + 1
        assert stats.get("hmc/residue_line_migrations") == 1
        # The line migrated: the residue bit is cleared.
        assert not hmc.swap_driver.partial_residue.get(page, 0) & (1 << offset)

    def test_migrated_residue_line_hits_dram_next(self):
        hmc, stats, page, end = self.make_partially_swapped()
        offset = 40
        finish = hmc.handle_request(end + 10, page * LINES_PER_PAGE + offset, False, 1)
        dram_before = stats.get("hmc/serviced_dram")
        hmc.handle_request(finish + 1000, page * LINES_PER_PAGE + offset, False, 1)
        assert stats.get("hmc/serviced_dram") == dram_before + 1

    def test_residue_cleared_on_swap_out(self):
        hmc, stats, page, end = self.make_partially_swapped()
        # Force the page out by filling its colour with other swaps.
        colour = hmc.prt.colour_of(page)
        now = end + 1
        evicted = False
        for index in range(1, 12):
            candidate = hmc.dram_pages + colour + index * hmc.prt.num_colours
            if candidate >= hmc.total_pages:
                break
            if hmc.swap_driver.request_swap(now, candidate, "regular", 0.0):
                now = hmc.swap_driver.records[-1].end + 1
            if not hmc.prt.is_swapped(page):
                evicted = True
                break
        if evicted:
            assert page not in hmc.swap_driver.partial_residue
