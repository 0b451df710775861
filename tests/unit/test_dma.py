"""Unit tests for the DMA freeze protocol (Section III-E)."""

from repro.common.addr import LINES_PER_PAGE
from repro.core.pct import PctEntry

from tests.unit.test_pageseer_hmc import make_hmc, nvm_line


class TestFreeze:
    def test_freeze_blocks_swaps(self):
        hmc, config, stats = make_hmc()
        page = nvm_line(hmc) // LINES_PER_PAGE
        ready = hmc.dma_begin(0, page)
        assert ready == 0
        assert hmc.is_frozen(page)
        # Drive the page hot: the HPT would normally swap it.
        now = 0
        for k in range(config.pageseer.hpt_swap_threshold + 2):
            now = hmc.handle_request(now + 1, page * LINES_PER_PAGE + k, False, 1)
        assert not hmc.prt.is_swapped(page)
        assert stats.get("swap_driver/declined_frozen") >= 1

    def test_unfreeze_reenables_swaps(self):
        hmc, config, _ = make_hmc()
        page = nvm_line(hmc) // LINES_PER_PAGE
        hmc.dma_begin(0, page)
        hmc.dma_end(page)
        assert not hmc.is_frozen(page)
        hmc.pct.write(page, PctEntry(config.pageseer.pct_prefetch_threshold, None, 0))
        hmc.mmu_hint(10, 2 * LINES_PER_PAGE, pid=1, vpn=5, target_ppn=page)
        assert hmc.prt.is_swapped(page)

    def test_dma_waits_for_inflight_swap(self):
        hmc, config, _ = make_hmc()
        page = nvm_line(hmc) // LINES_PER_PAGE
        hmc.pct.write(page, PctEntry(config.pageseer.pct_prefetch_threshold, None, 0))
        hmc.mmu_hint(0, 2 * LINES_PER_PAGE, pid=1, vpn=5, target_ppn=page)
        record = hmc.swap_driver.records[0]
        mid = (record.start + record.end) // 2
        ready = hmc.dma_begin(mid, page)
        assert ready == record.end

    def test_frozen_frame_not_picked_as_victim(self):
        hmc, config, _ = make_hmc()
        # Freeze all frames of colour 0 and ask for a swap into that colour.
        target = nvm_line(hmc) // LINES_PER_PAGE
        colour = hmc.prt.colour_of(target)
        for frame in hmc.prt.dram_frames_of_colour(colour):
            hmc.dma_begin(0, frame)
        assert not hmc.swap_driver.request_swap(0, target, "regular", 0.0)

    def test_dma_requests_remap_through_prt(self):
        """DMA traffic goes through handle_request and sees the remapping."""
        hmc, config, stats = make_hmc()
        page = nvm_line(hmc) // LINES_PER_PAGE
        hmc.pct.write(page, PctEntry(config.pageseer.pct_prefetch_threshold, None, 0))
        hmc.mmu_hint(0, 2 * LINES_PER_PAGE, pid=1, vpn=5, target_ppn=page)
        end = hmc.swap_driver.records[0].end
        ready = hmc.dma_begin(end + 1, page)
        hmc.handle_request(ready + 1, page * LINES_PER_PAGE, False, pid=0)
        # The page's data is in DRAM now; the DMA read was serviced there.
        assert stats.get("hmc/serviced_dram") >= 1
        hmc.dma_end(page)

    def test_double_freeze_and_end_idempotent(self):
        hmc, _, _ = make_hmc()
        page = nvm_line(hmc) // LINES_PER_PAGE
        hmc.dma_begin(0, page)
        hmc.dma_begin(5, page)
        hmc.dma_end(page)
        hmc.dma_end(page)
        assert not hmc.is_frozen(page)
