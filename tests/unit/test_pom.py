"""Unit tests for the PoM baseline (repro.baselines.pom)."""

from repro.common.config import default_system_config
from repro.common.stats import StatsRegistry
from repro.baselines.pom import PomHmc
from repro.vm.os_model import OsModel


def make_pom(cores=1):
    config = default_system_config(scale=1024, cores=cores)
    stats = StatsRegistry()
    os_model = OsModel(config.memory)
    return PomHmc(config, os_model, stats), config, stats


def slow_segment_line(hmc, index=0, offset=0):
    """A line in the index-th slow segment."""
    segment = hmc.fast_segments + index
    return segment * hmc.lines_per_segment + offset


class TestGeometry:
    def test_segment_sizes(self):
        hmc, config, _ = make_pom()
        assert hmc.lines_per_segment == 32
        assert hmc.fast_segments == config.memory.dram.capacity_bytes // 2048
        assert hmc.slow_segments == config.memory.nvm.capacity_bytes // 2048

    def test_groups_direct_mapped(self):
        hmc, _, _ = make_pom()
        fast = hmc.fast_segments
        assert hmc.group_of(0) == 0
        assert hmc.group_of(fast) == 0
        assert hmc.group_of(fast + 1) == 1
        assert hmc.group_of(fast + fast) == 0

    def test_group_of_fast_segment_is_itself(self):
        hmc, _, _ = make_pom()
        assert hmc.group_of(7) == 7


class TestRequests:
    def test_slow_request_serviced_nvm(self):
        hmc, _, stats = make_pom()
        hmc.handle_request(0, slow_segment_line(hmc), False, 1)
        assert stats.get("hmc/serviced_nvm") == 1

    def test_fast_request_serviced_dram(self):
        hmc, _, stats = make_pom()
        # Pick a fast segment beyond the reserved metadata pages.
        line = (hmc.fast_segments - 1) * hmc.lines_per_segment
        hmc.handle_request(0, line, False, 1)
        assert stats.get("hmc/serviced_dram") == 1

    def test_src_miss_recorded(self):
        hmc, _, stats = make_pom()
        hmc.handle_request(0, slow_segment_line(hmc), False, 1)
        assert stats.get("pom/src_misses") == 1
        assert stats.get("hmc/remap_misses") == 1

    def test_src_hit_after_fill(self):
        hmc, _, stats = make_pom()
        hmc.handle_request(0, slow_segment_line(hmc), False, 1)
        hmc.handle_request(10_000, slow_segment_line(hmc, offset=1), False, 1)
        assert stats.get("pom/src_hits") == 1


class TestSwaps:
    def run_threshold_misses(self, hmc, config, index=0, group_offset=0):
        now = 0
        for k in range(config.pom.swap_threshold):
            now = hmc.handle_request(
                now + 1, slow_segment_line(hmc, index, k % 32), False, 1
            )
        return now

    def test_threshold_triggers_fast_swap(self):
        hmc, config, stats = make_pom()
        # Choose a slow segment whose group's fast slot is not protected:
        # use the last group.
        index = hmc.fast_segments - 1
        self.run_threshold_misses(hmc, config, index=index)
        assert stats.get("pom/swaps") == 1

    def test_remap_after_swap(self):
        hmc, config, _ = make_pom()
        index = hmc.fast_segments - 1
        segment = hmc.fast_segments + index
        self.run_threshold_misses(hmc, config, index=index)
        assert hmc._slots.slot(segment) == hmc.group_of(segment)

    def test_post_swap_serviced_dram(self):
        hmc, config, stats = make_pom()
        index = hmc.fast_segments - 1
        now = self.run_threshold_misses(hmc, config, index=index)
        end = max(e for e in hmc._active.values())
        hmc.handle_request(end + 1, slow_segment_line(hmc, index), False, 1)
        assert stats.get("hmc/serviced_dram") >= 1

    def test_protected_group_never_swaps(self):
        hmc, config, stats = make_pom()
        # Group 0's fast slot covers reserved metadata pages.
        assert hmc._segment_is_protected(0)
        self.run_threshold_misses(hmc, config, index=0)
        assert stats.get("pom/swaps") == 0
        assert stats.get("pom/declined_protected") >= 1

    def test_displaced_occupant_tracked(self):
        hmc, config, _ = make_pom()
        index = hmc.fast_segments - 1
        fast_slot = hmc.group_of(hmc.fast_segments + index)
        self.run_threshold_misses(hmc, config, index=index)
        displaced = fast_slot  # original fast segment
        assert hmc._slots.slot(displaced) == hmc.fast_segments + index
        assert hmc._slots.occupant(hmc.fast_segments + index) == displaced

    def test_threshold_holds_across_decay_intervals(self):
        """K is the constant of Section IV-B: across decay intervals the
        K-th slow miss still swaps, and the (K-1)-th does not."""
        hmc, config, stats = make_pom()
        group = hmc.fast_segments - 1
        threshold = config.pom.swap_threshold
        now = 0
        for round_index in range(4):
            # Two slow members of one group take turns in its fast slot.
            member = group + (round_index % 2) * hmc.fast_segments
            for k in range(threshold):
                assert stats.get("pom/swaps") == round_index
                now = hmc.handle_request(
                    now + 1, slow_segment_line(hmc, member, k % 32), False, 1
                )
            assert stats.get("pom/swaps") == round_index + 1
            now += config.pom.counter_decay_interval_cycles

    def test_counter_resets_after_swap(self):
        hmc, config, _ = make_pom()
        index = hmc.fast_segments - 1
        self.run_threshold_misses(hmc, config, index=index)
        segment = hmc.fast_segments + index
        assert hmc._counters.get(segment, 0) == 0


class TestWaits:
    def test_request_mid_swap_waits(self):
        hmc, config, stats = make_pom()
        index = hmc.fast_segments - 1
        now = 0
        for k in range(config.pom.swap_threshold):
            now = hmc.handle_request(
                now + 1, slow_segment_line(hmc, index, k % 32), False, 1
            )
        # Immediately after the triggering miss, the swap is in flight.
        segment = hmc.fast_segments + index
        end = hmc._active[segment]
        finish = hmc.handle_request(now + 1, slow_segment_line(hmc, index), False, 1)
        assert finish >= end
        assert stats.get("pom/waits_for_swap") >= 1
