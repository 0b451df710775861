"""Unit tests for the CAMEO baseline (repro.baselines.cameo)."""

import dataclasses

from repro.common.config import FaultConfig, default_system_config
from repro.common.stats import StatsRegistry
from repro.baselines.cameo import CameoHmc
from repro.vm.os_model import OsModel


def make_cameo(cores=1):
    config = default_system_config(scale=1024, cores=cores)
    stats = StatsRegistry()
    os_model = OsModel(config.memory)
    return CameoHmc(config, os_model, stats), config, stats


def slow_line(hmc, index=0):
    return hmc.fast_lines + index


class TestGeometry:
    def test_line_counts(self):
        hmc, config, _ = make_cameo()
        assert hmc.fast_lines == config.memory.dram.capacity_bytes // 64
        assert hmc.slow_lines == config.memory.nvm.capacity_bytes // 64

    def test_groups_direct_mapped(self):
        hmc, _, _ = make_cameo()
        fast = hmc.fast_lines
        assert hmc.group_of(0) == 0
        assert hmc.group_of(fast) == 0
        assert hmc.group_of(fast + 3) == 3
        assert hmc.group_of(fast + fast) == 0


class TestSwapOnEveryAccess:
    def test_slow_access_swaps_immediately(self):
        hmc, _, stats = make_cameo()
        # Use a group whose fast slot is not metadata-protected.
        line = slow_line(hmc, hmc.fast_lines - 1)
        hmc.handle_request(0, line, False, 1)
        assert stats.get("cameo/swaps") == 1
        assert hmc._slots.slot(line) < hmc.fast_lines

    def test_first_access_still_serviced_slow(self):
        hmc, _, stats = make_cameo()
        line = slow_line(hmc, hmc.fast_lines - 1)
        hmc.handle_request(0, line, False, 1)
        assert stats.get("hmc/serviced_nvm") == 1

    def test_second_access_serviced_fast(self):
        hmc, _, stats = make_cameo()
        line = slow_line(hmc, hmc.fast_lines - 1)
        finish = hmc.handle_request(0, line, False, 1)
        hmc.handle_request(finish + 1000, line, False, 1)
        assert stats.get("hmc/serviced_dram") == 1

    def test_conflicting_lines_thrash(self):
        """Two same-group hot lines evict each other (CAMEO's weakness)."""
        hmc, _, stats = make_cameo()
        a = slow_line(hmc, hmc.fast_lines - 1)
        b = a + hmc.fast_lines  # same group
        now = 0
        for _ in range(4):
            now = hmc.handle_request(now + 1000, a, False, 1)
            now = hmc.handle_request(now + 1000, b, False, 1)
        # Every access misses to slow memory because the other line
        # displaced it: all (or all but the first) swaps keep happening.
        assert stats.get("cameo/swaps") >= 7

    def test_protected_group_not_swapped(self):
        hmc, _, stats = make_cameo()
        assert hmc._line_is_protected(0)
        hmc.handle_request(0, slow_line(hmc, 0), False, 1)
        assert stats.get("cameo/swaps") == 0
        assert stats.get("cameo/declined_protected") == 1

    def test_displaced_line_tracked(self):
        hmc, _, _ = make_cameo()
        line = slow_line(hmc, hmc.fast_lines - 1)
        fast_slot = hmc.group_of(line)
        hmc.handle_request(0, line, False, 1)
        assert hmc._slots.slot(fast_slot) == line  # old occupant now at line's home


class TestRemapCache:
    def test_miss_then_hit(self):
        hmc, _, stats = make_cameo()
        line = slow_line(hmc, hmc.fast_lines - 1)
        hmc.handle_request(0, line, False, 1)
        hmc.handle_request(5000, line, False, 1)
        assert stats.get("cameo/remap_misses") == 1
        assert stats.get("cameo/remap_hits") == 1

    def test_line_granularity_metadata_thrashes(self):
        """Distinct lines need distinct entries — unlike PoM's 2KB groups."""
        hmc, _, stats = make_cameo()
        capacity = hmc._remap_capacity
        base = slow_line(hmc, hmc.fast_lines - 1)
        now = 0
        for k in range(capacity + 8):
            now = hmc.handle_request(now + 100, base - 64 * k, False, 1)
        # Revisit the first line: its entry has been evicted.
        misses_before = stats.get("cameo/remap_misses")
        hmc.handle_request(now + 100, base, False, 1)
        assert stats.get("cameo/remap_misses") == misses_before + 1


class TestInjectedFaults:
    def test_fault_during_swap_aborts_it(self):
        """The 64 B swap issues to the devices themselves, not through the
        retrying line entries, so an injected fault aborts it untouched."""
        config = dataclasses.replace(
            default_system_config(scale=1024, cores=1),
            faults=FaultConfig(enabled=True, transient_rate=1.0, max_retries=0),
        )
        stats = StatsRegistry()
        hmc = CameoHmc(config, OsModel(config.memory), stats)
        line = slow_line(hmc, hmc.fast_lines - 1)
        hmc.handle_request(0, line, False, 1)
        # The demand read itself degrades instead of failing.
        assert stats.get("faults/degraded_services") >= 1
        assert stats.get("cameo/aborted_swaps") == 1
        assert stats.get("cameo/swaps") == 0
        assert hmc._slots.slot(line) == line
