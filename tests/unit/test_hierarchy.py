"""Unit tests for the cache hierarchy (repro.cache.hierarchy)."""

import pytest

from repro.common.config import default_system_config
from repro.common.stats import StatsRegistry
from repro.cache.hierarchy import CacheHierarchy


@pytest.fixture
def hierarchy():
    config = default_system_config(scale=1024, cores=2)
    return CacheHierarchy(config, StatsRegistry())


class TestMissPath:
    def test_cold_access_is_llc_miss(self, hierarchy):
        outcome = hierarchy.access(0, 100, is_write=False)
        assert outcome.llc_miss
        assert outcome.hit_level is None

    def test_miss_latency_sums_all_levels(self, hierarchy):
        config = hierarchy.config
        outcome = hierarchy.access(0, 100, is_write=False)
        expected = (
            config.l1.latency_cycles
            + config.l2.latency_cycles
            + config.l3.latency_cycles
        )
        assert outcome.latency_cycles == expected

    def test_miss_installs_everywhere(self, hierarchy):
        hierarchy.access(0, 100, is_write=False)
        assert hierarchy.l1[0].contains(100)
        assert hierarchy.l2[0].contains(100)
        assert hierarchy.l3.contains(100)


class TestHitPath:
    def test_second_access_hits_l1(self, hierarchy):
        hierarchy.access(0, 100, False)
        outcome = hierarchy.access(0, 100, False)
        assert outcome.hit_level == "l1"
        assert outcome.latency_cycles == hierarchy.config.l1.latency_cycles

    def test_other_core_hits_shared_l3(self, hierarchy):
        hierarchy.access(0, 100, False)
        outcome = hierarchy.access(1, 100, False)
        assert outcome.hit_level == "l3"

    def test_l3_hit_promotes_to_private_levels(self, hierarchy):
        hierarchy.access(0, 100, False)
        hierarchy.access(1, 100, False)
        outcome = hierarchy.access(1, 100, False)
        assert outcome.hit_level == "l1"


class TestPteBypass:
    """PTE lines are cacheable in L2/L3 but never in L1 (Section II-C)."""

    def test_uncacheable_l1_skips_l1(self, hierarchy):
        hierarchy.access(0, 200, False, cacheable_l1=False)
        assert not hierarchy.l1[0].contains(200)
        assert hierarchy.l2[0].contains(200)
        assert hierarchy.l3.contains(200)

    def test_uncacheable_l1_hit_in_l2(self, hierarchy):
        hierarchy.access(0, 200, False, cacheable_l1=False)
        outcome = hierarchy.access(0, 200, False, cacheable_l1=False)
        assert outcome.hit_level == "l2"

    def test_uncacheable_latency_excludes_l1(self, hierarchy):
        outcome = hierarchy.access(0, 200, False, cacheable_l1=False)
        expected = (
            hierarchy.config.l2.latency_cycles + hierarchy.config.l3.latency_cycles
        )
        assert outcome.latency_cycles == expected

    def test_uncacheable_write_is_refused_before_any_level(self, hierarchy):
        """The uncached path is read-only: a write raises ValueError and
        leaves every level and counter as it was."""
        with pytest.raises(ValueError):
            hierarchy.access(0, 200, True, cacheable_l1=False)
        assert not hierarchy.l2[0].contains(200)
        assert not hierarchy.l3.contains(200)
        assert hierarchy.stats.as_dict() == {}


class TestWritebacks:
    def test_dirty_eviction_surfaces(self, hierarchy):
        """Filling past L1 capacity with dirty lines must emit write-backs."""
        l1 = hierarchy.config.l1
        lines_that_alias = [
            100 + k * l1.num_sets for k in range(l1.ways + 2)
        ]
        writebacks = []
        for line in lines_that_alias:
            outcome = hierarchy.access(0, line, is_write=True)
            writebacks.extend(outcome.writebacks)
        assert writebacks, "expected at least one dirty write-back"

    def test_clean_evictions_silent(self, hierarchy):
        l1 = hierarchy.config.l1
        for k in range(l1.ways + 4):
            outcome = hierarchy.access(0, 100 + k * l1.num_sets, is_write=False)
            # reads evicted from L1 may still be dirty in no case here
            for wb in outcome.writebacks:
                # any write-back must come from a dirty line; none were written
                raise AssertionError("unexpected write-back of a clean line")


class TestStats:
    def test_llc_miss_counted(self, hierarchy):
        hierarchy.access(0, 100, False)
        assert hierarchy.stats.get("cache/llc_misses") == 1

    def test_hits_counted(self, hierarchy):
        hierarchy.access(0, 100, False)
        hierarchy.access(0, 100, False)
        assert hierarchy.stats.get("cache/l1_hits") == 1
