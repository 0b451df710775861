"""Unit tests for the MemPod baseline (repro.baselines.mempod)."""

import dataclasses

import pytest

from repro.common.config import default_system_config
from repro.common.stats import StatsRegistry
from repro.baselines.mempod import MajorityElementTracker, MemPodHmc
from repro.vm.os_model import OsModel


def make_mempod(cores=1):
    config = default_system_config(scale=1024, cores=cores)
    stats = StatsRegistry()
    os_model = OsModel(config.memory)
    return MemPodHmc(config, os_model, stats), config, stats


def slow_line(hmc, index=0, offset=0):
    return (hmc.fast_segments + index) * hmc.lines_per_segment + offset


class TestMea:
    def test_counts(self):
        mea = MajorityElementTracker(4)
        mea.observe(1)
        mea.observe(1)
        assert mea.count_of(1) == 2

    def test_capacity_replacement_inherits_min(self):
        mea = MajorityElementTracker(2)
        mea.observe(1)
        mea.observe(1)
        mea.observe(2)
        mea.observe(3)  # replaces 2 (count 1) with count 2
        assert mea.count_of(3) == 2
        assert mea.count_of(2) == 0
        assert mea.occupancy == 2

    def test_heavy_elements_sorted(self):
        mea = MajorityElementTracker(8)
        for _ in range(5):
            mea.observe(1)
        for _ in range(3):
            mea.observe(2)
        mea.observe(3)
        assert mea.heavy_elements(minimum_count=2) == [1, 2]

    def test_reset(self):
        mea = MajorityElementTracker(4)
        mea.observe(1)
        mea.reset()
        assert mea.occupancy == 0

    def test_requires_capacity(self):
        with pytest.raises(ValueError):
            MajorityElementTracker(0)


class TestPods:
    def test_pods_partition_fast_slots(self):
        hmc, config, _ = make_mempod()
        slots = []
        for pod in hmc._pods:
            slots.extend(pod.fast_slots)
        assert sorted(slots) == list(range(hmc.fast_segments))

    @pytest.mark.parametrize("pods", [2, 3, 5, 7])
    def test_pod_of_owns_each_pods_fast_slots(self, pods):
        config = default_system_config(scale=1024, cores=1)
        config = dataclasses.replace(
            config, mempod=dataclasses.replace(config.mempod, pods=pods)
        )
        hmc = MemPodHmc(config, OsModel(config.memory), StatsRegistry())
        assert len(hmc._pods) == pods
        for pod in hmc._pods:
            assert all(hmc.pod_of(slot) is pod for slot in pod.fast_slots)

    def test_pod_of_consistency(self):
        hmc, _, _ = make_mempod()
        for segment in (0, hmc.fast_segments - 1, hmc.fast_segments,
                        hmc.total_segments - 1):
            pod = hmc.pod_of(segment)
            assert pod in hmc._pods


class TestRequests:
    def test_slow_request_observed_by_mea(self):
        hmc, _, _ = make_mempod()
        hmc.handle_request(0, slow_line(hmc, 5), False, 1)
        segment = hmc.fast_segments + 5
        assert hmc.pod_of(segment).mea.count_of(segment) == 1

    def test_fast_request_not_observed(self):
        hmc, _, _ = make_mempod()
        line = (hmc.fast_segments - 1) * hmc.lines_per_segment
        hmc.handle_request(0, line, False, 1)
        for pod in hmc._pods:
            assert pod.mea.occupancy == 0

    def test_remap_cache_miss_recorded(self):
        hmc, _, stats = make_mempod()
        hmc.handle_request(0, slow_line(hmc), False, 1)
        assert stats.get("mempod/remap_misses") == 1


class TestMigrations:
    def drive_hot_segment(self, hmc, config, index=0, misses=8):
        now = 0
        for k in range(misses):
            now = hmc.handle_request(now + 1, slow_line(hmc, index, k % 32), False, 1)
        return now

    def test_no_migration_within_interval(self, ):
        hmc, config, stats = make_mempod()
        self.drive_hot_segment(hmc, config)
        assert stats.get("mempod/migrations") == 0

    def test_migration_at_interval_boundary(self):
        hmc, config, stats = make_mempod()
        now = self.drive_hot_segment(hmc, config, index=5)
        # Cross the interval: the next request triggers the burst.
        hmc.handle_request(config.mempod.interval_cycles + 1, slow_line(hmc, 99), False, 1)
        assert stats.get("mempod/migrations") >= 1
        segment = hmc.fast_segments + 5
        assert hmc.pod_of(segment).slot(segment) < hmc.fast_segments

    def test_mea_reset_after_interval(self):
        hmc, config, _ = make_mempod()
        self.drive_hot_segment(hmc, config, index=5)
        hmc.handle_request(config.mempod.interval_cycles + 1, slow_line(hmc, 99), False, 1)
        segment = hmc.fast_segments + 5
        pod = hmc.pod_of(segment)
        # Only the post-boundary observation remains.
        assert pod.mea.count_of(segment) == 0

    def test_post_migration_serviced_dram(self):
        hmc, config, stats = make_mempod()
        self.drive_hot_segment(hmc, config, index=5, misses=10)
        boundary = config.mempod.interval_cycles + 1
        hmc.handle_request(boundary, slow_line(hmc, 99), False, 1)
        end = max(hmc._active.values()) if hmc._active else boundary
        dram_before = stats.get("hmc/serviced_dram")
        hmc.handle_request(end + 10, slow_line(hmc, 5), False, 1)
        assert stats.get("hmc/serviced_dram") == dram_before + 1

    def test_protected_slots_skipped(self):
        hmc, config, _ = make_mempod()
        # Pod 0 owns the metadata-protected low slots; verify its picker
        # never returns a protected slot.
        pod = hmc._pods[0]
        for _ in range(len(pod.fast_slots) * 2):
            slot = hmc._pick_fast_slot(pod)
            if slot is None:
                break
            assert not hmc._segment_is_protected(slot)
