"""Unit tests for the Table III workload suite (repro.workloads.suites)."""

import itertools

import pytest

from repro.workloads import all_workloads, footprint_pages_for, workload_by_name
from repro.workloads.base import MIN_FOOTPRINT_PAGES
from repro.workloads.suites import (
    BENCHMARKS,
    MIX_DEFINITIONS,
    MIX_WORKLOADS,
    UNIQUE_WORKLOADS,
)


class TestTableIII:
    def test_twenty_unique_workloads(self):
        assert len(UNIQUE_WORKLOADS) == 20

    def test_six_mixes(self):
        assert len(MIX_WORKLOADS) == 6

    def test_total_26(self):
        assert len(all_workloads()) == 26

    def test_suite_sizes_match_paper(self):
        suites = {}
        for spec in UNIQUE_WORKLOADS:
            suites.setdefault(spec.suite, []).append(spec)
        assert len(suites["spec"]) == 8
        assert len(suites["splash3"]) == 6
        assert len(suites["coral"]) == 6

    @pytest.mark.parametrize(
        "bench_name,cores",
        [("lbm", 4), ("mcf", 8), ("libquantum", 6), ("omnetpp", 8),
         ("leslie3d", 12), ("barnes", 8), ("stream", 4)],
    )
    def test_instance_counts(self, bench_name, cores):
        spec = workload_by_name(f"{bench_name}x{cores}")
        assert spec.cores == cores

    @pytest.mark.parametrize(
        "bench_name,mb",
        [("lbm", 422), ("milc", 380), ("GemsFDTD", 502), ("LULESH", 914),
         ("oceanCon", 887), ("leslie3d", 62), ("fft", 768)],
    )
    def test_footprints(self, bench_name, mb):
        assert BENCHMARKS[bench_name][1] == mb

    def test_mixes_have_four_parts(self):
        for spec in MIX_WORKLOADS:
            assert spec.cores == 4
            assert spec.is_mix

    def test_mix_members_match_paper(self):
        assert MIX_DEFINITIONS["mix1"] == ["lbm", "LULESH", "SNAP", "leslie3d"]
        assert MIX_DEFINITIONS["mix6"] == ["libquantum", "lbm", "mcf", "bwaves"]

    def test_all_mix_members_defined(self):
        for members in MIX_DEFINITIONS.values():
            for benchmark in members:
                assert benchmark in BENCHMARKS

    def test_lookup_by_name(self):
        assert workload_by_name("mix3").is_mix
        with pytest.raises(KeyError):
            workload_by_name("nonexistent")


class TestStreams:
    def test_unique_workload_cores_share_archetype(self):
        spec = workload_by_name("lbmx4")
        parts = {p.benchmark for p in spec.parts}
        assert parts == {"lbm"}

    def test_mix_cores_differ(self):
        spec = workload_by_name("mix1")
        assert len({p.benchmark for p in spec.parts}) == 4

    def test_streams_decorrelated_across_cores(self):
        spec = workload_by_name("lbmx4")
        a = list(itertools.islice(spec.make_stream(0, 0, 512), 100))
        b = list(itertools.islice(spec.make_stream(1, 0, 512), 100))
        assert a != b

    def test_streams_deterministic_per_seed(self):
        spec = workload_by_name("mix2")
        a = list(itertools.islice(spec.make_stream(2, 7, 512), 100))
        b = list(itertools.islice(spec.make_stream(2, 7, 512), 100))
        assert a == b

    def test_streams_vary_with_seed(self):
        spec = workload_by_name("milcx4")
        a = list(itertools.islice(spec.make_stream(0, 1, 512), 200))
        b = list(itertools.islice(spec.make_stream(0, 2, 512), 200))
        assert a != b


class TestFootprints:
    def test_scaling(self):
        # 422 MB at scale 512 -> ~211 pages.
        pages = footprint_pages_for(422, 512)
        assert pages == 422 * 1024 * 1024 // 512 // 4096

    def test_floor(self):
        assert footprint_pages_for(1, 100_000) == MIN_FOOTPRINT_PAGES

    def test_workload_total_footprint(self):
        spec = workload_by_name("lbmx4")
        assert spec.footprint_pages(512) == 4 * footprint_pages_for(422, 512)

    def test_ratios_preserved_above_floor(self):
        # Footprint ratios survive scaling for workloads above the
        # MIN_FOOTPRINT_PAGES floor.
        big = footprint_pages_for(914, 512)
        mid = footprint_pages_for(422, 512)
        assert big / mid == pytest.approx(914 / 422, rel=0.05)

    def test_small_footprints_clamped(self):
        # leslie3d (62 MB) scales below the floor and gets clamped.
        assert footprint_pages_for(62, 512) == MIN_FOOTPRINT_PAGES
