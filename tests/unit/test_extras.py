"""Unit tests for the extras workload suite (repro.workloads.extras)."""

import itertools

import pytest

from repro.common.addr import page_of
from repro.common.rng import DeterministicRng
from repro.sim.system import System
from repro.common.config import default_system_config
from repro.workloads.chunks import ops_from_blocks
from repro.workloads.extras import (
    EXTRA_WORKLOADS,
    btree_blocks,
    extra_workload_by_name,
    gups_blocks,
    scanjoin_blocks,
)
from repro.workloads.synthetic import BLOCK_GENERATORS, HEAP_BASE

FOOTPRINT = 128


def take(blocks, n):
    """The first *n* ops of a block generator."""
    return list(itertools.islice(ops_from_blocks(blocks), n))


def rng(name="x"):
    return DeterministicRng(name, 0)


class TestGenerators:
    @pytest.mark.parametrize("name", ["gups", "btree", "scanjoin"])
    def test_registered(self, name):
        assert name in BLOCK_GENERATORS

    @pytest.mark.parametrize("gen", [gups_blocks, btree_blocks, scanjoin_blocks])
    def test_addresses_in_footprint(self, gen):
        ops = take(gen(rng(), FOOTPRINT), 3000)
        for op in ops:
            assert 0 <= page_of(op.vaddr - HEAP_BASE) < FOOTPRINT

    @pytest.mark.parametrize("gen", [gups_blocks, btree_blocks, scanjoin_blocks])
    def test_deterministic(self, gen):
        assert take(gen(rng(), FOOTPRINT), 500) == take(gen(rng(), FOOTPRINT), 500)

    def test_gups_has_no_locality(self):
        ops = take(gups_blocks(rng(), FOOTPRINT), 4000)
        pages = [page_of(op.vaddr) for op in ops]
        runs = [len(list(g)) for _, g in itertools.groupby(pages)]
        assert max(runs) <= 3  # no flurries

    def test_btree_top_levels_hot(self):
        ops = take(btree_blocks(rng(), FOOTPRINT, hot_level_pages=8), 8000)
        hot = sum(1 for op in ops if page_of(op.vaddr - HEAP_BASE) < 8)
        # Every probe touches the root region several times.
        assert hot > len(ops) * 0.3

    def test_scanjoin_hash_table_hot(self):
        ops = take(scanjoin_blocks(rng(), FOOTPRINT, hash_table_fraction=0.1), 8000)
        hash_pages = int(FOOTPRINT * 0.1)
        probes = sum(1 for op in ops if page_of(op.vaddr - HEAP_BASE) < hash_pages)
        assert probes > 0


class TestExtraWorkloads:
    def test_three_extras(self):
        assert len(EXTRA_WORKLOADS) == 3
        assert all(spec.suite == "extras" for spec in EXTRA_WORKLOADS)

    def test_lookup(self):
        assert extra_workload_by_name("gupsx4").cores == 4
        with pytest.raises(KeyError):
            extra_workload_by_name("nope")

    def test_extras_do_not_pollute_table3(self):
        from repro.workloads import all_workloads

        names = {spec.name for spec in all_workloads()}
        assert "gupsx4" not in names

    def test_extras_simulate(self):
        spec = extra_workload_by_name("btreex4")
        config = default_system_config(scale=1024, cores=spec.cores)
        system = System(config, "pageseer", spec, 1024)
        metrics = system.run(400, 400)
        assert metrics.instructions > 0

    def test_gups_resists_swapping(self):
        """The adversarial case: GUPS pages never earn a prefetch swap."""
        spec = extra_workload_by_name("gupsx4")
        config = default_system_config(scale=1024, cores=spec.cores)
        system = System(config, "pageseer", spec, 1024)
        metrics = system.run(1500, 2000)
        assert metrics.prefetch_swaps <= metrics.swaps_total
        assert metrics.swaps_mmu < 20
