"""Property-based tests for the workload generators."""

import itertools

from hypothesis import given, settings, strategies as st

from repro.common.addr import page_of
from repro.common.rng import DeterministicRng
from repro.workloads.base import BenchmarkPart, footprint_pages_for
from repro.workloads.chunks import ops_from_blocks
from repro.workloads.synthetic import BLOCK_GENERATORS, HEAP_BASE

ARCHETYPES = sorted(
    name for name in BLOCK_GENERATORS
    if name not in ("trace",)
)


def ops_of(name, rng, footprint):
    """The per-op view of archetype *name*'s block stream."""
    return ops_from_blocks(BLOCK_GENERATORS[name](rng, footprint))

footprints = st.integers(min_value=8, max_value=300)
seeds = st.integers(min_value=0, max_value=2**31)


class TestGeneratorProperties:
    @given(
        name=st.sampled_from(ARCHETYPES),
        footprint=footprints,
        seed=seeds,
    )
    @settings(max_examples=60, deadline=None)
    def test_bounded_addresses_any_footprint(self, name, footprint, seed):
        rng = DeterministicRng(f"prop/{name}", seed)
        ops = list(itertools.islice(ops_of(name, rng, footprint), 600))
        for op in ops:
            page = page_of(op.vaddr - HEAP_BASE)
            assert 0 <= page < footprint

    @given(name=st.sampled_from(ARCHETYPES), seed=seeds)
    @settings(max_examples=40, deadline=None)
    def test_seed_determinism(self, name, seed):
        a = list(itertools.islice(ops_of(name, DeterministicRng("p", seed), 64), 300))
        b = list(itertools.islice(ops_of(name, DeterministicRng("p", seed), 64), 300))
        assert a == b

    @given(name=st.sampled_from(ARCHETYPES), footprint=footprints)
    @settings(max_examples=40, deadline=None)
    def test_eventually_covers_many_pages(self, name, footprint):
        rng = DeterministicRng(f"cov/{name}", 1)
        ops = itertools.islice(ops_of(name, rng, footprint), 20_000)
        pages = {page_of(op.vaddr - HEAP_BASE) for op in ops}
        # Every archetype must exercise a substantial part of its footprint
        # (hot/cold archetypes are skewed but still touch the cold tail).
        assert len(pages) >= footprint // 4

    @given(
        mb=st.floats(min_value=0.1, max_value=2000),
        scale=st.sampled_from([1, 64, 256, 512, 1024]),
    )
    @settings(max_examples=100, deadline=None)
    def test_footprint_scaling_monotone(self, mb, scale):
        pages = footprint_pages_for(mb, scale)
        bigger = footprint_pages_for(mb * 2, scale)
        assert bigger >= pages
        assert pages >= 1


class TestBenchmarkPartProperties:
    @given(seed=seeds)
    @settings(max_examples=30, deadline=None)
    def test_part_streams_respect_params(self, seed):
        part = BenchmarkPart("custom", "stream_sweep", 100, {"arrays": 2})
        rng = DeterministicRng("part", seed)
        ops = list(itertools.islice(ops_from_blocks(part.make_blocks(rng, 512)), 200))
        assert len(ops) == 200
