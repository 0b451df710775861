"""Unit tests for the workload generators (repro.workloads.synthetic)."""

import itertools

import pytest

from repro.common.addr import LINES_PER_PAGE, PAGE_BYTES, page_of
from repro.common.rng import DeterministicRng
from repro.workloads.chunks import ops_from_blocks
from repro.workloads.synthetic import (
    BLOCK_GENERATORS,
    HEAP_BASE,
    blocked_sweep_blocks,
    hot_cold_blocks,
    phased_sweep_blocks,
    pointer_chase_blocks,
    random_mix_blocks,
    stencil_sweep_blocks,
    stream_sweep_blocks,
)

FOOTPRINT = 64

#: The synthetic archetypes ("trace" is a file-replay adapter with its own
#: tests and needs a path argument).
ARCHETYPES = sorted(name for name in BLOCK_GENERATORS if name != "trace")


def take(blocks, n):
    """The first *n* ops of a block generator."""
    return list(itertools.islice(ops_from_blocks(blocks), n))


def rng(name="t"):
    return DeterministicRng(name, 0)


class TestCommonProperties:
    @pytest.mark.parametrize("name", ARCHETYPES)
    def test_addresses_within_footprint(self, name):
        ops = take(BLOCK_GENERATORS[name](rng(name), FOOTPRINT), 2000)
        for op in ops:
            page = page_of(op.vaddr - HEAP_BASE)
            assert 0 <= page < FOOTPRINT

    @pytest.mark.parametrize("name", ARCHETYPES)
    def test_deterministic(self, name):
        a = take(BLOCK_GENERATORS[name](rng(name), FOOTPRINT), 500)
        b = take(BLOCK_GENERATORS[name](rng(name), FOOTPRINT), 500)
        assert a == b

    @pytest.mark.parametrize("name", ARCHETYPES)
    def test_instructions_positive(self, name):
        ops = take(BLOCK_GENERATORS[name](rng(name), FOOTPRINT), 200)
        assert all(op.instructions_before > 0 for op in ops)

    @pytest.mark.parametrize("name", ARCHETYPES)
    def test_mixes_reads_and_writes(self, name):
        ops = take(BLOCK_GENERATORS[name](rng(name), FOOTPRINT), 2000)
        kinds = {op.is_write for op in ops}
        assert kinds == {True, False}

    @pytest.mark.parametrize("name", ARCHETYPES)
    def test_infinite(self, name):
        blocks = BLOCK_GENERATORS[name](rng(name), FOOTPRINT)
        assert len(take(blocks, 10_000)) == 10_000


class TestStreamSweep:
    def test_flurries_are_page_dense(self):
        ops = take(stream_sweep_blocks(rng(), FOOTPRINT, arrays=1), LINES_PER_PAGE)
        pages = {page_of(op.vaddr) for op in ops}
        assert len(pages) == 1

    def test_arrays_interleave(self):
        ops = take(stream_sweep_blocks(rng(), FOOTPRINT, arrays=2), 2 * LINES_PER_PAGE)
        pages = [page_of(op.vaddr - HEAP_BASE) for op in ops]
        assert pages[0] != pages[LINES_PER_PAGE]

    def test_stable_page_order_across_sweeps(self):
        per_sweep = (FOOTPRINT // 2) * 2 * LINES_PER_PAGE
        ops = take(stream_sweep_blocks(rng(), FOOTPRINT, arrays=2), 2 * per_sweep)
        first = [page_of(op.vaddr) for op in ops[:per_sweep]]
        second = [page_of(op.vaddr) for op in ops[per_sweep:]]
        assert first == second


class TestPointerChase:
    def test_sparse_page_visits(self):
        ops = take(pointer_chase_blocks(rng(), FOOTPRINT, lines_per_visit=2), 2 * FOOTPRINT)
        pages = [page_of(op.vaddr) for op in ops]
        # Each page visited for exactly lines_per_visit consecutive refs.
        for k in range(0, len(pages), 2):
            assert pages[k] == pages[k + 1]

    def test_tour_covers_footprint(self):
        ops = take(pointer_chase_blocks(rng(), FOOTPRINT, lines_per_visit=1), FOOTPRINT)
        pages = {page_of(op.vaddr - HEAP_BASE) for op in ops}
        assert len(pages) == FOOTPRINT

    def test_tour_order_stable(self):
        ops = ops_from_blocks(pointer_chase_blocks(rng(), FOOTPRINT, lines_per_visit=1))
        first = [page_of(op.vaddr) for op in itertools.islice(ops, FOOTPRINT)]
        second = [page_of(op.vaddr) for op in itertools.islice(ops, FOOTPRINT)]
        assert first == second


class TestHotCold:
    def test_hot_pages_dominate(self):
        ops = take(hot_cold_blocks(rng(), 200, hot_fraction=0.1, hot_probability=0.8), 5000)
        hot_limit = 20
        hot = sum(1 for op in ops if page_of(op.vaddr - HEAP_BASE) < hot_limit)
        assert hot > len(ops) * 0.6

    def test_cold_flurries_sparse(self):
        ops = take(
            hot_cold_blocks(rng(), 200, hot_fraction=0.1, hot_probability=0.0,
                            flurry_lines=20),
            1000,
        )
        # Cold visits emit flurry_lines // 5 = 4 lines per page visit.
        pages = [page_of(op.vaddr) for op in ops]
        run_lengths = [len(list(g)) for _, g in itertools.groupby(pages)]
        assert max(run_lengths) <= 4


class TestPhasedSweep:
    def test_order_changes_between_phases(self):
        per_phase = FOOTPRINT * LINES_PER_PAGE
        ops = take(phased_sweep_blocks(rng(), FOOTPRINT), 2 * per_phase)
        first = [page_of(op.vaddr) for op in ops[:per_phase:LINES_PER_PAGE]]
        second = [page_of(op.vaddr) for op in ops[per_phase::LINES_PER_PAGE]]
        assert first != second
        assert sorted(first) == sorted(second)


class TestBlockedSweep:
    def test_blocks_revisited(self):
        ops = take(
            blocked_sweep_blocks(rng(), FOOTPRINT, block_pages=8, passes_per_block=2),
            2 * 8 * LINES_PER_PAGE,
        )
        pages = [page_of(op.vaddr - HEAP_BASE) for op in ops]
        first_pass = pages[: 8 * LINES_PER_PAGE]
        second_pass = pages[8 * LINES_PER_PAGE :]
        assert first_pass == second_pass
        assert set(first_pass) == set(range(8))


class TestStencil:
    def test_touches_neighbour_rows(self):
        ops = take(stencil_sweep_blocks(rng(), FOOTPRINT, arrays=1, row_pages=4), 4000)
        pages = {page_of(op.vaddr - HEAP_BASE) for op in ops}
        assert len(pages) > 10


class TestRandomMix:
    def test_blends_stream_and_scatter(self):
        ops = take(random_mix_blocks(rng(), FOOTPRINT, streamed_fraction=0.5), 4000)
        pages = [page_of(op.vaddr - HEAP_BASE) for op in ops]
        assert len(set(pages)) > FOOTPRINT // 2
