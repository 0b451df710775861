"""Synthetic memory-access generators (the workload archetypes).

Every archetype is a *block* generator yielding struct-of-arrays bursts
(see :mod:`repro.workloads.chunks`), registered in
:data:`BLOCK_GENERATORS`; :func:`repro.workloads.chunks.ops_from_blocks`
turns any of them into a per-op :class:`repro.sim.cpu.MemoryOp` iterator
for consumers that want one.  The runner bounds the number of
operations — generators are infinite.  The archetypes are chosen so
that the page-grain behaviours the paper's mechanisms key off — per-page
LLC-miss flurries, stable or shifting leader/follower page orders, page
re-visitation, TLB pressure — appear with controllable intensity.  All
randomness flows from the passed :class:`repro.common.rng.DeterministicRng`.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, Optional, Sequence

from repro.common.addr import CACHE_LINE_BYTES, LINES_PER_PAGE, PAGE_BYTES
from repro.common.rng import DeterministicRng
from repro.workloads.chunks import Block, ops_from_blocks

#: Base of the synthetic heap in each process's virtual space.
HEAP_BASE = 0x1000_0000_0000


def _page_va(page_index: int) -> int:
    return HEAP_BASE + page_index * PAGE_BYTES


#: Memoized block columns.  A flurry's vaddr column is a pure function
#: of ``(page_index, shape)`` and its instructions column of
#: ``(instructions, length)``; workloads revisit the same pages with the
#: same shapes constantly, so the lists are built once and shared.
#: Blocks are read-only downstream — the chunk coalescer and
#: :func:`ops_from_blocks` copy elements, never mutate — and the write
#: column, the only RNG-dependent one, is always freshly drawn.  The caches are cleared
#: when oversized so pathological sweeps (property tests) stay bounded.
_VADDR_CACHE: Dict = {}
_INSTR_CACHE: Dict = {}
_CACHE_LIMIT = 65536


# repro-hot
def _flurry_block(
    page_index: int,
    line_stride: int,
    write_fraction: float,
    instructions: int,
    rng: DeterministicRng,
    lines: Optional[Sequence[int]] = None,
) -> Block:
    """One burst of references inside one page, as parallel arrays.

    The write draws happen one per line in line order, so fast-forward by
    op count lands the RNG in a state that reproduces the same suffix.
    """
    if lines is None:
        key = (page_index, line_stride)
    elif type(lines) is range:
        # 4-tuples cannot collide with the 2-tuple stride keys.
        key = (page_index, lines.start, lines.stop, lines.step)
    else:
        key = None  # rng.sample shapes: unique per call, not cacheable
    vaddrs = _VADDR_CACHE.get(key) if key is not None else None
    if vaddrs is None:
        base = _page_va(page_index)
        indices = (
            lines if lines is not None else range(0, LINES_PER_PAGE, line_stride)
        )
        vaddrs = [base + line_index * CACHE_LINE_BYTES for line_index in indices]
        if key is not None:
            if len(_VADDR_CACHE) >= _CACHE_LIMIT:
                _VADDR_CACHE.clear()
            _VADDR_CACHE[key] = vaddrs
    random = rng.random
    writes = [random() < write_fraction for _ in vaddrs]
    ikey = (instructions, len(vaddrs))
    instr = _INSTR_CACHE.get(ikey)
    if instr is None:
        instr = [instructions] * len(vaddrs)
        if len(_INSTR_CACHE) >= _CACHE_LIMIT:
            _INSTR_CACHE.clear()
        _INSTR_CACHE[ikey] = instr
    return vaddrs, writes, instr


def stream_sweep_blocks(
    rng: DeterministicRng,
    footprint_pages: int,
    arrays: int = 3,
    line_stride: int = 1,
    write_fraction: float = 0.3,
    instructions: int = 40,
) -> Iterator[Block]:
    """Sequential sweeps over several arrays in lockstep.

    Models lbm / STREAM / bwaves / libquantum-style kernels: page flurries
    arrive in a stable order (page ``i`` of array A, then of array B, ...),
    giving the PCT a perfectly learnable leader->follower structure and the
    TLB a steady stream of new pages.
    """
    arrays = max(1, min(arrays, footprint_pages))
    pages_per_array = footprint_pages // arrays
    bases = [a * pages_per_array for a in range(arrays)]
    while True:
        for position in range(pages_per_array):
            for base in bases:
                yield _flurry_block(
                    base + position, line_stride, write_fraction, instructions, rng
                )


def pointer_chase_blocks(
    rng: DeterministicRng,
    footprint_pages: int,
    lines_per_visit: int = 2,
    write_fraction: float = 0.1,
    instructions: int = 55,
) -> Iterator[Block]:
    """A fixed random tour over pages, few lines per visit.

    Models mcf / omnetpp / barnes-style linked-structure traversal: low
    spatial locality within a page and modest per-page miss counts, which
    starves prefetch-swap triggers (these benchmarks sit in Figure 10's
    "few prefetch swaps" group).
    """
    order = rng.permutation(footprint_pages)
    while True:
        for page_index in order:
            lines = rng.sample(range(LINES_PER_PAGE), min(lines_per_visit, LINES_PER_PAGE))
            yield _flurry_block(
                page_index, 1, write_fraction, instructions, rng, lines=lines
            )


def hot_cold_blocks(
    rng: DeterministicRng,
    footprint_pages: int,
    hot_fraction: float = 0.12,
    hot_probability: float = 0.8,
    flurry_lines: int = 20,
    write_fraction: float = 0.25,
    instructions: int = 40,
) -> Iterator[Block]:
    """A small hot set absorbing most flurries, a large cold tail.

    Models milc / MILCmk-style behaviour: hot pages are revisited with
    dense flurries (prefetch-swap material), cold pages are touched
    sparsely.
    """
    hot_pages = max(1, int(footprint_pages * hot_fraction))
    cold_lines = max(2, flurry_lines // 5)
    while True:
        if rng.random() < hot_probability:
            page_index = rng.zipf_index(hot_pages, skew=0.8)
            lines = range(0, min(flurry_lines, LINES_PER_PAGE))
        else:
            page_index = hot_pages + rng.randint(0, max(0, footprint_pages - hot_pages - 1))
            lines = range(0, cold_lines)
        yield _flurry_block(
            page_index, 1, write_fraction, instructions, rng, lines=lines
        )


def phased_sweep_blocks(
    rng: DeterministicRng,
    footprint_pages: int,
    line_stride: int = 1,
    write_fraction: float = 0.35,
    instructions: int = 40,
    pages_per_phase: int = 0,
) -> Iterator[Block]:
    """Sweeps whose page order is reshuffled every phase.

    Models GemsFDTD / fft / radix: pages still see dense flurries, but the
    follower of a page changes between phases, which degrades correlation
    prefetching accuracy (the effect behind GemsFDTD's 28.3% in Figure 9).
    """
    if pages_per_phase <= 0:
        pages_per_phase = footprint_pages
    while True:
        order = rng.permutation(footprint_pages)
        emitted = 0
        for page_index in order:
            yield _flurry_block(page_index, line_stride, write_fraction, instructions, rng)
            emitted += 1
            if emitted >= pages_per_phase:
                break


def stencil_sweep_blocks(
    rng: DeterministicRng,
    footprint_pages: int,
    arrays: int = 4,
    row_pages: int = 8,
    line_stride: int = 1,
    write_fraction: float = 0.3,
    instructions: int = 45,
    neighbour_probability: float = 0.2,
) -> Iterator[Block]:
    """Structured-grid sweeps with occasional neighbour-row touches.

    Models LULESH / oceanCon / miniFE / leslie3d: the main sweep produces
    stable, dense flurries (these kernels are bandwidth-bound streams at
    page granularity), and a minority of positions also touch a page
    ``row_pages`` away — the grid's other spatial dimension.
    """
    arrays = max(1, min(arrays, footprint_pages))
    pages_per_array = footprint_pages // arrays
    bases = [a * pages_per_array for a in range(arrays)]
    while True:
        for position in range(pages_per_array):
            for base in bases:
                page_index = base + position
                yield _flurry_block(
                    page_index, line_stride, write_fraction, instructions, rng
                )
                if rng.random() < neighbour_probability:
                    direction = row_pages if rng.random() < 0.5 else -row_pages
                    neighbour = position + direction
                    if 0 <= neighbour < pages_per_array:
                        lines = [rng.randint(0, LINES_PER_PAGE - 1)]
                        yield _flurry_block(
                            base + neighbour, 1, write_fraction, instructions, rng,
                            lines=lines,
                        )


def random_mix_blocks(
    rng: DeterministicRng,
    footprint_pages: int,
    streamed_fraction: float = 0.5,
    line_stride: int = 1,
    write_fraction: float = 0.3,
    instructions: int = 45,
) -> Iterator[Block]:
    """Interleaved streaming and scattered single-line references.

    Models AMGmk / luNCon / SNAP-style sparse kernels: a structured sweep
    carries the bulk of traffic while random gathers hit arbitrary pages.
    The sweep and the scatter own independent derived RNG streams, so
    pulling whole sweep flurries at once draws the identical per-stream
    sequences the op-at-a-time interleave drew.
    """
    sweep = ops_from_blocks(stream_sweep_blocks(
        rng.derive("sweep"), footprint_pages, arrays=2,
        line_stride=line_stride, write_fraction=write_fraction,
        instructions=instructions,
    ))
    scatter_rng = rng.derive("scatter")
    while True:
        if scatter_rng.random() < streamed_fraction:
            op = next(sweep)
            yield [op.vaddr], [op.is_write], [op.instructions_before]
        else:
            page_index = scatter_rng.randint(0, footprint_pages - 1)
            lines = [scatter_rng.randint(0, LINES_PER_PAGE - 1)]
            yield _flurry_block(
                page_index, 1, write_fraction, instructions, scatter_rng, lines=lines
            )


def blocked_sweep_blocks(
    rng: DeterministicRng,
    footprint_pages: int,
    block_pages: int = 32,
    passes_per_block: int = 2,
    line_stride: int = 1,
    write_fraction: float = 0.4,
    instructions: int = 35,
) -> Iterator[Block]:
    """Blocked computation revisiting each block several times.

    Models luCon / fft-style blocked kernels: a block's pages get repeated
    dense flurries (strong swap candidates), then the computation moves on.
    """
    block_pages = max(1, min(block_pages, footprint_pages))
    while True:
        for block_start in range(0, footprint_pages, block_pages):
            block_end = min(block_start + block_pages, footprint_pages)
            for _ in range(passes_per_block):
                for page_index in range(block_start, block_end):
                    yield _flurry_block(
                        page_index, line_stride, write_fraction, instructions, rng
                    )


#: The archetype registry the suite definitions name generators from.
#: Plugins (:mod:`repro.workloads.extras`, :mod:`repro.workloads.trace`)
#: add theirs here.  Every entry is a block generator: called as
#: ``generator(rng, footprint_pages, **params)`` it yields
#: ``(vaddrs, writes, instr)`` blocks forever.
BLOCK_GENERATORS: Dict[str, Callable[..., Iterator[Block]]] = {
    "stream_sweep": stream_sweep_blocks,
    "pointer_chase": pointer_chase_blocks,
    "hot_cold": hot_cold_blocks,
    "phased_sweep": phased_sweep_blocks,
    "stencil_sweep": stencil_sweep_blocks,
    "random_mix": random_mix_blocks,
    "blocked_sweep": blocked_sweep_blocks,
}
