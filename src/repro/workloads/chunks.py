"""Struct-of-arrays op blocks and chunks (the array-native stream layer).

Workload generators (``BLOCK_GENERATORS``) yield *blocks*: plain tuples
``(vaddrs, writes, instr)`` of parallel Python lists, one block per
natural emission unit (a page flurry, a trace pass).  The
:class:`repro.snapshot.stream.ReplayStream` every core reads coalesces
blocks into :class:`OpChunk` batches for the engine's bulk-classify
kernel, and :func:`ops_from_blocks` is the per-op view of the same
blocks for consumers that want :class:`MemoryOp` objects (trace
recording, tests).  ``tests/property/test_chunk_streams.py`` pins that
the coalescer and the per-op view carry the identical op sequence.

Blocks stay Python lists (exact ``int``/``bool`` element types, cheap
scalar indexing for the escape path); :meth:`OpChunk.vaddr_array` lifts a
chunk into numpy on demand for the vectorized prep kernel.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Tuple

from repro.sim.cpu import MemoryOp

try:  # numpy backs the chunk prep kernel; the views work without it
    import numpy as _np
except ImportError:  # pragma: no cover - the toolchain image bakes numpy in
    _np = None

#: One block: parallel (vaddrs, writes, instructions-before) lists.
Block = Tuple[List[int], List[bool], List[int]]

#: Target operations per chunk.  Large enough to amortize the numpy prep
#: kernel (~10 vector ops per chunk), small enough that a chunk stays a
#: few flurries and mid-chunk checkpoint cuts stay cheap to fast-forward.
CHUNK_OPS = 512


class OpChunk:
    """A struct-of-arrays batch of memory references.

    ``vaddrs``/``writes``/``instr`` are parallel Python lists; the numpy
    views are derived lazily and cached (the chunk is immutable once
    built).  A ``__slots__`` class: one per ~:data:`CHUNK_OPS` ops.
    """

    __slots__ = ("vaddrs", "writes", "instr", "length", "_va_array")

    def __init__(self, vaddrs: List[int], writes: List[bool], instr: List[int]):
        self.vaddrs = vaddrs
        self.writes = writes
        self.instr = instr
        #: ``len(vaddrs)``, precomputed: the stream consumption path reads
        #: the chunk length on every advance, so it is an attribute, not a
        #: ``__len__`` dispatch.
        self.length = len(vaddrs)
        self._va_array = None

    def __len__(self) -> int:
        return self.length

    def vaddr_array(self):
        """The vaddr column as an int64 numpy vector (cached)."""
        array = self._va_array
        if array is None:
            array = _np.array(self.vaddrs, dtype=_np.int64)
            self._va_array = array
        return array

    def op_at(self, index: int) -> MemoryOp:
        """Materialize one reference as a scalar :class:`MemoryOp`."""
        return MemoryOp(self.vaddrs[index], self.writes[index], self.instr[index])

    def __repr__(self) -> str:
        return f"OpChunk(ops={len(self.vaddrs)})"


def ops_from_blocks(blocks: Iterable[Block]) -> Iterator[MemoryOp]:
    """The per-op view of a block stream (same ops, same order)."""
    for vaddrs, writes, instr in blocks:
        for vaddr, write, instructions in zip(vaddrs, writes, instr):
            yield MemoryOp(vaddr, write, instructions)


def chunks_from_blocks(
    blocks: Iterable[Block], target: int = CHUNK_OPS
) -> Iterator[OpChunk]:
    """Coalesce blocks into chunks of at least *target* ops.

    Block boundaries never split: a chunk ends at the first block edge at
    or past *target*, so a chunk is always a whole number of emission
    units and the op order is exactly the concatenation of the blocks.
    """
    vaddrs: List[int] = []
    writes: List[bool] = []
    instr: List[int] = []
    for block_vaddrs, block_writes, block_instr in blocks:
        vaddrs += block_vaddrs
        writes += block_writes
        instr += block_instr
        if len(vaddrs) >= target:
            yield OpChunk(vaddrs, writes, instr)
            vaddrs = []
            writes = []
            instr = []
    if vaddrs:
        yield OpChunk(vaddrs, writes, instr)
