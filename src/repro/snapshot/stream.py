"""Checkpointable workload streams.

Workload generators are infinite Python generators and cannot be pickled.
They are, however, *deterministic*: a stream is fully described by its
:class:`repro.workloads.base.WorkloadSpec`, core id, seed, and scale,
plus how many operations have been consumed.  :class:`ReplayStream`
buffers the generator's output one :class:`repro.workloads.chunks.OpChunk`
at a time, counts consumption, and serializes as that description; on
restore it rebuilds the chunk iterator and fast-forwards it by the
recorded count — whole chunks are skipped (their RNG draws replay
exactly), and the final partial chunk is re-entered at the recorded
mid-chunk offset.

Consumption has exactly one counter, moved by exactly one method:
:meth:`ReplayStream.advance`.  The engine reads ops through
:meth:`peek_chunk` and never reaches into private generator state.

Fast-forward cost is linear in ops consumed so far — microseconds per
thousand ops, paid once per restore, never on the simulation hot path.
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

from repro.workloads.base import WorkloadSpec
from repro.workloads.chunks import OpChunk, chunks_from_blocks


class ReplayStream:
    """An op stream that can be pickled and rebuilt mid-flight."""

    __slots__ = (
        "workload", "core_id", "seed", "scale", "consumed",
        "_chunks", "_chunk", "_pos",
    )

    def __init__(self, workload: WorkloadSpec, core_id: int, seed: int, scale: int):
        self.workload = workload
        self.core_id = core_id
        self.seed = seed
        self.scale = scale
        #: Operations handed out so far (== the fast-forward distance).
        self.consumed = 0
        self._chunks: Iterator[OpChunk] = self._make_chunks()
        #: The buffered chunk and the offset of its next unconsumed op.
        self._chunk: Optional[OpChunk] = None
        self._pos = 0

    def _make_chunks(self) -> Iterator[OpChunk]:
        return chunks_from_blocks(
            self.workload.make_blocks(self.core_id, self.seed, self.scale)
        )

    # -- consumption ------------------------------------------------------
    def peek_chunk(self) -> Optional[Tuple[OpChunk, int]]:
        """The buffered chunk and the offset of its next unconsumed op.

        Pulls the next chunk from the generator when the buffer is empty;
        returns None when the stream is exhausted.  Peeking consumes
        nothing — only :meth:`advance` moves ``consumed``, so a
        fetched-but-unexecuted op is never counted.
        """
        chunk = self._chunk
        if chunk is None:
            chunk = next(self._chunks, None)
            if chunk is None:
                return None
            self._chunk = chunk
            self._pos = 0
        return chunk, self._pos

    # repro-hot
    def advance(self, count: int) -> None:
        """Mark *count* ops of the buffered chunk as consumed."""
        chunk = self._chunk
        pos = self._pos + count
        if chunk is not None and 0 < count and pos <= chunk.length:
            self.consumed += count
            if pos == chunk.length:
                self._chunk = None
                self._pos = 0
            else:
                self._pos = pos
            return
        if count == 0:
            return
        raise ValueError(
            f"advance({count}) outside the buffered chunk "
            f"(pos={self._pos}, chunk={chunk!r})"
        )

    # -- pickling ----------------------------------------------------------
    def __getstate__(self):
        return (self.workload, self.core_id, self.seed, self.scale, self.consumed)

    def __setstate__(self, state) -> None:
        workload, core_id, seed, scale, consumed = state
        self.workload = workload
        self.core_id = core_id
        self.seed = seed
        self.scale = scale
        self.consumed = consumed
        self._chunks = self._make_chunks()
        self._chunk = None
        self._pos = 0
        remaining = consumed
        while remaining > 0:
            chunk = next(self._chunks)
            if remaining < len(chunk):
                self._chunk = chunk
                self._pos = remaining
                break
            remaining -= len(chunk)

    def __repr__(self) -> str:
        return (
            f"ReplayStream({self.workload.name}, core={self.core_id}, "
            f"seed={self.seed}, scale={self.scale}, consumed={self.consumed})"
        )
