"""Property suite for the array-native stream layer.

Pins the contract the engine and the checkpointer both rely on:

* :func:`chunks_from_blocks` is a pure coalescer — chunk columns are the
  concatenation of the block columns, block boundaries never split, and
  every chunk except the last reaches the target size;
* :func:`ops_from_blocks` (the per-op view) carries the same sequence;
* :class:`ReplayStream`'s ``peek_chunk``/``advance`` protocol hands out
  one sequence whatever the advance step pattern, and it is the sequence
  :meth:`WorkloadSpec.make_stream` (the trace recorder's view) yields;
* a pickled stream restores at any ``consumed`` point — including
  mid-chunk, and from the older state format that carried a stream
  mode — and the remaining sequence is bit-identical.
"""

import itertools
import pickle

from hypothesis import assume, given, settings, strategies as st

from repro.workloads import all_workloads
from repro.workloads.base import unique_workload
from repro.workloads.chunks import OpChunk, chunks_from_blocks, ops_from_blocks
from repro.snapshot.stream import ReplayStream

from tests.conftest import take_ops

# -- synthetic block streams (coalescer-level properties) ------------------

_blocks = st.lists(
    st.integers(1, 40).flatmap(
        lambda n: st.tuples(
            st.lists(st.integers(0, 2**20), min_size=n, max_size=n),
            st.lists(st.booleans(), min_size=n, max_size=n),
            st.lists(st.integers(0, 50), min_size=n, max_size=n),
        )
    ),
    max_size=30,
)

_targets = st.integers(1, 64)


def _columns(blocks):
    vaddrs, writes, instr = [], [], []
    for block_vaddrs, block_writes, block_instr in blocks:
        vaddrs += block_vaddrs
        writes += block_writes
        instr += block_instr
    return vaddrs, writes, instr


class TestChunkCoalescer:
    @given(blocks=_blocks, target=_targets)
    @settings(max_examples=200, deadline=None)
    def test_chunks_concatenate_to_block_columns(self, blocks, target):
        chunks = list(chunks_from_blocks(iter(blocks), target))
        vaddrs, writes, instr = _columns(blocks)
        assert [v for c in chunks for v in c.vaddrs] == vaddrs
        assert [w for c in chunks for w in c.writes] == writes
        assert [i for c in chunks for i in c.instr] == instr

    @given(blocks=_blocks, target=_targets)
    @settings(max_examples=200, deadline=None)
    def test_block_boundaries_never_split(self, blocks, target):
        """Every chunk edge is a block edge: chunk lengths are partial
        sums of block lengths, and all but the last chunk reach target."""
        chunks = list(chunks_from_blocks(iter(blocks), target))
        block_edges = set()
        total = 0
        for block_vaddrs, _, _ in blocks:
            total += len(block_vaddrs)
            block_edges.add(total)
        consumed = 0
        for index, chunk in enumerate(chunks):
            consumed += chunk.length
            assert consumed in block_edges, "chunk edge split a block"
            if index < len(chunks) - 1:
                assert chunk.length >= target

    @given(blocks=_blocks)
    @settings(max_examples=100, deadline=None)
    def test_op_view_matches_chunk_op_at(self, blocks):
        ops = list(ops_from_blocks(iter(blocks)))
        chunks = list(chunks_from_blocks(iter(blocks), 16))
        index = 0
        for chunk in chunks:
            for offset in range(chunk.length):
                materialized = chunk.op_at(offset)
                reference = ops[index]
                assert materialized.vaddr == reference.vaddr
                assert materialized.is_write == reference.is_write
                assert (
                    materialized.instructions_before
                    == reference.instructions_before
                )
                index += 1
        assert index == len(ops)


# -- ReplayStream consumption protocols ------------------------------------

_GENERATORS = ("stream_sweep", "hot_cold", "pointer_chase", "random_mix")


def _workload(generator):
    return unique_workload("prop", "test", 1, 64, generator)


def _stream(generator, seed):
    return ReplayStream(_workload(generator), core_id=0, seed=seed, scale=1024)


_SUITE = {spec.name: spec for spec in all_workloads()}


class TestReplayStreamProtocols:
    @given(
        generator=st.sampled_from(_GENERATORS),
        seed=st.integers(0, 2**16),
        advances=st.lists(st.integers(1, 64), min_size=1, max_size=20),
    )
    @settings(max_examples=40, deadline=None)
    def test_advance_patterns_hand_out_one_sequence(
        self, generator, seed, advances
    ):
        """Multi-op advances see exactly the ops single-op advances hand
        out, whatever the step pattern."""
        reference = _stream(generator, seed)
        stream = _stream(generator, seed)
        for step in advances:
            peeked = stream.peek_chunk()
            assert peeked is not None, "synthetic streams are infinite"
            chunk, pos = peeked
            take = min(step, chunk.length - pos)
            window = [chunk.op_at(pos + k) for k in range(take)]
            stream.advance(take)
            assert window == take_ops(reference, take)
        assert stream.consumed == reference.consumed

    @given(
        name=st.sampled_from(sorted(_SUITE)),
        core=st.integers(0, 7),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=30, deadline=None)
    def test_run_stream_is_the_recorded_stream(self, name, core, seed):
        """What a run simulates is what ``trace-record`` writes: over any
        Table III workload, the stream hands out exactly the ops of
        ``WorkloadSpec.make_stream``, the per-op view traces record."""
        spec = _SUITE[name]
        core_id = core % spec.cores
        recorded = list(itertools.islice(spec.make_stream(core_id, seed, 1024), 300))
        stream = ReplayStream(spec, core_id=core_id, seed=seed, scale=1024)
        assert take_ops(stream, 300) == recorded

    @given(
        generator=st.sampled_from(_GENERATORS),
        seed=st.integers(0, 2**16),
        consumed=st.integers(0, 700),
        remaining=st.integers(1, 200),
    )
    @settings(max_examples=40, deadline=None)
    def test_pickle_round_trip_resumes_mid_chunk(
        self, generator, seed, consumed, remaining
    ):
        """Restore at any consumption point — whole-chunk or interior —
        and the continuation is bit-identical."""
        reference = _stream(generator, seed)
        take_ops(reference, consumed)
        restored = pickle.loads(pickle.dumps(reference))
        assert restored.consumed == consumed
        assert take_ops(restored, remaining) == take_ops(reference, remaining)

    @given(
        generator=st.sampled_from(_GENERATORS),
        seed=st.integers(0, 2**16),
        consumed=st.integers(1, 700),
        mode=st.sampled_from(["chunked", "perop"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_older_six_field_state_restores(self, generator, seed, consumed, mode):
        """Checkpoints written before stream modes were removed pickle a
        stream as ``(workload, core_id, seed, scale, consumed, mode)``.
        Both modes emitted one op sequence, so the mode is ignored: the
        restored stream continues exactly like a fresh one."""
        fresh = _stream(generator, seed)
        take_ops(fresh, consumed)
        assume(fresh.peek_chunk()[1] > 0)  # an interior (mid-chunk) cut
        restored = ReplayStream.__new__(ReplayStream)
        restored.__setstate__((_workload(generator), 0, seed, 1024, consumed, mode))
        assert restored.consumed == consumed
        assert take_ops(restored, 100) == take_ops(fresh, 100)

    @given(seed=st.integers(0, 2**16))
    @settings(max_examples=20, deadline=None)
    def test_advance_rejects_cross_chunk_counts(self, seed):
        stream = _stream("stream_sweep", seed)
        chunk, pos = stream.peek_chunk()
        stream.advance(0)  # no-op by contract
        assert stream.consumed == 0
        try:
            stream.advance(chunk.length - pos + 1)
        except ValueError:
            pass
        else:
            raise AssertionError("advance past the buffered chunk must raise")
        assert stream.consumed == 0


class TestOpChunkInvariants:
    @given(
        vaddrs=st.lists(st.integers(0, 2**30), max_size=64),
    )
    @settings(max_examples=100, deadline=None)
    def test_length_matches_columns(self, vaddrs):
        chunk = OpChunk(vaddrs, [False] * len(vaddrs), [0] * len(vaddrs))
        assert chunk.length == len(chunk) == len(vaddrs)
        if vaddrs:
            array = chunk.vaddr_array()
            assert array.tolist() == vaddrs
            assert chunk.vaddr_array() is array, "numpy view is cached"
