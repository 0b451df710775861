"""Unit tests for trace recording and replay (repro.workloads.trace)."""

import itertools

import pytest

from repro.sim.cpu import MemoryOp
from repro.workloads import workload_by_name
from repro.workloads.chunks import ops_from_blocks
from repro.workloads.trace import (
    TraceFormatError,
    read_trace,
    record_trace,
    trace_replay_blocks,
    trace_workload,
    write_trace,
)
from repro.common.rng import DeterministicRng


OPS = [
    MemoryOp(0x1000, False, 5),
    MemoryOp(0x1040, True, 3),
    MemoryOp(0x2000, False, 10),
]


class TestRoundtrip:
    def test_write_read(self, tmp_path):
        path = tmp_path / "t.trace"
        assert write_trace(path, OPS) == 3
        assert read_trace(path) == OPS

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "t.trace"
        path.write_text("# comment\n\n1000 r 5\n")
        assert read_trace(path) == [MemoryOp(0x1000, False, 5)]

    def test_write_flag_roundtrip(self, tmp_path):
        path = tmp_path / "t.trace"
        write_trace(path, [MemoryOp(0x10, True, 0)])
        assert read_trace(path)[0].is_write


class TestValidation:
    @pytest.mark.parametrize(
        "content",
        ["garbage", "1000 x 5", "zz r 5", "1000 r -3", "1000 r", ""],
    )
    def test_malformed_rejected(self, tmp_path, content):
        path = tmp_path / "bad.trace"
        path.write_text(content + "\n")
        with pytest.raises(TraceFormatError):
            read_trace(path)


class TestReplay:
    def test_replay_loops(self, tmp_path):
        path = tmp_path / "t.trace"
        write_trace(path, OPS)
        rng = DeterministicRng("t")
        blocks = trace_replay_blocks(rng, 0, path=str(path))
        replayed = list(itertools.islice(ops_from_blocks(blocks), 7))
        assert replayed == OPS + OPS + OPS[:1]


class TestTraceWorkload:
    def test_record_and_simulate(self, tmp_path):
        source = workload_by_name("milcx4")
        paths = []
        for core in range(2):
            path = tmp_path / f"core{core}.trace"
            count = record_trace(source, core, 400, path, scale=1024)
            assert count == 400
            paths.append(path)

        spec = trace_workload("recorded", paths)
        assert spec.cores == 2
        assert spec.suite == "trace"

        from repro.sim.system import System
        from repro.common.config import default_system_config

        config = default_system_config(scale=1024, cores=2)
        system = System(config, "noswap", spec, scale=1024)
        metrics = system.run(measure_ops=200, warmup_ops=100)
        assert metrics.instructions > 0
        assert metrics.total_serviced > 0

    def test_replay_matches_source(self, tmp_path):
        """Replaying a recorded trace reproduces the source stream."""
        source = workload_by_name("milcx4")
        path = tmp_path / "c0.trace"
        record_trace(source, 0, 100, path, scale=1024)
        original = list(itertools.islice(source.make_stream(0, 0, 1024), 100))
        assert read_trace(path) == original

    def test_needs_paths(self):
        with pytest.raises(Exception):
            trace_workload("empty", [])
