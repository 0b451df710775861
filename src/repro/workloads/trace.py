"""Trace-driven workloads: record, save, load, and replay access traces.

The synthetic archetypes stand in for benchmarks the simulator cannot run;
users who *do* have an address trace (from Pin, DynamoRIO, a full-system
simulator, ...) can replay it instead.  The trace format is one memory
reference per line::

    <vaddr-hex> <r|w> <instructions-before>

Lines starting with ``#`` are comments.  A trace replays in a loop, like
every other generator, so the runner's op budget — not the trace length —
bounds the simulation.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Iterator, List, Union

from repro.common.errors import ReproError
from repro.common.rng import DeterministicRng
from repro.sim.cpu import MemoryOp
from repro.workloads.base import BenchmarkPart, WorkloadSpec
from repro.workloads.chunks import Block
from repro.workloads.synthetic import BLOCK_GENERATORS


class TraceFormatError(ReproError):
    """A trace file line could not be parsed."""


def write_trace(path: Union[str, Path], ops: Iterable[MemoryOp]) -> int:
    """Write *ops* to a trace file; returns how many were written."""
    count = 0
    with open(path, "w") as handle:
        handle.write("# repro trace v1: vaddr-hex r|w instructions-before\n")
        for op in ops:
            kind = "w" if op.is_write else "r"
            handle.write(f"{op.vaddr:x} {kind} {op.instructions_before}\n")
            count += 1
    return count


def read_trace(path: Union[str, Path]) -> List[MemoryOp]:
    """Parse a trace file into a list of ops (raises on malformed lines)."""
    ops: List[MemoryOp] = []
    with open(path) as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 3 or parts[1] not in ("r", "w"):
                raise TraceFormatError(f"{path}:{line_number}: bad line {line!r}")
            try:
                vaddr = int(parts[0], 16)
                instructions = int(parts[2])
            except ValueError as error:
                raise TraceFormatError(
                    f"{path}:{line_number}: {error}"
                ) from error
            if vaddr < 0 or instructions < 0:
                raise TraceFormatError(
                    f"{path}:{line_number}: negative field in {line!r}"
                )
            ops.append(MemoryOp(vaddr, parts[1] == "w", instructions))
    if not ops:
        raise TraceFormatError(f"{path}: trace contains no operations")
    return ops


def trace_replay_blocks(
    rng: DeterministicRng, footprint_pages: int, path: str = ""
) -> Iterator[Block]:
    """Generator adapter: loop a trace file forever, one block per pass.

    Registered under ``"trace"`` so a :class:`BenchmarkPart` can reference
    a trace exactly like a synthetic archetype; ``rng`` and
    ``footprint_pages`` are part of the generator signature but unused.
    The trace decomposes into its three columns exactly once; every pass
    yields the same parallel lists (blocks are read-only to consumers),
    so replay cost is one tuple per loop instead of one op object per
    reference.
    """
    ops = read_trace(path)
    vaddrs = [op.vaddr for op in ops]
    writes = [op.is_write for op in ops]
    instr = [op.instructions_before for op in ops]
    while True:
        yield vaddrs, writes, instr


def trace_workload(name: str, trace_paths: List[Union[str, Path]]) -> WorkloadSpec:
    """Build a workload that replays one trace file per core."""
    if not trace_paths:
        raise ReproError("trace workload needs at least one trace file")
    parts = tuple(
        BenchmarkPart(
            benchmark=f"trace{index}",
            generator="trace",
            footprint_mb=0.0,
            params={"path": str(path)},
        )
        for index, path in enumerate(trace_paths)
    )
    return WorkloadSpec(name=name, suite="trace", parts=parts)


def record_trace(
    workload: WorkloadSpec,
    core_id: int,
    count: int,
    path: Union[str, Path],
    seed: int = 0,
    scale: int = 512,
) -> int:
    """Record *count* ops of one core's stream to a trace file."""
    import itertools

    stream = workload.make_stream(core_id, seed, scale)
    return write_trace(path, itertools.islice(stream, count))


BLOCK_GENERATORS.setdefault("trace", trace_replay_blocks)
