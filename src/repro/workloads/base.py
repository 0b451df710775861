"""Workload specifications: which generator runs on which core.

A :class:`WorkloadSpec` describes one Table III workload: either N
instances of the same benchmark archetype on N cores (each instance a
separate process with its own address space, as in the paper), or a mix
assigning a different benchmark to each core.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.common.addr import PAGE_BYTES
from repro.common.rng import DeterministicRng
from repro.sim.cpu import MemoryOp
from repro.workloads.chunks import Block, ops_from_blocks
from repro.workloads.synthetic import BLOCK_GENERATORS

MB = 1024 * 1024

#: Floor so that heavily-scaled footprints keep enough pages to exercise
#: the TLB and the swap machinery (the scaled L2 TLB reaches 64 pages, so
#: the floor must exceed that or small workloads stop TLB-missing).
MIN_FOOTPRINT_PAGES = 96


def footprint_pages_for(footprint_mb: float, scale: int) -> int:
    """Scale a Table III footprint (MB, full size) to simulated pages."""
    pages = int(footprint_mb * MB / scale) // PAGE_BYTES
    return max(MIN_FOOTPRINT_PAGES, pages)


@dataclass(frozen=True)
class BenchmarkPart:
    """One benchmark archetype bound to one core of a workload."""

    benchmark: str
    generator: str
    footprint_mb: float
    params: Dict = field(default_factory=dict)

    def make_blocks(self, rng: DeterministicRng, scale: int) -> Iterator[Block]:
        """This part's block stream (``BLOCK_GENERATORS[self.generator]``)."""
        generator = BLOCK_GENERATORS[self.generator]
        pages = footprint_pages_for(self.footprint_mb, scale)
        return generator(rng, pages, **self.params)


@dataclass(frozen=True)
class WorkloadSpec:
    """One of the paper's 26 workloads."""

    name: str
    suite: str
    #: One entry per core.  Unique-benchmark workloads repeat the same part.
    parts: Tuple[BenchmarkPart, ...]

    @property
    def cores(self) -> int:
        return len(self.parts)

    @property
    def is_mix(self) -> bool:
        return self.suite == "mix"

    def part_for_core(self, core_id: int) -> BenchmarkPart:
        return self.parts[core_id % len(self.parts)]

    def make_blocks(self, core_id: int, seed: int, scale: int) -> Iterator[Block]:
        """Build the block stream for one core (deterministic per seed/core)."""
        part = self.part_for_core(core_id)
        rng = DeterministicRng(f"{self.name}/core{core_id}/{part.benchmark}", seed)
        return part.make_blocks(rng, scale)

    def make_stream(self, core_id: int, seed: int, scale: int) -> Iterator[MemoryOp]:
        """Per-op view of :meth:`make_blocks` (trace recording, tests)."""
        return ops_from_blocks(self.make_blocks(core_id, seed, scale))

    def footprint_pages(self, scale: int) -> int:
        """Total data pages across all cores at the given scale."""
        return sum(
            footprint_pages_for(part.footprint_mb, scale) for part in self.parts
        )


def unique_workload(
    benchmark: str,
    suite: str,
    instances: int,
    footprint_mb: float,
    generator: str,
    params: Optional[Dict] = None,
) -> WorkloadSpec:
    """Build a Table III unique-benchmark workload (``name x instances``)."""
    part = BenchmarkPart(benchmark, generator, footprint_mb, params or {})
    return WorkloadSpec(
        name=f"{benchmark}x{instances}",
        suite=suite,
        parts=tuple([part] * instances),
    )


def mix_workload(name: str, parts: List[BenchmarkPart]) -> WorkloadSpec:
    """Build one of the six mixed-benchmark workloads."""
    return WorkloadSpec(name=name, suite="mix", parts=tuple(parts))
