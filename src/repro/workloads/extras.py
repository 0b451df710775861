"""Extra workload archetypes beyond Table III.

The paper's suite is SPEC/Splash-3/CORAL; users studying hybrid memory
also care about patterns those suites under-represent.  This module adds
three classics as an ``extras`` suite — they participate in nothing by
default (the 26-workload figures are exactly the paper's) and are not
among the CLI's workload names.  Custom studies reach them through
:func:`extra_workload_by_name` and hand the spec to
:func:`repro.sim.system.build_system`:

* **gups** — HPCC RandomAccess: uniform single-line updates over the
  whole footprint.  The adversarial case for page swapping: no page ever
  earns its 4 KB move.
* **btree** — index probes: a hot top-of-tree (first levels re-visited on
  every lookup) above a cold leaf ocean.  Swapping should pin the top
  levels fast and leave the leaves alone.
* **scanjoin** — an analytics kernel: a streaming scan of a fact table
  joined against a small hash table that stays hot.
"""

from __future__ import annotations

from typing import Iterator, List

from repro.common.addr import LINES_PER_PAGE
from repro.common.rng import DeterministicRng
from repro.workloads.base import BenchmarkPart, WorkloadSpec
from repro.workloads.chunks import Block
from repro.workloads.synthetic import BLOCK_GENERATORS, _flurry_block


def gups_blocks(
    rng: DeterministicRng,
    footprint_pages: int,
    instructions: int = 30,
    update_fraction: float = 0.5,
) -> Iterator[Block]:
    """HPCC RandomAccess: uniform random single-line read-modify-writes."""
    while True:
        page_index = rng.randint(0, footprint_pages - 1)
        line = rng.randint(0, LINES_PER_PAGE - 1)
        is_write = rng.random() < update_fraction
        yield _flurry_block(
            page_index, 1, 1.0 if is_write else 0.0, instructions, rng,
            lines=[line],
        )


def btree_blocks(
    rng: DeterministicRng,
    footprint_pages: int,
    fanout_levels: int = 4,
    hot_level_pages: int = 8,
    instructions: int = 40,
) -> Iterator[Block]:
    """Index probes: hot upper levels, cold leaves.

    Each lookup touches one page per level; the first levels come from a
    tiny hot set (the root region), deeper levels from exponentially
    larger regions, the leaf from the cold remainder.
    """
    fanout_levels = max(2, fanout_levels)
    regions: List[range] = []
    start = 0
    size = max(1, hot_level_pages)
    for _ in range(fanout_levels - 1):
        end = min(start + size, footprint_pages)
        regions.append(range(start, max(start + 1, end)))
        start = end
        size *= 8
    regions.append(range(start, max(start + 1, footprint_pages)))
    while True:
        for level, region in enumerate(regions):
            page_index = region.start + rng.randint(0, len(region) - 1)
            page_index = min(page_index, footprint_pages - 1)
            lines = [rng.randint(0, LINES_PER_PAGE - 1)]
            if level < 2:
                # Upper levels: a few lines (node scan within the page).
                lines = list(range(lines[0] % 60, lines[0] % 60 + 4))
            yield _flurry_block(page_index, 1, 0.05, instructions, rng, lines=lines)


def scanjoin_blocks(
    rng: DeterministicRng,
    footprint_pages: int,
    hash_table_fraction: float = 0.08,
    instructions: int = 40,
    write_fraction: float = 0.1,
) -> Iterator[Block]:
    """Analytics scan-join: stream the fact table, probe a hot hash table."""
    hash_pages = max(1, int(footprint_pages * hash_table_fraction))
    fact_pages = max(1, footprint_pages - hash_pages)
    while True:
        for position in range(fact_pages):
            # Stream one fact page fully...
            yield _flurry_block(
                hash_pages + position, 1, write_fraction, instructions, rng
            )
            # ...probing the hash table a few times along the way.
            for _ in range(4):
                probe = rng.randint(0, hash_pages - 1)
                lines = [rng.randint(0, LINES_PER_PAGE - 1)]
                yield _flurry_block(probe, 1, 0.0, instructions, rng, lines=lines)


BLOCK_GENERATORS.setdefault("gups", gups_blocks)
BLOCK_GENERATORS.setdefault("btree", btree_blocks)
BLOCK_GENERATORS.setdefault("scanjoin", scanjoin_blocks)


def _extra(benchmark: str, generator: str, instances: int, footprint_mb: float,
           params=None) -> WorkloadSpec:
    part = BenchmarkPart(benchmark, generator, footprint_mb, params or {})
    return WorkloadSpec(
        name=f"{benchmark}x{instances}",
        suite="extras",
        parts=tuple([part] * instances),
    )


EXTRA_WORKLOADS: List[WorkloadSpec] = [
    _extra("gups", "gups", 4, 600),
    _extra("btree", "btree", 4, 500),
    _extra("scanjoin", "scanjoin", 4, 700),
]


def extra_workload_by_name(name: str) -> WorkloadSpec:
    for spec in EXTRA_WORKLOADS:
        if spec.name == name:
            return spec
    raise KeyError(f"unknown extra workload: {name!r}")
