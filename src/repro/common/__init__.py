"""Shared infrastructure for the PageSeer reproduction.

This package holds the pieces every other subsystem builds on: address
arithmetic (:mod:`repro.common.addr`), deterministic random streams
(:mod:`repro.common.rng`), statistics counters (:mod:`repro.common.stats`),
the CPU-cycle unit (:mod:`repro.common.timeline`) and the
configuration dataclasses that mirror Tables I and II of the paper
(:mod:`repro.common.config`).
"""

from repro.common.addr import (
    CACHE_LINE_BYTES,
    PAGE_BYTES,
    LINES_PER_PAGE,
    line_of,
    page_of,
    line_in_page,
    split_virtual_address,
)
from repro.common.config import (
    CacheConfig,
    CoreConfig,
    HybridMemoryConfig,
    MemoryTimingConfig,
    PageSeerConfig,
    PomConfig,
    MemPodConfig,
    SystemConfig,
    TlbConfig,
)
from repro.common.errors import ReproError, ConfigError, SimulationError
from repro.common.rng import DeterministicRng
from repro.common.stats import StatsRegistry

__all__ = [
    "CACHE_LINE_BYTES",
    "PAGE_BYTES",
    "LINES_PER_PAGE",
    "line_of",
    "page_of",
    "line_in_page",
    "split_virtual_address",
    "CacheConfig",
    "CoreConfig",
    "HybridMemoryConfig",
    "MemoryTimingConfig",
    "PageSeerConfig",
    "PomConfig",
    "MemPodConfig",
    "SystemConfig",
    "TlbConfig",
    "ReproError",
    "ConfigError",
    "SimulationError",
    "DeterministicRng",
    "StatsRegistry",
]
