"""Shared fixtures: small, fast system configurations."""

from __future__ import annotations

import pytest

from repro.common.config import default_system_config
from repro.common.stats import StatsRegistry
from repro.sim.system import System, build_system
from repro.workloads import workload_by_name


@pytest.fixture
def stats():
    return StatsRegistry()


@pytest.fixture
def small_config():
    """A heavily scaled config: tiny memories, tiny tables, fast to build."""
    return default_system_config(scale=1024, cores=2)


@pytest.fixture
def tiny_system():
    """A 4-core PageSeer system on a small workload, ready to run."""
    return build_system("pageseer", workload_by_name("lbmx4"), scale=1024)


def make_system(scheme: str, workload: str = "lbmx4", scale: int = 1024) -> System:
    return build_system(scheme, workload_by_name(workload), scale=scale)


def take_ops(stream, count):
    """The next *count* ops of a ``ReplayStream``, one ``advance(1)`` each."""
    ops = []
    for _ in range(count):
        chunk, pos = stream.peek_chunk()
        ops.append(chunk.op_at(pos))
        stream.advance(1)
    return ops
