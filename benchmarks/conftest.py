"""Shared benchmark infrastructure.

Every figure bench consumes the same (scheme x workload x variant) matrix
through a session-scoped :class:`ExperimentRunner` whose results are cached
on disk (``.repro_cache``), so the expensive sweep happens once — the first
``pytest benchmarks/ --benchmark-only`` invocation — and later runs render
from the cache.

Environment knobs:

* ``REPRO_BENCH_SCALE``       system down-scaling factor (default: the
  runner's ``DEFAULT_SCALE``, 512)
* ``REPRO_BENCH_MEASURE_OPS`` measured ops per core (default: the runner's
  ``DEFAULT_MEASURE_OPS``, 10000)
* ``REPRO_BENCH_WARMUP_OPS``  warm-up ops per core (default: the runner's
  ``DEFAULT_WARMUP_OPS``, 26000)
* ``REPRO_BENCH_QUICK``       if set, restrict to a 4-workload subset
* ``REPRO_CACHE_DIR``         cache location (default .repro_cache)
"""

import os
from typing import List

import pytest

from repro.experiments import (
    DEFAULT_MEASURE_OPS,
    DEFAULT_SCALE,
    DEFAULT_WARMUP_OPS,
    ExperimentRunner,
)

BENCH_SCALE = int(os.environ.get("REPRO_BENCH_SCALE", DEFAULT_SCALE))
BENCH_MEASURE_OPS = int(os.environ.get("REPRO_BENCH_MEASURE_OPS", DEFAULT_MEASURE_OPS))
BENCH_WARMUP_OPS = int(os.environ.get("REPRO_BENCH_WARMUP_OPS", DEFAULT_WARMUP_OPS))
QUICK_WORKLOADS = ["lbmx4", "milcx4", "mcfx8", "mix1"]

#: Rendered figures accumulated for the terminal summary.
_RENDERED: List[str] = []


def record_figure(result) -> None:
    """Register a rendered figure for the end-of-run report."""
    _RENDERED.append(result.render())


@pytest.fixture(scope="session")
def runner() -> ExperimentRunner:
    workloads = QUICK_WORKLOADS if os.environ.get("REPRO_BENCH_QUICK") else None
    instance = ExperimentRunner(
        scale=BENCH_SCALE,
        measure_ops=BENCH_MEASURE_OPS,
        warmup_ops=BENCH_WARMUP_OPS,
        workloads=workloads,
        verbose=True,
    )
    jobs = os.environ.get("REPRO_BENCH_PREWARM_JOBS")
    if jobs:
        # Populate the cache on the sweep fleet before the figure benches
        # consume it serially (REPRO_BENCH_PREWARM_JOBS=0 -> cpu count).
        instance.prewarm(jobs=int(jobs) or None)
    return instance


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _RENDERED:
        return
    terminalreporter.write_sep("=", "reproduced tables and figures")
    for text in _RENDERED:
        terminalreporter.write_line(text)
        terminalreporter.write_line("")
