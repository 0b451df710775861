"""Side-by-side scheme comparison on arbitrary workloads.

The library version of ``examples/compare_schemes.py``: build fresh
systems for each (scheme, workload) pair, run them under identical
sizing, and return one comparison table — the quickest way to evaluate a
policy change or a new workload against all schemes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.experiments.figures import FigureResult
from repro.experiments.runner import (
    DEFAULT_MEASURE_OPS,
    DEFAULT_SCALE,
    DEFAULT_WARMUP_OPS,
)
from repro.sim.metrics import RunMetrics
from repro.sim.system import SCHEMES, build_system
from repro.workloads import workload_by_name
from repro.workloads.base import WorkloadSpec

DEFAULT_SCHEMES = ("noswap", "mempod", "pom", "pageseer")


@dataclass(frozen=True)
class ComparisonRow:
    """One (workload, scheme) outcome."""

    workload: str
    scheme: str
    metrics: RunMetrics

    @property
    def fast_share(self) -> float:
        return self.metrics.dram_share + self.metrics.buffer_share


def compare_schemes(
    workloads: Sequence,
    schemes: Sequence[str] = DEFAULT_SCHEMES,
    scale: int = DEFAULT_SCALE,
    measure_ops: int = DEFAULT_MEASURE_OPS,
    warmup_ops: int = DEFAULT_WARMUP_OPS,
    seed: int = 0,
    config_mutator: Optional[Callable] = None,
) -> List[ComparisonRow]:
    """Run every scheme on every workload; returns one row per pair.

    *workloads* may contain Table III names or :class:`WorkloadSpec`
    objects (e.g. trace or extras workloads).  The sizing defaults to
    the experiment runner's paper sizing, whose warm-up covers the
    longest workload's first sweep.
    """
    unknown = [s for s in schemes if s not in SCHEMES]
    if unknown:
        raise ValueError(f"unknown schemes: {unknown}")
    rows: List[ComparisonRow] = []
    for workload in workloads:
        spec = (
            workload
            if isinstance(workload, WorkloadSpec)
            else workload_by_name(workload)
        )
        for scheme in schemes:
            system = build_system(
                scheme, spec, scale=scale, seed=seed, config_mutator=config_mutator
            )
            metrics = system.run(measure_ops, warmup_ops)
            rows.append(ComparisonRow(spec.name, scheme, metrics))
    return rows


def comparison_table(rows: Sequence[ComparisonRow]) -> FigureResult:
    """Render comparison rows as a printable table."""
    result = FigureResult(
        figure_id="Comparison",
        title="Scheme comparison",
        columns=[
            "workload", "scheme", "ipc", "ammat",
            "fast_share%", "swaps", "positive%",
        ],
    )
    for row in rows:
        metrics = row.metrics
        result.rows.append(
            [
                row.workload,
                row.scheme,
                metrics.ipc,
                metrics.ammat,
                100 * row.fast_share,
                metrics.swaps_total,
                100 * metrics.positive_share,
            ]
        )
    return result


def winner_by_ipc(rows: Sequence[ComparisonRow]) -> Dict[str, str]:
    """The best-IPC scheme per workload."""
    best: Dict[str, ComparisonRow] = {}
    for row in rows:
        current = best.get(row.workload)
        if current is None or row.metrics.ipc > current.metrics.ipc:
            best[row.workload] = row
    return {workload: row.scheme for workload, row in best.items()}
