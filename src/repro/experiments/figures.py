"""Shared infrastructure for the figure/table reproductions."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence

from repro.sim.metrics import RunMetrics
from repro.workloads import all_workloads

#: Paper ordering of the benchmark groups (Figures 7, 8, 11).
SUITE_ORDER = ["spec", "splash3", "coral", "mix"]
SUITE_LABELS = {
    "spec": "SPEC CPU2006",
    "splash3": "Splash-3",
    "coral": "CORAL",
    "mix": "Mixes",
}


def suite_of(workload_name: str) -> str:
    for spec in all_workloads():
        if spec.name == workload_name:
            return spec.suite
    raise KeyError(workload_name)


def workloads_in_suite(suite: str) -> List[str]:
    return [spec.name for spec in all_workloads() if spec.suite == suite]


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean, ignoring non-positive values (paper convention)."""
    logs = [math.log(v) for v in values if v > 0]
    if not logs:
        return 0.0
    return math.exp(sum(logs) / len(logs))


def arithmetic_mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


@dataclass
class FigureResult:
    """One reproduced table or figure, as printable rows."""

    figure_id: str
    title: str
    columns: List[str]
    rows: List[List] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def row_map(self) -> Dict[str, List]:
        """Rows keyed by their first column (workload / suite name)."""
        return {str(row[0]): row for row in self.rows}

    def to_csv(self) -> str:
        """The table as CSV (for external plotting tools)."""
        import csv
        import io

        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(self.columns)
        for row in self.rows:
            writer.writerow(row)
        return buffer.getvalue()

    def save_csv(self, path) -> None:
        """Write :meth:`to_csv` to *path*."""
        # Regenerable presentation output, not durable state: a torn CSV
        # is fixed by re-running the report, so persist's atomicity and
        # checksum stamp would only get in external plotting tools' way.
        with open(path, "w", newline="") as handle:  # repro-lint: disable=RL105
            handle.write(self.to_csv())

    def render(self) -> str:
        """A fixed-width text table matching the paper's rows/series."""

        def fmt(value) -> str:
            if isinstance(value, float):
                return f"{value:.3f}"
            return str(value)

        table = [self.columns] + [[fmt(v) for v in row] for row in self.rows]
        widths = [
            max(len(row[i]) for row in table) for i in range(len(self.columns))
        ]
        lines = [f"== {self.figure_id}: {self.title}"]
        header = "  ".join(
            name.ljust(widths[i]) for i, name in enumerate(self.columns)
        )
        lines.append(header)
        lines.append("-" * len(header))
        for row in table[1:]:
            lines.append("  ".join(row[i].ljust(widths[i]) for i in range(len(row))))
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)


def suite_mean(
    per_workload: Dict[str, RunMetrics], suite: str, metric
) -> float:
    """Average a metric accessor over one suite's workloads."""
    values = [
        metric(per_workload[name])
        for name in workloads_in_suite(suite)
        if name in per_workload
    ]
    return arithmetic_mean(values)
