"""Design-space sensitivity: how PageSeer's Table II choices matter.

The paper fixes its design constants (PCTc threshold 14, HPT threshold 6,
the buffer/engine provisioning) without a sensitivity study; this module
sweeps each around the paper's value on representative workloads so the
choices DESIGN.md calls out can be defended with data:

* ``pct_prefetch_threshold`` — too low prefetches cold pages, too high
  misses prefetch opportunities;
* ``hpt_swap_threshold`` — the regular-swap safety net's aggressiveness;
* ``swap_engines`` — concurrent swap operations (bounds swap latency);
* ``prt_ways`` — DRAM frames per colour (swap-placement flexibility).
"""

from __future__ import annotations

from typing import Dict, List

from repro.experiments.figures import FigureResult, geometric_mean
from repro.experiments.runner import ExperimentRunner

#: parameter -> values swept (the middle value is the paper's).
SWEEPS: Dict[str, List[int]] = {
    "pct_prefetch_threshold": [7, 14, 28],
    "hpt_swap_threshold": [3, 6, 12],
    "swap_engines": [1, 3, 6],
    "prt_ways": [2, 4, 8],
}

#: One stream-heavy and one hot-set workload keep the sweep affordable.
WORKLOADS = ["lbmx4", "milcx4"]

#: Table II defaults, for marking the paper's operating point.
PAPER_VALUES = {
    "pct_prefetch_threshold": 14,
    "hpt_swap_threshold": 6,
    "swap_engines": 3,
    "prt_ways": 4,
}


def variant_name(parameter: str, value: int) -> str:
    """The ``runner.VARIANTS`` name of one sweep point."""
    return f"sens_{parameter}_{value}"


def compute(runner: ExperimentRunner) -> FigureResult:
    names = [n for n in WORKLOADS if n in runner.workload_names()]
    result = FigureResult(
        figure_id="Sensitivity",
        title="PageSeer design-space sensitivity (geomean IPC over "
              + "/".join(names) + ")",
        columns=["parameter", "value", "ipc_geomean", "ammat_geomean",
                 "swaps_total", "is_paper_value"],
    )
    for parameter, values in SWEEPS.items():
        for value in values:
            name = variant_name(parameter, value)
            metrics = [runner.run("pageseer", w, name) for w in names]
            result.rows.append(
                [
                    parameter,
                    value,
                    geometric_mean([m.ipc for m in metrics]),
                    geometric_mean([m.ammat for m in metrics]),
                    sum(m.swaps_total for m in metrics),
                    "*" if PAPER_VALUES[parameter] == value else "",
                ]
            )
    result.notes.append(
        "the paper's Table II values (marked *) should be competitive "
        "within each sweep"
    )
    return result


def best_value_for(result: FigureResult, parameter: str) -> int:
    """The swept value with the highest geomean IPC."""
    rows = [row for row in result.rows if row[0] == parameter]
    return max(rows, key=lambda row: row[2])[1]
