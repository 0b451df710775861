"""Crossover study: how much DRAM before swapping stops paying?

PageSeer exists because DRAM is much smaller than the working set.  This
experiment sweeps the DRAM capacity (at fixed NVM size and fixed
workload) and compares PageSeer against the no-swap reference.  The
expected shape: a large PageSeer advantage under heavy pressure that
shrinks as DRAM grows, crossing into "barely matters" once the hot
working set fits — the capacity crossover that motivates hybrid designs.
"""

from __future__ import annotations

from repro.experiments.figures import FigureResult
from repro.experiments.runner import ExperimentRunner

#: DRAM capacity multipliers relative to the Table I ratio (NVM fixed).
MULTIPLIERS = [1, 2, 4, 8]

WORKLOAD = "lbmx4"


def variant_name(multiplier: int) -> str:
    """The ``runner.VARIANTS`` name of one capacity point."""
    return f"dramcap_x{multiplier}"


def compute(runner: ExperimentRunner) -> FigureResult:
    result = FigureResult(
        figure_id="Crossover",
        title=f"PageSeer benefit vs DRAM capacity ({WORKLOAD}, NVM fixed)",
        columns=[
            "dram_multiplier", "ipc_pageseer", "ipc_noswap",
            "speedup_over_noswap", "pageseer_fast_share",
        ],
    )
    for multiplier in MULTIPLIERS:
        name = variant_name(multiplier)
        pageseer = runner.run("pageseer", WORKLOAD, name)
        noswap = runner.run("noswap", WORKLOAD, name)
        speedup = pageseer.ipc / noswap.ipc if noswap.ipc else 0.0
        result.rows.append(
            [
                multiplier,
                pageseer.ipc,
                noswap.ipc,
                speedup,
                pageseer.dram_share + pageseer.buffer_share,
            ]
        )
    result.notes.append(
        "the speedup over no-swap should shrink toward 1.0 as DRAM grows "
        "(once the working set fits, there is nothing to swap for)"
    )
    return result


def speedups(result: FigureResult):
    return [row[3] for row in result.rows]
