"""Figure 7: percentage of main-memory accesses serviced by each module.

The paper shows, per benchmark suite and for PoM / MemPod / PageSeer, what
fraction of main-memory accesses were serviced from DRAM, NVM, or the swap
buffers.  Headline: PageSeer directs the most requests to DRAM (88.5% on
average in the paper) with a small but non-zero swap-buffer slice (2.2%).
"""

from __future__ import annotations

from repro.experiments.figures import (
    FigureResult,
    SUITE_LABELS,
    SUITE_ORDER,
    arithmetic_mean,
    suite_mean,
)
from repro.experiments.runner import ExperimentRunner

SCHEMES = ["pom", "mempod", "pageseer"]


def compute(runner: ExperimentRunner) -> FigureResult:
    matrix = runner.run_matrix(SCHEMES)
    result = FigureResult(
        figure_id="Figure 7",
        title="Main-memory accesses serviced by DRAM / NVM / swap buffers (%)",
        columns=["suite", "scheme", "dram%", "nvm%", "buffer%"],
    )
    for suite in SUITE_ORDER:
        for scheme in SCHEMES:
            per_workload = matrix[scheme]
            result.rows.append(
                [
                    SUITE_LABELS[suite],
                    scheme,
                    100 * suite_mean(per_workload, suite, lambda m: m.dram_share),
                    100 * suite_mean(per_workload, suite, lambda m: m.nvm_share),
                    100 * suite_mean(per_workload, suite, lambda m: m.buffer_share),
                ]
            )
    for scheme in SCHEMES:
        values = list(matrix[scheme].values())
        result.rows.append(
            [
                "AVERAGE",
                scheme,
                100 * arithmetic_mean([m.dram_share for m in values]),
                100 * arithmetic_mean([m.nvm_share for m in values]),
                100 * arithmetic_mean([m.buffer_share for m in values]),
            ]
        )
    result.notes.append(
        "paper: PageSeer averages 88.5% DRAM, 2.2% swap buffers; highest "
        "DRAM share of the three schemes"
    )
    return result
