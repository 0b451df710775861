"""Ablation: SILC-FM-style partial swaps (the Section VI extension).

PageSeer's related-work section suggests adopting SILC-FM's sub-block
bitmap "and avoid moving 4KB of data".  This ablation enables the
extension and measures the trade: swap bandwidth saved versus extra NVM
accesses for lazily-migrated residue lines.  It should help sparse-access
workloads (pointer chasers) and be neutral for dense streams, whose
bitmaps mark nearly every line.
"""

from __future__ import annotations

from repro.experiments.figures import FigureResult, geometric_mean
from repro.experiments.runner import ExperimentRunner

#: Sparse- and dense-access representatives (full 26 would be overkill for
#: an extension the paper only sketches).
WORKLOADS = ["mcfx8", "omnetppx8", "barnesx8", "lbmx4", "streamx4", "milcx4"]


def compute(runner: ExperimentRunner) -> FigureResult:
    names = [n for n in WORKLOADS if n in runner.workload_names()]
    default = runner.run_matrix(["pageseer"], names)["pageseer"]
    partial = runner.run_matrix(["pageseer"], names, variant="partial")["pageseer"]
    result = FigureResult(
        figure_id="Ablation (partial swaps)",
        title="PageSeer vs PageSeer with SILC-FM-style partial swaps",
        columns=["workload", "ipc", "ipc_partial", "speedup", "ammat", "ammat_partial"],
    )
    ratios = []
    for name in names:
        base = default[name]
        ext = partial[name]
        ratio = ext.ipc / base.ipc if base.ipc > 0 else 0.0
        if ratio > 0:
            ratios.append(ratio)
        result.rows.append(
            [name, base.ipc, ext.ipc, ratio, base.ammat, ext.ammat]
        )
    result.rows.append(["GEOMEAN", "", "", geometric_mean(ratios), "", ""])
    result.notes.append(
        "partial swaps move only observed-hot lines; cold lines migrate "
        "lazily on first touch (extension, not baseline PageSeer)"
    )
    return result
