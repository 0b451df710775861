"""The benchmark's workloads: what one pass of each runs, and why.

A *pass* is one child process that starts from an empty private result
cache, builds a first ``System`` (the end of set-up), runs the workload's
jobs through the same entry point a user would, and exits.  Every job is
one simulation at paper sizing; the seed given to the benchmark is the
simulator seed, so it decides the generated address streams.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Tuple

#: Paper sizing (scale 1/512, 26k warm-up + 10k measured ops per core),
#: the sizing ``ExperimentRunner`` defaults to.
PAPER_SIZING = {"scale": 512, "measure_ops": 10_000, "warmup_ops": 26_000}
#: Smoke-test sizing: exercises every workload's jobs in about a second each.
TINY_SIZING = {"scale": 512, "measure_ops": 300, "warmup_ops": 300}
SIZINGS = {"paper": PAPER_SIZING, "tiny": TINY_SIZING}

JobRunner = Callable[[Path, Path, int, Dict[str, int]], None]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: Job ids (``scheme_workload_variant``) one pass must simulate.
    jobs: Tuple[str, ...]
    #: Modules imported before the first build, as the user path does.
    imports: Tuple[str, ...]
    #: (scheme, workload) of the set-up build that ends set-up time.
    probe: Tuple[str, str]
    #: ``run_jobs(cache_dir, workdir, seed, sizing)`` runs every job.
    run_jobs: JobRunner


def _run_report(cache_dir: Path, workdir: Path, seed: int, sizing: Dict[str, int]) -> None:
    """``python -m repro report --workloads milcx4`` at the given sizing."""
    from repro import cli

    os.environ["REPRO_CACHE_DIR"] = str(cache_dir)
    code = cli.main([
        "report", "--workloads", "milcx4",
        "--scale", str(sizing["scale"]),
        "--measure-ops", str(sizing["measure_ops"]),
        "--warmup-ops", str(sizing["warmup_ops"]),
        "--seed", str(seed),
        "--out", str(workdir / "report.txt"),
    ])
    if code != 0:
        raise RuntimeError(f"repro report exited with {code}")


def _run_job(scheme: str, workload: str) -> JobRunner:
    """One ``ExperimentRunner.run`` call for *scheme*/*workload*."""

    def run_one(cache_dir: Path, workdir: Path, seed: int, sizing: Dict[str, int]) -> None:
        from repro.experiments.runner import ExperimentRunner

        ExperimentRunner(cache_dir=cache_dir, seed=seed, **sizing).run(scheme, workload)

    return run_one


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="repro_milc",
            why="the quick reproduction users run: 7 jobs through report, "
                "persist and rendering; engine free-run and stream supply dominate",
            jobs=tuple(
                f"pageseer_milcx4_{variant}"
                for variant in ("default", "nobw", "nocorr", "nohints", "partial")
            ) + ("pom_milcx4_default", "mempod_milcx4_default"),
            imports=("repro.cli", "repro.experiments.report"),
            probe=("pageseer", "milcx4"),
            run_jobs=_run_report,
        ),
        Workload(
            name="job_lbm",
            why="one paper job where every op misses the LLC: HMC, device and "
                "swap-driver layers do the work, engine and walker almost none",
            jobs=("pageseer_lbmx4_default",),
            imports=("repro.experiments.runner",),
            probe=("pageseer", "lbmx4"),
            run_jobs=_run_job("pageseer", "lbmx4"),
        ),
        Workload(
            name="job_mcf",
            why="one 8-core pointer-chase job: half the ops escape to scalar "
                "walks, so translation, walks and MMU hints dominate",
            jobs=("pageseer_mcfx8_default",),
            imports=("repro.experiments.runner",),
            probe=("pageseer", "mcfx8"),
            run_jobs=_run_job("pageseer", "mcfx8"),
        ),
    )
}
