"""Host-time benchmark of the PageSeer reproduction.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload job_lbm --seed 0 --seconds 40 --trace 0

Each workload (see ``workloads.py`` and ``METRICS.md``) runs in child
processes started from an empty private result cache at paper sizing.
One run launches a few set-up-only children, then whole passes of the
workload until another pass would overrun ``--seconds`` (at least one),
and reports medians over them.  ``--trace 1`` runs one untraced pass as
the baseline and then one traced pass, and reports the per-layer
metrics instead of the end-to-end ones.  The last
line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; a job counts as
failed when its pass raised, its result is missing, or its result digest
differs from the pinned one or from another pass of the same run.

Exits non-zero without a result when the simulator sources are absent.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from hostspeed import kernel, normalized  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

PINNED_PATH = HERE / "pinned_digests.json"
#: Set-up-only children per run, on top of one set-up per pass.
SETUP_PROBES = 5
#: Every run must end well inside the 180 s a run may take.
RUN_DEADLINE_S = 170.0
#: Thread pools pinned in every child, as ``repro bench`` pins them.
THREAD_PIN_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "measure_kops_per_s": "kops/s",
    "peak_rss_mb": "MB",
}

#: Every per-layer metric of a traced run, with its unit (METRICS.md
#: says what each covers; BENCHMARK.json lists the same names).
PER_LAYER_UNITS = {
    **dict.fromkeys(("sim.self_s", "sim.execute_self_s", "stream.self_s",
                     "vm.translate_self_s", "vm.walk_self_s", "cache.access_self_s",
                     "hmc.self_s", "hmc.mmu_hint_self_s", "swap.self_s", "mem.self_s",
                     "exec.self_s", "exec.overhead_s_per_job", "persist.self_s",
                     "setup.import_s", "setup.build_s", "phase.warmup_s",
                     "phase.measure_s", "phase.finalize_s", "host.calib_s",
                     "raw.setup_s", "raw.wall_s"), "s"),
    **dict.fromkeys(("sim.ops", "sim.escape_ops", "stream.peek_calls",
                     "stream.advance_calls", "vm.translate_calls", "vm.walk_calls",
                     "cache.access_calls", "hmc.request_calls", "hmc.pte_fetch_calls",
                     "hmc.mmu_hint_calls", "swap.request_calls", "swap.service_calls",
                     "mem.access_calls", "mem.transfer_calls", "exec.jobs",
                     "persist.writes", "jobs", "failed_jobs", "model.tlb_misses",
                     "model.walks", "model.l3_hits", "model.llc_misses",
                     "model.hmc_requests_demand", "model.hmc_requests_writeback",
                     "model.hmc_requests_pte", "model.remap_misses", "model.swaps",
                     "model.swaps_mmu", "model.swaps_pct"), "count"),
    **dict.fromkeys(("model.prefetch_accuracy", "model.dram_share", "model.buffer_share",
                     "model.mmu_driver_hit_rate"), "fraction"),
    "stream.mean_advance_ops": "ops",
    "hmc.us_per_request": "us",
    "trace.overhead_pct": "%",
    "trace.coverage_pct": "%",
    "raw.measure_kops_per_s": "kops/s",
    "host.slowdown": "x",
    "model.ipc": "instr/cycle",
    "model.ammat_cycles": "cycles",
    "model.remap_wait_cycles": "cycles",
}


def calibration_kernel() -> float:
    """Seconds the host-speed kernel takes for a fixed, larger count."""
    start = time.monotonic()
    kernel(600_000)
    return time.monotonic() - start


class Pass:
    """One finished child: its record (None if it failed) and timings."""

    def __init__(self, launched: float, record: Optional[Dict[str, Any]], error: str):
        self.launched = launched
        self.record = record
        self.error = error
        self.duration = time.monotonic() - launched


def launch(workload: str, seed: int, workdir: Path, timeout: float,
           extra: Tuple[str, ...] = ()) -> Pass:
    """Run one child pass in *workdir* and wait for it."""
    workdir.mkdir(parents=True)
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_PIN_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    command = [
        sys.executable, str(HERE / "child.py"),
        "--workload", workload, "--seed", str(seed), "--workdir", str(workdir), *extra,
    ]
    log = workdir / "child.log"
    with open(log, "wb") as out:
        launched = time.monotonic()
        child = subprocess.Popen(command, stdout=out, stderr=subprocess.STDOUT,
                                 env=env, cwd=str(ROOT))
        try:
            code = child.wait(timeout=max(1.0, timeout))
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
            return Pass(launched, None, f"timed out after {timeout:.0f}s")
        except BaseException:
            # Interrupted (Ctrl-C, or SIGTERM via main's handler): never
            # leave the child running.
            child.kill()
            child.wait()
            raise
    record_path = workdir / "record.json"
    if code != 0 or not record_path.exists():
        tail = log.read_text(errors="replace").strip().splitlines()[-5:]
        return Pass(launched, None, f"exit {code}: " + " | ".join(tail))
    return Pass(launched, json.loads(record_path.read_text()), "")


def load_pinned(workload: str, seed: int) -> Optional[Dict[str, str]]:
    """Pinned job digests for (*workload*, *seed*), or None if unpinned."""
    if not PINNED_PATH.exists():
        return None
    return json.loads(PINNED_PATH.read_text()).get(workload, {}).get(str(seed))


def judge(expected: Tuple[str, ...], passes: List[Pass],
          pinned: Optional[Dict[str, str]]) -> Tuple[int, int, List[str]]:
    """Check every pass's jobs; returns (attempted, failed, problems).

    A job fails when its pass did not finish, its result is missing or
    implausible, or its digest differs from the pinned digest or from the
    first pass that produced it.  A pass whose measured-window stamps do
    not match its job count (a cache hit, or a job run twice) fails all
    its jobs.  Differences in ``model.*`` between passes are problems
    too: the simulator is deterministic, so they are bugs, not noise.
    """
    attempted = failed = 0
    problems: List[str] = []
    first_digest: Dict[str, str] = {}
    first_model: Optional[Dict[str, float]] = None
    for number, one in enumerate(passes):
        attempted += len(expected)
        record = one.record
        if record is None:
            failed += len(expected)
            problems.append(f"pass {number}: {one.error}")
            continue
        jobs = record["jobs"]
        windows = (len(record["resets"]), len(record["finalizes"]))
        if windows != (len(expected), len(expected)) or set(jobs) != set(expected):
            failed += len(expected)
            problems.append(
                f"pass {number}: simulated {sorted(jobs)} with {windows} "
                f"reset/finalize stamps, expected {len(expected)} jobs {sorted(expected)}"
            )
            continue
        for job in expected:
            result = jobs[job]
            digest = result["digest"]
            reason = None
            if not (result["instructions"] > 0 and result["ipc"] > 0 and result["cycles"] > 0
                    and result["serviced"] > 0 and result["classified"] == result["serviced"]):
                reason = f"implausible result {result}"
            elif pinned is not None and pinned.get(job) != digest:
                reason = f"digest {digest} != pinned {pinned.get(job)}"
            elif first_digest.setdefault(job, digest) != digest:
                reason = f"digest {digest} != {first_digest[job]} of an earlier pass"
            if reason is not None:
                failed += 1
                problems.append(f"pass {number}: job {job}: {reason}")
        if first_model is None:
            first_model = record["model"]
        elif record["model"] != first_model:
            changed = sorted(k for k in first_model if record["model"].get(k) != first_model[k])
            problems.append(f"pass {number}: model.* differs from the first pass in "
                            f"{changed} (determinism bug)")
    return attempted, failed, problems


def _seconds(record: Dict[str, Any], start: float, end: float, at_reference: bool) -> float:
    if at_reference:
        return normalized(record["samples"], start, end)
    return end - start


def end_to_end(setups: List[Pass], passes: List[Pass], at_reference: bool = True
               ) -> Dict[str, float]:
    """The end-to-end metrics: medians over the untraced children.

    Times are read at the reference host speed (see :mod:`hostspeed`)
    unless *at_reference* is false.
    """
    records = [one.record for one in passes]
    return {
        "setup_s": statistics.median(
            _seconds(one.record, one.launched, one.record["t_built"], at_reference)
            for one in setups),
        "wall_s": statistics.median(
            _seconds(r, r["t_built"], r["t_end"], at_reference) for r in records),
        "measure_kops_per_s": statistics.median(
            r["measured_ops"] / 1000.0 / sum(
                _seconds(r, start, end, at_reference)
                for start, end in zip(r["resets"], r["finalizes"]))
            for r in records
        ),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in records),
    }


def per_layer(setups: List[Pass], passes: List[Pass], traced: Pass) -> Dict[str, float]:
    """The per-layer metrics of the traced pass.

    Span times are raw host seconds.  The set-up split, the raw
    end-to-end times and the host slowdown come from the untraced
    children.
    """
    record = traced.record
    totals = record["trace"]["totals"]
    counts = record["trace"]["counts"]

    def calls(*names: str) -> float:
        return float(sum(totals[name]["calls"] for name in names if name in totals))

    def self_s(*names: str) -> float:
        return sum(totals[name]["self_s"] for name in names if name in totals)

    def layer(prefix: str) -> List[str]:
        return [name for name in totals if name.startswith(prefix + ".")]

    traced_wall = record["t_end"] - record["t_built"]
    raw = end_to_end(setups, passes, at_reference=False)
    wall_s = end_to_end(setups, passes)["wall_s"]
    request_calls = calls("hmc.request")
    advance_calls = calls("stream.advance")
    jobs = len(record["resets"])
    persisted = record["persisted"]
    finalize_s = 0.0
    for stamp in record["finalizes"]:
        # Finalize ends when the job's result is on disk.
        finalize_s += min((t for t in persisted if t >= stamp), default=stamp) - stamp
    metrics = {
        "sim.self_s": self_s("sim.run"),
        "sim.ops": float(counts["sim.ops"]),
        "sim.escape_ops": calls("sim.execute"),
        "sim.execute_self_s": self_s("sim.execute"),
        "stream.self_s": self_s(*layer("stream")),
        "stream.peek_calls": calls("stream.peek"),
        "stream.advance_calls": advance_calls,
        "stream.mean_advance_ops": counts["stream.advanced_ops"] / advance_calls
        if advance_calls else 0.0,
        "vm.translate_self_s": self_s("vm.translate"),
        "vm.translate_calls": calls("vm.translate"),
        "vm.walk_self_s": self_s("vm.walk"),
        "vm.walk_calls": calls("vm.walk"),
        "cache.access_self_s": self_s("cache.access"),
        "cache.access_calls": calls("cache.access"),
        "hmc.self_s": self_s(*layer("hmc")),
        "hmc.request_calls": request_calls,
        "hmc.us_per_request": 1e6 * self_s(*layer("hmc")) / request_calls
        if request_calls else 0.0,
        "hmc.pte_fetch_calls": calls("hmc.pte_fetch"),
        "hmc.mmu_hint_self_s": self_s("hmc.mmu_hint"),
        "hmc.mmu_hint_calls": calls("hmc.mmu_hint"),
        "swap.self_s": self_s(*layer("swap")),
        "swap.request_calls": calls("swap.request"),
        "swap.service_calls": calls("swap.service"),
        "mem.self_s": self_s(*layer("mem")),
        "mem.access_calls": calls("mem.access_finish", "mem.access"),
        "mem.transfer_calls": calls("mem.transfer"),
        "exec.self_s": self_s(*layer("exec")),
        "exec.jobs": float(jobs),
        "exec.overhead_s_per_job": self_s(*layer("exec")) / jobs if jobs else 0.0,
        "persist.self_s": self_s(*layer("persist")),
        "persist.writes": calls("persist.write"),
        "setup.import_s": statistics.median(
            one.record["t_imported"] - one.launched for one in setups),
        "setup.build_s": statistics.median(
            one.record["t_built"] - one.record["t_imported"] for one in setups),
        "phase.warmup_s": sum(
            reset - start for start, reset in zip(record["run_starts"], record["resets"])),
        "phase.measure_s": sum(
            end - reset for reset, end in zip(record["resets"], record["finalizes"])),
        "phase.finalize_s": finalize_s,
        "trace.overhead_pct": 100.0 * (
            normalized(record["samples"], record["t_built"], record["t_end"]) / wall_s - 1.0),
        "trace.coverage_pct": 100.0 * sum(t["self_s"] for t in totals.values()) / traced_wall,
    }
    metrics.update({
        "raw.setup_s": raw["setup_s"],
        "raw.wall_s": raw["wall_s"],
        "raw.measure_kops_per_s": raw["measure_kops_per_s"],
        "host.slowdown": statistics.median(
            (one.record["t_end"] - one.record["t_built"]) / _seconds(
                one.record, one.record["t_built"], one.record["t_end"], True)
            for one in passes),
    })
    metrics.update(record["model"])
    return metrics


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true",
                        help="record this seed's job digests as the pinned ones")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no simulator sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # SIGTERM unwinds like Ctrl-C, so the running child is stopped and the
    # work directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    workload = WORKLOADS[args.workload]
    started = time.monotonic()
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        def remaining() -> float:
            return RUN_DEADLINE_S - (time.monotonic() - started)

        calib = [calibration_kernel()]
        setups: List[Pass] = []
        for number in range(SETUP_PROBES):
            setups.append(launch(args.workload, args.seed, work / f"setup{number}",
                                 remaining(), ("--setup-only",)))
        passes: List[Pass] = []
        while True:
            passes.append(launch(args.workload, args.seed, work / f"pass{len(passes)}",
                                 remaining()))
            calib.append(calibration_kernel())
            elapsed = time.monotonic() - started
            mean_pass = sum(one.duration for one in passes) / len(passes)
            # A traced run needs one untraced pass as its baseline only.
            if (args.trace or passes[-1].record is None
                    or elapsed + mean_pass > args.seconds):
                break
        traced = None
        if args.trace:
            traced = launch(args.workload, args.seed, work / "traced", remaining(), ("--trace",))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (ROOT / ".perfbench_work").rmdir()
        except OSError:
            pass  # another run still uses it

    pinned = None if args.pin else load_pinned(args.workload, args.seed)
    judged = passes + ([traced] if traced is not None else [])
    attempted, failed, problems = judge(workload.jobs, judged, pinned)
    setup_failures = [one.error for one in setups if one.record is None]
    problems.extend(f"set-up child: {error}" for error in setup_failures)
    correct = failed == 0 and not problems
    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)

    metrics: Dict[str, Dict[str, Any]] = {}
    good_setups = [one for one in setups + passes if one.record is not None]
    good_passes = [one for one in passes if one.record is not None]
    if good_setups and good_passes:
        if not args.trace:
            metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                       for name, value in end_to_end(good_setups, good_passes).items()}
        elif traced is not None and traced.record is not None:
            layer_values = per_layer(good_setups, good_passes, traced)
            layer_values.update({
                "host.calib_s": statistics.median(calib),
                "jobs": float(attempted),
                "failed_jobs": float(failed),
            })
            metrics = {name: {"value": layer_values[name], "unit": unit}
                       for name, unit in PER_LAYER_UNITS.items()}
    correct = correct and bool(metrics)

    if args.pin and correct:
        table = json.loads(PINNED_PATH.read_text()) if PINNED_PATH.exists() else {}
        table.setdefault(args.workload, {})[str(args.seed)] = {
            job: result["digest"] for job, result in sorted(passes[0].record["jobs"].items())
        }
        PINNED_PATH.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")

    print(f"{args.workload} seed {args.seed}: {len(setups)} set-up probes, "
          f"{len(passes)} passes{' + 1 traced' if traced else ''}, "
          f"{failed}/{attempted} jobs failed, host.calib_s {statistics.median(calib):.4f}")
    if traced is not None and traced.record is not None:
        # The traced pass's spans, written out once the run has ended.
        trace = traced.record["trace"]
        for name, span in trace["totals"].items():
            print(f"span {name:18s} calls {span['calls']:>9d} "
                  f"total_s {span['total_s']:10.4f} self_s {span['self_s']:10.4f}")
        for edge in trace["edges"]:
            print(f"edge {edge['parent']} -> {edge['child']}: {edge['calls']} calls")
    if good_setups and good_passes:
        raw = end_to_end(good_setups, good_passes, at_reference=False)
        print("raw host seconds: " + ", ".join(f"{k} {v:.4f}" for k, v in raw.items()))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
