"""Throughput benchmarking: ``python -m repro bench``.

The bench harness is the measurement infrastructure every performance
change is judged against.  It times the simulator's measured window
(``System.run_ops``) over a scheme × workload grid and writes a
machine-readable ``BENCH_<label>.json`` with ops/sec per configuration,
wall time, and the git revision, so CI can archive the trajectory and
fail on regressions against a committed baseline (``--compare``).

Protocol, per configuration:

1. build the system (not timed — construction cost is not throughput);
2. run a short warm-up window (populates caches/TLBs, not timed);
3. time ``run_ops(measure_ops)`` with ``time.perf_counter``;
4. repeat, keep the *best* repeat (least scheduler noise), and record a
   digest of the final stats so optimization work can be cross-checked
   for behavioural drift right from the bench output.

See docs/PERFORMANCE.md for how to read and refresh baselines.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from repro import persist
from repro.common.errors import PersistError

#: Default grid: every scheme over one representative workload.  milcx4
#: (hot/cold at four cores) exercises swaps on every scheme without the
#: long tail of the full Table III suite.
DEFAULT_WORKLOADS = ["milcx4"]

#: Sizing used unless overridden; ``--quick`` shrinks the measured
#: window so the whole grid finishes in CI-smoke time.
DEFAULT_SCALE = 1024
DEFAULT_WARMUP_OPS = 500
DEFAULT_MEASURE_OPS = 6000
DEFAULT_REPEATS = 3
QUICK_MEASURE_OPS = 2000
QUICK_REPEATS = 2

#: CI gate: fail when a configuration loses more than this fraction of
#: its baseline ops/sec.  Generous on purpose — runner-to-runner noise
#: is real; genuine hot-path regressions blow well past it.
DEFAULT_MAX_REGRESSION = 0.30

#: Thread-count knobs pinned to 1 before any timing.  The simulator's
#: hot loops are single-threaded Python; a numpy/BLAS runtime that
#: spins up a worker pool only adds scheduler noise to the measured
#: window (and the chunk prep kernel's vectors are far too small to
#: profit from threads).  Pinned with ``setdefault`` so an explicit
#: operator override still wins — the document records what was in
#: effect either way.
THREAD_PIN_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def pin_thread_env() -> Dict[str, str]:
    """Pin the BLAS/numpy thread pools to 1; returns the effective pins.

    Must run before the first timed window (ideally before numpy spins
    up its backend).  Returns the variable -> value mapping actually in
    effect, which :func:`run_bench` embeds in the document so two bench
    documents can be compared knowing their threading was equal.
    """
    return {var: os.environ.setdefault(var, "1") for var in THREAD_PIN_VARS}


def _numpy_version() -> Optional[str]:
    """The numpy version backing the prep kernels (None when absent)."""
    try:
        import numpy
    except ImportError:  # pragma: no cover - the image bakes numpy in
        return None
    return numpy.__version__


def git_revision() -> str:
    """The current git revision, or ``"unknown"`` outside a checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else "unknown"


def stats_digest(system) -> str:
    """A stable digest of the full stats state (drift cross-check)."""
    payload = json.dumps(system.stats.as_dict(), sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def measure_config(
    scheme: str,
    workload_name: str,
    *,
    scale: int,
    warmup_ops: int,
    measure_ops: int,
    seed: int,
    repeats: int,
) -> Dict[str, object]:
    """Time one scheme/workload configuration; returns the result record."""
    from repro.sim.system import build_system
    from repro.workloads import workload_by_name

    workload = workload_by_name(workload_name)
    total_ops = measure_ops * workload.cores
    best_elapsed: Optional[float] = None
    wall_total = 0.0
    digest = ""
    for _ in range(max(1, repeats)):
        system = build_system(scheme, workload, scale=scale, seed=seed)
        system.run_ops(warmup_ops)
        start = time.perf_counter()
        system.run_ops(measure_ops)
        elapsed = time.perf_counter() - start
        wall_total += elapsed
        if best_elapsed is None or elapsed < best_elapsed:
            best_elapsed = elapsed
        digest = stats_digest(system)
    assert best_elapsed is not None
    return {
        "ops_per_sec": round(total_ops / best_elapsed, 1),
        "wall_seconds_best": round(best_elapsed, 4),
        "wall_seconds_total": round(wall_total, 4),
        "ops": total_ops,
        "repeats": max(1, repeats),
        "stats_digest": digest,
    }


def profile_config(
    scheme: str,
    workload_name: str,
    *,
    scale: int,
    warmup_ops: int,
    measure_ops: int,
    seed: int,
    top: int,
) -> str:
    """cProfile one configuration's measured window; returns the report."""
    import cProfile
    import io
    import pstats

    from repro.sim.system import build_system
    from repro.workloads import workload_by_name

    workload = workload_by_name(workload_name)
    system = build_system(scheme, workload, scale=scale, seed=seed)
    system.run_ops(warmup_ops)
    profiler = cProfile.Profile()
    profiler.enable()
    system.run_ops(measure_ops)
    profiler.disable()
    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.sort_stats("cumulative").print_stats(top)
    return buffer.getvalue()


def run_bench(
    schemes: List[str],
    workloads: List[str],
    *,
    scale: int,
    warmup_ops: int,
    measure_ops: int,
    seed: int,
    repeats: int,
    label: str,
    quick: bool,
) -> Dict[str, object]:
    """Run the full grid (scheme × workload); returns the document."""
    env_pins = pin_thread_env()
    results: Dict[str, Dict[str, object]] = {}
    grid_start = time.perf_counter()
    for workload_name in workloads:
        for scheme in schemes:
            results[f"{scheme}/{workload_name}"] = measure_config(
                scheme,
                workload_name,
                scale=scale,
                warmup_ops=warmup_ops,
                measure_ops=measure_ops,
                seed=seed,
                repeats=repeats,
            )
    return {
        "label": label,
        "git_rev": git_revision(),
        "quick": quick,
        "params": {
            "scale": scale,
            "warmup_ops": warmup_ops,
            "measure_ops": measure_ops,
            "seed": seed,
            "repeats": repeats,
        },
        "env": {
            "thread_pins": env_pins,
            "numpy_version": _numpy_version(),
        },
        "results": results,
        "total_wall_seconds": round(time.perf_counter() - grid_start, 2),
    }


def compare_documents(
    current: Dict[str, object],
    baseline: Dict[str, object],
    max_regression: float,
) -> List[str]:
    """Regressions of *current* vs *baseline* beyond the tolerance.

    Only configurations present in both documents are compared; a missing
    configuration is a grid change, not a regression.
    """
    problems: List[str] = []
    baseline_results = baseline.get("results", {})
    current_results = current.get("results", {})
    for key, entry in sorted(baseline_results.items()):
        now = current_results.get(key)
        if now is None:
            continue
        old_rate = float(entry["ops_per_sec"])
        new_rate = float(now["ops_per_sec"])
        floor = old_rate * (1.0 - max_regression)
        if new_rate < floor:
            problems.append(
                f"{key}: {new_rate:.1f} ops/sec is "
                f"{1.0 - new_rate / old_rate:.0%} below baseline "
                f"{old_rate:.1f} (tolerance {max_regression:.0%})"
            )
    return problems


def trend_table(documents: List[Dict[str, object]]) -> List[str]:
    """A throughput-trajectory table across bench documents.

    One column per document (in the given order — callers pass them
    sorted by file name, so the committed ``BENCH_baseline.json``,
    ``BENCH_pr6.json``, ... sequence reads left to right), one row per
    configuration key, with a trailing ratio of last column to first.
    Configurations missing from a document print ``-`` (grid changes
    are expected across PRs).
    """
    if not documents:
        return ["no bench documents found"]
    labels = [str(doc.get("label", "?")) for doc in documents]
    keys: List[str] = []
    for doc in documents:
        for key in doc.get("results", {}):
            if key not in keys:
                keys.append(key)
    keys.sort()
    if not keys:
        return ["no configurations in any bench document"]
    width = max(12, *(len(label) for label in labels)) + 1
    key_width = max(len(key) for key in keys) + 1
    lines = [
        "".join([f"{'configuration':<{key_width}}"]
                + [f"{label:>{width}}" for label in labels]
                + [f"{'last/first':>12}"])
    ]
    for key in keys:
        cells = []
        rates: List[Optional[float]] = []
        for doc in documents:
            entry = doc.get("results", {}).get(key)
            rate: Optional[float] = None
            if isinstance(entry, dict):
                try:
                    rate = float(entry["ops_per_sec"])  # type: ignore[arg-type]
                except (KeyError, TypeError, ValueError):
                    rate = None  # a half-written row prints as absent
            if rate is None:
                cells.append(f"{'-':>{width}}")
                rates.append(None)
            else:
                cells.append(f"{rate:>{width}.1f}")
                rates.append(rate)
        present = [rate for rate in rates if rate is not None]
        ratio = (
            f"{present[-1] / present[0]:>11.2f}x" if len(present) >= 2 else
            f"{'-':>12}"
        )
        lines.append("".join([f"{key:<{key_width}}"] + cells + [ratio]))
    return lines


def load_trend_documents(bench_dir: Path) -> List[Dict[str, object]]:
    """All readable ``BENCH_*.json`` documents under *bench_dir*, by name.

    Unreadable, corrupt (checksum-failing), or schema-broken documents
    are skipped with a one-line warning — one rotted file must not take
    down the whole trajectory table.
    """
    documents: List[Dict[str, object]] = []
    for path in sorted(bench_dir.glob("BENCH_*.json")):
        try:
            doc = persist.read_json(path, site="bench")
        except (OSError, PersistError) as exc:
            print(f"skipping {path}: {exc}", file=sys.stderr)
            continue
        if not isinstance(doc.get("results"), dict):
            print(f"skipping {path}: not a bench document "
                  f"(no results table)", file=sys.stderr)
            continue
        documents.append(doc)
    return documents


def delta_report(
    current: Dict[str, object], baseline: Dict[str, object]
) -> List[str]:
    """Per-configuration deltas vs a baseline.

    One line per configuration present in both documents, keyed exactly
    like the results dict.  Purely informational;
    :func:`compare_documents` owns the gate.
    """
    lines: List[str] = []
    baseline_results = baseline.get("results", {})
    current_results = current.get("results", {})
    for key, entry in sorted(baseline_results.items()):
        now = current_results.get(key)
        if now is None:
            continue
        old_rate = float(entry["ops_per_sec"])
        new_rate = float(now["ops_per_sec"])
        change = new_rate / old_rate - 1.0 if old_rate else 0.0
        lines.append(
            f"{key:30s} {old_rate:>10.1f} -> {new_rate:>10.1f} ops/sec "
            f"({change:+.1%})"
        )
    return lines


# -- CLI glue (wired into repro.cli's subcommand table) ----------------------
def add_bench_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--schemes", nargs="*", default=None,
                        help="schemes to bench (default: all)")
    parser.add_argument("--workloads", nargs="*", default=None,
                        help=f"workloads to bench (default: {DEFAULT_WORKLOADS})")
    parser.add_argument("--scale", type=int, default=DEFAULT_SCALE,
                        help="system down-scaling factor")
    parser.add_argument("--warmup-ops", type=int, default=DEFAULT_WARMUP_OPS,
                        help="untimed warm-up operations per core")
    parser.add_argument("--ops", type=int, default=None,
                        help="timed operations per core "
                             f"(default {DEFAULT_MEASURE_OPS}, "
                             f"quick {QUICK_MEASURE_OPS})")
    parser.add_argument("--repeats", type=int, default=None,
                        help="timed repeats per configuration; best wins "
                             f"(default {DEFAULT_REPEATS}, quick {QUICK_REPEATS})")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--quick", action="store_true",
                        help="CI-smoke sizing (smaller window, fewer repeats)")
    parser.add_argument("--label", default="local",
                        help="output name: BENCH_<label>.json")
    parser.add_argument("--out-dir", default=".",
                        help="directory for the BENCH_<label>.json output")
    parser.add_argument("--profile", type=int, default=None, metavar="N",
                        help="also cProfile each configuration and print the "
                             "top N functions by cumulative time")
    parser.add_argument("--compare", default=None, metavar="BASELINE_JSON",
                        help="fail if any shared configuration regresses "
                             "beyond --max-regression vs this baseline")
    parser.add_argument("--max-regression", type=float,
                        default=DEFAULT_MAX_REGRESSION,
                        help="tolerated fractional ops/sec loss for --compare")
    parser.add_argument("--trend", action="store_true",
                        help="print the throughput trajectory across the "
                             "committed BENCH_*.json documents instead of "
                             "running the grid")
    parser.add_argument("--bench-dir", default="benchmarks",
                        help="directory scanned by --trend "
                             "(default: benchmarks/)")


def command_bench(args: argparse.Namespace) -> int:
    from repro.sim.system import SCHEMES

    if args.trend:
        bench_dir = Path(args.bench_dir)
        if not bench_dir.is_dir():
            print(f"error: --trend directory {bench_dir} does not exist",
                  file=sys.stderr)
            return 1
        for line in trend_table(load_trend_documents(bench_dir)):
            print(line)
        return 0

    schemes = args.schemes if args.schemes else sorted(SCHEMES)
    for scheme in schemes:
        if scheme not in SCHEMES:
            print(f"unknown scheme {scheme!r}; pick from {sorted(SCHEMES)}")
            return 2
    workloads = args.workloads if args.workloads else list(DEFAULT_WORKLOADS)
    measure_ops = args.ops
    if measure_ops is None:
        measure_ops = QUICK_MEASURE_OPS if args.quick else DEFAULT_MEASURE_OPS
    repeats = args.repeats
    if repeats is None:
        repeats = QUICK_REPEATS if args.quick else DEFAULT_REPEATS

    document = run_bench(
        schemes,
        workloads,
        scale=args.scale,
        warmup_ops=args.warmup_ops,
        measure_ops=measure_ops,
        seed=args.seed,
        repeats=repeats,
        label=args.label,
        quick=args.quick,
    )
    results = document["results"]
    for key, entry in results.items():  # type: ignore[union-attr]
        print(f"{key:30s} {entry['ops_per_sec']:>10.1f} ops/sec "
              f"(best of {entry['repeats']}, digest {entry['stats_digest']})")
    print(f"total wall time {document['total_wall_seconds']}s "
          f"at rev {document['git_rev']}")

    out_path = Path(args.out_dir) / f"BENCH_{args.label}.json"
    # Atomic + checksummed: a killed bench run must never leave a torn
    # JSON where the next --compare expects a baseline, and later bit-rot
    # is detected instead of silently compared against.
    try:
        persist.write_json(out_path, document, site="bench", indent=2)
    except PersistError as exc:
        print(f"error: could not write {out_path}: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {out_path}")

    if args.profile is not None:
        for workload_name in workloads:
            for scheme in schemes:
                print(f"\n--- profile: {scheme}/{workload_name} "
                      f"(top {args.profile} by cumulative time) ---")
                print(profile_config(
                    scheme,
                    workload_name,
                    scale=args.scale,
                    warmup_ops=args.warmup_ops,
                    measure_ops=measure_ops,
                    seed=args.seed,
                    top=args.profile,
                ))

    if args.compare is not None:
        try:
            baseline = persist.read_json(args.compare, site="bench")
        except FileNotFoundError:
            print(f"error: baseline {args.compare} does not exist; generate "
                  f"one with `repro bench --label <name>` on the reference "
                  f"revision, or drop --compare", file=sys.stderr)
            return 1
        except (OSError, PersistError) as exc:
            print(f"error: baseline {args.compare} is unreadable "
                  f"({exc}); regenerate it with `repro bench`",
                  file=sys.stderr)
            return 1
        if not isinstance(baseline, dict) or "results" not in baseline:
            print(f"error: baseline {args.compare} is not a bench document "
                  f"(no 'results' key); regenerate it with `repro bench`",
                  file=sys.stderr)
            return 1
        for line in delta_report(document, baseline):
            print(f"  {line}")
        problems = compare_documents(document, baseline, args.max_regression)
        if problems:
            print(f"{len(problems)} throughput regression(s) "
                  f"vs {args.compare}:")
            for problem in problems:
                print(f"  {problem}")
            return 1
        print(f"no regressions beyond {args.max_regression:.0%} "
              f"vs {args.compare}")
    return 0
