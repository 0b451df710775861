"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``run``             simulate one (scheme, workload) pair and print metrics
                      (``--checkpoint-every``/``--resume``: crash-safe runs)
* ``sweep``           parallel sweep on a local server + worker fleet,
                      with checkpoint resume (docs/SWEEP_SERVICE.md)
* ``report``          regenerate every table/figure (cached)
* ``energy``          run PageSeer and print the Table II energy report
* ``golden``          verify (or ``--update``) the golden regression matrix
* ``bench``           throughput benchmark grid (see docs/PERFORMANCE.md)
* ``lint``            static correctness linter (see docs/LINTING.md)
* ``fsck``            verify/repair checkpoints, manifests, caches, and
                      journals (see docs/FAULTS.md)
* ``trace-record``    dump one core's access stream to a trace file
* ``trace-run``       simulate a scheme over recorded trace files
* ``list-workloads``  the 26 Table III workloads
* ``list-schemes``    available memory-controller schemes
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.common.config import CHECK_LEVELS, CheckConfig, FaultConfig
from repro.common.errors import (
    CheckpointError,
    CheckpointInterrupt,
    ManifestVersionError,
)
from repro.snapshot.signals import EXIT_CHECKPOINTED
from repro.experiments import ExperimentRunner
from repro.experiments.jobcore import (
    CHECKPOINTS_PER_JOB,
    HEARTBEAT_SECONDS,
    LEASE_SECONDS,
)
from repro.experiments.runner import (
    DEFAULT_MEASURE_OPS,
    DEFAULT_SCALE,
    DEFAULT_WARMUP_OPS,
    VARIANTS,
)
from repro.faults import FAULT_PROFILES, resolve_profile
from repro.sim.system import SCHEMES, build_system
from repro.workloads import all_workloads, workload_by_name


def _add_sizing_arguments(parser: argparse.ArgumentParser) -> None:
    # The runner's paper sizing: `report` with no flags renders the
    # operating point EXPERIMENTS.md documents and reuses the cache
    # entries `benchmarks/` and `prewarm` write.
    parser.add_argument("--scale", type=int, default=DEFAULT_SCALE,
                        help="system down-scaling factor (1 = paper size)")
    parser.add_argument("--measure-ops", type=int, default=DEFAULT_MEASURE_OPS,
                        help="measured memory operations per core")
    parser.add_argument("--warmup-ops", type=int, default=DEFAULT_WARMUP_OPS,
                        help="warm-up memory operations per core")
    parser.add_argument("--seed", type=int, default=0)


def _add_check_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--check", action="store_true",
                        help="run the simulation sanitizer at level 'full' "
                             "(invariant sweeps + shadow reference model)")
    parser.add_argument("--check-level", choices=CHECK_LEVELS, default=None,
                        help="explicit sanitizer level (overrides --check)")
    parser.add_argument("--check-interval", type=int, default=256,
                        help="accesses between invariant sweeps")


def _resolve_check(args: argparse.Namespace) -> Optional[CheckConfig]:
    """Turn ``--check`` / ``--check-level`` into a CheckConfig (or None)."""
    level = args.check_level
    if level is None:
        level = "full" if args.check else None
    if level is None:
        return None
    return CheckConfig(level=level, interval_ops=args.check_interval)


def _add_fault_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--faults", choices=sorted(FAULT_PROFILES), default="off",
                        help="fault-injection profile (see docs/FAULTS.md)")
    parser.add_argument("--fault-seed", type=int, default=0,
                        help="seed for the deterministic fault RNG streams")


def _resolve_faults(args: argparse.Namespace) -> Optional[FaultConfig]:
    """Turn ``--faults`` / ``--fault-seed`` into a FaultConfig (or None)."""
    return resolve_profile(args.faults, fault_seed=args.fault_seed)


def _add_storage_fault_arguments(parser: argparse.ArgumentParser) -> None:
    from repro.faults.storage import STORAGE_PROFILES

    parser.add_argument("--storage-faults", choices=sorted(STORAGE_PROFILES),
                        default=None, metavar="PROFILE",
                        help="storage-fault injection profile applied to every "
                             "repro.persist write — one of "
                             f"{', '.join(sorted(STORAGE_PROFILES))} (see "
                             "docs/FAULTS.md; default: the "
                             "REPRO_STORAGE_FAULTS environment variable)")
    parser.add_argument("--storage-seed", type=int, default=0,
                        help="seed for the deterministic storage-fault RNG")


def _arm_storage_faults(args: argparse.Namespace) -> None:
    """Publish ``--storage-faults`` via the environment before any write.

    Arming goes through ``REPRO_STORAGE_FAULTS`` rather than a direct
    injector install so forked sweep workers and fleet processes inherit
    the exact same configuration.  ``--storage-faults off`` explicitly
    disarms an inherited environment variable; leaving the flag unset
    leaves the environment (and thus any ambient arming) alone.
    """
    profile = getattr(args, "storage_faults", None)
    if profile is None:
        return
    import os

    from repro import persist
    from repro.faults.storage import (
        STORAGE_FAULTS_ENV,
        config_to_env,
        resolve_storage_profile,
    )

    config = resolve_storage_profile(profile, storage_seed=args.storage_seed)
    if config is None:
        os.environ.pop(STORAGE_FAULTS_ENV, None)
    else:
        os.environ[STORAGE_FAULTS_ENV] = config_to_env(config, profile)
    persist.reset_storage_faults()


def _add_chaos_arguments(parser: argparse.ArgumentParser) -> None:
    """Deterministic chaos knobs for the distributed sweep service."""
    parser.add_argument("--chaos-seed", type=int, default=0,
                        help="seed for the protocol chaos RNG streams")
    parser.add_argument("--chaos-drop", type=float, default=0.0, metavar="RATE",
                        help="probability a protocol frame is dropped")
    parser.add_argument("--chaos-duplicate", type=float, default=0.0,
                        metavar="RATE",
                        help="probability a protocol frame is duplicated")
    parser.add_argument("--chaos-reorder", type=float, default=0.0,
                        metavar="RATE",
                        help="probability adjacent frames swap order")
    parser.add_argument("--chaos-stall", type=float, default=0.0,
                        metavar="RATE",
                        help="probability a message batch stalls the server")
    parser.add_argument("--chaos-stall-seconds", type=float, default=0.0)
    parser.add_argument("--chaos-kill-worker", action="append", default=None,
                        metavar="SLOT:STEPS",
                        help="SIGKILL worker SLOT once it heartbeats past "
                             "STEPS simulated ops (repeatable)")
    parser.add_argument("--chaos-restart-server-after", type=int, default=None,
                        metavar="N",
                        help="SIGKILL + relaunch the server after N results")


def _add_checkpoint_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--checkpoint-every", type=int, default=0, metavar="OPS",
                        help="write a rolling checkpoint every N executed ops "
                             "(0 = off); SIGINT/SIGTERM then also write one "
                             "final checkpoint before exiting with code "
                             f"{EXIT_CHECKPOINTED}")
    parser.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                        help="directory for checkpoint files (default: "
                             "checkpoints/<scheme>_<workload>_<variant>)")
    parser.add_argument("--resume", default=None, metavar="FILE",
                        help="restore a checkpoint file and finish its run "
                             "(--scheme/--workload/sizing come from the file)")


def _command_run(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.snapshot import (
        Checkpointer,
        SignalGuard,
        load_checkpoint,
        read_checkpoint_header,
    )

    try:
        if args.resume is not None:
            header = read_checkpoint_header(args.resume)
            for flag, value in (("scheme", args.scheme),
                                ("workload", args.workload)):
                if value is not None and value != header[flag]:
                    print(f"error: --resume file holds a {header['scheme']}/"
                          f"{header['workload']} run; --{flag} {value} "
                          f"contradicts it (drop the flag or pick the "
                          f"matching checkpoint)", file=sys.stderr)
                    return 2
            system = load_checkpoint(args.resume)
            print(f"resuming {header['scheme']} on {header['workload']} from "
                  f"{args.resume} (phase {header['phase']}, "
                  f"{header['steps_total']} ops done)")
            checkpoint_dir = Path(args.checkpoint_dir
                                  or Path(args.resume).parent)
        else:
            if args.scheme is None or args.workload is None:
                print("error: --scheme and --workload are required unless "
                      "--resume is given", file=sys.stderr)
                return 2
            system = build_system(
                args.scheme,
                workload_by_name(args.workload),
                scale=args.scale,
                seed=args.seed,
                config_mutator=VARIANTS[args.variant],
                check=_resolve_check(args),
                faults=_resolve_faults(args),
            )
            checkpoint_dir = Path(
                args.checkpoint_dir
                or Path("checkpoints")
                / f"{args.scheme}_{args.workload}_{args.variant}"
            )

        with SignalGuard() as guard:
            if args.checkpoint_every > 0 or args.resume is not None:
                Checkpointer(
                    checkpoint_dir,
                    every_ops=args.checkpoint_every,
                    signals=guard,
                ).arm(system)
            if args.resume is not None:
                metrics = system.resume_run()
            else:
                metrics = system.run(args.measure_ops, args.warmup_ops)
    except CheckpointInterrupt as interrupt:
        print(f"\ninterrupted by signal {interrupt.signum}; checkpoint written "
              f"to {interrupt.path}", file=sys.stderr)
        print(f"resume with: python -m repro run --resume {interrupt.path}",
              file=sys.stderr)
        return EXIT_CHECKPOINTED
    except CheckpointError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1

    _print_run_summary(system, metrics)
    return 0


def _print_run_summary(system, metrics) -> None:
    workload = system.workload
    print(f"{system.scheme} on {workload.name} "
          f"({workload.cores} cores, scale 1/{system.scale})")
    print(f"  ipc                 {metrics.ipc:.4f}")
    print(f"  ammat               {metrics.ammat:.1f} cycles")
    print(f"  dram/nvm/buffer     {metrics.dram_share:.1%} / "
          f"{metrics.nvm_share:.1%} / {metrics.buffer_share:.1%}")
    print(f"  pos/neg/neutral     {metrics.positive_share:.1%} / "
          f"{metrics.negative_share:.1%} / {metrics.neutral_share:.1%}")
    print(f"  swaps (mmu/pct/reg) {metrics.swaps_total} "
          f"({metrics.swaps_mmu}/{metrics.swaps_pct}/{metrics.swaps_regular})")
    print(f"  swaps per k-instr   {metrics.swaps_per_kilo_instruction:.3f}")
    if metrics.prefetch_swaps:
        print(f"  prefetch accuracy   {metrics.prefetch_accuracy:.1%}")
    if system.checker is not None:
        report = system.checker.report()
        print(f"  sanitizer           level={report.level} "
              f"sweeps={report.sweeps} "
              f"shadow-checks={report.shadow_accesses_checked} "
              f"violations={len(report.violations)}")
    if system.config.faults.enabled:
        print(f"  faults              injected={metrics.faults_injected} "
              f"retries={metrics.fault_retries} "
              f"swap-aborts={metrics.swap_aborts} "
              f"quarantined={metrics.quarantined_pages} "
              f"degraded={metrics.degraded_services}")


#: Exit code for a manifest written by an incompatible build (satellite
#: of docs/SWEEP_SERVICE.md's failure model): distinguishable from the
#: generic checkpoint-error exit so wrappers can react differently.
EXIT_MANIFEST_VERSION = 4


def _results_digest(results) -> str:
    """Order-independent digest of a sweep's aggregated result set.

    ``repro sweep`` prints it, and CI compares it against the same digest
    of the in-process ``run_many(jobs=1)`` path, gating on bit-identical
    aggregation across the two executors.
    """
    import hashlib
    import json

    payload = {
        "/".join(request): metrics.payload()
        for request, metrics in results.items()
    }
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()
    ).hexdigest()


def _sweep_requests(args: argparse.Namespace):
    workloads = args.workloads or [spec.name for spec in all_workloads()]
    return [
        (scheme, workload, variant)
        for scheme in args.schemes
        for workload in workloads
        for variant in args.variants
    ]


def _worker_count(text: str) -> int:
    """``--jobs``: a negative worker count is a usage error (exit 2)."""
    count = int(text)
    if count < 0:
        raise argparse.ArgumentTypeError(f"expected a count >= 0, got {count}")
    return count


def _fleet_chaos_from_args(args: argparse.Namespace):
    from repro.faults.chaos import FleetChaos

    kills = {}
    for spec in args.chaos_kill_worker or []:
        slot, sep, steps = spec.partition(":")
        if not sep or not slot.isdigit() or not steps.isdigit():
            raise SystemExit(
                f"error: --chaos-kill-worker expects SLOT:STEPS, got {spec!r}"
            )
        kills[int(slot)] = int(steps)
    return FleetChaos(
        kill_worker_mid_job=kills,
        restart_server_after_results=args.chaos_restart_server_after,
    )


def _message_chaos_from_args(args: argparse.Namespace):
    from repro.faults.chaos import ChaosConfig

    chaos = ChaosConfig(
        enabled=True,
        chaos_seed=args.chaos_seed,
        drop_rate=args.chaos_drop,
        duplicate_rate=args.chaos_duplicate,
        reorder_rate=args.chaos_reorder,
        stall_rate=args.chaos_stall,
        stall_seconds=args.chaos_stall_seconds,
    )
    return chaos if chaos.active else None


def _command_sweep(args: argparse.Namespace) -> int:
    import os

    from repro.common.errors import SweepdError, SweepError
    from repro.sweepd.fleet import run_distributed_sweep

    runner = ExperimentRunner(
        scale=args.scale,
        measure_ops=args.measure_ops,
        warmup_ops=args.warmup_ops,
        seed=args.seed,
        verbose=not args.quiet,
        faults=_resolve_faults(args),
        max_attempts=args.max_attempts,
    )
    workers = args.jobs or os.cpu_count() or 1
    try:
        results, report = run_distributed_sweep(
            runner,
            None if args.resume else _sweep_requests(args),
            args.checkpoint_root,
            workers=workers,
            chaos=_message_chaos_from_args(args),
            fleet_chaos=_fleet_chaos_from_args(args),
            lease_seconds=args.lease_seconds,
            checkpoint_every=args.checkpoint_every,
            heartbeat_seconds=args.heartbeat_seconds,
        )
    except ManifestVersionError as error:
        print(f"error: {error}", file=sys.stderr)
        if error.hint:
            print(f"hint: {error.hint}", file=sys.stderr)
        return EXIT_MANIFEST_VERSION
    except CheckpointError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except SweepdError as error:
        print(f"sweep service error: {error}", file=sys.stderr)
        print(f"resume with: python -m repro sweep --resume "
              f"--checkpoint-root {args.checkpoint_root}", file=sys.stderr)
        return 1
    except SweepError as error:
        print(f"sweep incomplete: {error}", file=sys.stderr)
        return 1
    print(f"sweep complete: {len(results)} result(s) "
          f"(workers: {workers}, relaunches: {report.worker_relaunches}, "
          f"lease reclaims: {report.reclaims}, "
          f"hung workers killed: {report.hung_worker_kills}, "
          f"chaos kills: {report.chaos_worker_kills}, "
          f"server restarts: {report.chaos_server_restarts})")
    print(f"results digest: {_results_digest(results)}")
    return 0


def _command_report(args: argparse.Namespace) -> int:
    from repro.experiments.report import generate_report

    workloads = args.workloads if args.workloads else None
    runner = ExperimentRunner(
        scale=args.scale,
        measure_ops=args.measure_ops,
        warmup_ops=args.warmup_ops,
        seed=args.seed,
        workloads=workloads,
        verbose=True,
    )
    report = generate_report(runner)
    print(report)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(report + "\n")
    return 0


def _command_energy(args: argparse.Namespace) -> int:
    from repro.core.energy import energy_report

    workload = workload_by_name(args.workload)
    system = build_system("pageseer", workload, scale=args.scale, seed=args.seed)
    system.run(args.measure_ops, args.warmup_ops)
    elapsed = max(core.clock for core in system.cores)
    print(energy_report(system.hmc, elapsed).render())
    return 0


def _command_trace_record(args: argparse.Namespace) -> int:
    from repro.workloads.trace import record_trace

    workload = workload_by_name(args.workload)
    count = record_trace(
        workload, args.core, args.count, args.out,
        seed=args.seed, scale=args.scale,
    )
    print(f"recorded {count} ops of {workload.name} core {args.core} "
          f"to {args.out}")
    return 0


def _command_golden(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.check.golden import (
        default_golden_dir,
        update_goldens,
        verify_goldens,
    )

    directory = Path(args.dir) if args.dir else default_golden_dir()
    if args.update:
        written = update_goldens(directory, verbose=True)
        print(f"wrote {len(written)} golden file(s) to {directory}")
        return 0
    problems = verify_goldens(directory, verbose=True)
    if problems:
        print(f"{len(problems)} golden mismatch(es):")
        for triple, messages in sorted(problems.items()):
            print(f"  {'/'.join(triple)}:")
            for message in messages:
                print(f"    {message}")
        return 1
    print("all goldens match")
    return 0


def _command_trace_run(args: argparse.Namespace) -> int:
    from repro.workloads.trace import trace_workload

    spec = trace_workload("trace", args.traces)
    system = build_system(
        args.scheme,
        spec,
        scale=args.scale,
        seed=args.seed,
        check=_resolve_check(args),
        faults=_resolve_faults(args),
    )
    metrics = system.run(args.measure_ops, args.warmup_ops)
    print(f"{args.scheme} over {spec.cores} trace(s)")
    print(f"  ipc    {metrics.ipc:.4f}")
    print(f"  ammat  {metrics.ammat:.1f} cycles")
    print(f"  dram/nvm/buffer {metrics.dram_share:.1%} / "
          f"{metrics.nvm_share:.1%} / {metrics.buffer_share:.1%}")
    print(f"  swaps  {metrics.swaps_total}")
    return 0


def _command_list_workloads(args: argparse.Namespace) -> int:
    for spec in all_workloads():
        members = "+".join(sorted({p.benchmark for p in spec.parts}))
        print(f"{spec.name:14s} suite={spec.suite:8s} cores={spec.cores:2d} "
              f"({members})")
    return 0


def _command_list_schemes(args: argparse.Namespace) -> int:
    for name in sorted(SCHEMES):
        print(name)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)
    # An unknown workload name is a usage error, as an unknown scheme is.
    workloads = {"choices": [spec.name for spec in all_workloads()],
                 "metavar": "WORKLOAD"}

    run_parser = commands.add_parser("run", help="simulate one scheme/workload")
    run_parser.add_argument("--scheme", default=None, choices=sorted(SCHEMES))
    run_parser.add_argument("--workload", default=None, **workloads)
    run_parser.add_argument("--variant", default="default",
                            choices=sorted(VARIANTS))
    _add_sizing_arguments(run_parser)
    _add_check_arguments(run_parser)
    _add_fault_arguments(run_parser)
    _add_storage_fault_arguments(run_parser)
    _add_checkpoint_arguments(run_parser)
    run_parser.set_defaults(handler=_command_run)

    sweep_parser = commands.add_parser(
        "sweep", help="parallel sweep on a local worker fleet, with resume"
    )
    sweep_parser.add_argument("--schemes", nargs="+",
                              default=["pageseer", "pom", "mempod"],
                              choices=sorted(SCHEMES))
    sweep_parser.add_argument("--workloads", nargs="*", default=None,
                              help="workload names (default: all 26)",
                              **workloads)
    sweep_parser.add_argument("--variants", nargs="+", default=["default"],
                              choices=sorted(VARIANTS))
    sweep_parser.add_argument("--jobs", type=_worker_count, default=None,
                              help="worker processes (default or 0: CPU "
                                   "count)")
    sweep_parser.add_argument("--checkpoint-root", default="checkpoints/sweep",
                              help="service root: the sweepd manifest and "
                                   "the per-job checkpoint directories")
    sweep_parser.add_argument("--checkpoint-every", type=int, default=None,
                              metavar="OPS",
                              help="ops between a job's rolling checkpoints "
                                   "(default: each job writes "
                                   f"{CHECKPOINTS_PER_JOB}, evenly spaced; "
                                   "0 = off)")
    sweep_parser.add_argument("--heartbeat-seconds", type=float,
                              default=HEARTBEAT_SECONDS)
    sweep_parser.add_argument("--max-attempts", type=int, default=3)
    sweep_parser.add_argument("--resume", action="store_true",
                              help="restart the fleet on --checkpoint-root's "
                                   "manifest without submitting anything")
    sweep_parser.add_argument("--quiet", action="store_true")
    sweep_parser.add_argument("--lease-seconds", type=float,
                              default=LEASE_SECONDS,
                              help="job lease duration; an expired lease is "
                                   "reclaimed and its (dead or hung) worker "
                                   "killed")
    _add_chaos_arguments(sweep_parser)
    _add_sizing_arguments(sweep_parser)
    _add_fault_arguments(sweep_parser)
    _add_storage_fault_arguments(sweep_parser)
    sweep_parser.set_defaults(handler=_command_sweep)

    report_parser = commands.add_parser(
        "report", help="regenerate every table and figure"
    )
    report_parser.add_argument("--workloads", nargs="*", default=None,
                               **workloads)
    report_parser.add_argument("--out", default=None)
    _add_sizing_arguments(report_parser)
    report_parser.set_defaults(handler=_command_report)

    energy_parser = commands.add_parser(
        "energy", help="Table II energy/area report for one workload"
    )
    energy_parser.add_argument("--workload", default="lbmx4", **workloads)
    _add_sizing_arguments(energy_parser)
    energy_parser.set_defaults(handler=_command_energy)

    golden_parser = commands.add_parser(
        "golden", help="verify or regenerate the golden regression matrix"
    )
    golden_parser.add_argument("--update", action="store_true",
                               help="re-run the matrix and rewrite the files")
    golden_parser.add_argument("--dir", default=None,
                               help="golden directory (default: tests/golden)")
    golden_parser.set_defaults(handler=_command_golden)

    bench_parser = commands.add_parser(
        "bench", help="scheme×workload throughput benchmark"
    )
    from repro.bench import add_bench_arguments, command_bench

    add_bench_arguments(bench_parser)
    _add_storage_fault_arguments(bench_parser)
    bench_parser.set_defaults(handler=command_bench)

    fsck_parser = commands.add_parser(
        "fsck", help="verify and repair persisted state (docs/FAULTS.md)"
    )
    from repro.fsck import add_fsck_arguments, command_fsck

    add_fsck_arguments(fsck_parser)
    fsck_parser.set_defaults(handler=command_fsck)

    lint_parser = commands.add_parser(
        "lint", help="AST-based simulator correctness linter"
    )
    from repro.lint.cli import add_lint_arguments, command_lint

    add_lint_arguments(lint_parser)
    lint_parser.set_defaults(handler=command_lint)

    record_parser = commands.add_parser(
        "trace-record", help="dump one core's access stream to a file"
    )
    record_parser.add_argument("--workload", required=True, **workloads)
    record_parser.add_argument("--core", type=int, default=0)
    record_parser.add_argument("--count", type=int, default=10_000)
    record_parser.add_argument("--out", required=True)
    record_parser.add_argument("--scale", type=int, default=512)
    record_parser.add_argument("--seed", type=int, default=0)
    record_parser.set_defaults(handler=_command_trace_record)

    trace_run_parser = commands.add_parser(
        "trace-run", help="simulate a scheme over recorded trace files"
    )
    trace_run_parser.add_argument("--traces", nargs="+", required=True,
                                  help="one trace file per core")
    trace_run_parser.add_argument("--scheme", default="pageseer",
                                  choices=sorted(SCHEMES))
    _add_sizing_arguments(trace_run_parser)
    _add_check_arguments(trace_run_parser)
    _add_fault_arguments(trace_run_parser)
    trace_run_parser.set_defaults(handler=_command_trace_run)

    commands.add_parser(
        "list-workloads", help="list the Table III workloads"
    ).set_defaults(handler=_command_list_workloads)
    commands.add_parser(
        "list-schemes", help="list memory-controller schemes"
    ).set_defaults(handler=_command_list_schemes)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    _arm_storage_faults(args)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
