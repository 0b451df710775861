"""The unit of work every multi-process sweep is made of.

``ExperimentRunner.run_many(jobs != 1)`` and ``repro sweep`` both run
on one executor — the ``sweepd`` work-queue server plus its workers
(:mod:`repro.sweepd`) — and every worker runs the *same* job: one
(scheme, workload, variant) simulation that checkpoints into a private
directory, resumes from ``latest.ckpt`` after a crash or SIGKILL, and
lands its metrics as an atomically-written JSON payload.  This module
is that job:

* :func:`execute_job` — resume-or-build, arm a checkpointer (with the
  over-the-wire heartbeat hook and the deterministic stall fault), run
  to completion, return the metrics payload;
* :func:`load_result` — the salvage read that lets a relaunched worker
  ship a finished result without re-simulating;
* :func:`cache_key` / :func:`fault_signature` — the canonical result
  cache key (shared with :class:`repro.experiments.runner
  .ExperimentRunner`), which also seeds deterministic ``sweepd`` job
  ids;
* :func:`inject_worker_crash` / :func:`backoff_seconds` — the
  deterministic infrastructure-fault draw and the retry backoff curve;
* :data:`HEARTBEAT_SECONDS` / :data:`LEASE_SECONDS` /
  :func:`default_checkpoint_every` — the one default of each fleet
  setting, read by every layer (CLI, fleet, server, worker).
"""

from __future__ import annotations

import gc
import hashlib
import time
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple, Union

from repro.common.config import CheckConfig, FaultConfig
from repro.common.errors import WorkerFaultError
from repro.common.rng import DeterministicRng
from repro.sim.metrics import PERSISTED_FIELDS
from repro.snapshot import Checkpointer

#: ``(scheme, workload, variant)`` — the unit every sweep is made of.
Request = Tuple[str, str, str]

#: ``(scale, measure_ops, warmup_ops, seed, check_level)`` as threaded
#: through worker processes.
Sizing = Tuple[int, int, int, int, str]

#: Conventional name for a job's completed-metrics file.
RESULT_NAME = "result.json"

#: First retry waits this long; attempt ``n`` waits ``base << n`` seconds.
#: Kept tiny: the backoff is for scheduling fairness (and testability),
#: not for placating a remote service.
BACKOFF_BASE_SECONDS = 0.01

#: Seconds between a worker's wall-clock heartbeats.  Each heartbeat
#: extends the job's lease; a checkpoint write also heartbeats.
HEARTBEAT_SECONDS = 0.5

#: Seconds a lease lives without a heartbeat.  On expiry the server
#: requeues the job and the fleet SIGKILLs the (dead or hung) worker, so
#: this is also the sweep's hung-worker timeout.  It must outlast the
#: longest silent stretch of a healthy worker: building or restoring a
#: paper-sized system, several times over on an oversubscribed host.
LEASE_SECONDS = 10.0

#: Periodic checkpoints a job writes by default, whatever its length:
#: a killed worker then loses at most a third of its job, each write
#: costs ~0.05 s of a 2-6 s paper job, and the stall fault — which
#: wedges after two writes — still lands mid-run.
CHECKPOINTS_PER_JOB = 2


def backoff_seconds(attempt: int, base: float = BACKOFF_BASE_SECONDS) -> float:
    """Exponential retry backoff: ``base * 2**attempt`` seconds."""
    return base * (1 << attempt)


def default_checkpoint_every(total_steps: int) -> int:
    """Ops between periodic checkpoints for a job of *total_steps* ops:
    :data:`CHECKPOINTS_PER_JOB` evenly spaced writes, none at the end."""
    return total_steps // (CHECKPOINTS_PER_JOB + 1) + 1


def fault_signature(faults: Optional[FaultConfig]) -> str:
    """Cache-key suffix for the fault fields that change simulation output.

    The worker crash/stall knobs steer *which attempt* produces a result,
    never the result itself (simulations are deterministic in their
    inputs), so they are deliberately left out of the signature.
    """
    if faults is None or not faults.enabled:
        return ""
    material = repr((
        faults.fault_seed,
        faults.nvm_uncorrectable_rate,
        faults.transient_rate,
        faults.transfer_fault_rate,
        faults.max_retries,
        faults.retry_backoff_cycles,
        faults.recovery_read_cycles,
    ))
    digest = hashlib.sha256(material.encode()).hexdigest()[:12]
    return f"_faults{digest}"


def cache_key(request: Request, sizing: Sizing, faults: Optional[FaultConfig]) -> str:
    """The canonical result-cache key for one sweep request.

    Identical to :meth:`repro.experiments.runner.ExperimentRunner._key`
    (which delegates here), so results computed by ``sweepd`` workers
    and by the serial runner land in — and are found in — the same
    cache entries.
    """
    from repro.experiments.runner import CACHE_VERSION

    scheme, workload, variant = request
    scale, measure_ops, warmup_ops, seed, _check_level = sizing
    return (
        f"v{CACHE_VERSION}_{scheme}_{workload}_{variant}"
        f"_s{scale}_m{measure_ops}_w{warmup_ops}"
        f"_seed{seed}{fault_signature(faults)}"
    )


def inject_worker_crash(
    faults: Optional[FaultConfig], request: Request, attempt: int
) -> None:
    """Simulated worker crash before a job does any work.

    Deterministic per (request, attempt): the RNG stream name includes
    the attempt number, so a crashed request's retry draws fresh numbers
    and can succeed — while re-running the whole sweep reproduces the
    exact same crash schedule.  Stalls are modelled mid-run instead (see
    :func:`_stall_seconds`); the stream's first draw, once the stall's,
    is still consumed so the crash schedule stays what it always was.
    """
    if faults is None or not faults.enabled:
        return
    if faults.worker_crash_rate <= 0.0:
        return
    stream = f"fault/worker/{'/'.join(request)}/attempt{attempt}"
    rng = DeterministicRng(stream, faults.fault_seed)
    if faults.worker_stall_rate > 0.0:
        rng.random()
    if rng.random() < faults.worker_crash_rate:
        raise WorkerFaultError(
            f"simulated worker crash (attempt {attempt + 1})", device="worker"
        )


def load_result(directory: Union[str, Path]) -> Optional[Dict[str, object]]:
    """Salvage a completed result payload from a job directory.

    Returns None for a missing, torn, or schema-stale file — the caller
    re-simulates.  This is what lets a worker that finished a job but
    died before (or while) reporting it hand the result over on its next
    lease instead of redoing minutes of simulation.
    """
    from repro import persist

    path = Path(directory) / RESULT_NAME
    payload = persist.read_json_or_none(path, site="result")
    if payload is None:
        return None
    if any(name not in payload for name in PERSISTED_FIELDS):
        return None
    return payload


def _stall_seconds(
    faults: Optional[FaultConfig], request: Request, attempt: int
) -> float:
    """How long ``FaultConfig.worker_stall_rate`` wedges this attempt.

    Attempt 0 only, so the relaunch after the fleet kills the hung
    worker runs through; the draw is deterministic per request.
    """
    if (
        attempt != 0
        or faults is None
        or not faults.enabled
        or faults.worker_stall_rate <= 0.0
    ):
        return 0.0
    stream = f"fault/supervised/{'/'.join(request)}/stall"
    if DeterministicRng(stream, faults.fault_seed).random() < faults.worker_stall_rate:
        return faults.worker_stall_seconds
    return 0.0


class _StallingCheckpointer(Checkpointer):
    """A checkpointer that wedges the worker once, at a fixed op count.

    Models an infrastructure hang (NFS stall, runaway GC): the
    simulation stops making progress *and* stops heartbeating, so its
    lease expires and the fleet kills the worker.  The sleep happens
    outside simulated time, so the eventual metrics are unaffected —
    only liveness is.  ``stall_seconds`` 0 never wedges.
    """

    def __init__(self, *args, stall_at_ops: int, stall_seconds: float, **kwargs):
        super().__init__(*args, **kwargs)
        self._stall_at_ops = stall_at_ops
        self._stall_seconds = stall_seconds

    def on_step(self, system) -> None:
        super().on_step(system)
        if self._stall_seconds and system.steps_total >= self._stall_at_ops:
            time.sleep(self._stall_seconds)
            self._stall_seconds = 0.0


def execute_job(
    request: Request,
    sizing: Sizing,
    faults: Optional[FaultConfig],
    attempt: int,
    directory: Union[str, Path],
    *,
    checkpoint_every: Optional[int] = None,
    heartbeat_seconds: float = HEARTBEAT_SECONDS,
    heartbeat_hook: Optional[Callable[[int], None]] = None,
) -> Dict[str, object]:
    """Run one sweep job to completion and return its metrics payload.

    Resume-aware: if ``<directory>/latest.ckpt`` (or, when that file is
    missing or corrupt, the newest good ``gen-*.ckpt`` generation) loads,
    the simulation continues from it (bit-identical to an uninterrupted
    run, per docs/CHECKPOINTS.md); otherwise a fresh system is built —
    after giving :func:`inject_worker_crash` its deterministic chance to
    model a worker that dies before doing any work.  ``checkpoint_every``
    None derives the cadence from the job's length
    (:func:`default_checkpoint_every`); 0 turns periodic checkpoints off.
    ``heartbeat_hook`` reports each heartbeat over the wire (the
    ``sweepd`` worker).  A stall drawn from ``faults`` wedges the job
    after two periodic checkpoints.  The returned payload carries every
    cached metric field plus ``resumed_at_ops`` and ``attempt``.
    """
    from repro.experiments.runner import VARIANTS
    from repro.sim.system import build_system
    from repro.snapshot import load_checkpoint_with_fallback
    from repro.workloads import workload_by_name

    scheme, workload_name, variant = request
    scale, measure_ops, warmup_ops, seed, check_level = sizing
    directory = Path(directory)

    # A torn or bit-rotted latest.ckpt must not poison the job: fall back
    # through the generation chain, and past it to a fresh build.
    resumed_from_ops = 0
    system, _, _skipped = load_checkpoint_with_fallback(directory)
    if system is not None:
        resumed_from_ops = system.steps_total
    else:
        inject_worker_crash(faults, request, attempt)
        gc.collect()  # free the worker's previous System before building
        check = CheckConfig(level=check_level) if check_level != "off" else None
        system = build_system(
            scheme,
            workload_by_name(workload_name),
            scale=scale,
            seed=seed,
            config_mutator=VARIANTS[variant],
            check=check,
            faults=faults,
        )
    if checkpoint_every is None:
        checkpoint_every = default_checkpoint_every(
            len(system.cores) * (measure_ops + warmup_ops)
        )
    # A drawn stall wedges only after two periodic checkpoints exist, so
    # the relaunch genuinely *resumes* rather than starting over.
    checkpointer = _StallingCheckpointer(
        directory,
        every_ops=checkpoint_every,
        heartbeat_seconds=heartbeat_seconds,
        heartbeat_hook=heartbeat_hook,
        stall_at_ops=resumed_from_ops + 2 * checkpoint_every,
        stall_seconds=_stall_seconds(faults, request, attempt),
    )
    checkpointer.arm(system)
    if resumed_from_ops:
        metrics = system.resume_run()
    else:
        metrics = system.run(measure_ops, warmup_ops)

    payload = metrics.payload()
    payload["resumed_at_ops"] = resumed_from_ops
    payload["attempt"] = attempt
    return payload


def faults_from_wire(payload: Optional[Dict[str, object]]) -> Optional[FaultConfig]:
    """Rebuild the FaultConfig a job record carries (None stays None)."""
    if payload is None:
        return None
    return FaultConfig(**payload)
