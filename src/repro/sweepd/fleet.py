"""Local fleet driver: one server plus N workers, supervised.

The repo's one multi-process sweep executor: ``repro sweep --jobs N``
and ``ExperimentRunner.run_many(jobs != 1)`` land here.  The driver
owns the operating-system half of the fault-tolerance story: it
launches the server and worker *processes*, watches them, SIGKILLs any
worker the server reclaimed a lease from (dead or hung — the lease
deadline is the hung-worker timeout), relaunches whatever dies, and
executes the scripted :class:`repro.faults.chaos.FleetChaos` schedule
(a worker SIGKILLed mid-job, the server SIGKILLed + relaunched
mid-sweep) that the chaos test matrix drives.

The protocol half (leases, retries, dedupe) is the service's job; the
driver deliberately knows nothing about it beyond the ``submit`` /
``status`` / ``shutdown`` RPCs.  Results are collected from the shared
result cache, so a fleet sweep is interchangeable with the serial
``ExperimentRunner.run_many(jobs=1)`` — same keys, same payloads,
bit-identical metrics.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import signal
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.common.errors import CheckpointError, SweepdError, SweepError
from repro.experiments.jobcore import HEARTBEAT_SECONDS, LEASE_SECONDS, Request
from repro.faults.chaos import ChaosConfig, FleetChaos
from repro.sim.metrics import RunMetrics
from repro.sweepd.jobs import DONE, QUARANTINED, build_job
from repro.sweepd.manifest import JobManifest
from repro.sweepd.protocol import RpcClient, read_address_file
from repro.sweepd.worker import worker_main

#: Directory (under the service root) holding per-job checkpoint dirs.
JOBS_DIRNAME = "jobs"


@dataclasses.dataclass
class FleetReport:
    """What happened while the sweep ran (observability, test assertions)."""

    jobs_total: int = 0
    jobs_already_done: int = 0
    worker_relaunches: int = 0
    #: Live workers SIGKILLed because the server reclaimed their lease.
    hung_worker_kills: int = 0
    chaos_worker_kills: int = 0
    chaos_server_restarts: int = 0
    #: Expired leases, summed over the persisted job records, so the
    #: count survives a server restart.
    reclaims: int = 0
    quarantined: List[Tuple[str, ...]] = dataclasses.field(default_factory=list)


def _server_main(
    root: str,
    cache_dir: str,
    address: Optional[str],
    poll_seconds: float,
    options: Dict[str, Any],
) -> None:
    from repro.sweepd.server import SweepdServer

    server = SweepdServer(root, cache_dir, address=address, **options)
    server.serve_forever(poll_seconds=poll_seconds)


class _Fleet:
    """Process bookkeeping for one fleet sweep."""

    def __init__(
        self,
        root: Path,
        cache_dir: Path,
        *,
        server_options: Dict[str, Any],
        poll_seconds: float,
        checkpoint_every: Optional[int],
        heartbeat_seconds: float,
        kill_at_steps: Dict[int, int],
    ) -> None:
        self.root = root
        self.cache_dir = cache_dir
        self.server_options = server_options
        self.poll_seconds = poll_seconds
        self.checkpoint_every = checkpoint_every
        self.heartbeat_seconds = heartbeat_seconds
        #: slot -> step count its first worker SIGKILLs itself at (chaos).
        self.kill_at_steps = kill_at_steps
        self.context = multiprocessing.get_context()
        self.server: Optional[multiprocessing.process.BaseProcess] = None
        self.address: Optional[str] = None
        #: slot -> (current process, current worker name, relaunch count)
        self.slots: Dict[int, Tuple[multiprocessing.process.BaseProcess, str, int]] = {}
        #: Names of workers this driver killed (not scripted chaos).
        self.killed: Set[str] = set()
        self.report = FleetReport()

    # -- processes ---------------------------------------------------------
    def start_server(self, address: Optional[str] = None) -> None:
        proc = self.context.Process(
            target=_server_main,
            args=(
                str(self.root), str(self.cache_dir), address,
                self.poll_seconds, self.server_options,
            ),
            daemon=True,
        )
        proc.start()
        self.server = proc
        self.address = self._await_address(proc)

    def _await_address(
        self, proc: "multiprocessing.process.BaseProcess", timeout: float = 10.0
    ) -> str:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            try:
                return read_address_file(self.root)
            except SweepdError:
                if proc.exitcode is not None:
                    raise SweepdError(
                        f"sweepd server died during startup "
                        f"(exit code {proc.exitcode})"
                    )
                time.sleep(0.02)
        raise SweepdError(f"sweepd server never published an address in {self.root}")

    def start_worker(self, slot: int, generation: int = 0) -> None:
        name = f"w{slot}" if generation == 0 else f"w{slot}r{generation}"
        proc = self.context.Process(
            target=worker_main,
            args=(
                name, self.address, str(self.root / JOBS_DIRNAME),
                self.server_options["lease_seconds"],
                self.checkpoint_every, self.heartbeat_seconds,
                self.kill_at_steps.get(slot) if generation == 0 else None,
            ),
            daemon=True,
        )
        proc.start()
        self.slots[slot] = (proc, name, generation)

    def kill_worker(self, slot: int) -> None:
        proc, name, _ = self.slots[slot]
        self.killed.add(name)
        proc.kill()
        proc.join()

    def kill_server(self) -> None:
        assert self.server is not None
        self.server.kill()
        self.server.join()

    def shutdown(self) -> None:
        for proc, _, _ in self.slots.values():
            if proc.is_alive():
                proc.terminate()
            proc.join(timeout=5.0)
        if self.server is not None and self.server.is_alive():
            try:
                with RpcClient(self.address, timeout=1.0, retry_window=2.0) as rpc:
                    rpc.call({"type": "shutdown"})
            except SweepdError:
                pass
            self.server.join(timeout=5.0)
            if self.server.is_alive():
                self.server.terminate()
                self.server.join(timeout=5.0)


def run_distributed_sweep(
    runner,
    requests: Optional[List[Request]],
    root,
    *,
    workers: int = 2,
    chaos: Optional[ChaosConfig] = None,
    fleet_chaos: Optional[FleetChaos] = None,
    lease_seconds: float = LEASE_SECONDS,
    checkpoint_every: Optional[int] = None,
    heartbeat_seconds: float = HEARTBEAT_SECONDS,
    poll_seconds: float = 0.05,
    timeout: Optional[float] = None,
) -> Tuple[Dict[Request, RunMetrics], FleetReport]:
    """Run *requests* on a local server + worker fleet; collect from cache.

    Returns ``(results, report)`` where results maps each request to its
    :class:`repro.sim.metrics.RunMetrics` — the same mapping (and the
    same cache entries) the serial ``runner.run_many(jobs=1)`` produces.
    Raises :class:`repro.common.errors.SweepError` naming every
    quarantined request once the sweep drains; completed results are
    cached regardless.

    ``requests=None`` resumes: the fleet restarts on *root*'s manifest
    and submits nothing.  Either way a manifest already on *root* is
    loaded and validated here, before the server launches, so one from
    an incompatible build raises
    :class:`repro.common.errors.ManifestVersionError` in the caller.
    ``checkpoint_every`` None derives each job's cadence from its length
    (:func:`repro.experiments.jobcore.default_checkpoint_every`);
    ``timeout`` None waits for the drain however long it takes.
    ``workers`` below 1 raises ValueError: no worker would ever drain
    the queue.
    """
    if workers < 1:
        raise ValueError(f"a sweep needs at least one worker, got {workers}")
    root = Path(root)
    manifest = JobManifest(root)
    if requests is None:
        if not manifest.load():
            raise CheckpointError(
                f"no sweep manifest at {manifest.path}: nothing to resume "
                f"(start a sweep with a --checkpoint-root first)"
            )
        records = sorted(manifest.jobs.values(), key=lambda r: r.submit_seq)
    else:
        manifest.load()
        records = [
            build_job(request, runner._sizing(), runner.faults)
            for request in dict.fromkeys(requests)
        ]
    script = fleet_chaos or FleetChaos()
    fleet = _Fleet(
        root, runner.cache_dir,
        server_options={
            "max_attempts": runner.max_attempts,
            "lease_seconds": lease_seconds,
            "chaos": chaos,
        },
        poll_seconds=poll_seconds,
        checkpoint_every=checkpoint_every,
        heartbeat_seconds=heartbeat_seconds,
        kill_at_steps=dict(script.kill_worker_mid_job),
    )
    report = fleet.report
    report.jobs_total = len(records)
    server_restart_at = script.restart_server_after_results

    fleet.start_server()
    try:
        with RpcClient(fleet.address, timeout=2.0, retry_window=30.0) as rpc:
            if requests is not None:
                reply = rpc.call({
                    "type": "submit",
                    "jobs": [record.to_json() for record in records],
                })
                if reply.get("type") == "error":
                    raise SweepdError(f"submit rejected: {reply.get('error')}")
                report.jobs_already_done = len(reply.get("already_done", []))

            # Chaos-armed workers start first and alone: the scripted
            # kill needs them mid-job, so they get first pick of the
            # queue; the rest start once each armed one holds a lease.
            armed = [slot for slot in range(workers) if slot in fleet.kill_at_steps]
            waiting = [slot for slot in range(workers) if slot not in armed]
            for slot in armed:
                fleet.start_worker(slot)

            quarantined: List[dict] = []
            announced: Set[str] = set()
            deadline = None if timeout is None else time.monotonic() + timeout
            while True:
                if deadline is not None and time.monotonic() > deadline:
                    raise SweepdError(
                        f"sweep did not drain within {timeout:.0f}s"
                    )
                status = rpc.call({"type": "status"})
                report.reclaims = int(status.get("reclaims", 0))
                jobs = status.get("jobs", [])
                drained = bool(status.get("drained"))
                busy = {job.get("worker") for job in jobs}
                if waiting and not drained and all(
                    fleet.slots[slot][1] in busy
                    or fleet.slots[slot][0].exitcode is not None
                    for slot in armed
                ):
                    for slot in waiting:
                        fleet.start_worker(slot)
                    waiting = []
                if runner.verbose:
                    for job in jobs:
                        if job.get("state") == DONE and job["job_id"] not in announced:
                            announced.add(job["job_id"])
                            print(f"[fleet] finished {'/'.join(job['request'])}")

                # The lease deadline is the hung-worker timeout: a worker
                # whose lease the server reclaimed is dead or wedged, so
                # SIGKILL it; its relaunch (below) resumes the job from
                # the job's latest.ckpt.
                reclaimed = set(status.get("reclaimed_workers", ()))
                for slot, (proc, name, _) in list(fleet.slots.items()):
                    if name in reclaimed and proc.exitcode is None:
                        fleet.kill_worker(slot)
                        report.hung_worker_kills += 1

                # Scripted chaos: SIGKILL + relaunch the server itself.
                done = int(status.get("counts", {}).get("done", 0))
                if server_restart_at is not None and done >= server_restart_at:
                    fleet.kill_server()
                    fleet.start_server(address=fleet.address)
                    report.chaos_server_restarts += 1
                    server_restart_at = None

                # Dead workers: count the scripted chaos kills (a chaos-
                # armed worker SIGKILLs itself mid-job), then relaunch —
                # the sweep redistributes.
                for slot, (proc, name, generation) in list(fleet.slots.items()):
                    if proc.exitcode is None:
                        continue
                    if (
                        generation == 0
                        and slot in fleet.kill_at_steps
                        and proc.exitcode == -signal.SIGKILL
                        and name not in fleet.killed
                    ):
                        report.chaos_worker_kills += 1
                    if not drained:
                        fleet.start_worker(slot, generation + 1)
                        report.worker_relaunches += 1

                if drained:
                    quarantined = [
                        job for job in jobs if job.get("state") == QUARANTINED
                    ]
                    break
                time.sleep(poll_seconds)
    finally:
        fleet.shutdown()

    results: Dict[Request, RunMetrics] = {}
    failures = []
    attempts: Dict[Request, int] = {}
    quarantined_ids = {job.get("job_id") for job in quarantined}
    for job in quarantined:
        request = tuple(job.get("request", ()))
        attempts[request] = int(job.get("attempts", 0))
        errors = job.get("errors") or ["quarantined"]
        failures.append((request, SweepdError(str(errors[-1]))))
        report.quarantined.append(request)
    for record in records:
        if record.job_id in quarantined_ids:
            continue
        metrics = runner._load(record.cache_key)
        if metrics is None:
            raise SweepdError(
                f"sweep drained but no cached result for "
                f"{'/'.join(record.request)} "
                f"(manifest/cache disagree — service bug)"
            )
        results[record.request] = metrics
    if failures:
        raise SweepError(failures, attempts=attempts)
    return results, report
