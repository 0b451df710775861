"""The sweep service's worker: lease, simulate, checkpoint, report.

A worker is a plain blocking loop around one :class:`repro.sweepd
.protocol.RpcClient`.  Everything that makes it fault-tolerant lives in
what it *doesn't* assume:

* It never assumes its lease reply arrived exactly once — leases
  re-grant idempotently, so a retried ``lease`` RPC gets the same job.
* It never assumes it is the first to run a job: before simulating it
  salvages ``result.json`` (a predecessor finished but died before
  reporting) and otherwise resumes from ``latest.ckpt`` (a predecessor
  was SIGKILLed mid-run) — both inherited through the shared job
  directory keyed by the deterministic job id.
* It never assumes the server is up: heartbeats are fire-and-forget, and
  RPCs retry with the same ``seq`` across reconnects, riding out a
  server restart without losing its place.

Simulated infrastructure faults (``FaultConfig.worker_crash_rate``) are
reported as *retryable* failures — the service requeues with backoff and
eventually quarantines poison jobs; genuine simulator exceptions are
reported non-retryable and quarantine immediately.

``kill_at_steps`` is the scripted-chaos hook behind
:class:`repro.faults.chaos.FleetChaos`: the worker SIGKILLs itself at
its first heartbeat at or past that many simulated ops.  Checkpoint
writes heartbeat too, so the kill lands on a deterministic step, never
on whether a status poll happened to catch the worker mid-job.
"""

from __future__ import annotations

import os
import signal
import time
from pathlib import Path
from typing import Optional, Union, cast

from repro import persist
from repro.common.errors import FaultError, PersistError, SweepdError
from repro.experiments.jobcore import (
    HEARTBEAT_SECONDS,
    RESULT_NAME,
    Request,
    Sizing,
    execute_job,
    faults_from_wire,
    load_result,
)
from repro.sweepd.protocol import Message, RpcClient

#: How long the worker's RPCs wait for a reply before resending (capped at
#: a quarter of the lease) and how long they keep retrying.
RPC_TIMEOUT_SECONDS = 2.0
RPC_RETRY_WINDOW_SECONDS = 60.0
#: Longest sleep between lease polls while no job is leasable.
IDLE_SLEEP_CAP_SECONDS = 0.5


class SweepdWorker:
    """One worker process's lease/execute/report loop."""

    def __init__(
        self,
        name: str,
        address: str,
        jobs_root: Union[str, Path],
        *,
        lease_seconds: float,
        checkpoint_every: Optional[int] = None,
        heartbeat_seconds: float = HEARTBEAT_SECONDS,
        kill_at_steps: Optional[int] = None,
    ) -> None:
        self.name = name
        self.address = address
        self.jobs_root = Path(jobs_root)
        self.checkpoint_every = checkpoint_every
        self.heartbeat_seconds = heartbeat_seconds
        self.kill_at_steps = kill_at_steps
        # A lost reply is retried after the RPC timeout; keep that well
        # inside the lease, or a dropped lease (or result) reply lets
        # the lease expire before the retry lands.
        self.client = RpcClient(
            address,
            timeout=min(RPC_TIMEOUT_SECONDS, lease_seconds / 4),
            retry_window=RPC_RETRY_WINDOW_SECONDS,
        )

    # -- loop --------------------------------------------------------------
    def run(self) -> None:
        """Work until the server drains."""
        with self.client:
            while True:
                reply = self.client.call({"type": "lease", "worker": self.name})
                kind = reply.get("kind")
                if kind == "drain":
                    return
                if kind != "job":
                    retry_after = float(cast(float, reply.get("retry_after", 0.0)))
                    time.sleep(min(max(retry_after, 0.01), IDLE_SLEEP_CAP_SECONDS))
                    continue
                self._work_one(reply)

    def _work_one(self, lease: Message) -> None:
        job_id = str(lease["job_id"])
        request = cast(Request, tuple(cast(list, lease["request"])))
        sizing_dict = cast(dict, lease["sizing"])
        sizing: Sizing = (
            int(sizing_dict["scale"]), int(sizing_dict["measure_ops"]),
            int(sizing_dict["warmup_ops"]), int(sizing_dict["seed"]),
            str(sizing_dict["check_level"]),
        )
        attempt = int(cast(int, lease.get("attempt", 0)))
        directory = self.jobs_root / job_id

        payload = load_result(directory)
        if payload is None:
            faults = faults_from_wire(cast(Optional[dict], lease.get("faults")))

            def heartbeat(steps: int) -> None:
                if self.kill_at_steps is not None and steps >= self.kill_at_steps:
                    os.kill(os.getpid(), signal.SIGKILL)
                # Best-effort: a down server or mangled frame must never
                # stall the simulation; the lease just edges toward expiry
                # until a later heartbeat lands.
                self.client.send_oneway({
                    "type": "heartbeat",
                    "worker": self.name,
                    "job_id": job_id,
                })

            try:
                payload = execute_job(
                    request, sizing, faults, attempt, directory,
                    checkpoint_every=self.checkpoint_every,
                    heartbeat_seconds=self.heartbeat_seconds,
                    heartbeat_hook=heartbeat,
                )
            except FaultError as exc:
                self.client.call({
                    "type": "fail", "worker": self.name, "job_id": job_id,
                    "error": f"{type(exc).__name__}: {exc}", "retryable": True,
                })
                return
            except Exception as exc:
                self.client.call({
                    "type": "fail", "worker": self.name, "job_id": job_id,
                    "error": f"{type(exc).__name__}: {exc}", "retryable": False,
                })
                return
            # Land the result on disk before reporting it: if the report
            # (or this process) dies, the next lease holder salvages the
            # file instead of re-simulating.  Best-effort: the payload is
            # in hand, so a refused write only loses the salvage copy —
            # the wire report below is what actually delivers the result.
            try:
                persist.write_json(directory / RESULT_NAME, payload, site="result")
            except PersistError:
                pass

        reply = self.client.call({
            "type": "result",
            "worker": self.name,
            "job_id": job_id,
            "payload": payload,
        })
        if reply.get("type") == "error":
            raise SweepdError(
                f"server rejected result for {job_id}: {reply.get('error')}"
            )


def worker_main(
    name: str,
    address: str,
    jobs_root: str,
    lease_seconds: float,
    checkpoint_every: Optional[int],
    heartbeat_seconds: float,
    kill_at_steps: Optional[int],
) -> None:
    """Process entry point for fleet-spawned workers."""
    SweepdWorker(
        name, address, jobs_root,
        lease_seconds=lease_seconds,
        checkpoint_every=checkpoint_every,
        heartbeat_seconds=heartbeat_seconds,
        kill_at_steps=kill_at_steps,
    ).run()
