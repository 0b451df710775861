"""The server's versioned, atomically-persisted job manifest.

The manifest is the service's single source of truth: every job, its
state, attempt count, and result digest.  It is persisted with the same
discipline as the result cache (same-directory temp + ``os.replace``),
so a server SIGKILLed between any two syscalls restarts into a
consistent world: ``done`` jobs stay done (their results are already in
the atomic cache), ``leased`` jobs demote to ``pending`` and are simply
re-leased — the lease/dedupe machinery guarantees no result is lost or
double-counted either way.

Scheduling rules live here too, so they are unit-testable without
sockets:

* **leases** — a worker claims the earliest-submitted leasable
  ``pending`` job; the lease carries a deadline, extended by heartbeats.
  Re-leasing by the same worker is idempotent (lost reply ⇒ same job
  again).
* **expiry** — :meth:`reclaim_expired` returns timed-out leases to the
  queue and names the worker in :attr:`JobManifest.reclaimed_workers`;
  a SIGKILLed or hung worker loses its claim (and, in a local fleet,
  its process), nothing else.
* **retry + quarantine** — failed or reclaimed jobs re-queue with
  exponential backoff until ``max_attempts`` leases have been burned,
  then quarantine as poison; a non-retryable error (a genuine simulator
  bug, or a divergent duplicate result) quarantines immediately.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Iterable, List, Optional, Set, Tuple, Union

from repro import persist
from repro.common.errors import (
    CorruptPayloadError,
    ManifestVersionError,
    PersistError,
    SweepdError,
)
from repro.experiments.jobcore import LEASE_SECONDS, backoff_seconds
from repro.sweepd.jobs import DONE, LEASED, PENDING, QUARANTINED, JobRecord

SWEEPD_MANIFEST_VERSION = 1
MANIFEST_NAME = "sweepd-manifest.json"

_MANIFEST_HINT = (
    "start a fresh sweep with a new --checkpoint-root, "
    "or resume with the build that wrote this manifest"
)


class JobManifest:
    """All jobs the service knows about, with crash-safe persistence."""

    def __init__(
        self,
        root: Union[str, Path],
        *,
        max_attempts: int = 3,
        lease_seconds: float = LEASE_SECONDS,
    ) -> None:
        self.root = Path(root)
        self.max_attempts = max(1, int(max_attempts))
        self.lease_seconds = float(lease_seconds)
        self.jobs: Dict[str, JobRecord] = {}
        self._submit_seq = 0
        #: Workers whose lease expired since this process started: dead or
        #: hung, so the local fleet SIGKILLs any that is still running.
        self.reclaimed_workers: Set[str] = set()

    @property
    def path(self) -> Path:
        return self.root / MANIFEST_NAME

    # -- persistence -------------------------------------------------------
    def persist(self) -> bool:
        """Write the manifest; False when the storage layer refused.

        A refused write (ENOSPC, EIO, ...) leaves the in-memory state
        authoritative, and the next state change retries it; a crash
        meanwhile restarts from an older-but-consistent manifest (done
        jobs re-adopt from the cache, leases demote and re-grant).
        ``backup=True`` keeps the previous manifest as ``.bak``, the
        one-generation fallback :meth:`load` falls back to when the
        primary is later found corrupt (bit-rot, a torn write that lied).
        """
        payload = {
            "sweepd_manifest_version": SWEEPD_MANIFEST_VERSION,
            "max_attempts": self.max_attempts,
            "jobs": [
                record.to_json()
                for _, record in sorted(self.jobs.items())
            ],
        }
        try:
            persist.write_json(self.path, payload, site="manifest", backup=True)
        except PersistError:
            return False
        return True

    def load(self) -> bool:
        """Load a persisted manifest; False when none exists yet.

        Version or schema skew raises
        :class:`repro.common.errors.ManifestVersionError` — a restarted
        server must refuse a manifest it cannot faithfully resume.
        """
        try:
            raw = self.path.read_bytes()
        except FileNotFoundError:
            return False
        except OSError as exc:
            raise SweepdError(f"unreadable manifest {self.path}: {exc}")
        if raw[:1] == b"\x80":
            raise ManifestVersionError(
                f"{self.path}: binary (pickled) manifest from an older "
                f"build; this build reads JSON manifests at version "
                f"{SWEEPD_MANIFEST_VERSION}",
                hint=_MANIFEST_HINT,
            )
        try:
            payload = persist.verify_json_bytes(raw, self.path, "manifest")
        except CorruptPayloadError as exc:
            # The primary is torn or bit-rotted; fall back to the ``.bak``
            # generation :meth:`persist` keeps.  It is at most one state
            # change stale, which recovery already tolerates (done jobs
            # re-adopt from the cache, leases demote and re-grant).
            backup = persist.read_json_or_none(
                persist.backup_path(self.path), site="manifest"
            )
            if backup is None:
                raise SweepdError(
                    f"corrupt manifest {self.path} and no usable backup: "
                    f"{exc}"
                )
            payload = backup
        version = payload.get("sweepd_manifest_version")
        if version != SWEEPD_MANIFEST_VERSION:
            raise ManifestVersionError(
                f"{self.path}: manifest version {version} unsupported "
                f"(this build reads {SWEEPD_MANIFEST_VERSION})",
                hint=_MANIFEST_HINT,
            )
        jobs = payload.get("jobs")
        if not isinstance(jobs, list):
            raise ManifestVersionError(
                f"{self.path}: version-{SWEEPD_MANIFEST_VERSION} manifest "
                f"without a job list — written by an incompatible build",
                hint=_MANIFEST_HINT,
            )
        self.jobs = {}
        for entry in jobs:
            try:
                record = JobRecord.from_json(entry)
            except (TypeError, KeyError) as exc:
                raise ManifestVersionError(
                    f"{self.path}: job entry does not match this build's "
                    f"schema ({exc})",
                    hint=_MANIFEST_HINT,
                )
            self.jobs[record.job_id] = record
        self._submit_seq = max(
            (record.submit_seq for record in self.jobs.values()), default=0
        )
        return True

    # -- submission --------------------------------------------------------
    def submit(self, records: Iterable[JobRecord]) -> Tuple[List[str], List[str]]:
        """Add jobs; returns (new ids, already-known ids).

        Resubmitting a known job is a no-op.
        """
        new_ids: List[str] = []
        known_ids: List[str] = []
        for record in records:
            if record.job_id in self.jobs:
                known_ids.append(record.job_id)
                continue
            self._submit_seq += 1
            record.submit_seq = self._submit_seq
            self.jobs[record.job_id] = record
            new_ids.append(record.job_id)
        return new_ids, known_ids

    def mark_done(self, job_id: str, digest: str) -> None:
        record = self.jobs[job_id]
        record.state = DONE
        record.result_digest = digest
        record.lease_worker = None
        record.lease_deadline = 0.0

    # -- scheduling --------------------------------------------------------
    def lease(
        self, worker: str, now: float
    ) -> Tuple[str, Optional[JobRecord], float]:
        """Grant the best available job to *worker* at monotonic *now*.

        Returns ``(kind, record, retry_after)`` with kind one of:
        ``"job"`` (record granted), ``"idle"`` (nothing leasable yet;
        retry after the given seconds), ``"drain"`` (every job is done
        or quarantined — the worker should exit).
        """
        held = [
            record for record in self.jobs.values()
            if record.state == LEASED and record.lease_worker == worker
        ]
        if held:
            # Idempotent re-grant: the worker never saw our last reply,
            # or is re-leasing after a reconnect.  Same job, fresh clock.
            record = min(held, key=lambda r: r.submit_seq)
            record.lease_deadline = now + self.lease_seconds
            return ("job", record, 0.0)

        ready = [
            record for record in self.jobs.values()
            if record.state == PENDING and record.not_before <= now
        ]
        if ready:
            record = min(ready, key=lambda r: r.submit_seq)
            record.state = LEASED
            record.attempts += 1
            record.lease_worker = worker
            record.lease_deadline = now + self.lease_seconds
            return ("job", record, 0.0)

        backlogged = [
            record.not_before for record in self.jobs.values()
            if record.state == PENDING
        ]
        if backlogged:
            return ("idle", None, max(0.0, min(backlogged) - now))
        if any(record.state == LEASED for record in self.jobs.values()):
            return ("idle", None, self.lease_seconds / 4)
        return ("drain", None, 0.0)

    def heartbeat(self, worker: str, job_id: str, now: float) -> None:
        """Extend *worker*'s lease on *job_id*; re-claim after a restart.

        A heartbeat for a ``pending`` job means the server restarted
        while the worker kept simulating: re-lease it to that worker
        rather than letting a second worker start the same simulation.
        The re-claim continues the worker's attempt, so it burns none.
        A worker whose lease *expired* here is declared dead (the local
        fleet kills it) and re-claims nothing.
        """
        record = self.jobs.get(job_id)
        if record is None:
            return
        if record.state == PENDING and worker not in self.reclaimed_workers:
            record.state = LEASED
            record.lease_worker = worker
        if record.state == LEASED and record.lease_worker == worker:
            record.lease_deadline = now + self.lease_seconds

    def fail(
        self, job_id: str, worker: Optional[str], error: str,
        retryable: bool, now: float,
    ) -> str:
        """Record a failed attempt; returns the job's new state."""
        record = self.jobs.get(job_id)
        if record is None or record.state == DONE:
            return DONE
        record.errors.append(error)
        record.lease_worker = None
        record.lease_deadline = 0.0
        if not retryable or record.attempts >= self.max_attempts:
            record.state = QUARANTINED
        else:
            record.state = PENDING
            record.not_before = now + backoff_seconds(max(0, record.attempts - 1))
        return record.state

    def reclaim_expired(self, now: float) -> List[JobRecord]:
        """Return expired leases to the queue (or quarantine poison)."""
        reclaimed: List[JobRecord] = []
        for record in self.jobs.values():
            if record.state != LEASED or record.lease_deadline > now:
                continue
            record.reclaims += 1
            if record.lease_worker is not None:
                self.reclaimed_workers.add(record.lease_worker)
            record.errors.append(
                f"lease expired after {self.lease_seconds:.1f}s "
                f"(worker {record.lease_worker!r} dead or hung, "
                f"attempt {record.attempts})"
            )
            record.lease_worker = None
            record.lease_deadline = 0.0
            if record.attempts >= self.max_attempts:
                record.state = QUARANTINED
            else:
                record.state = PENDING
                record.not_before = now + backoff_seconds(
                    max(0, record.attempts - 1)
                )
            reclaimed.append(record)
        return reclaimed

    # -- queries -----------------------------------------------------------
    def counts(self) -> Dict[str, int]:
        out = {state: 0 for state in (PENDING, LEASED, DONE, QUARANTINED)}
        for record in self.jobs.values():
            out[record.state] += 1
        return out

    def drained(self) -> bool:
        return all(
            record.state in (DONE, QUARANTINED) for record in self.jobs.values()
        )

    def quarantined(self) -> List[JobRecord]:
        return [
            record for record in self.jobs.values()
            if record.state == QUARANTINED
        ]
