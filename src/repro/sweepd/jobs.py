"""Job records: the unit of work the sweep service schedules.

A job is one (scheme, workload, variant) simulation at a fixed sizing
and fault configuration — exactly one result-cache entry.  Job identity
is *deterministic*: the id is a digest of the cache key, so resubmitting
the same sweep (same command, a retried ``submit`` RPC, a client that
never saw its ack) converges on the same job set instead of duplicating
work, and a restarted server re-derives the same ids from its manifest.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Dict, List, Optional

from repro.common.config import FaultConfig
from repro.experiments.jobcore import Request, Sizing, cache_key

#: Lifecycle states.  ``leased`` is transient (never survives a server
#: restart: a reloaded manifest demotes it to ``pending``).
PENDING = "pending"
LEASED = "leased"
DONE = "done"
QUARANTINED = "quarantined"

#: Keys a job's ``sizing`` dict carries (the :data:`Sizing` tuple's).
SIZING_KEYS = ("scale", "measure_ops", "warmup_ops", "seed", "check_level")


def job_id_for(request: Request, sizing: Sizing, faults: Optional[FaultConfig]) -> str:
    """Deterministic job id: a digest of the result-cache key."""
    return hashlib.sha256(cache_key(request, sizing, faults).encode()).hexdigest()[:16]


@dataclasses.dataclass
class JobRecord:
    """One schedulable simulation and its scheduling state."""

    job_id: str
    scheme: str
    workload: str
    variant: str
    #: Sizing dict: scale, measure_ops, warmup_ops, seed, check_level.
    sizing: Dict[str, object]
    #: Serialized FaultConfig (or None) — workers rebuild it.
    faults: Optional[Dict[str, object]]
    cache_key: str
    state: str = PENDING
    #: Number of leases ever granted (attempt counter for quarantine).
    attempts: int = 0
    #: Lease order: jobs are granted in submit order.
    submit_seq: int = 0
    #: Error strings from failed attempts, oldest first.
    errors: List[str] = dataclasses.field(default_factory=list)
    #: sha256 digest of the aggregated metric payload, once done.
    result_digest: Optional[str] = None
    #: Times a lease expired and the job was reclaimed from a dead or
    #: hung worker (observability; also counts toward ``attempts``).
    reclaims: int = 0

    # -- live lease state: in-memory only, never persisted ----------------
    lease_worker: Optional[str] = dataclasses.field(default=None, compare=False)
    lease_deadline: float = dataclasses.field(default=0.0, compare=False)
    #: Earliest monotonic time the job may be leased again (retry backoff).
    not_before: float = dataclasses.field(default=0.0, compare=False)

    @property
    def request(self) -> Request:
        return (self.scheme, self.workload, self.variant)

    # -- persistence -------------------------------------------------------
    _PERSISTED = (
        "job_id", "scheme", "workload", "variant", "sizing", "faults",
        "cache_key", "state", "attempts", "submit_seq", "errors",
        "result_digest", "reclaims",
    )

    def to_json(self) -> Dict[str, object]:
        payload = {name: getattr(self, name) for name in self._PERSISTED}
        if self.state == LEASED:
            # Leases are process-local promises; a manifest reader (a
            # restarted server) must treat the job as claimable again.
            payload["state"] = PENDING
        return payload

    @classmethod
    def from_json(cls, payload: Dict[str, object]) -> "JobRecord":
        """Rebuild a record; KeyError/TypeError when the entry is from an
        incompatible schema (missing fields or sizing keys)."""
        known = {name: payload[name] for name in cls._PERSISTED if name in payload}
        sizing = known.get("sizing")
        missing = [
            key for key in SIZING_KEYS
            if not isinstance(sizing, dict) or key not in sizing
        ]
        if missing:
            raise KeyError(f"missing sizing field(s) {', '.join(missing)}")
        return cls(**known)  # type: ignore[arg-type]

    def describe(self) -> Dict[str, object]:
        """Status-reply summary (wire-friendly, no live handles)."""
        return {
            "job_id": self.job_id,
            "request": list(self.request),
            "state": self.state,
            "attempts": self.attempts,
            "worker": self.lease_worker,
            "errors": list(self.errors),
        }


def build_job(
    request: Request,
    sizing: Sizing,
    faults: Optional[FaultConfig],
) -> JobRecord:
    """Construct the canonical JobRecord for one request."""
    scale, measure_ops, warmup_ops, seed, check_level = sizing
    return JobRecord(
        job_id=job_id_for(request, sizing, faults),
        scheme=request[0],
        workload=request[1],
        variant=request[2],
        sizing={
            "scale": scale,
            "measure_ops": measure_ops,
            "warmup_ops": warmup_ops,
            "seed": seed,
            "check_level": check_level,
        },
        faults=None if faults is None else dataclasses.asdict(faults),
        cache_key=cache_key(request, sizing, faults),
    )
