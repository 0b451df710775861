"""Deterministic chaos hooks for the distributed sweep service.

Extends the PR-3 fault-injection philosophy — *every failure is a pure
function of a seed* — from the simulated machine to the sweep
infrastructure itself.  Two layers:

* :class:`ChaosConfig` — message-level chaos applied inside the
  ``sweepd`` server's protocol endpoint: frames are dropped, duplicated,
  reordered, or preceded by a stall, each decision drawn from a named
  :class:`repro.common.rng.DeterministicRng` stream seeded by
  ``chaos_seed``.  The *schedule* of injected trouble is reproducible
  given the same message sequence; the service's correctness contract is
  that aggregated results are bit-identical regardless.
* :class:`FleetChaos` — a process-level script executed by the local
  fleet (``repro sweep``): worker *i* SIGKILLs itself the moment it
  simulates past a step threshold (guaranteeing a mid-job kill with a
  checkpoint behind it), and/or the driver SIGKILLs + relaunches the
  server itself once N results have been aggregated.

Neither layer can change simulation output: chaos shakes the transport
and the processes, and the exactly-once aggregation discipline
(deterministic job ids, idempotent handlers, digest-checked result
dedupe) is what the chaos test matrix pins.  See docs/SWEEP_SERVICE.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.common.errors import ConfigError


@dataclass(frozen=True)
class ChaosConfig:
    """Message-level chaos knobs for the ``sweepd`` protocol endpoint."""

    enabled: bool = False
    #: Seed for every chaos RNG stream (independent of simulation and
    #: fault seeds so chaos schedules can be varied per run).
    chaos_seed: int = 0
    #: Probability a frame is silently dropped (the peer's retry/timeout
    #: machinery must recover it).
    drop_rate: float = 0.0
    #: Probability a frame is delivered twice (handlers must be
    #: idempotent; duplicate results must be discarded, not re-stored).
    duplicate_rate: float = 0.0
    #: Probability two adjacent frames in a batch swap order.
    reorder_rate: float = 0.0
    #: Probability a batch is preceded by a ``stall_seconds`` sleep,
    #: emulating a stalled socket (clients see RPC timeouts and retry).
    stall_rate: float = 0.0
    stall_seconds: float = 0.0

    def __post_init__(self) -> None:
        for label, rate in (
            ("drop_rate", self.drop_rate),
            ("duplicate_rate", self.duplicate_rate),
            ("reorder_rate", self.reorder_rate),
            ("stall_rate", self.stall_rate),
        ):
            if not 0.0 <= rate <= 1.0:
                raise ConfigError(f"{label} must be within [0, 1], got {rate}")
        if self.stall_seconds < 0:
            raise ConfigError("stall_seconds must be non-negative")

    @property
    def active(self) -> bool:
        return self.enabled and (
            self.drop_rate > 0.0
            or self.duplicate_rate > 0.0
            or self.reorder_rate > 0.0
            or self.stall_rate > 0.0
        )


@dataclass(frozen=True)
class FleetChaos:
    """Scripted process-level chaos for the local fleet driver.

    ``kill_worker_mid_job`` maps a worker *index* to a simulated-step
    threshold: that slot's first worker SIGKILLs itself at its first
    heartbeat at or past the threshold — provably mid-simulation, and on
    a deterministic step, because every periodic checkpoint heartbeats.
    Each entry fires once; the supervision loop then relaunches a
    replacement, and the orphaned lease expires and is reclaimed.

    ``restart_server_after_results`` SIGKILLs the server process (no
    shutdown courtesy) once that many results have been aggregated, then
    starts a fresh server on the same root and address.  The restarted
    server must resume from its persisted manifest with zero lost and
    zero duplicated results.
    """

    kill_worker_mid_job: Dict[int, int] = field(default_factory=dict)
    restart_server_after_results: Optional[int] = None

    @property
    def active(self) -> bool:
        return bool(self.kill_worker_mid_job) or (
            self.restart_server_after_results is not None
        )
