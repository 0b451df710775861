"""Deterministic fault injection and graceful degradation (ISSUE 3).

The package has three parts:

* :mod:`repro.faults.injector` — the :class:`FaultInjector`, which decides
  *when* something breaks.  Every decision is drawn from a named
  :class:`repro.common.rng.DeterministicRng` stream seeded by
  ``FaultConfig.fault_seed``, so a fault schedule is a pure function of the
  configuration and the (deterministic) access sequence.
* :mod:`repro.faults.recovery` — :class:`FaultRecovery`, which the HMC
  binds once around each :class:`repro.mem.device.MemoryDevice`'s line
  access (``HmcBase.dram_access`` / ``nvm_access``): bounded
  retry-with-backoff for transient faults and degraded (slow but correct)
  service when retries are exhausted or a read is uncorrectable.
* :mod:`repro.faults.profiles` — named :class:`FaultConfig` presets exposed
  on the CLI as ``--faults <profile>``.
* :mod:`repro.faults.chaos` — deterministic chaos hooks for the
  distributed sweep service (dropped/duplicated/reordered/stalled
  protocol messages, scripted worker kills and server restarts); see
  docs/SWEEP_SERVICE.md.

With ``FaultConfig.enabled`` False none of this is constructed: the HMC's
two device entries are the devices' own ``access_finish``, so the
simulator's hot path is byte-identical to a build without the package.
Page and segment transfers meet the injector inside
:meth:`repro.mem.device.MemoryDevice.transfer_page`, which takes its abort
budget from it; the swap machinery, not this package, decides what an
aborted transfer means.
"""

from repro.faults.chaos import ChaosConfig, FleetChaos
from repro.faults.injector import FaultInjector
from repro.faults.profiles import FAULT_PROFILES, resolve_profile
from repro.faults.recovery import FaultRecovery

__all__ = [
    "ChaosConfig",
    "FaultInjector",
    "FaultRecovery",
    "FleetChaos",
    "FAULT_PROFILES",
    "resolve_profile",
]
