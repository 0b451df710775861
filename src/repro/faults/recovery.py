"""Retry-with-backoff and degraded service around one memory device.

With injection on, the HMC binds its two per-device line entries
(``HmcBase.dram_access`` / ``nvm_access``) to :meth:`FaultRecovery.access`
partially applied to a device, so every line access a controller issues
comes through here.  Transient faults are retried with exponential
backoff — each retry re-issues the access
``retry_backoff_cycles * 2^attempt`` cycles later, which is how injected
"device stalls" inflate latency.  When the retry budget is exhausted, or
the read is uncorrectable, the request is *degraded* instead of dropped:
it completes after ``recovery_read_cycles`` (modelling firmware-level ECC
heroics / a rebuild from redundancy), so the simulated program always makes
progress and page-conservation invariants never see a lost access.

Uncorrectable reads additionally call the ``on_uncorrectable`` hook, which
PageSeer uses to quarantine the failed NVM frame and rescue-swap its data
into DRAM (see ``repro.core.hmc``).
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.common.config import FaultConfig
from repro.common.errors import TransientFaultError, UnrecoverableFaultError
from repro.common.stats import StatsRegistry
from repro.common.timeline import Cycles
from repro.faults.injector import FaultInjector
from repro.mem.device import MemoryDevice


class FaultRecovery:
    """Bounded retry + degraded-service policy for line accesses."""

    def __init__(
        self, config: FaultConfig, injector: FaultInjector, stats: StatsRegistry
    ):
        self.config = config
        self.injector = injector
        self.stats = stats
        #: Hook called as ``on_uncorrectable(now, line_spa)`` when a read
        #: hits an uncorrectable error, *before* the degraded finish time
        #: is returned.  PageSeer installs its quarantine+rescue handler here.
        self.on_uncorrectable: Optional[Callable[[Cycles, int], None]] = None

    def access(
        self,
        device: MemoryDevice,
        line_base: int,
        now: Cycles,
        line: int,
        is_write: bool,
        bulk: bool = False,
    ) -> Cycles:
        """Access device-local *line* of *device*; returns the finish time.

        *line_base* is the system physical line of the device's line 0,
        so the uncorrectable hook sees system addresses.  Never raises:
        the worst case is a degraded (slow) completion.
        """
        attempt = 0
        issue = now
        while True:
            try:
                return device.access_finish(issue, line, is_write, bulk)
            except TransientFaultError:
                if attempt >= self.config.max_retries:
                    self.stats.add("faults/retries_exhausted")
                    return self._degraded(issue)
                backoff = self.config.retry_backoff_cycles << attempt
                self.stats.add("faults/retries")
                self.stats.add("faults/retry_backoff_cycles", backoff)
                issue += backoff
                attempt += 1
            except UnrecoverableFaultError:
                self.stats.add("faults/uncorrectable_services")
                if self.on_uncorrectable is not None:
                    self.on_uncorrectable(issue, line_base + line)
                return self._degraded(issue)

    def _degraded(self, issue: Cycles) -> Cycles:
        """Complete the access slowly but correctly (ECC heroics)."""
        self.stats.add("faults/degraded_services")
        return issue + self.config.recovery_read_cycles
