"""The memory-controller interface every hybrid-memory scheme implements.

The base class owns the things all schemes share: the two memory devices,
a reserved DRAM region for in-memory controller metadata, and the
accounting that the paper's figures are built from —

* where each request was serviced (DRAM / NVM / swap buffer), Figure 7;
* positive / negative / neutral classification against the page's *home*
  location, Figure 8 (an access is positive when a swap let it hit DRAM
  although its home is NVM, negative when a swap pushed it to NVM although
  its home is DRAM);
* AMMAT — the time from arrival at the controller until the data returns
  (Figure 14, bottom);
* remap-table waiting time (Figure 13).
"""

from __future__ import annotations

import enum
import functools
from typing import Optional

from repro.common.addr import LINES_PER_PAGE
from repro.common.config import SystemConfig
from repro.common.stats import StatsRegistry
from repro.faults.injector import FaultInjector
from repro.faults.recovery import FaultRecovery
from repro.mem.main_memory import MainMemory
from repro.vm.os_model import OsModel


class RequestKind(enum.Enum):
    """Why a request reached the memory controller."""

    DEMAND = "demand"
    WRITEBACK = "writeback"
    PTE = "pte"


#: The members as module constants: the request paths test the kind of
#: every request, and a module global is read without the enum class's
#: attribute lookup.
DEMAND = RequestKind.DEMAND
WRITEBACK = RequestKind.WRITEBACK
PTE = RequestKind.PTE

#: Literal stats-key tables: these run once per serviced request, and the
#: closed key set keeps the namespace auditable by the RL002 lint rule.
_SERVICED_KEYS = {
    "dram": "hmc/serviced_dram",
    "nvm": "hmc/serviced_nvm",
    "buffer": "hmc/serviced_buffer",
}
_REQUEST_KIND_KEYS = {
    DEMAND: "hmc/requests_demand",
    WRITEBACK: "hmc/requests_writeback",
    PTE: "hmc/requests_pte",
}


class HmcBase:
    """Common machinery for all memory-controller schemes."""

    scheme_name = "base"

    def __init__(self, config: SystemConfig, os_model: OsModel, stats: StatsRegistry):
        self.config = config
        self.os_model = os_model
        self.stats = stats
        self.memory = MainMemory(config.memory, stats, config.model_contention)
        self.dram_pages = config.memory.dram_pages
        self.total_pages = config.memory.total_pages
        self._nvm_line_base = config.memory.dram_pages * LINES_PER_PAGE
        dram = self.memory.dram
        nvm = self.memory.nvm
        #: Fault recovery (``repro.faults``): None unless injection is on.
        self.fault_recovery: Optional[FaultRecovery] = None
        #: The two line entries, one per device, each
        #: ``(now, device_line, is_write, bulk=False) -> finish``.  Every
        #: request path calls these, so none of them tests whether faults
        #: are armed: with faults off they *are* the devices' own
        #: ``access_finish``; with faults on they are
        #: :meth:`FaultRecovery.access` bound to the device, which retries
        #: transient faults with exponential backoff and degrades (never
        #: drops) the rest, so callers always get a finish time back.
        if config.faults.enabled:
            injector = FaultInjector(config.faults, stats)
            self.memory.attach_injector(injector)
            recovery = FaultRecovery(config.faults, injector, stats)
            self.fault_recovery = recovery
            self.dram_access = functools.partial(recovery.access, dram, 0)
            self.nvm_access = functools.partial(
                recovery.access, nvm, self._nvm_line_base
            )
        else:
            self.dram_access = dram.access_finish
            self.nvm_access = nvm.access_finish
        self._dram_serviced = 0
        self._total_serviced = 0
        self._metadata_lines: list = []

    # -- metadata region ------------------------------------------------------
    def reserve_metadata(self, pages: int) -> None:
        """Claim DRAM pages for in-memory tables (PRT/PCT live in DRAM)."""
        ppn_list = self.os_model.reserve_dram_pages(pages)
        self._metadata_lines = [
            ppn * LINES_PER_PAGE + offset
            for ppn in ppn_list
            for offset in range(LINES_PER_PAGE)
        ]

    # repro-hot
    def metadata_access(self, now: int, key: int, is_write: bool = False) -> int:
        """Access the DRAM-resident metadata line for *key*; returns finish."""
        if not self._metadata_lines:
            raise RuntimeError("reserve_metadata was never called")
        line = self._metadata_lines[key % len(self._metadata_lines)]
        finish = self.dram_access(now, line, is_write)
        self.stats._counters["hmc/metadata_accesses"] += 1.0
        return finish

    def line_access(
        self, now: int, line_spa: int, is_write: bool, bulk: bool = False
    ) -> int:
        """Access one system physical line through its device's entry.

        The routing helper for callers that hold a system line; request
        paths that already know the line's technology call
        ``dram_access``/``nvm_access`` directly.
        """
        if line_spa < self._nvm_line_base:
            return self.dram_access(now, line_spa, is_write, bulk)
        return self.nvm_access(now, line_spa - self._nvm_line_base, is_write, bulk)

    @property
    def fault_injector(self) -> Optional[FaultInjector]:
        """The armed injector, or None in normal runs."""
        return None if self.fault_recovery is None else self.fault_recovery.injector

    # -- the request interface (schemes override handle_request) ---------------
    def handle_request(
        self,
        now: int,
        line_spa: int,
        is_write: bool,
        pid: int,
        kind: RequestKind = DEMAND,
    ) -> int:
        """Service one LLC-miss line request; returns the finish time."""
        raise NotImplementedError

    def handle_pte_fetch(
        self, now: int, line_spa: int, target_ppn: Optional[int], pid: int
    ) -> int:
        """Service an LLC miss for a line holding a PTE entry.

        Baselines treat it as a normal read; PageSeer intercepts it in the
        MMU Driver (Section III-C4).
        """
        return self.handle_request(now, line_spa, False, pid, PTE)

    def mmu_hint(
        self, now: int, pte_line_spa: int, pid: int, vpn: int, target_ppn: int
    ) -> None:
        """Receive the MMU's fourth-level signal; baselines ignore it."""

    def finalize(self, now: int) -> None:
        """Called once when the measured run ends (close open bookkeeping)."""

    # -- shared accounting -------------------------------------------------------
    # repro-hot
    def account_service(
        self,
        now: int,
        finish: int,
        page_spa: int,
        serviced_from: str,
        kind: RequestKind,
    ) -> None:
        """Record one serviced request for Figures 7, 8, and 14."""
        self._total_serviced += 1
        if serviced_from == "dram":
            self._dram_serviced += 1
        stats = self.stats
        counters = stats._counters
        counters[_SERVICED_KEYS[serviced_from]] += 1.0
        counters[_REQUEST_KIND_KEYS[kind]] += 1.0
        if kind is not WRITEBACK:
            # AMMAT covers processor-visible requests; background
            # write-backs drain asynchronously and would distort it.
            ammat = finish - now
            stats._sums["hmc/ammat"] += ammat
            stats._counts["hmc/ammat"] += 1
            previous = stats._maxima.get("hmc/ammat")
            if previous is None or ammat > previous:
                stats._maxima["hmc/ammat"] = ammat

        home_dram = page_spa < self.dram_pages
        if not home_dram and serviced_from != "nvm":
            counters["hmc/positive_accesses"] += 1.0
        elif home_dram and serviced_from == "nvm":
            counters["hmc/negative_accesses"] += 1.0
        else:
            counters["hmc/neutral_accesses"] += 1.0

    #: Requests that must have been observed before the bandwidth
    #: heuristic may act; with fewer samples the DRAM share is noise.
    bandwidth_heuristic_min_samples = 1000

    @property
    def dram_service_share(self) -> float:
        """Fraction of requests serviced by DRAM so far (Swap Driver heuristic).

        Reported as 0 until enough requests were seen for the share to be
        meaningful, so the Swap Driver's 95% rule cannot trip on startup
        noise.
        """
        if self._total_serviced < self.bandwidth_heuristic_min_samples:
            return 0.0
        return self._dram_serviced / self._total_serviced


class NoSwapHmc(HmcBase):
    """The reference controller: pages stay at their home location forever.

    Used both as the Figure 8 reference semantics and as a sanity baseline.
    """

    scheme_name = "noswap"

    # repro-hot
    def handle_request(
        self,
        now: int,
        line_spa: int,
        is_write: bool,
        pid: int,
        kind: RequestKind = DEMAND,
    ) -> int:
        """Service one LLC-miss line request; returns the finish time.

        The Figure 2 pipeline degenerates to one device access here, so
        the whole path — routing plus serviced-request accounting — is
        inlined against the per-device entries and the live stats dicts,
        the same flattening the PageSeer controller's request path uses
        (the goldens pin the result).  With pages pinned to
        their home location, serviced-from always equals home, so every
        access is neutral for the Figure 8 classification.
        """
        bulk = kind is WRITEBACK
        dram = line_spa < self._nvm_line_base
        if dram:
            finish = self.dram_access(now, line_spa, is_write, bulk)
        else:
            finish = self.nvm_access(
                now, line_spa - self._nvm_line_base, is_write, bulk
            )
        stats = self.stats
        counters = stats._counters
        self._total_serviced += 1
        if dram:
            self._dram_serviced += 1
            counters["hmc/serviced_dram"] += 1.0
        else:
            counters["hmc/serviced_nvm"] += 1.0
        if kind is DEMAND:
            counters["hmc/requests_demand"] += 1.0
        elif bulk:
            counters["hmc/requests_writeback"] += 1.0
        else:
            counters["hmc/requests_pte"] += 1.0
        if not bulk:
            # AMMAT covers processor-visible requests; background
            # write-backs drain asynchronously and would distort it.
            ammat = finish - now
            stats._sums["hmc/ammat"] += ammat
            stats._counts["hmc/ammat"] += 1
            previous = stats._maxima.get("hmc/ammat")
            if previous is None or ammat > previous:
                stats._maxima["hmc/ammat"] = ammat
        counters["hmc/neutral_accesses"] += 1.0
        return finish

    def handle_pte_fetch(
        self, now: int, line_spa: int, target_ppn: Optional[int], pid: int
    ) -> int:
        return self.handle_request(now, line_spa, False, pid, PTE)
