"""The CheckManager: attaches the sanitizer to a live system.

The manager is constructed by :class:`repro.sim.system.System` only when
``config.check.level != "off"`` — at the default ``off`` level nothing is
built, nothing is wrapped, and the hot path runs exactly the code it runs
without the sanitizer (the zero-overhead guarantee the throughput tests
pin down).

When enabled, the manager

* installs a :class:`CheckedRequests` entry as the controller instance's
  ``handle_request``: it counts requests, cross-checks each accessed
  page against the shadow oracle (level ``full``), and runs a
  structural invariant sweep every ``interval_ops`` requests;
* subscribes to the Swap Driver's committed swaps, so event-count
  conservation and the oracle's replay are driven by the model's own
  mutation stream;
* raises :class:`repro.common.errors.CheckViolationError` on the first
  violation (``fail_fast``), or collects violations and raises once at
  :meth:`finalize`.

Every hook it installs is plain data (a ``__slots__`` object, bound
methods, :func:`functools.partial`), so a checked system checkpoints
and restores with its sanitizer attached.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.common.addr import LINES_PER_PAGE
from repro.common.config import CheckConfig
from repro.common.errors import CheckViolationError
from repro.check.invariants import InvariantChecker, Violation, build_checkers
from repro.check.shadow import ShadowPageOracle
from repro.sim.hmc_base import DEMAND


@dataclass
class CheckReport:
    """What the sanitizer did during one run."""

    level: str
    accesses_observed: int = 0
    sweeps: int = 0
    checkers: List[str] = field(default_factory=list)
    shadow_accesses_checked: int = 0
    shadow_swaps_replayed: int = 0
    violations: List[Violation] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.violations


class CheckedRequests:
    """A checked controller's ``handle_request``, installed on the instance.

    Holds the manager and the controller class's own ``handle_request``
    function, which it calls with the controller.  A module-level
    ``__slots__`` object rather than a closure, so a checkpoint pickles
    it in place and a restored system resumes with its sanitizer
    attached.
    """

    __slots__ = ("manager", "handle_request")

    def __init__(self, manager: "CheckManager", handle_request) -> None:
        self.manager = manager
        self.handle_request = handle_request

    def __call__(self, now, line_spa, is_write, pid, kind=DEMAND):
        manager = self.manager
        hmc = manager.system.hmc
        shadow = manager.shadow
        manager.accesses += 1
        if shadow is not None:
            violation = shadow.verify_access(hmc.prt, line_spa // LINES_PER_PAGE)
            if violation is not None:
                manager._handle([violation])
        if manager.accesses % manager.config.interval_ops == 0:
            manager.run_invariants(now)
        finish = self.handle_request(hmc, now, line_spa, is_write, pid, kind)
        if shadow is not None and shadow.event_violations:
            drained = list(shadow.event_violations)
            shadow.event_violations.clear()
            manager._handle(drained)
        return finish


class CheckManager:
    """Owns the checkers and the shadow oracle for one system."""

    def __init__(self, config: CheckConfig):
        self.config = config
        self.checkers: List[InvariantChecker] = []
        self.shadow: Optional[ShadowPageOracle] = None
        self.system = None
        #: The controller's request entry while attached.
        self.requests: Optional[CheckedRequests] = None
        self.accesses = 0
        self.sweeps = 0
        self.violations: List[Violation] = []
        self._prt_installs = 0
        self._prt_removes = 0
        self._finalized = False

    # -- wiring -------------------------------------------------------------
    def attach(self, system) -> None:
        """Bind to *system*: build checkers, subscribe to swaps, wrap the HMC."""
        self.system = system
        self.checkers = build_checkers(system)
        hmc = system.hmc
        if system.scheme == "pageseer":
            listeners = hmc.swap_driver.listeners
            listeners.append(self._on_swap)
            if self.config.shadow_enabled:
                self.shadow = ShadowPageOracle(hmc.dram_pages, hmc.total_pages)
                listeners.append(self.shadow.on_swap)
        self.requests = CheckedRequests(self, type(hmc).handle_request)
        hmc.handle_request = self.requests

    def _on_swap(self, record) -> None:
        """A committed swap installs one PRT pair and removes its occupant's."""
        self._prt_installs += 1
        if record.occupant is not None:
            self._prt_removes += 1

    # -- checking -----------------------------------------------------------
    def run_invariants(self, now: int) -> None:
        """One structural sweep over every registered checker."""
        self.sweeps += 1
        found: List[Violation] = []
        for checker in self.checkers:
            found.extend(checker.check(self.system, now))
        found.extend(self._check_event_conservation())
        if found:
            self._handle(found)

    def _check_event_conservation(self) -> List[Violation]:
        """PRT event stream must balance against its active pair count."""
        if self.system.scheme != "pageseer":
            return []
        expected = self._prt_installs - self._prt_removes
        actual = self.system.hmc.prt.active_pairs
        if actual == expected:
            return []
        return [Violation(
            checker="prt-event-conservation",
            message=f"PRT holds {actual} pairs but its event stream "
                    f"accounts for {expected} "
                    f"({self._prt_installs} installs - "
                    f"{self._prt_removes} removes)",
        )]

    def finalize(self, now: int) -> None:
        """End-of-run sweep plus the oracle's full-map comparison."""
        if self._finalized:
            return
        self._finalized = True
        self.run_invariants(now)
        if self.shadow is not None:
            mismatches = self.shadow.verify_full(self.system.hmc.prt)
            self.shadow.event_violations.clear()
            if mismatches:
                self._handle(mismatches)
        if self.violations:
            raise CheckViolationError(self.violations)

    # -- reporting ----------------------------------------------------------
    def _handle(self, violations: List[Violation]) -> None:
        self.violations.extend(violations)
        if self.config.fail_fast:
            raise CheckViolationError(violations)

    def report(self) -> CheckReport:
        return CheckReport(
            level=self.config.level,
            accesses_observed=self.accesses,
            sweeps=self.sweeps,
            checkers=[checker.name for checker in self.checkers],
            shadow_accesses_checked=(
                self.shadow.accesses_checked if self.shadow else 0
            ),
            shadow_swaps_replayed=(
                self.shadow.swaps_replayed if self.shadow else 0
            ),
            violations=list(self.violations),
        )
