"""Swap lead-time analysis: does PageSeer really hide the swap overhead?

For every swap, two intervals matter:

* **lead time** — from the swap's start to the *first demand access* for
  the swapped page.  MMU-triggered swaps should have positive lead (the
  hint fires while the TLB miss is still being resolved);
* **exposure** — how much of the swap's duration the demand stream
  actually had to see.  A swap is *fully hidden* when it completes before
  the first demand access arrives, and *buffered* when the accesses that
  do land mid-swap are absorbed by the swap buffers.

The probe instruments a built :class:`repro.sim.system.System` (PageSeer
scheme) before it runs: it subscribes to the Swap Driver's committed
swaps and wraps the HMC's request path.  It adds no behaviour, only
observation.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Dict, List

from repro.common.addr import LINES_PER_PAGE


@dataclass(frozen=True)
class LeadTimeSummary:
    """Aggregate lead-time statistics for one run."""

    swaps_observed: int
    swaps_with_demand: int
    mean_lead: float
    median_lead: float
    #: Swaps that finished before their page's first demand access.
    fully_hidden: int
    #: Swaps whose first demand access landed mid-swap (buffer-serviced).
    partially_hidden: int

    @property
    def hidden_fraction(self) -> float:
        """Swaps whose cost the demand stream never waited for, fully."""
        if self.swaps_with_demand == 0:
            return 0.0
        return self.fully_hidden / self.swaps_with_demand

    @property
    def covered_fraction(self) -> float:
        """Swaps fully hidden or absorbed by the buffers."""
        if self.swaps_with_demand == 0:
            return 0.0
        return (self.fully_hidden + self.partially_hidden) / self.swaps_with_demand

    def render(self) -> str:
        return (
            f"swaps observed      {self.swaps_observed}\n"
            f"  with demand hits  {self.swaps_with_demand}\n"
            f"  mean lead time    {self.mean_lead:.0f} cycles\n"
            f"  median lead time  {self.median_lead:.0f} cycles\n"
            f"  fully hidden      {self.fully_hidden} "
            f"({self.hidden_fraction:.1%})\n"
            f"  buffer-absorbed   {self.partially_hidden} "
            f"(covered: {self.covered_fraction:.1%})"
        )


class LeadTimeProbe:
    """Observes a PageSeer system's swaps and demand stream.

    Attach before running::

        system = build_system("pageseer", workload, scale=512)
        probe = LeadTimeProbe(system)
        system.run_ops(20_000)
        print(probe.summary().render())
    """

    def __init__(self, system):
        if system.scheme != "pageseer":
            raise ValueError("LeadTimeProbe requires a PageSeer system")
        self.system = system
        self.hmc = system.hmc
        #: page -> (swap_start, swap_end) of its most recent swap-in.
        self._open_swaps: Dict[int, tuple] = {}
        #: (lead, start, end, first_hit) per swap that saw demand.
        self.observations: List[tuple] = []
        driver = self.hmc.swap_driver
        # Swaps committed before the probe attached count as observed.
        self._swaps_seen = 0
        for record in driver.records:
            self._on_swap(record)
        driver.listeners.append(self._on_swap)
        self._wrap()

    def _wrap(self) -> None:
        original = self.hmc.handle_request

        def wrapped(now, line_spa, is_write, pid, kind=None, **kwargs):
            page = line_spa // LINES_PER_PAGE
            window = self._open_swaps.pop(page, None)
            if window is not None:
                start, end = window
                self.observations.append((now - start, start, end, now))
            if kind is None:
                return original(now, line_spa, is_write, pid, **kwargs)
            return original(now, line_spa, is_write, pid, kind, **kwargs)

        self.hmc.handle_request = wrapped

    def _on_swap(self, record) -> None:
        self._open_swaps[record.page] = (record.start, record.end)
        self._swaps_seen += 1

    # -- results -----------------------------------------------------------
    def summary(self) -> LeadTimeSummary:
        leads = [obs[0] for obs in self.observations]
        fully_hidden = sum(
            1 for _, start, end, first_hit in self.observations if first_hit >= end
        )
        partially = sum(
            1 for _, start, end, first_hit in self.observations
            if start <= first_hit < end
        )
        return LeadTimeSummary(
            swaps_observed=self._swaps_seen,
            swaps_with_demand=len(self.observations),
            mean_lead=statistics.mean(leads) if leads else 0.0,
            median_lead=statistics.median(leads) if leads else 0.0,
            fully_hidden=fully_hidden,
            partially_hidden=partially,
        )
