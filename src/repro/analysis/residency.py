"""Page-residency analysis: what swapped-in pages do with their DRAM time.

Tracks, per swap-in, how long the page stayed in the DRAM frame before
being displaced (or until the end of the observation window) and how many
demand accesses it served while resident.  A healthy policy keeps
residencies long enough to amortise the swap (the paper's break-even is
14 accesses) and avoids one-hit wonders.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Dict, List

from repro.common.addr import LINES_PER_PAGE


@dataclass(frozen=True)
class ResidencySummary:
    """Aggregate residency statistics for one run."""

    completed_residencies: int
    live_residencies: int
    mean_duration: float
    mean_hits: float
    #: Residencies whose page earned >= the break-even access count.
    amortised: int
    break_even_hits: int

    @property
    def amortised_fraction(self) -> float:
        total = self.completed_residencies + self.live_residencies
        return self.amortised / total if total else 0.0

    def render(self) -> str:
        return (
            f"residencies         {self.completed_residencies} completed, "
            f"{self.live_residencies} live\n"
            f"  mean duration     {self.mean_duration:.0f} cycles\n"
            f"  mean demand hits  {self.mean_hits:.1f}\n"
            f"  amortised (>= {self.break_even_hits} hits)  "
            f"{self.amortised} ({self.amortised_fraction:.1%})"
        )


class ResidencyProbe:
    """Observes swap-ins/outs and per-page demand hits on a PageSeer system.

    Each committed swap (a Swap Driver listener) closes its occupant's
    residency and opens its page's; a wrapper on the HMC's request path
    counts the demand hits.
    """

    def __init__(self, system):
        if system.scheme != "pageseer":
            raise ValueError("ResidencyProbe requires a PageSeer system")
        self.system = system
        self.hmc = system.hmc
        self.break_even_hits = system.config.pageseer.pct_prefetch_threshold
        #: page -> [swap_in_time, hits]
        self._live: Dict[int, List] = {}
        #: (duration, hits) per completed residency.
        self.completed: List[tuple] = []
        self._wrap()

    def _wrap(self) -> None:
        self.hmc.swap_driver.listeners.append(self._on_swap)
        original_request = self.hmc.handle_request

        def wrapped(now, line_spa, is_write, pid, kind=None, **kwargs):
            page = line_spa // LINES_PER_PAGE
            state = self._live.get(page)
            if state is not None:
                state[1] += 1
            if kind is None:
                return original_request(now, line_spa, is_write, pid, **kwargs)
            return original_request(now, line_spa, is_write, pid, kind, **kwargs)

        self.hmc.handle_request = wrapped

    def _on_swap(self, record) -> None:
        """Close the occupant's residency and open the page's."""
        if record.occupant is not None:
            state = self._live.pop(record.occupant, None)
            if state is not None:
                self.completed.append((record.start - state[0], state[1]))
        self._live[record.page] = [record.start, 0]

    def summary(self) -> ResidencySummary:
        durations = [d for d, _ in self.completed]
        hits_list = [h for _, h in self.completed] + [
            state[1] for state in self._live.values()
        ]
        amortised = sum(1 for h in hits_list if h >= self.break_even_hits)
        return ResidencySummary(
            completed_residencies=len(self.completed),
            live_residencies=len(self._live),
            mean_duration=statistics.mean(durations) if durations else 0.0,
            mean_hits=statistics.mean(hits_list) if hits_list else 0.0,
            amortised=amortised,
            break_even_hits=self.break_even_hits,
        )
