"""The Page Remapping Table (PRT) and its cache (PRTc) — Section III-C1.

PageSeer constrains swaps so that only DRAM and NVM pages of the same
*cache colour* may be exchanged, and pages that are not currently swapped
stay at their original location.  With Table II's 4-way PRT, the colour of
a physical page is ``ppn % (dram_pages / 4)``: each colour owns exactly
four DRAM frames (the PRT set's ways) and the NVM pages congruent to it.

A PRT entry is a pair ``(nvm_ppn, dram_ppn)`` meaning "the NVM page's data
sits in that DRAM frame, and the DRAM frame's home data sits at the NVM
page's home location" — an involution, which keeps metadata minimal.

The full PRT lives in DRAM; the HMC holds the PRTc, a set-associative cache
of PRT sets.  A PRTc miss stalls the request while the set is fetched from
DRAM — the waiting time Figure 13 measures.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from repro.common.errors import ConfigError, SimulationError


class PageRemapTable:
    """Authoritative remap state, colour-constrained (the in-DRAM PRT)."""

    def __init__(self, dram_pages: int, total_pages: int, ways: int = 4):
        if dram_pages < ways:
            raise ConfigError("need at least `ways` DRAM pages")
        self.ways = ways
        self.dram_pages = dram_pages
        self.total_pages = total_pages
        self.num_colours = dram_pages // ways
        self._nvm_to_dram: Dict[int, int] = {}
        self._dram_to_nvm: Dict[int, int] = {}

    # -- geometry -----------------------------------------------------------
    def colour_of(self, ppn: int) -> int:
        """The cache colour of a physical page (its PRT set index)."""
        return ppn % self.num_colours

    def dram_frames_of_colour(self, colour: int) -> List[int]:
        """The `ways` DRAM frames an NVM page of this colour may use."""
        return [colour + way * self.num_colours for way in range(self.ways)]

    def is_dram(self, ppn: int) -> bool:
        return ppn < self.dram_pages

    # -- queries ----------------------------------------------------------------
    def dram_frame_holding(self, nvm_ppn: int) -> Optional[int]:
        """The DRAM frame holding this NVM page's data, if swapped in."""
        return self._nvm_to_dram.get(nvm_ppn)

    def nvm_page_in_frame(self, dram_ppn: int) -> Optional[int]:
        """The NVM page whose data occupies this DRAM frame, if any."""
        return self._dram_to_nvm.get(dram_ppn)

    def location_of(self, page_spa: int) -> int:
        """Where this page's data physically lives right now.

        An unswapped page lives at home.  A swapped NVM page lives in its
        partner DRAM frame; the partner DRAM page's data lives at the NVM
        page's home location (the involution).
        """
        if page_spa < self.dram_pages:
            partner = self._dram_to_nvm.get(page_spa)
            return partner if partner is not None else page_spa
        partner = self._nvm_to_dram.get(page_spa)
        return partner if partner is not None else page_spa

    def is_swapped(self, page_spa: int) -> bool:
        return self.location_of(page_spa) != page_spa

    def pairs_of_colour(self, colour: int) -> List[Tuple[int, int]]:
        """All (nvm, dram) pairs currently active in one colour set."""
        pairs = []
        for frame in self.dram_frames_of_colour(colour):
            nvm = self._dram_to_nvm.get(frame)
            if nvm is not None:
                pairs.append((nvm, frame))
        return pairs

    @property
    def active_pairs(self) -> int:
        return len(self._nvm_to_dram)

    # -- mutations --------------------------------------------------------------
    def install(self, nvm_ppn: int, dram_ppn: int) -> None:
        """Record that *nvm_ppn*'s data now occupies *dram_ppn*."""
        if not self.is_dram(dram_ppn) or self.is_dram(nvm_ppn):
            raise SimulationError("install needs an (NVM, DRAM) pair")
        if self.colour_of(nvm_ppn) != self.colour_of(dram_ppn):
            raise SimulationError(
                f"colour mismatch: nvm {nvm_ppn} vs dram {dram_ppn}"
            )
        if nvm_ppn in self._nvm_to_dram:
            raise SimulationError(f"nvm page {nvm_ppn} already swapped")
        if dram_ppn in self._dram_to_nvm:
            raise SimulationError(f"dram frame {dram_ppn} already occupied")
        self._nvm_to_dram[nvm_ppn] = dram_ppn
        self._dram_to_nvm[dram_ppn] = nvm_ppn

    def remove(self, nvm_ppn: int) -> int:
        """Undo the swap of *nvm_ppn*; returns the freed DRAM frame."""
        frame = self._nvm_to_dram.pop(nvm_ppn, None)
        if frame is None:
            raise SimulationError(f"nvm page {nvm_ppn} is not swapped")
        del self._dram_to_nvm[frame]
        return frame

    def entries(self) -> List[Tuple[int, int]]:
        """All active ``(nvm_ppn, dram_ppn)`` pairs (checker introspection)."""
        return list(self._nvm_to_dram.items())

    def reverse_entries(self) -> List[Tuple[int, int]]:
        """All ``(dram_ppn, nvm_ppn)`` pairs of the reverse map."""
        return list(self._dram_to_nvm.items())

    def _corrupt_for_test(self, nvm_ppn: int, dram_ppn: int) -> None:
        """TEST-ONLY: write a forward entry without its inverse.

        Bypasses every validation and the Swap Driver's commit, simulating
        a silent PRT corruption (e.g. a lost update) that only the sanitizer
        can notice.  Never call this outside tests.
        """
        self._nvm_to_dram[nvm_ppn] = dram_ppn


class PrtCache:
    """The PRTc: an LRU cache of PRT colour sets held inside the HMC.

    A hit answers the remap question (positively or negatively) in one
    cycle; a miss requires a DRAM access to fetch the set.  Capacity is
    ``prtc_entries / ways`` colour sets, matching Table II's 32 KB budget.
    """

    def __init__(self, entries: int, ways: int, latency_cycles: int):
        if entries < ways:
            raise ConfigError("PRTc needs at least one full set")
        self.capacity_sets = max(1, entries // ways)
        self.latency_cycles = latency_cycles
        self._resident: "OrderedDict[int, None]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.fills = 0

    def lookup(self, colour: int) -> bool:
        """Probe for a colour set; True on hit (LRU updated)."""
        if colour in self._resident:
            self._resident.move_to_end(colour)
            self.hits += 1
            return True
        self.misses += 1
        return False

    def contains(self, colour: int) -> bool:
        """Probe without counting or disturbing LRU (used by prefetch)."""
        return colour in self._resident

    def fill(self, colour: int) -> Optional[int]:
        """Install a colour set; returns the evicted colour, if any."""
        self.fills += 1
        if colour in self._resident:
            self._resident.move_to_end(colour)
            return None
        evicted = None
        if len(self._resident) >= self.capacity_sets:
            evicted, _ = self._resident.popitem(last=False)
        self._resident[colour] = None
        return evicted

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    @property
    def occupancy(self) -> int:
        return len(self._resident)
