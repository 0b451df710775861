"""The shadow functional reference model (the sanitizer's semantic half).

A :class:`ShadowPageOracle` is a zero-timing, dict-based replica of the
remap state: it replays the Swap Driver's committed swaps, one
:class:`repro.core.swap_driver.SwapRecord` each from the driver's
listeners (and nothing else — in particular it never reads the PRT it
is checking), and derives, for any physical page, the location its data
must resolve to.  On every request
the timed model handles, the sanitizer asks the oracle where the accessed
page's data should live and compares that against the PRT's answer; at
the end of the run the two remap maps are compared entry by entry.

Because the oracle evolves only through the swap-event stream, any PRT
corruption that did not come from a legitimate swap — a lost update, a
double install, a stray write — shows up as a divergence between the two
models, pinpointing the violating page and frame.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.check.invariants import Violation


class ShadowPageOracle:
    """Replays swap events into a flat functional model of remapping."""

    name = "shadow-oracle"

    def __init__(self, dram_pages: int, total_pages: int):
        self.dram_pages = dram_pages
        self.total_pages = total_pages
        self._nvm_to_dram: Dict[int, int] = {}
        self._dram_to_nvm: Dict[int, int] = {}
        self.swaps_replayed = 0
        self.accesses_checked = 0
        #: Violations raised by malformed events themselves (e.g. a swap
        #: evicting an occupant the oracle never saw arrive).
        self.event_violations: List[Violation] = []

    # -- event replay -------------------------------------------------------
    def on_swap(self, record) -> None:
        """Replay one committed swap: the record's page moves into its frame.

        When the record names an occupant, the optimized slow swap first
        sends the frame's previous tenant home (Figure 5).
        """
        page = record.page
        frame = record.dram_frame
        occupant = record.occupant
        self.swaps_replayed += 1
        if occupant is not None:
            expected_frame = self._nvm_to_dram.pop(occupant, None)
            if expected_frame is None:
                self.event_violations.append(Violation(
                    checker=self.name,
                    message="swap evicted an occupant the oracle never saw "
                            "swap in",
                    page=occupant, frame=frame))
            else:
                self._dram_to_nvm.pop(expected_frame, None)
                if expected_frame != frame:
                    self.event_violations.append(Violation(
                        checker=self.name,
                        message=f"swap evicted occupant from frame {frame} "
                                f"but the oracle placed it in "
                                f"{expected_frame}",
                        page=occupant, frame=frame))
        if page in self._nvm_to_dram:
            self.event_violations.append(Violation(
                checker=self.name,
                message="page swapped in while the oracle already holds it "
                        "in a frame",
                page=page, frame=self._nvm_to_dram[page]))
        if frame in self._dram_to_nvm:
            self.event_violations.append(Violation(
                checker=self.name,
                message=f"frame received page {page} while the oracle still "
                        f"holds page {self._dram_to_nvm[frame]} there",
                page=page, frame=frame))
        self._nvm_to_dram[page] = frame
        self._dram_to_nvm[frame] = page

    # -- queries ------------------------------------------------------------
    def expected_location(self, page_spa: int) -> int:
        """Where *page_spa*'s data must live according to the oracle."""
        if page_spa < self.dram_pages:
            partner = self._dram_to_nvm.get(page_spa)
            return partner if partner is not None else page_spa
        partner = self._nvm_to_dram.get(page_spa)
        return partner if partner is not None else page_spa

    @property
    def active_pairs(self) -> int:
        return len(self._nvm_to_dram)

    # -- verification -------------------------------------------------------
    def verify_access(self, prt, page_spa: int) -> Optional[Violation]:
        """Cross-check the timed model's resolution of one accessed page."""
        self.accesses_checked += 1
        expected = self.expected_location(page_spa)
        actual = prt.location_of(page_spa)
        if actual == expected:
            return None
        return Violation(
            checker=self.name,
            message=f"access to page {page_spa} resolves to {actual} in the "
                    f"timed model but the oracle expects {expected}",
            page=page_spa,
            frame=actual if actual < self.dram_pages else expected,
        )

    def verify_full(self, prt) -> List[Violation]:
        """Compare the complete remap maps entry by entry (end of run)."""
        out = list(self.event_violations)
        timed = dict(prt.entries())
        for page, frame in self._nvm_to_dram.items():
            if timed.get(page) != frame:
                out.append(Violation(
                    checker=self.name,
                    message=f"oracle holds {page} -> {frame} but the PRT "
                            f"says {timed.get(page)}",
                    page=page, frame=frame))
        for page, frame in timed.items():
            if page not in self._nvm_to_dram:
                out.append(Violation(
                    checker=self.name,
                    message=f"PRT holds {page} -> {frame} but the oracle "
                            f"never saw that swap",
                    page=page, frame=frame))
        return out
