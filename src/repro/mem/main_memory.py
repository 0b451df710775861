"""The flat hybrid physical address space: DRAM + NVM behind one interface.

Physical pages ``[0, dram_pages)`` live in DRAM; pages
``[dram_pages, total_pages)`` live in NVM (see
:class:`repro.common.config.HybridMemoryConfig`).  This class owns the two
:class:`MemoryDevice` instances and routes page and segment transfers, which
the swap machinery addresses by physical page or line, to the right device
with a device-local address, so that channel interleaving inside each
technology behaves like a real module.  Single-line accesses do not come
through here: each controller binds one entry per device once
(:class:`repro.sim.hmc_base.HmcBase`), and routes lines itself.
"""

from __future__ import annotations

from repro.common.addr import LINES_PER_PAGE
from repro.common.config import HybridMemoryConfig
from repro.common.stats import StatsRegistry
from repro.mem.device import MemoryDevice


class MainMemory:
    """Owns the DRAM and NVM devices; routes page and segment transfers."""

    def __init__(self, config: HybridMemoryConfig, stats: StatsRegistry):
        self.config = config
        self.stats = stats
        self.dram = MemoryDevice(config.dram, stats)
        self.nvm = MemoryDevice(config.nvm, stats)
        self._dram_lines = config.dram_pages * LINES_PER_PAGE

    def attach_injector(self, injector) -> None:
        """Arm fault injection (``repro.faults``) on both devices."""
        self.dram.injector = injector
        self.nvm.injector = injector

    def read_page(self, now: int, ppn: int, bulk: bool = False) -> int:
        """Read all 64 lines of physical page *ppn*; return finish time."""
        return self._transfer(now, ppn * LINES_PER_PAGE, LINES_PER_PAGE, False, bulk)

    def write_page(self, now: int, ppn: int, bulk: bool = False) -> int:
        """Write all 64 lines of physical page *ppn*; return finish time."""
        return self._transfer(now, ppn * LINES_PER_PAGE, LINES_PER_PAGE, True, bulk)

    def transfer_segment(
        self, now: int, first_line: int, line_count: int, is_write: bool,
        bulk: bool = False,
    ) -> int:
        """Stream *line_count* lines starting at physical line *first_line*.

        Used by the 2 KB-segment baselines (PoM, MemPod), and by
        PageSeer's Swap Driver for the lines an incoming page moves.
        """
        return self._transfer(now, first_line, line_count, is_write, bulk)

    def _transfer(
        self, now: int, first_line: int, line_count: int, is_write: bool,
        bulk: bool,
    ) -> int:
        if first_line < self._dram_lines:
            return self.dram.transfer_page(
                now, first_line, line_count, is_write, bulk
            )
        return self.nvm.transfer_page(
            now, first_line - self._dram_lines, line_count, is_write, bulk
        )
