"""The OS substrate: processes, frame allocation, flat DRAM+NVM placement.

The paper runs Ubuntu 16.04 under Simics; PageSeer only depends on the OS
for (a) the 4-level page tables it walks and (b) the initial placement of
pages across the flat DRAM+NVM space.  This model provides exactly those
two things:

* page-table frames are allocated in DRAM (kernels keep hot metadata in
  fast memory);
* data frames are allocated by interleaving DRAM and NVM proportionally to
  their capacities (1:8 with Table I sizes), so a fraction of every
  workload's pages starts fast and the rest start slow — the situation all
  the studied swap schemes are designed for;
* a small DRAM region is reserved for in-memory controller metadata (the
  PRT and PCT of Table II live in DRAM).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.common.config import HybridMemoryConfig
from repro.common.errors import AllocationError
from repro.vm.page_table import PageTable


@dataclass
class Process:
    """One simulated process: a pid and its page table."""

    pid: int
    page_table: PageTable
    touched_vpns: int = 0


class OsModel:
    """Owns the physical frame space and the process table."""

    def __init__(self, memory: HybridMemoryConfig):
        self.memory = memory
        self._next_dram_frame = 0
        self._next_nvm_frame = memory.dram_pages
        self._dram_limit = memory.dram_pages
        self._nvm_limit = memory.total_pages
        self._processes: Dict[int, Process] = {}
        self._data_frames_allocated = 0
        # Interleave ratio: one DRAM data frame per `ratio` frames total.
        self._interleave_ratio = max(
            2, round(memory.total_pages / max(1, memory.dram_pages))
        )
        self._reserved_metadata_pages: List[int] = []
        self._protected_frames: set = set()
        #: Frames retired after uncorrectable errors (``repro.faults``);
        #: maps frame -> order of quarantine, so introspection stays
        #: deterministic.
        self._quarantined_frames: Dict[int, int] = {}

    # -- raw frame allocation ---------------------------------------------
    def _take_dram_frame(self) -> int:
        if self._next_dram_frame >= self._dram_limit:
            raise AllocationError("out of DRAM frames")
        frame = self._next_dram_frame
        self._next_dram_frame += 1
        return frame

    def _take_nvm_frame(self) -> int:
        if self._next_nvm_frame >= self._nvm_limit:
            raise AllocationError("out of NVM frames")
        frame = self._next_nvm_frame
        self._next_nvm_frame += 1
        return frame

    def reserve_dram_pages(self, count: int) -> List[int]:
        """Reserve DRAM pages for controller metadata (PRT/PCT in DRAM)."""
        pages = [self._take_dram_frame() for _ in range(count)]
        self._reserved_metadata_pages.extend(pages)
        self._protected_frames.update(pages)
        return pages

    def allocate_table_frame(self) -> int:
        """Allocate a frame for a page-table node (DRAM)."""
        frame = self._take_dram_frame()
        self._protected_frames.add(frame)
        return frame

    def is_protected_frame(self, ppn: int) -> bool:
        """True for frames holding page tables or controller metadata.

        Swap schemes must never evict these from DRAM: the kernel pins its
        page tables, and the PRT/PCT regions belong to the controller.
        """
        return ppn in self._protected_frames

    # -- frame quarantine (fault recovery) ----------------------------------
    def quarantine_frame(self, ppn: int) -> bool:
        """Retire a failed physical frame; True if it was newly retired.

        Quarantined frames are never chosen as swap victims and their
        swapped-in rescues are pinned in DRAM (see
        ``repro.core.swap_driver``).  The bump-pointer allocators never
        reuse frames, so no allocation path needs to consult this set.
        """
        if ppn in self._quarantined_frames:
            return False
        self._quarantined_frames[ppn] = len(self._quarantined_frames)
        return True

    def is_quarantined(self, ppn: int) -> bool:
        return ppn in self._quarantined_frames

    @property
    def quarantined_frames(self) -> List[int]:
        """Retired frames, in quarantine order (checker introspection)."""
        return sorted(self._quarantined_frames, key=self._quarantined_frames.get)

    def allocate_data_frame(self, vpn: int) -> int:
        """First-touch allocation of a data frame, interleaved DRAM:NVM."""
        self._data_frames_allocated += 1
        prefer_dram = self._data_frames_allocated % self._interleave_ratio == 0
        if prefer_dram and self._next_dram_frame < self._dram_limit:
            return self._take_dram_frame()
        if self._next_nvm_frame < self._nvm_limit:
            return self._take_nvm_frame()
        # NVM exhausted: fall back to DRAM before giving up.
        return self._take_dram_frame()

    # -- processes ----------------------------------------------------------
    def create_process(self, pid: int) -> Process:
        """Create a process with an empty page table."""
        if pid in self._processes:
            raise AllocationError(f"pid {pid} already exists")
        table = PageTable(pid, self.allocate_table_frame, self.allocate_data_frame)
        process = Process(pid=pid, page_table=table)
        self._processes[pid] = process
        return process

    def process(self, pid: int) -> Process:
        return self._processes[pid]

    @property
    def processes(self) -> Dict[int, Process]:
        return dict(self._processes)

    # -- accounting ----------------------------------------------------------
    @property
    def metadata_pages(self) -> List[int]:
        """DRAM pages reserved for controller metadata (PRT/PCT regions)."""
        return list(self._reserved_metadata_pages)

    @property
    def protected_frames(self) -> frozenset:
        """Every frame holding page tables or controller metadata."""
        return frozenset(self._protected_frames)

    @property
    def dram_frames_used(self) -> int:
        return self._next_dram_frame

    @property
    def nvm_frames_used(self) -> int:
        return self._next_nvm_frame - self.memory.dram_pages

    @property
    def dram_frames_free(self) -> int:
        return self._dram_limit - self._next_dram_frame

    @property
    def nvm_frames_free(self) -> int:
        return self._nvm_limit - self._next_nvm_frame
