"""Virtual-memory substrate: page tables, TLBs, page walker, OS model.

This package stands in for the Simics/Ubuntu full-system layer of the
paper's infrastructure.  It provides real 4-level x86-style page tables
materialised in simulated physical memory, per-core L1/L2 TLBs and
page-walk caches, and an OS model that owns physical-frame allocation
across the flat DRAM+NVM space.  Page walks generate genuine memory
traffic, which is what PageSeer's MMU-triggered mechanism feeds on.
"""

from repro.vm.os_model import OsModel, Process
from repro.vm.page_table import PageTable
from repro.vm.tlb import Tlb
from repro.vm.walker import PageWalkCache, PageWalker, WalkResult
from repro.vm.mmu import Mmu, TranslationResult

__all__ = [
    "OsModel",
    "Process",
    "PageTable",
    "Tlb",
    "PageWalkCache",
    "PageWalker",
    "WalkResult",
    "Mmu",
    "TranslationResult",
]
