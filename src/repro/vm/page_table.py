"""A 4-level x86-style page table materialised in simulated memory.

Each table node (PGD, PUD, PMD, PTE table) occupies one physical page
allocated by the OS model, so every step of a page walk has a real physical
address — the walker turns those into cache/memory traffic, and the PTE
line address is exactly what the MMU sends to the Hybrid Memory Controller
in PageSeer (Section III-B).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.common.addr import (
    LINE_SHIFT,
    PAGE_SHIFT,
    WALK_LEVELS,
    split_virtual_address,
)

#: Bytes per page-table entry (x86-64).
ENTRY_BYTES = 8


def _level_indices(vpn: int) -> List[int]:
    """Return the four per-level indices for a VPN (PGD first)."""
    parts = split_virtual_address(vpn << PAGE_SHIFT)
    return [parts.pgd_index, parts.pud_index, parts.pmd_index, parts.pte_index]


class _TableNode:
    """One physical page holding 512 entries of some level."""

    __slots__ = ("ppn", "children", "leaf_entries")

    def __init__(self, ppn: int):
        self.ppn = ppn
        self.children: Dict[int, "_TableNode"] = {}
        self.leaf_entries: Dict[int, int] = {}

    def entry_address(self, index: int) -> int:
        return (self.ppn << PAGE_SHIFT) + index * ENTRY_BYTES


class PageTable:
    """The page table of one process.

    Parameters
    ----------
    pid:
        The owning process id (for statistics only).
    allocate_table_frame:
        Callback returning a fresh physical page number for a table node;
        the OS model places these in DRAM, as kernels do for hot metadata.
    allocate_data_frame:
        Callback returning a fresh physical page number for a data page on
        first touch.
    """

    def __init__(
        self,
        pid: int,
        allocate_table_frame: Callable[[], int],
        allocate_data_frame: Callable[[int], int],
    ):
        self.pid = pid
        self._allocate_table_frame = allocate_table_frame
        self._allocate_data_frame = allocate_data_frame
        self.root = _TableNode(ppn=allocate_table_frame())
        self._mapped_pages = 0
        # Flat vpn -> ppn shortcut over the radix tree.  Mappings are only
        # ever *added* (leaf entries are never removed or rewritten), so
        # the cache can never go stale; it turns the per-op ensure_mapped
        # call from a 4-level index walk into one lookup.
        self._vpn_cache: Dict[int, int] = {}
        # Per-VPN walk memo: the line numbers of the four entries a walk
        # reads, filled on a VPN's first walk.  Table nodes never move and
        # leaf entries are only added, so a VPN's tuple never changes.
        self._walk_lines: Dict[int, Tuple[int, int, int, int]] = {}

    @property
    def cr3_ppn(self) -> int:
        """Physical page of the PGD (what the CR3 register points at)."""
        return self.root.ppn

    @property
    def mapped_pages(self) -> int:
        return self._mapped_pages

    # -- mapping -------------------------------------------------------------
    # repro-hot
    def ensure_mapped(self, vpn: int) -> int:
        """Return the PPN for *vpn*, allocating path and frame on first touch."""
        ppn = self._vpn_cache.get(vpn)
        if ppn is not None:
            return ppn
        indices = _level_indices(vpn)
        node = self.root
        for level in range(WALK_LEVELS - 1):
            index = indices[level]
            child = node.children.get(index)
            if child is None:
                child = _TableNode(ppn=self._allocate_table_frame())
                node.children[index] = child
            node = child
        leaf_index = indices[WALK_LEVELS - 1]
        ppn = node.leaf_entries.get(leaf_index)
        if ppn is None:
            ppn = self._allocate_data_frame(vpn)
            node.leaf_entries[leaf_index] = ppn
            self._mapped_pages += 1
        self._vpn_cache[vpn] = ppn
        return ppn

    def translate(self, vpn: int) -> Optional[int]:
        """Return the PPN for *vpn*, or None if not mapped."""
        ppn = self._vpn_cache.get(vpn)
        if ppn is not None:
            return ppn
        indices = _level_indices(vpn)
        node = self.root
        for level in range(WALK_LEVELS - 1):
            node = node.children.get(indices[level])
            if node is None:
                return None
        ppn = node.leaf_entries.get(indices[WALK_LEVELS - 1])
        if ppn is not None:
            self._vpn_cache[vpn] = ppn
        return ppn

    # -- walk support ----------------------------------------------------------
    def entry_addresses(self, vpn: int) -> List[int]:
        """Physical byte addresses of the PGD/PUD/PMD/PTE entries for *vpn*.

        The VPN must already be mapped.  Index ``i`` of the result is the
        address the walker reads at level ``i`` (0 = PGD, 3 = PTE).
        """
        indices = _level_indices(vpn)
        addresses: List[int] = []
        node = self.root
        for level in range(WALK_LEVELS - 1):
            addresses.append(node.entry_address(indices[level]))
            node = node.children[indices[level]]
        addresses.append(node.entry_address(indices[WALK_LEVELS - 1]))
        return addresses

    def walk_lines(self, vpn: int) -> Tuple[int, int, int, int]:
        """Line numbers of the PGD/PUD/PMD/PTE entries for a mapped *vpn*.

        :meth:`entry_addresses` at line granularity, memoized per VPN —
        the walker reads the memo directly and calls this on a miss.
        """
        lines = self._walk_lines.get(vpn)
        if lines is None:
            pgd, pud, pmd, pte = self.entry_addresses(vpn)
            lines = (
                pgd >> LINE_SHIFT,
                pud >> LINE_SHIFT,
                pmd >> LINE_SHIFT,
                pte >> LINE_SHIFT,
            )
            self._walk_lines[vpn] = lines
        return lines

    def pte_entry_address(self, vpn: int) -> int:
        """Physical byte address of the leaf PTE entry for a mapped *vpn*."""
        return self.entry_addresses(vpn)[WALK_LEVELS - 1]

    def table_pages(self) -> List[int]:
        """Return the PPNs of every table node (for accounting/tests)."""
        pages: List[int] = []

        def visit(node: _TableNode) -> None:
            pages.append(node.ppn)
            for child in node.children.values():
                visit(child)

        visit(self.root)
        return pages

    def data_frames(self) -> List[int]:
        """Return the PPNs of every mapped data page (for the sanitizer)."""
        frames: List[int] = []

        def visit(node: _TableNode) -> None:
            frames.extend(node.leaf_entries.values())
            for child in node.children.values():
                visit(child)

        visit(self.root)
        return frames
