"""Set-associative TLBs (Table I: 64-entry L1, 1024-entry L2).

:class:`Tlb` keeps one ``OrderedDict`` per set, mapping ``(pid, vpn)``
to PPN in LRU-first order: a touch is ``move_to_end``, the victim is
``popitem(last=False)``.  Both TLB levels run this model, and the
engine's inline paths perform the same dict operations on ``_sets``
directly (docs/PERFORMANCE.md, "Cache and TLB models").
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional, Tuple

from repro.common.config import TlbConfig

_Key = Tuple[int, int]


class Tlb:
    """One TLB level: ``OrderedDict`` per set, LRU-first order."""

    def __init__(self, config: TlbConfig):
        self.config = config
        self.num_sets = config.num_sets
        self.ways = config.ways
        self._sets: List["OrderedDict[_Key, int]"] = [
            OrderedDict() for _ in range(self.num_sets)
        ]

    def _set_index(self, vpn: int) -> int:
        return vpn % self.num_sets

    # repro-hot
    def lookup(self, pid: int, vpn: int) -> Optional[int]:
        """Return the cached PPN for (pid, vpn), updating LRU; None on miss."""
        entries = self._sets[self._set_index(vpn)]
        key = (pid, vpn)
        ppn = entries.get(key)
        if ppn is not None:
            entries.move_to_end(key)
        return ppn

    def fill(self, pid: int, vpn: int, ppn: int) -> Optional[_Key]:
        """Install a translation; returns the evicted (pid, vpn), if any."""
        entries = self._sets[self._set_index(vpn)]
        key = (pid, vpn)
        victim: Optional[_Key] = None
        if key not in entries and len(entries) >= self.ways:
            victim, _ = entries.popitem(last=False)
        entries[key] = ppn
        entries.move_to_end(key)
        return victim

    @property
    def occupancy(self) -> int:
        return sum(len(entries) for entries in self._sets)
