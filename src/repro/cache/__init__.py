"""Set-associative cache substrate: L1/L2 private, L3 shared (Table I).

Caches are simulated functionally (real sets, ways, LRU state, dirty bits)
so the LLC miss stream that drives every hybrid-memory policy has realistic
spatial and temporal structure.  Caches are indexed by the OS-visible
*system physical address*; page remapping happens below them, inside the
memory controller, exactly as in the paper (the OS — and hence the cache
tags — are oblivious to swaps).
"""

from repro.cache.cache import EvictedLine, SetAssociativeCache
from repro.cache.hierarchy import CacheHierarchy, HierarchyOutcome

__all__ = [
    "EvictedLine",
    "SetAssociativeCache",
    "CacheHierarchy",
    "HierarchyOutcome",
]
