"""Set-associative TLBs (Table I: 64-entry L1, 1024-entry L2).

Two implementations of the same contract live here, each running the
level whose access mix it wins (docs/PERFORMANCE.md, "Cache and TLB
models", measures both):

* :class:`Tlb` — the ``OrderedDict``-per-set model.  LRU order *is* the
  dict order (``move_to_end`` on every touch).  It runs the L2 TLB,
  reached only on L1 misses.
* :class:`SoaTlb` — the struct-of-arrays model of the L1 TLB, touched on
  every op.  Per set: a ``(pid, vpn) -> way`` index dict plus parallel
  per-way lists (key, PPN, last-touch age).  LRU is an age list under a
  strictly increasing counter, so the least-recent way is
  ``argmin(age)`` — with no ties possible, this reproduces the
  ``OrderedDict`` victim choice exactly
  (``tests/property/test_soa_models.py``).  The batched engine reads the
  way index and age lists directly in its chunk kernel; the shared age
  cell keeps engine-side and method-side touches on one counter.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from repro.common.config import TlbConfig

_Key = Tuple[int, int]


class Tlb:
    """Reference TLB model: ``OrderedDict`` per set, LRU-first order."""

    def __init__(self, config: TlbConfig):
        self.config = config
        self.num_sets = config.num_sets
        self.ways = config.ways
        self._sets: List["OrderedDict[_Key, int]"] = [
            OrderedDict() for _ in range(self.num_sets)
        ]

    def _set_index(self, vpn: int) -> int:
        return vpn % self.num_sets

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


class SoaTlb:
    """Struct-of-arrays TLB level (see module docstring).

    Behaviourally identical to :class:`Tlb`: same hits, same PPNs, same
    victim choices, same occupancy — only the layout differs.  State is
    plain dicts/lists/ints, so instances pickle inside checkpoints.
    """

    __slots__ = (
        "config", "num_sets", "ways",
        "_way_of", "_keys", "_ppns", "_ages", "_age",
    )

    def __init__(self, config: TlbConfig):
        self.config = config
        num_sets = config.num_sets
        ways = config.ways
        self.num_sets = num_sets
        self.ways = ways
        #: Per set: key -> way index (membership + placement in O(1)).
        self._way_of: List[Dict[_Key, int]] = [dict() for _ in range(num_sets)]
        #: Tag matrix: the key held by each way (None = empty way).
        self._keys: List[List[Optional[_Key]]] = [
            [None] * ways for _ in range(num_sets)
        ]
        #: Payload array: the PPN per way.
        self._ppns: List[List[int]] = [[0] * ways for _ in range(num_sets)]
        #: LRU age array: last-touch stamp per way.
        self._ages: List[List[int]] = [[0] * ways for _ in range(num_sets)]
        #: The strictly increasing touch counter, in a one-element cell so
        #: the engine's hoisted kernel and these methods share it without
        #: a flush protocol.
        self._age = [1]

    def _set_index(self, vpn: int) -> int:
        return vpn % self.num_sets

    # repro-hot
    def lookup(self, pid: int, vpn: int) -> Optional[int]:
        """Return the cached PPN for (pid, vpn), updating LRU; None on miss."""
        set_index = vpn % self.num_sets
        way = self._way_of[set_index].get((pid, vpn))
        if way is None:
            return None
        age = self._age
        self._ages[set_index][way] = age[0]
        age[0] += 1
        return self._ppns[set_index][way]

    # repro-hot
    def fill(self, pid: int, vpn: int, ppn: int) -> Optional[_Key]:
        """Install a translation; returns the evicted (pid, vpn), if any."""
        set_index = vpn % self.num_sets
        ways = self._way_of[set_index]
        key = (pid, vpn)
        ages = self._ages[set_index]
        age = self._age
        way = ways.get(key)
        if way is not None:
            self._ppns[set_index][way] = ppn
            ages[way] = age[0]
            age[0] += 1
            return None
        keys = self._keys[set_index]
        victim: Optional[_Key] = None
        if len(ways) >= self.ways:
            # Ages are unique (strictly increasing counter), so the LRU
            # way is index-of-min — two C passes over a small int list.
            way = ages.index(min(ages))
            victim = keys[way]
            del ways[victim]
        else:
            way = keys.index(None)
        ways[key] = way
        keys[way] = key
        self._ppns[set_index][way] = ppn
        ages[way] = age[0]
        age[0] += 1
        return victim

    @property
    def occupancy(self) -> int:
        return sum(len(ways) for ways in self._way_of)
