"""A single set-associative, write-back, LRU cache level.

Two implementations of the same contract (docs/PERFORMANCE.md, "Cache
and TLB models", measures both):

* :class:`SetAssociativeCache` — the ``OrderedDict``-per-set model (LRU
  order is the dict order).  It runs the shared L3, whose accesses are
  almost all misses, where C-speed ``popitem`` and inserts win.
* :class:`SoaCache` — the struct-of-arrays model of the private L1/L2,
  which wins the hit path the engine batches.  Per set: a ``tag -> way``
  index dict plus parallel per-way lists (tag, dirty bit, last-touch
  age).  The LRU victim is ``argmin(age)`` under a strictly increasing
  touch counter — no ties, so the victim is exactly the
  ``OrderedDict``'s LRU-first ``popitem``.  The batched engine's chunk
  kernel reads the way dicts and age/dirty lists directly; the shared
  one-element age cell keeps engine-side and method-side touches on a
  single counter with no flush protocol.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional

from repro.common.config import CacheConfig


class EvictedLine:
    """A line pushed out of a cache level by a fill (``__slots__`` class)."""

    __slots__ = ("line_number", "dirty")

    def __init__(self, line_number: int, dirty: bool):
        self.line_number = line_number
        self.dirty = dirty

    def __repr__(self) -> str:
        return f"EvictedLine(line_number={self.line_number}, dirty={self.dirty})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EvictedLine):
            return NotImplemented
        return self.line_number == other.line_number and self.dirty == other.dirty

    def __hash__(self) -> int:
        return hash((self.line_number, self.dirty))


class SetAssociativeCache:
    """Reference cache model: ``OrderedDict`` per set, LRU-first order.

    Addresses are *line numbers* (byte address >> 6).  The cache stores no
    data — the simulator only needs hit/miss behaviour and write-back
    traffic.
    """

    def __init__(self, config: CacheConfig):
        self.config = config
        self.num_sets = config.num_sets
        self.ways = config.ways
        # Each set maps tag -> dirty flag, ordered LRU-first.
        self._sets: List["OrderedDict[int, bool]"] = [
            OrderedDict() for _ in range(self.num_sets)
        ]

    def _locate(self, line_number: int) -> tuple:
        return line_number % self.num_sets, line_number // self.num_sets

    def lookup(self, line_number: int, is_write: bool = False) -> bool:
        """Probe the cache; on a hit, update LRU (and dirty on writes)."""
        num_sets = self.num_sets
        entries = self._sets[line_number % num_sets]
        tag = line_number // num_sets
        if tag not in entries:
            return False
        entries.move_to_end(tag)
        if is_write:
            entries[tag] = True
        return True

    def contains(self, line_number: int) -> bool:
        """Probe without disturbing LRU or dirty state."""
        set_index, tag = self._locate(line_number)
        return tag in self._sets[set_index]

    def fill(self, line_number: int, dirty: bool = False) -> Optional[EvictedLine]:
        """Install a line, returning the victim (if any) for write-back."""
        num_sets = self.num_sets
        set_index = line_number % num_sets
        tag = line_number // num_sets
        entries = self._sets[set_index]
        if tag in entries:
            entries.move_to_end(tag)
            if dirty:
                entries[tag] = True
            return None
        victim: Optional[EvictedLine] = None
        if len(entries) >= self.ways:
            victim_tag, victim_dirty = entries.popitem(last=False)
            victim_line = victim_tag * self.num_sets + set_index
            victim = EvictedLine(victim_line, victim_dirty)
        entries[tag] = dirty
        return victim

    @property
    def occupancy(self) -> int:
        return sum(len(entries) for entries in self._sets)

    def resident_lines(self) -> List[int]:
        """Return every line currently cached (for tests)."""
        lines = []
        for set_index, entries in enumerate(self._sets):
            for tag in entries:
                lines.append(tag * self.num_sets + set_index)
        return lines


class SoaCache:
    """Struct-of-arrays cache level (see module docstring).

    Behaviourally identical to :class:`SetAssociativeCache`: same hits,
    same victims (line number *and* dirty bit), same occupancy — only the
    layout differs.  State is plain dicts/lists/ints, so instances pickle
    inside checkpoints.
    """

    __slots__ = (
        "config", "num_sets", "ways",
        "_way_of", "_tags", "_dirty", "_ages", "_age",
    )

    #: Empty-way tag marker (real tags are non-negative line numbers).
    _EMPTY = -1

    def __init__(self, config: CacheConfig):
        self.config = config
        num_sets = config.num_sets
        ways = config.ways
        self.num_sets = num_sets
        self.ways = ways
        #: Per set: tag -> way index (membership + placement in O(1)).
        self._way_of: List[Dict[int, int]] = [dict() for _ in range(num_sets)]
        #: Tag matrix: the tag held by each way (-1 = empty way).
        self._tags: List[List[int]] = [
            [self._EMPTY] * ways for _ in range(num_sets)
        ]
        #: Dirty-bit matrix.
        self._dirty: List[List[bool]] = [[False] * ways for _ in range(num_sets)]
        #: LRU age matrix: last-touch stamp per way.
        self._ages: List[List[int]] = [[0] * ways for _ in range(num_sets)]
        #: The strictly increasing touch counter, shared with the batched
        #: engine's hoisted kernel (one-element cell, mutated in place).
        self._age = [1]

    def _locate(self, line_number: int) -> tuple:
        return line_number % self.num_sets, line_number // self.num_sets

    # repro-hot
    def lookup(self, line_number: int, is_write: bool = False) -> bool:
        """Probe the cache; on a hit, update LRU (and dirty on writes)."""
        num_sets = self.num_sets
        set_index = line_number % num_sets
        way = self._way_of[set_index].get(line_number // num_sets)
        if way is None:
            return False
        age = self._age
        self._ages[set_index][way] = age[0]
        age[0] += 1
        if is_write:
            self._dirty[set_index][way] = True
        return True

    def contains(self, line_number: int) -> bool:
        """Probe without disturbing LRU or dirty state."""
        set_index = line_number % self.num_sets
        return line_number // self.num_sets in self._way_of[set_index]

    # repro-hot
    def fill(self, line_number: int, dirty: bool = False) -> Optional[EvictedLine]:
        """Install a line, returning the victim (if any) for write-back."""
        num_sets = self.num_sets
        set_index = line_number % num_sets
        tag = line_number // num_sets
        ways = self._way_of[set_index]
        ages = self._ages[set_index]
        age = self._age
        way = ways.get(tag)
        if way is not None:
            ages[way] = age[0]
            age[0] += 1
            if dirty:
                self._dirty[set_index][way] = True
            return None
        tags = self._tags[set_index]
        dirty_bits = self._dirty[set_index]
        victim: Optional[EvictedLine] = None
        if len(ways) >= self.ways:
            # Ages are unique (strictly increasing counter), so the LRU
            # way is index-of-min — two C passes over a small int list.
            way = ages.index(min(ages))
            victim_tag = tags[way]
            victim = EvictedLine(victim_tag * num_sets + set_index, dirty_bits[way])
            del ways[victim_tag]
        else:
            way = tags.index(self._EMPTY)
        ways[tag] = way
        tags[way] = tag
        dirty_bits[way] = dirty
        ages[way] = age[0]
        age[0] += 1
        return victim

    @property
    def occupancy(self) -> int:
        return sum(len(ways) for ways in self._way_of)

    def resident_lines(self) -> List[int]:
        """Return every line currently cached, LRU-first per set (for tests)."""
        lines = []
        num_sets = self.num_sets
        for set_index, ways in enumerate(self._way_of):
            ages = self._ages[set_index]
            for tag in sorted(ways, key=lambda t: ages[ways[t]]):
                lines.append(tag * num_sets + set_index)
        return lines
