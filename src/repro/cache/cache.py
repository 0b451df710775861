"""A single set-associative, write-back, LRU cache level.

:class:`SetAssociativeCache` keeps one ``OrderedDict`` per set, mapping
tag to dirty bit in LRU-first order: a touch is ``move_to_end``, the
victim is ``popitem(last=False)``.  Every level of the hierarchy (the
private L1 and L2 and the shared L3) runs this model, and the engine's
inline paths perform the same dict operations on ``_sets`` directly
(docs/PERFORMANCE.md, "Cache and TLB models").
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional

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
    """One cache level: ``OrderedDict`` per set, LRU-first order.

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

    # repro-hot
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
