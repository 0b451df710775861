"""The three-level cache hierarchy of Table I.

Private L1 and L2 per core, one shared L3.  Page-table entries are
cacheable in L2 and L3 but not in L1, matching Section II-C of the paper
("the data in these entries can be stored in the caches (except in L1)").

The hierarchy is mostly-inclusive and write-back: fills install the line at
every eligible level, dirty victims bubble up as write-back traffic that the
caller must send to memory.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.common.config import SystemConfig
from repro.common.stats import StatsRegistry
from repro.cache.cache import SetAssociativeCache, SoaCache


class HierarchyOutcome:
    """Result of one hierarchy access.

    ``hit_level`` is ``"l1"``, ``"l2"``, ``"l3"`` or ``None`` (LLC miss).
    ``latency_cycles`` covers every lookup performed on the way to the hit
    (or to the decision to go to memory).  ``writebacks`` lists dirty victim
    lines the caller must write to main memory.

    A ``__slots__`` class (one is built per access on the hot path).
    """

    __slots__ = ("hit_level", "latency_cycles", "writebacks")

    def __init__(
        self,
        hit_level: Optional[str],
        latency_cycles: int,
        writebacks: Optional[List[int]] = None,
    ):
        self.hit_level = hit_level
        self.latency_cycles = latency_cycles
        self.writebacks = writebacks if writebacks is not None else []

    @property
    def llc_miss(self) -> bool:
        return self.hit_level is None

    def __repr__(self) -> str:
        return (
            f"HierarchyOutcome(hit_level={self.hit_level!r}, "
            f"latency_cycles={self.latency_cycles}, "
            f"writebacks={self.writebacks})"
        )


class CacheHierarchy:
    """L1/L2 per core plus a shared L3."""

    def __init__(self, config: SystemConfig, stats: StatsRegistry):
        self.config = config
        self.stats = stats
        # L1/L2 are struct-of-arrays: the batched engine's drain loop
        # reads their way dicts and age/dirty arrays directly.  The L3 is
        # only reached on shared ops (the engine's miss turns and the
        # walker's page-table lines), where the OrderedDict reference
        # model's C-speed operations win.
        self.l1: List[SoaCache] = [
            SoaCache(config.l1) for _ in range(config.cores)
        ]
        self.l2: List[SoaCache] = [
            SoaCache(config.l2) for _ in range(config.cores)
        ]
        self.l3 = SetAssociativeCache(config.l3)
        # Hot-path invariants: per-level lookup latencies.
        self._l1_latency = config.l1.latency_cycles
        self._l2_latency = config.l2.latency_cycles
        self._l3_latency = config.l3.latency_cycles

    # repro-hot
    def access(
        self,
        core_id: int,
        line_number: int,
        is_write: bool,
        cacheable_l1: bool = True,
    ) -> HierarchyOutcome:
        """Look up the line; on a miss, install it at every eligible level.

        Returns the hit level (or None for an LLC miss — the caller must
        then fetch the line from main memory) plus the aggregate lookup
        latency and any dirty write-backs generated by fills.

        The fills run inline over the levels' own state, in the order
        L3, L2, L1: every level being filled was just probed and missed,
        so no fill needs the hit check that :meth:`SoaCache.fill` and
        :meth:`SetAssociativeCache.fill` start with, and a dirty victim
        appends its line number to the write-backs directly.

        An access that bypasses L1 (``cacheable_l1=False``: the walker's
        page-table lines) is a read; a write raises ``ValueError``
        before touching any level.
        """
        if is_write and not cacheable_l1:
            raise ValueError("an access that bypasses L1 must be a read")
        counters = self.stats._counters
        latency = 0
        l1 = self.l1[core_id]
        if cacheable_l1:
            latency += self._l1_latency
            if l1.lookup(line_number, is_write):
                counters["cache/l1_hits"] += 1.0
                return HierarchyOutcome("l1", latency)

        latency += self._l2_latency
        writebacks: List[int] = []
        l2 = self.l2[core_id]
        if l2.lookup(line_number, is_write):
            counters["cache/l2_hits"] += 1.0
            hit_level: Optional[str] = "l2"
            fills: Tuple[Tuple[SoaCache, bool], ...] = (
                ((l1, is_write),) if cacheable_l1 else ()
            )
        else:
            latency += self._l3_latency
            l3 = self.l3
            if l3.lookup(line_number, is_write):
                counters["cache/l3_hits"] += 1.0
                hit_level = "l3"
            else:
                counters["cache/llc_misses"] += 1.0
                hit_level = None
                num_sets = l3.num_sets
                set_index = line_number % num_sets
                entries = l3._sets[set_index]
                if len(entries) >= l3.ways:
                    victim_tag, victim_dirty = entries.popitem(last=False)
                    if victim_dirty:
                        writebacks.append(victim_tag * num_sets + set_index)
                entries[line_number // num_sets] = False
            fills = ((l2, False), (l1, is_write)) if cacheable_l1 else ((l2, False),)

        for cache, dirty in fills:
            num_sets = cache.num_sets
            set_index = line_number % num_sets
            ways = cache._way_of[set_index]
            tags = cache._tags[set_index]
            dirty_bits = cache._dirty[set_index]
            ages = cache._ages[set_index]
            if len(ways) >= cache.ways:
                way = ages.index(min(ages))
                victim_tag = tags[way]
                if dirty_bits[way]:
                    writebacks.append(victim_tag * num_sets + set_index)
                del ways[victim_tag]
            else:
                way = tags.index(-1)
            tag = line_number // num_sets
            ways[tag] = way
            tags[way] = tag
            dirty_bits[way] = dirty
            age = cache._age
            ages[way] = age[0]
            age[0] += 1
        return HierarchyOutcome(hit_level, latency, writebacks)
