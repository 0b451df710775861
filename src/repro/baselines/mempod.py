"""MemPod: clustered, interval-based migration (Section II-B, IV-B).

MemPod partitions both memories into *pods*; within a pod any slow segment
may occupy any fast slot (fully flexible remapping, at metadata cost —
the paper grants MemPod a zero-latency inverted map, and so do we).  Each
pod runs the Majority Element Algorithm (MEA, a.k.a. Space-Saving) with 64
counters over the slow segments accessed during the current 50 us
interval; when the interval expires, the identified segments are migrated
into fast slots *all at once*, which is the swap-burst behaviour the paper
criticises.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional

from repro.baselines.remap import SegmentHmc, SlotMap
from repro.common.addr import LINES_PER_PAGE
from repro.common.config import SystemConfig
from repro.common.errors import FaultError
from repro.common.stats import StatsRegistry
from repro.sim.hmc_base import DEMAND, WRITEBACK, RequestKind
from repro.vm.os_model import OsModel


class MajorityElementTracker:
    """The MEA / Space-Saving heavy-hitter sketch (Karp et al. 2003)."""

    def __init__(self, counters: int):
        if counters < 1:
            raise ValueError("MEA needs at least one counter")
        self.capacity = counters
        self._counts: Dict[int, int] = {}

    def observe(self, key: int) -> None:
        """Count one occurrence of *key*."""
        if key in self._counts:
            self._counts[key] += 1
            return
        if len(self._counts) < self.capacity:
            self._counts[key] = 1
            return
        # Replace the minimum element, inheriting its count (Space-Saving).
        min_key = min(self._counts, key=self._counts.get)
        min_count = self._counts.pop(min_key)
        self._counts[key] = min_count + 1

    def heavy_elements(self, minimum_count: int = 2) -> List[int]:
        """Keys with count >= minimum, hottest first."""
        return sorted(
            (k for k, c in self._counts.items() if c >= minimum_count),
            key=lambda k: -self._counts[k],
        )

    def count_of(self, key: int) -> int:
        return self._counts.get(key, 0)

    def reset(self) -> None:
        self._counts.clear()

    @property
    def occupancy(self) -> int:
        return len(self._counts)


class _Pod(SlotMap):
    """One pod: its members' remap state (a :class:`SlotMap`), its fast
    slots, and its MEA."""

    def __init__(self, fast_slots: List[int], mea_counters: int):
        super().__init__()
        self.fast_slots = fast_slots
        self.mea = MajorityElementTracker(mea_counters)
        self._next_fast = 0

    def next_fast_slot(self) -> int:
        slot = self.fast_slots[self._next_fast % len(self.fast_slots)]
        self._next_fast += 1
        return slot


class MemPodHmc(SegmentHmc):
    """The MemPod memory controller."""

    scheme_name = "mempod"

    #: Cap on migrations per pod per interval (the MEA identifies at most
    #: its counter population; migrating all of them each interval is the
    #: original design).
    migrations_per_interval = 32

    def __init__(self, config: SystemConfig, os_model: OsModel, stats: StatsRegistry):
        mp = config.mempod
        super().__init__(config, os_model, stats, mp.segment_bytes)
        self.mp = mp

        pods = max(1, mp.pods)
        #: Fast segments per pod: pod i owns the fast slots from
        #: ``i * _fast_per_pod``, and the last pod takes the remainder.
        self._fast_per_pod = fast_per_pod = max(1, self.fast_segments // pods)
        self._pods: List[_Pod] = []
        for index in range(pods):
            first = index * fast_per_pod
            last = self.fast_segments if index == pods - 1 else first + fast_per_pod
            self._pods.append(_Pod(list(range(first, last)), mp.mea_counters))

        self._interval_start = 0
        self._remap_cache: "OrderedDict[int, None]" = OrderedDict()
        self._remap_capacity = max(4, mp.remap_cache_entries)
        self.migrations = 0

        # Hot-path invariants for the flattened request path (the config
        # dataclasses are frozen, so these cannot drift).
        self._remap_latency = mp.remap_cache_latency_cycles
        self._interval = mp.interval_cycles

    # -- geometry -----------------------------------------------------------
    def pod_of(self, segment: int) -> _Pod:
        pods = len(self._pods)
        if segment < self.fast_segments:
            index = min(segment // self._fast_per_pod, pods - 1)
        else:
            slow_index = segment - self.fast_segments
            index = min(slow_index * pods // max(1, self.slow_segments), pods - 1)
        return self._pods[index]

    # -- the request path -------------------------------------------------------
    # repro-hot
    def handle_request(
        self,
        now: int,
        line_spa: int,
        is_write: bool,
        pid: int,
        kind: RequestKind = DEMAND,
    ) -> int:
        """Service one LLC-miss line request; returns the finish time.

        Interval check (an expired interval escapes to
        :meth:`_maybe_migrate`), remap-cache probe (a miss fetches the
        entry through :meth:`remap_miss`), purge, slot lookup, device
        access, then :meth:`account_service`; a slow access feeds the
        pod's MEA.
        """
        interval = self._interval
        if interval > 0 and now - self._interval_start >= interval:
            self._maybe_migrate(now)
        lines_per_segment = self.lines_per_segment
        segment = line_spa // lines_per_segment
        pod = self.pod_of(segment)

        t = now + self._remap_latency
        remap_cache = self._remap_cache
        if segment in remap_cache:
            remap_cache.move_to_end(segment)
            self.stats._counters["mempod/remap_hits"] += 1.0
        else:
            self.stats._counters["mempod/remap_misses"] += 1.0
            t = self.remap_miss(t, segment)
            if len(remap_cache) >= self._remap_capacity:
                remap_cache.popitem(last=False)
            remap_cache[segment] = None

        active = self._active
        if active:
            self._purge(t)
            in_flight_end = active.get(segment)
        else:
            in_flight_end = None
        slot = pod.slot(segment)
        actual_line = slot * lines_per_segment + line_spa % lines_per_segment
        bulk = kind is WRITEBACK
        dram = slot < self.fast_segments
        if dram:
            finish = self.dram_access(t, actual_line, is_write, bulk)
        else:
            finish = self.nvm_access(
                t, actual_line - self._nvm_line_base, is_write, bulk
            )
        if in_flight_end is not None and in_flight_end > finish:
            finish = in_flight_end
            self.stats._counters["mempod/waits_for_migration"] += 1.0
        self.account_service(
            now, finish, line_spa // LINES_PER_PAGE, "dram" if dram else "nvm", kind
        )
        if not dram:
            pod.mea.observe(segment)
        return finish

    # -- interval migrations ------------------------------------------------------
    def _maybe_migrate(self, now: int) -> None:
        interval = self.mp.interval_cycles
        if interval <= 0 or now - self._interval_start < interval:
            return
        while now - self._interval_start >= interval:
            self._interval_start += interval
        burst_time = self._interval_start
        for pod in self._pods:
            self._migrate_pod(burst_time, pod)
            pod.mea.reset()

    def _migrate_pod(self, now: int, pod: _Pod) -> None:
        migrated = 0
        for member in pod.mea.heavy_elements():
            if migrated >= self.migrations_per_interval:
                break
            if pod.slot(member) < self.fast_segments:
                continue  # already fast
            fast_slot = self._pick_fast_slot(pod)
            if fast_slot is None:
                break
            self._migrate(now, pod, member, fast_slot)
            migrated += 1

    def _pick_fast_slot(self, pod: _Pod) -> Optional[int]:
        for _ in range(len(pod.fast_slots)):
            slot = pod.next_fast_slot()
            if self._segment_is_protected(slot):
                continue
            if slot in self._active or pod.occupant(slot) in self._active:
                continue
            return slot
        return None

    def _migrate(self, now: int, pod: _Pod, member: int, fast_slot: int) -> None:
        # A fault mid-migration aborts cleanly: the pod's remap maps are
        # only exchanged after all four transfers landed.
        try:
            end = self._swap_segments(now, fast_slot, pod.slot(member))
        except FaultError:
            self.stats.add("mempod/aborted_migrations")
            return
        occupant = pod.exchange(member, fast_slot)
        self._active[member] = end
        self._active[occupant] = end
        self.migrations += 1
        self.stats.add("mempod/migrations")
        self.stats.observe("mempod/migration_duration", end - now)
