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

import math
from collections import OrderedDict
from typing import Dict, List, Optional

from repro.common.addr import CACHE_LINE_BYTES, PAGE_BYTES
from repro.common.config import SystemConfig
from repro.common.errors import FaultError
from repro.common.stats import StatsRegistry
from repro.sim.hmc_base import DEMAND, WRITEBACK, HmcBase, RequestKind
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


class _Pod:
    """Remap state of one pod: members <-> slots, plus its MEA."""

    def __init__(self, fast_slots: List[int], mea_counters: int):
        self.fast_slots = fast_slots
        self.mea = MajorityElementTracker(mea_counters)
        self.slot_of: Dict[int, int] = {}
        self.member_in: Dict[int, int] = {}
        self._next_fast = 0

    def slot(self, member: int) -> int:
        return self.slot_of.get(member, member)

    def occupant(self, slot: int) -> int:
        return self.member_in.get(slot, slot)

    def next_fast_slot(self) -> int:
        slot = self.fast_slots[self._next_fast % len(self.fast_slots)]
        self._next_fast += 1
        return slot

    def exchange(self, member: int, fast_slot: int) -> int:
        """Move *member* into *fast_slot*; returns the displaced occupant."""
        occupant = self.occupant(fast_slot)
        member_slot = self.slot(member)
        self.slot_of[member] = fast_slot
        self.member_in[fast_slot] = member
        self.slot_of[occupant] = member_slot
        self.member_in[member_slot] = occupant
        for key in (member, occupant):
            if self.slot_of.get(key) == key:
                del self.slot_of[key]
        for key in (fast_slot, member_slot):
            if self.member_in.get(key) == key:
                del self.member_in[key]
        return occupant


class MemPodHmc(HmcBase):
    """The MemPod memory controller."""

    scheme_name = "mempod"

    #: Cap on migrations per pod per interval (the MEA identifies at most
    #: its counter population; migrating all of them each interval is the
    #: original design).
    migrations_per_interval = 32

    def __init__(self, config: SystemConfig, os_model: OsModel, stats: StatsRegistry):
        super().__init__(config, os_model, stats)
        mp = config.mempod
        self.mp = mp
        self.lines_per_segment = mp.segment_bytes // CACHE_LINE_BYTES
        self.pages_per_segment = max(1, mp.segment_bytes // PAGE_BYTES)
        dram_bytes = config.memory.dram.capacity_bytes
        nvm_bytes = config.memory.nvm.capacity_bytes
        self.fast_segments = dram_bytes // mp.segment_bytes
        self.slow_segments = nvm_bytes // mp.segment_bytes
        self.total_segments = self.fast_segments + self.slow_segments

        pods = max(1, mp.pods)
        fast_per_pod = max(1, self.fast_segments // pods)
        self._pods: List[_Pod] = []
        for index in range(pods):
            first = index * fast_per_pod
            last = self.fast_segments if index == pods - 1 else first + fast_per_pod
            self._pods.append(_Pod(list(range(first, last)), mp.mea_counters))

        self._interval_start = 0
        self._active: Dict[int, int] = {}
        self._remap_cache: "OrderedDict[int, None]" = OrderedDict()
        self._remap_capacity = max(4, mp.remap_cache_entries)
        self.migrations = 0

        remap_bytes = self.total_segments * 4
        self.reserve_metadata(max(1, math.ceil(remap_bytes / PAGE_BYTES)))

        # Hot-path invariants for the flattened request path (the config
        # dataclasses are frozen, so these cannot drift).
        self._remap_latency = mp.remap_cache_latency_cycles
        self._interval = mp.interval_cycles

    # -- geometry -----------------------------------------------------------
    def pod_of(self, segment: int) -> _Pod:
        pods = len(self._pods)
        if segment < self.fast_segments:
            index = min(segment * pods // max(1, self.fast_segments), pods - 1)
        else:
            slow_index = segment - self.fast_segments
            index = min(slow_index * pods // max(1, self.slow_segments), pods - 1)
        return self._pods[index]

    def _segment_is_protected(self, segment: int) -> bool:
        first_page = (segment * self.mp.segment_bytes) // PAGE_BYTES
        return any(
            self.os_model.is_protected_frame(first_page + index)
            for index in range(self.pages_per_segment)
        )

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

        The per-request pipeline — interval check, remap-cache probe,
        purge, slot lookup, device access, serviced-request accounting —
        is inlined over the structures' own state, the same flattening
        the PageSeer controller's request path uses (the goldens pin the
        result); the migration-burst path escapes to _maybe_migrate.
        """
        interval = self._interval
        if interval > 0 and now - self._interval_start >= interval:
            self._maybe_migrate(now)
        stats = self.stats
        counters = stats._counters
        lines_per_segment = self.lines_per_segment
        fast_segments = self.fast_segments
        segment = line_spa // lines_per_segment
        pod = self.pod_of(segment)

        t = now + self._remap_latency
        remap_cache = self._remap_cache
        if segment in remap_cache:
            remap_cache.move_to_end(segment)
            counters["mempod/remap_hits"] += 1.0
        else:
            counters["mempod/remap_misses"] += 1.0
            fill_done = self.metadata_access(t, segment)
            if fill_done > t:
                counters["hmc/remap_wait_cycles"] += fill_done - t
                counters["hmc/remap_misses"] += 1.0
            t = fill_done
            self._remap_fill(segment)

        active = self._active
        if active:
            self._purge(t)
            in_flight_end = active.get(segment)
        else:
            in_flight_end = None
        slot = pod.slot_of.get(segment, segment)
        actual_line = slot * lines_per_segment + line_spa % lines_per_segment
        bulk = kind is WRITEBACK
        dram = slot < fast_segments
        if dram:
            finish = self.dram_access(t, actual_line, is_write, bulk)
        else:
            finish = self.nvm_access(
                t, actual_line - self._nvm_line_base, is_write, bulk
            )
        if in_flight_end is not None and in_flight_end > finish:
            finish = in_flight_end
            counters["mempod/waits_for_migration"] += 1.0

        self._total_serviced += 1
        if dram:
            self._dram_serviced += 1
            counters["hmc/serviced_dram"] += 1.0
        else:
            counters["hmc/serviced_nvm"] += 1.0
        if kind is DEMAND:
            counters["hmc/requests_demand"] += 1.0
        elif bulk:
            counters["hmc/requests_writeback"] += 1.0
        else:
            counters["hmc/requests_pte"] += 1.0
        if not bulk:
            # AMMAT covers processor-visible requests only.
            ammat = finish - now
            stats._sums["hmc/ammat"] += ammat
            stats._counts["hmc/ammat"] += 1
            previous = stats._maxima.get("hmc/ammat")
            if previous is None or ammat > previous:
                stats._maxima["hmc/ammat"] = ammat
        if line_spa >= self._nvm_line_base:
            if dram:
                counters["hmc/positive_accesses"] += 1.0
            else:
                counters["hmc/neutral_accesses"] += 1.0
        elif not dram:
            counters["hmc/negative_accesses"] += 1.0
        else:
            counters["hmc/neutral_accesses"] += 1.0

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
            self._swap_segments(now, pod, member, fast_slot)
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

    def _swap_segments(self, now: int, pod: _Pod, member: int, fast_slot: int) -> None:
        member_slot = pod.slot(member)
        # A fault mid-migration aborts cleanly: the pod's remap maps are
        # only exchanged after all four transfers landed.
        try:
            read_fast = self.memory.transfer_segment(
                now, fast_slot * self.lines_per_segment, self.lines_per_segment, False
            )
            read_slow = self.memory.transfer_segment(
                now, member_slot * self.lines_per_segment, self.lines_per_segment, False
            )
            ready = max(read_fast, read_slow)
            write_fast = self.memory.transfer_segment(
                ready, fast_slot * self.lines_per_segment, self.lines_per_segment, True
            )
            write_slow = self.memory.transfer_segment(
                ready, member_slot * self.lines_per_segment, self.lines_per_segment, True
            )
        except FaultError:
            self.stats.add("mempod/aborted_migrations")
            return
        end = max(write_fast, write_slow)

        occupant = pod.exchange(member, fast_slot)
        self._active[member] = end
        self._active[occupant] = end
        self.migrations += 1
        self.stats.add("mempod/migrations")
        self.stats.observe("mempod/migration_duration", end - now)

    def _purge(self, now: int) -> None:
        finished = [seg for seg, end in self._active.items() if end <= now]
        for seg in finished:
            del self._active[seg]

    # -- remap cache -----------------------------------------------------------------
    def _remap_lookup(self, segment: int) -> bool:
        if segment in self._remap_cache:
            self._remap_cache.move_to_end(segment)
            self.stats.add("mempod/remap_hits")
            return True
        self.stats.add("mempod/remap_misses")
        return False

    def _remap_fill(self, segment: int) -> None:
        if segment not in self._remap_cache and len(self._remap_cache) >= self._remap_capacity:
            self._remap_cache.popitem(last=False)
        self._remap_cache[segment] = None
        self._remap_cache.move_to_end(segment)
