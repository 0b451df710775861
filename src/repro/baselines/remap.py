"""The remapping skeleton PoM, MemPod and CAMEO share.

All three baselines migrate data behind a remap table: a member (a
segment, or a line for CAMEO) lives in some slot of the same granularity,
and a swap exchanges the data of two slots.  This module holds the two
parts they have in common, so each scheme keeps only its policy — what
triggers a swap, and where data may go:

* :class:`SlotMap` — which member's data occupies which slot;
* :class:`SegmentHmc` — the segment geometry, the in-DRAM remap table,
  the in-flight swap set and the four-transfer segment swap of PoM and
  MemPod.

The remap-cache fetch itself (Figure 13's waiting time) and the
serviced-request accounting live in :class:`repro.sim.hmc_base.HmcBase`.
"""

from __future__ import annotations

import math
from typing import Dict

from repro.common.addr import CACHE_LINE_BYTES, PAGE_BYTES
from repro.common.config import SystemConfig
from repro.common.stats import StatsRegistry
from repro.sim.hmc_base import HmcBase
from repro.vm.os_model import OsModel


class SlotMap:
    """Member <-> slot remap state, identity entries elided.

    Members and slots share one number space: a member's home is the
    slot with its own number, and a member at home has no entry.
    """

    def __init__(self) -> None:
        #: member -> slot its data occupies (absent: its home slot).
        self._slot_of: Dict[int, int] = {}
        #: slot -> member whose data it holds (absent: the slot's own member).
        self._member_in: Dict[int, int] = {}

    def slot(self, member: int) -> int:
        """The slot *member*'s data occupies."""
        return self._slot_of.get(member, member)

    def occupant(self, slot: int) -> int:
        """The member whose data *slot* holds."""
        return self._member_in.get(slot, slot)

    def exchange(self, member: int, fast_slot: int) -> int:
        """Move *member* into *fast_slot*; returns the displaced occupant.

        The occupant takes the slot *member* left.  Entries that return to
        identity are dropped, so the maps hold only displaced members.
        """
        slot_of = self._slot_of
        member_in = self._member_in
        occupant = member_in.get(fast_slot, fast_slot)
        member_slot = slot_of.get(member, member)
        slot_of[member] = fast_slot
        member_in[fast_slot] = member
        slot_of[occupant] = member_slot
        member_in[member_slot] = occupant
        for key in (member, occupant):
            if slot_of.get(key) == key:
                del slot_of[key]
        for key in (fast_slot, member_slot):
            if member_in.get(key) == key:
                del member_in[key]
        return occupant


class SegmentHmc(HmcBase):
    """A controller that swaps fixed-size segments (PoM, MemPod).

    Owns the segment geometry, the remap table's reservation in DRAM
    (4 B per segment), the segments of in-flight swaps, and the swap
    itself.  Requests to a segment mid-swap wait for the swap to finish:
    neither scheme has swap buffers.
    """

    def __init__(
        self,
        config: SystemConfig,
        os_model: OsModel,
        stats: StatsRegistry,
        segment_bytes: int,
    ):
        super().__init__(config, os_model, stats)
        self.segment_bytes = segment_bytes
        self.lines_per_segment = segment_bytes // CACHE_LINE_BYTES
        self.pages_per_segment = max(1, segment_bytes // PAGE_BYTES)
        self.fast_segments = config.memory.dram.capacity_bytes // segment_bytes
        self.slow_segments = config.memory.nvm.capacity_bytes // segment_bytes
        self.total_segments = self.fast_segments + self.slow_segments
        #: segments participating in an in-flight swap -> completion time.
        self._active: Dict[int, int] = {}
        remap_bytes = self.total_segments * 4
        self.reserve_metadata(max(1, math.ceil(remap_bytes / PAGE_BYTES)))

    def _segment_is_protected(self, segment: int) -> bool:
        first_page = (segment * self.segment_bytes) // PAGE_BYTES
        return any(
            self.os_model.is_protected_frame(first_page + index)
            for index in range(self.pages_per_segment)
        )

    def _purge(self, now: int) -> None:
        """Forget the in-flight swaps that ended by *now*."""
        finished = [seg for seg, end in self._active.items() if end <= now]
        for seg in finished:
            del self._active[seg]

    def _swap_segments(self, now: int, fast_slot: int, other_slot: int) -> int:
        """Exchange two slots' data: two reads, then two writes.

        Returns when the last write lands.  A ``FaultError`` from any
        transfer propagates before the caller touches remap state, so an
        injected fault aborts the swap with nothing to roll back.
        """
        lines = self.lines_per_segment
        transfer = self.memory.transfer_segment
        read_fast = transfer(now, fast_slot * lines, lines, False)
        read_slow = transfer(now, other_slot * lines, lines, False)
        ready = max(read_fast, read_slow)
        write_fast = transfer(ready, fast_slot * lines, lines, True)
        write_slow = transfer(ready, other_slot * lines, lines, True)
        return max(write_fast, write_slow)
