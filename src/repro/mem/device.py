"""A single memory technology (DRAM or NVM) with banks, rows, and channels.

The device accepts line-granularity accesses and returns when they start
and finish, accounting for:

* row-buffer state per bank (hit / closed-row miss / conflict),
* bank busy time (a bank serves one access at a time; writes add t_WR),
* channel data-bus occupancy (one 64 B burst per access),
* queueing when banks or buses are oversubscribed,
* two priority classes: *demand* requests (processor-visible) and *bulk*
  transfers (page swaps, write-backs).  Real controllers schedule demand
  first; we model that by letting a demand access preempt queued bulk work
  after at most one in-flight line, while bulk yields to everything.

Address mapping interleaves consecutive lines across channels (maximising
channel parallelism for streams) and consecutive rows across banks, a
standard open-page mapping.

Bank and bus state is held struct-of-arrays: parallel lists indexed by
global bank / channel number (demand-busy-until, any-busy-until,
total-busy, open row, row-written).  One access touches five of those
slots; with per-bank objects the same work cost a method call plus five
attribute dereferences per resource, which dominated the access path
(see docs/PERFORMANCE.md).  :meth:`access_finish` is the demand hot path
— the same schedule as :meth:`access` without materialising an
:class:`AccessResult`; the two are pinned equal by
tests/unit/test_device.py's differential check.  Both hot paths,
:meth:`access_finish` and :meth:`transfer_page`, grant banks and buses
inline; :meth:`access` keeps the grants in :meth:`_reserve_bank` and
:meth:`_reserve_bus`, the reference form.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.common.addr import CACHE_LINE_BYTES
from repro.common.config import CYCLES_PER_MEMORY_CYCLE, MemoryTimingConfig
from repro.common.errors import TransientFaultError
from repro.common.stats import StatsRegistry
from repro.common.timeline import Cycles


class AccessResult:
    """Outcome of one device access, all times in CPU cycles.

    A ``__slots__`` class: one is built per line access on the hot path.
    """

    __slots__ = ("start", "finish", "row_hit", "queue_delay")

    def __init__(
        self, start: Cycles, finish: Cycles, row_hit: bool, queue_delay: Cycles
    ):
        self.start = start
        self.finish = finish
        self.row_hit = row_hit
        self.queue_delay = queue_delay

    @property
    def latency(self) -> Cycles:
        return self.finish - self.start + self.queue_delay

    def __repr__(self) -> str:
        return (
            f"AccessResult(start={self.start}, finish={self.finish}, "
            f"row_hit={self.row_hit}, queue_delay={self.queue_delay})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AccessResult):
            return NotImplemented
        return (
            self.start == other.start
            and self.finish == other.finish
            and self.row_hit == other.row_hit
            and self.queue_delay == other.queue_delay
        )

    def __hash__(self) -> int:
        return hash((self.start, self.finish, self.row_hit, self.queue_delay))


class MemoryDevice:
    """One DRAM or NVM module behind its own set of channels.

    A ``__slots__`` class: every LLC miss, write-back, swap line, and
    metadata access bumps several of its counters, and slot descriptors
    make those attribute reads and in-place adds measurably cheaper
    than ``__dict__`` lookups on this path.
    """

    __slots__ = (
        "config", "stats", "model_contention",
        "_bank_demand_until", "_bank_any_until", "_bank_total_busy",
        "_bus_demand_until", "_bus_any_until", "_bus_total_busy",
        "_open_rows", "_row_written", "_lines_per_row", "_row_stride",
        "reads", "writes", "row_hits",
        "queue_delay_total", "service_time_total",
        "injector", "preempt_cap_cycles",
        "_lat_row_hit", "_lat_row_closed", "_lat_row_conflict",
        "_write_recovery", "_burst", "_channels", "_banks_per_channel",
    )

    def __init__(
        self,
        config: MemoryTimingConfig,
        stats: StatsRegistry,
        model_contention: bool = True,
    ):
        self.config = config
        self.stats = stats
        self.model_contention = model_contention
        total_banks = config.channels * config.total_banks_per_channel
        # Struct-of-arrays resource state (see the module docstring).  A
        # bank or bus grants [start, start+duration): demand work queues
        # behind demand (demand_until) but waits for queued bulk only up
        # to the preempt cap; bulk yields to everything (any_until).
        self._bank_demand_until: List[int] = [0] * total_banks
        self._bank_any_until: List[int] = [0] * total_banks
        self._bank_total_busy: List[int] = [0] * total_banks
        self._bus_demand_until: List[int] = [0] * config.channels
        self._bus_any_until: List[int] = [0] * config.channels
        self._bus_total_busy: List[int] = [0] * config.channels
        #: Open row per global bank (-1 = closed; rows are non-negative).
        self._open_rows: List[int] = [-1] * total_banks
        #: Banks whose open row has absorbed writes (t_WR owed at close,
        #: or at the next read from the same bank — write-to-read turnaround).
        self._row_written: List[bool] = [False] * total_banks
        self._lines_per_row = config.row_bytes // CACHE_LINE_BYTES
        #: Lines per row sequence step: a line's row sequence (the bank and
        #: row counter within its channel) is ``line // _row_stride``.
        self._row_stride = config.channels * self._lines_per_row
        # Per-device counters kept as plain attributes: this path runs for
        # every line transferred, so registry lookups would dominate.
        self.reads = 0
        self.writes = 0
        self.row_hits = 0
        self.queue_delay_total = 0
        self.service_time_total = 0
        #: Armed by ``MainMemory.attach_injector`` when fault injection is
        #: enabled; None in normal runs, so the hot path pays one branch.
        self.injector = None
        #: Demand preempts queued bulk after one in-flight line.
        self.preempt_cap_cycles = (
            config.t_rp + config.t_rcd + config.t_cas
        ) * CYCLES_PER_MEMORY_CYCLE + config.line_transfer_cycles
        # Hot-path invariants precomputed from the timing config: the three
        # possible core latencies (row hit / closed row / conflict), the
        # write-recovery penalty, and the address-mapping geometry.  These
        # equal config.read_latency_cycles(...)/write_recovery_cycles() for
        # every input, so access() never re-derives them per line.
        self._lat_row_hit = config.read_latency_cycles(True, False)
        self._lat_row_closed = config.read_latency_cycles(False, False)
        self._lat_row_conflict = config.read_latency_cycles(False, True)
        self._write_recovery = config.write_recovery_cycles()
        self._burst = config.line_transfer_cycles
        self._channels = config.channels
        self._banks_per_channel = config.total_banks_per_channel

    # -- address mapping ---------------------------------------------------
    def map_line(self, line_number: int) -> Tuple[int, int, int]:
        """Map a line number to ``(channel, global_bank, row)``."""
        channels = self.config.channels
        channel = line_number % channels
        within_channel = line_number // channels
        row_sequence = within_channel // self._lines_per_row
        banks = self.config.total_banks_per_channel
        bank_in_channel = row_sequence % banks
        row = row_sequence // banks
        global_bank = channel * banks + bank_in_channel
        return channel, global_bank, row

    # -- the access path -----------------------------------------------------
    # repro-hot
    def access_finish(
        self, now: Cycles, line_number: int, is_write: bool, bulk: bool = False
    ) -> Cycles:
        """Perform one 64 B access; returns only the finish time.

        The demand hot path: every LLC miss, write-back, and metadata
        access lands here, and none of those callers read anything but
        the finish time.  The schedule and every state mutation are
        identical to :meth:`access` (the differential unit test drives
        both against the same traffic and asserts equality); the only
        difference is that no :class:`AccessResult` is allocated.
        """
        if self.injector is not None:
            self.injector.check_access(self.config.name, now, line_number, is_write)
        channel = line_number % self._channels
        # (line // channels) // lines_per_row in one division.
        row_sequence = line_number // self._row_stride
        banks = self._banks_per_channel
        bank = channel * banks + row_sequence % banks
        row = row_sequence // banks

        # The row-buffer case also settles the write recovery owed (t_WR
        # at a conflict, or at a read after writes to the open row) and
        # the row-hit count.
        open_rows = self._open_rows
        open_row = open_rows[bank]
        row_written = self._row_written
        if open_row == row:
            core_latency = self._lat_row_hit
            self.row_hits += 1
            if not is_write and row_written[bank]:
                core_latency += self._write_recovery
                row_written[bank] = False
        else:
            open_rows[bank] = row
            if open_row >= 0:
                core_latency = self._lat_row_conflict
                if row_written[bank]:
                    core_latency += self._write_recovery
                    row_written[bank] = False
            else:
                core_latency = self._lat_row_closed
                if not is_write and row_written[bank]:
                    core_latency += self._write_recovery
                    row_written[bank] = False
        if is_write:
            row_written[bank] = True
            self.writes += 1
        else:
            self.reads += 1
        burst = self._burst

        if not self.model_contention:
            self.service_time_total += core_latency + burst
            return now + core_latency + burst

        occupancy = core_latency + burst
        bank_any = self._bank_any_until
        bus_any = self._bus_any_until
        any_until = bank_any[bank]
        if bulk:
            # Bulk yields to everything: max(now, any_until).
            start = any_until if any_until > now else now
            bank_any[bank] = start + occupancy
            data_ready = start + core_latency
            bus_start = bus_any[channel]
            if data_ready > bus_start:
                bus_start = data_ready
            bus_any[channel] = bus_start + burst
        else:
            # The demand grant max(now, demand_until, min(any_until,
            # now + cap)) by cases on any_until.  Exact because
            # any_until >= demand_until on every bank and bus: a demand
            # grant raises any_until to at least its end, and a bulk grant
            # only raises any_until.
            cap = self.preempt_cap_cycles
            if any_until <= now:
                start = now
                end = now + occupancy
                bank_any[bank] = end
            elif any_until <= now + cap:
                start = any_until
                end = any_until + occupancy
                bank_any[bank] = end
            else:
                start = now + cap
                demand_until = self._bank_demand_until[bank]
                if demand_until > start:
                    start = demand_until
                end = start + occupancy
                if end > any_until:
                    bank_any[bank] = end
            self._bank_demand_until[bank] = end
            # The data burst's bus grant, by the same cases.
            data_ready = start + core_latency
            any_until = bus_any[channel]
            if any_until <= data_ready:
                bus_start = data_ready
                bus_end = data_ready + burst
                bus_any[channel] = bus_end
            elif any_until <= data_ready + cap:
                bus_start = any_until
                bus_end = any_until + burst
                bus_any[channel] = bus_end
            else:
                bus_start = data_ready + cap
                demand_until = self._bus_demand_until[channel]
                if demand_until > bus_start:
                    bus_start = demand_until
                bus_end = bus_start + burst
                if bus_end > any_until:
                    bus_any[channel] = bus_end
            self._bus_demand_until[channel] = bus_end
        self._bank_total_busy[bank] += occupancy
        self._bus_total_busy[channel] += burst
        finish = bus_start + burst

        self.queue_delay_total += start - now
        self.service_time_total += finish - start
        return finish

    def access(
        self, now: Cycles, line_number: int, is_write: bool, bulk: bool = False
    ) -> AccessResult:
        """Perform one 64 B access; returns start/finish in CPU cycles.

        The full-result variant of :meth:`access_finish` — same schedule,
        same mutations — kept as the readable reference: its reservations
        go through :meth:`_reserve_bank`/:meth:`_reserve_bus`, and
        tests/unit/test_device.py differences :meth:`access_finish`
        against it.
        """
        if self.injector is not None:
            # May raise Transient/UnrecoverableFaultError before any bank or
            # row state is touched, so an aborted access leaves no trace.
            self.injector.check_access(self.config.name, now, line_number, is_write)
        channels = self._channels
        channel = line_number % channels
        row_sequence = (line_number // channels) // self._lines_per_row
        bank = channel * self._banks_per_channel + row_sequence % self._banks_per_channel
        row = row_sequence // self._banks_per_channel

        open_rows = self._open_rows
        open_row = open_rows[bank]
        row_hit = open_row == row
        open_rows[bank] = row

        if row_hit:
            core_latency = self._lat_row_hit
            row_conflict = False
        elif open_row >= 0:
            core_latency = self._lat_row_conflict
            row_conflict = True
        else:
            core_latency = self._lat_row_closed
            row_conflict = False
        row_written = self._row_written
        if row_written[bank] and (row_conflict or not is_write):
            core_latency += self._write_recovery
            row_written[bank] = False
        if is_write:
            row_written[bank] = True
            self.writes += 1
        else:
            self.reads += 1
        if row_hit:
            self.row_hits += 1
        burst = self._burst

        if not self.model_contention:
            finish = now + core_latency + burst
            self.service_time_total += core_latency + burst
            return AccessResult(now, finish, row_hit, 0)

        occupancy = core_latency + burst
        start = self._reserve_bank(bank, now, occupancy, bulk)
        data_ready = start + core_latency
        bus_start = self._reserve_bus(channel, data_ready, burst, bulk)
        finish = bus_start + burst

        queue_delay = start - now
        self.queue_delay_total += queue_delay
        self.service_time_total += finish - start
        return AccessResult(start, finish, row_hit, queue_delay)

    def _reserve_bank(self, bank: int, now: int, duration: int, bulk: bool) -> int:
        """Grant ``[start, start+duration)`` on a bank; returns the start."""
        any_until = self._bank_any_until
        if bulk:
            start = max(now, any_until[bank])
            any_until[bank] = start + duration
        else:
            start = max(
                now,
                self._bank_demand_until[bank],
                min(any_until[bank], now + self.preempt_cap_cycles),
            )
            end = start + duration
            self._bank_demand_until[bank] = end
            if end > any_until[bank]:
                any_until[bank] = end
        self._bank_total_busy[bank] += duration
        return start

    def _reserve_bus(self, channel: int, now: int, duration: int, bulk: bool) -> int:
        """Grant ``[start, start+duration)`` on a channel bus; returns the start."""
        any_until = self._bus_any_until
        if bulk:
            start = max(now, any_until[channel])
            any_until[channel] = start + duration
        else:
            start = max(
                now,
                self._bus_demand_until[channel],
                min(any_until[channel], now + self.preempt_cap_cycles),
            )
            end = start + duration
            self._bus_demand_until[channel] = end
            if end > any_until[channel]:
                any_until[channel] = end
        self._bus_total_busy[channel] += duration
        return start

    # repro-hot
    def transfer_page(
        self, now: Cycles, first_line: int, line_count: int, is_write: bool,
        bulk: bool = False,
    ) -> Cycles:
        """Stream *line_count* consecutive lines; returns the finish time.

        Used by the swap machinery: a 4 KB page move is 64 line transfers
        that genuinely occupy banks and buses.  Swap engines issue at
        demand priority (the paper treats swap traffic as regular memory
        requests and bounds it by declining swaps, not by starving them);
        pass ``bulk=True`` for background work that must yield.

        The transfer is scheduled row-group at a time: consecutive lines of
        one row stream at burst rate behind a single activation, which is
        both how devices behave and ~4x fewer reservations than per-line
        scheduling.  The row groups are derived in closed form — within
        one channel the lines advance through ``within_channel`` positions
        consecutively, so each group is the run up to the next
        ``lines_per_row`` boundary and no per-line address mapping happens
        at all.

        With fault injection armed, the injector may hand the transfer an
        abort budget (:meth:`FaultInjector.check_transfer`).  The transfer
        then raises :class:`TransientFaultError` at the first row-group
        start by which that many lines have moved, or after its last group
        when the budget falls inside it.  Either way the lines already
        moved stay counted and their bank and bus time stays booked: that
        wasted service time is the cost of the fault.
        tests/unit/test_device.py pins this loop against a per-line walk.

        Each group's bank and bus grants are :meth:`_reserve_bank` and
        :meth:`_reserve_bus` inlined, the demand grant by the same cases
        on ``any_until`` as :meth:`access_finish`'s; the paired A/B in
        docs/PERFORMANCE.md ("Memory side at table speed") shows the
        inline form pays.
        """
        abort_after = None
        if self.injector is not None:
            abort_after = self.injector.check_transfer(
                self.config.name, now, first_line, line_count, is_write
            )
        # A clean transfer's budget is never reached: at every row-group
        # start at least one of its line_count lines is still to move.
        budget = line_count if abort_after is None else abort_after
        finish = now
        burst = self._burst
        channels = self._channels
        banks = self._banks_per_channel
        lines_per_row = self._lines_per_row
        open_rows = self._open_rows
        row_written = self._row_written
        lat_row_hit = self._lat_row_hit
        write_recovery = self._write_recovery
        model_contention = self.model_contention
        bank_any = self._bank_any_until
        bank_demand = self._bank_demand_until
        bank_busy = self._bank_total_busy
        bus_any = self._bus_any_until
        bus_demand = self._bus_demand_until
        bus_busy = self._bus_total_busy
        cap = self.preempt_cap_cycles
        now_cap = now + cap
        last_line = first_line + line_count
        total_lines = 0
        total_hits = 0
        total_service = 0
        try:
            for channel in range(channels):
                # Lines of this run on one channel are `channels` apart.
                offset = (channel - first_line) % channels
                first_in_channel = first_line + offset
                if first_in_channel >= last_line:
                    continue
                # Consecutive within-channel positions; row groups are the
                # runs between lines_per_row boundaries.
                w = first_in_channel // channels
                w_end = w + 1 + (last_line - 1 - first_in_channel) // channels
                while w < w_end:
                    if total_lines >= budget:
                        raise TransientFaultError(
                            "bulk transfer died mid-flight",
                            device=self.config.name,
                            line=w * channels + channel,
                            cycle=now,
                        )
                    row_sequence = w // lines_per_row
                    group_end = (row_sequence + 1) * lines_per_row
                    if group_end > w_end:
                        group_end = w_end
                    group = group_end - w
                    w = group_end
                    bank = channel * banks + row_sequence % banks
                    row = row_sequence // banks
                    open_row = open_rows[bank]
                    if open_row == row:
                        core_latency = lat_row_hit
                        total_hits += group
                        if not is_write and row_written[bank]:
                            core_latency += write_recovery
                            row_written[bank] = False
                    else:
                        open_rows[bank] = row
                        if open_row >= 0:
                            core_latency = self._lat_row_conflict
                            if row_written[bank]:
                                core_latency += write_recovery
                                row_written[bank] = False
                        else:
                            core_latency = self._lat_row_closed
                            if not is_write and row_written[bank]:
                                core_latency += write_recovery
                                row_written[bank] = False
                    if is_write:
                        row_written[bank] = True
                    data = group * burst
                    occupancy = core_latency + data
                    total_lines += group
                    total_service += occupancy
                    if not model_contention:
                        end = now + occupancy
                    elif bulk:
                        start = bank_any[bank]
                        if now > start:
                            start = now
                        bank_any[bank] = start + occupancy
                        bank_busy[bank] += occupancy
                        data_ready = start + core_latency
                        bus_start = bus_any[channel]
                        if data_ready > bus_start:
                            bus_start = data_ready
                        end = bus_start + data
                        bus_any[channel] = end
                        bus_busy[channel] += data
                    else:
                        any_until = bank_any[bank]
                        if any_until <= now:
                            start = now
                            bank_end = now + occupancy
                            bank_any[bank] = bank_end
                        elif any_until <= now_cap:
                            start = any_until
                            bank_end = any_until + occupancy
                            bank_any[bank] = bank_end
                        else:
                            start = now_cap
                            demand_until = bank_demand[bank]
                            if demand_until > start:
                                start = demand_until
                            bank_end = start + occupancy
                            if bank_end > any_until:
                                bank_any[bank] = bank_end
                        bank_demand[bank] = bank_end
                        bank_busy[bank] += occupancy
                        data_ready = start + core_latency
                        any_until = bus_any[channel]
                        if any_until <= data_ready:
                            end = data_ready + data
                            bus_any[channel] = end
                        elif any_until <= data_ready + cap:
                            end = any_until + data
                            bus_any[channel] = end
                        else:
                            bus_start = data_ready + cap
                            demand_until = bus_demand[channel]
                            if demand_until > bus_start:
                                bus_start = demand_until
                            end = bus_start + data
                            if end > any_until:
                                bus_any[channel] = end
                        bus_demand[channel] = end
                        bus_busy[channel] += data
                    if end > finish:
                        finish = end
        finally:
            self.service_time_total += total_service
            if is_write:
                self.writes += total_lines
            else:
                self.reads += total_lines
            self.row_hits += total_hits
        if abort_after is not None:
            # Backstop: the budget fell inside the final row group.
            raise TransientFaultError(
                "bulk transfer died mid-flight",
                device=self.config.name,
                line=last_line - 1,
                cycle=now,
            )
        return finish

    # -- introspection -------------------------------------------------------
    def channel_utilization(self, elapsed: int) -> float:
        """Mean data-bus utilization across channels over *elapsed* cycles."""
        busy = self._bus_total_busy
        if not busy or elapsed <= 0:
            return 0.0
        return sum(min(1.0, b / elapsed) for b in busy) / len(busy)

    def earliest_bus_free(self, now: Cycles) -> Cycles:
        """Earliest time any channel data bus is free."""
        return min(max(now, b) for b in self._bus_any_until)
