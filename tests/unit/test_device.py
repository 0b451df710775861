"""Unit tests for the memory device model (repro.mem.device)."""

import pytest

from repro.common.config import (
    CYCLES_PER_MEMORY_CYCLE,
    dram_timing_table1,
    nvm_timing_table1,
)
from repro.common.errors import TransientFaultError
from repro.common.stats import StatsRegistry
from repro.mem.device import MemoryDevice


def make_device(contention=True, nvm=False, capacity=4 * 1024 * 1024):
    config = nvm_timing_table1(capacity) if nvm else dram_timing_table1(capacity)
    return MemoryDevice(config, StatsRegistry(), model_contention=contention)


class TestMapping:
    def test_consecutive_lines_interleave_channels(self):
        device = make_device()
        channels = {device.map_line(i)[0] for i in range(8)}
        assert channels == set(range(4))

    def test_same_row_for_row_run(self):
        device = make_device()
        # Lines 0, 4, 8 ... are consecutive on channel 0 within one row.
        _, bank0, row0 = device.map_line(0)
        _, bank1, row1 = device.map_line(4)
        assert (bank0, row0) == (bank1, row1)

    def test_rows_rotate_banks(self):
        device = make_device()
        lines_per_row = device.config.row_bytes // 64
        _, bank0, _ = device.map_line(0)
        _, bank_next, _ = device.map_line(lines_per_row * device.config.channels)
        assert bank0 != bank_next

    def test_mapping_is_injective_per_channel(self):
        device = make_device()
        seen = set()
        for line in range(0, 4096, 1):
            key = device.map_line(line)
            offset_in_row = (line // device.config.channels) % (
                device.config.row_bytes // 64
            )
            assert (key, offset_in_row) not in seen
            seen.add((key, offset_in_row))


class TestLatency:
    def test_first_access_is_row_miss(self):
        device = make_device(contention=False)
        result = device.access(0, 0, is_write=False)
        expected = (11 + 11) * CYCLES_PER_MEMORY_CYCLE + 8
        assert result.finish - result.start == expected
        assert not result.row_hit

    def test_second_access_same_row_hits(self):
        device = make_device(contention=False)
        device.access(0, 0, is_write=False)
        result = device.access(100, 4, is_write=False)
        assert result.row_hit
        expected = 11 * CYCLES_PER_MEMORY_CYCLE + 8
        assert result.finish - result.start == expected

    def test_row_conflict_pays_precharge(self):
        device = make_device(contention=False)
        device.access(0, 0, is_write=False)
        lines_per_row = device.config.row_bytes // 64
        banks = device.config.total_banks_per_channel
        conflict_line = lines_per_row * device.config.channels * banks
        assert device.map_line(conflict_line)[1] == device.map_line(0)[1]
        result = device.access(1000, conflict_line, is_write=False)
        assert not result.row_hit
        expected = (11 + 11 + 11) * CYCLES_PER_MEMORY_CYCLE + 8
        assert result.finish - result.start == expected

    def test_nvm_slower_than_dram_on_activation(self):
        dram = make_device(contention=False)
        nvm = make_device(contention=False, nvm=True)
        d = dram.access(0, 0, False)
        n = nvm.access(0, 0, False)
        assert (n.finish - n.start) > (d.finish - d.start)

    def test_write_then_read_pays_recovery(self):
        device = make_device(contention=False, nvm=True)
        device.access(0, 0, is_write=True)
        result = device.access(1000, 4, is_write=False)
        recovery = device.config.write_recovery_cycles()
        base = 11 * CYCLES_PER_MEMORY_CYCLE + 8
        assert result.finish - result.start == base + recovery

    def test_write_streams_without_recovery(self):
        device = make_device(contention=False, nvm=True)
        device.access(0, 0, is_write=True)
        result = device.access(100, 4, is_write=True)
        base = 11 * CYCLES_PER_MEMORY_CYCLE + 8
        assert result.finish - result.start == base


class TestContention:
    def test_same_bank_queues(self):
        device = make_device()
        first = device.access(0, 0, False)
        second = device.access(0, 4, False)
        assert second.start >= first.start
        assert second.queue_delay > 0

    def test_different_banks_parallel(self):
        device = make_device()
        lines_per_row = device.config.row_bytes // 64
        banks = device.config.total_banks_per_channel
        other_bank_line = lines_per_row * device.config.channels
        assert device.map_line(0)[1] != device.map_line(other_bank_line)[1]
        first = device.access(0, 0, False)
        second = device.access(0, other_bank_line, False)
        assert second.queue_delay == 0

    def test_demand_preempts_bulk_backlog(self):
        device = make_device()
        # A long bulk transfer on bank 0's row.
        device.transfer_page(0, 0, 64, is_write=False, bulk=True)
        result = device.access(0, 0, False)
        assert result.queue_delay <= device.preempt_cap_cycles

    def test_bulk_yields_to_demand(self):
        device = make_device()
        demand = device.access(0, 0, False)
        bulk = device.access(0, 4, False, bulk=True)
        assert bulk.start >= demand.finish - device.config.line_transfer_cycles

    def test_no_contention_mode_ignores_queues(self):
        device = make_device(contention=False)
        a = device.access(0, 0, False)
        b = device.access(0, 4, False)
        assert b.queue_delay == 0


class TestTransferPage:
    def test_counts_lines(self):
        device = make_device()
        device.transfer_page(0, 0, 64, is_write=False)
        assert device.reads == 64

    def test_write_transfer_counts_writes(self):
        device = make_device()
        device.transfer_page(0, 0, 64, is_write=True)
        assert device.writes == 64

    def test_finish_after_start(self):
        device = make_device()
        finish = device.transfer_page(500, 0, 64, is_write=False)
        assert finish > 500

    def test_transfer_faster_than_serial_conflicts(self):
        """A page transfer streams rows: far cheaper than 64 row misses."""
        device = make_device(contention=False)
        finish = device.transfer_page(0, 0, 64, is_write=False)
        worst = 64 * ((11 + 11 + 11) * CYCLES_PER_MEMORY_CYCLE + 8)
        assert finish < worst

    def test_partial_transfer(self):
        device = make_device()
        device.transfer_page(0, 0, 32, is_write=False)
        assert device.reads == 32

    def test_single_line_transfer(self):
        device = make_device()
        finish = device.transfer_page(0, 7, 1, is_write=False)
        assert finish > 0
        assert device.reads == 1


class TestIntrospection:
    def test_channel_utilization_grows(self):
        device = make_device()
        assert device.channel_utilization(1000) == 0.0
        device.access(0, 0, False)
        assert device.channel_utilization(1000) > 0.0

    def test_earliest_bus_free(self):
        device = make_device()
        assert device.earliest_bus_free(5) == 5
        # Occupy every channel; the earliest free time must move forward.
        for line in range(device.config.channels):
            device.access(0, line, False)
        assert device.earliest_bus_free(0) > 0


class _BudgetInjector:
    """An armed injector that never faults an access and hands every
    transfer the same abort budget (None: a clean transfer)."""

    def __init__(self, budget=None):
        self.budget = budget

    def check_access(self, device, now, line, is_write):
        return None

    def check_transfer(self, device, now, first_line, line_count, is_write):
        return self.budget


def _per_line_transfer(device, now, first_line, line_count, is_write, bulk,
                       abort_after=None):
    """The per-line transfer walk ``transfer_page`` is pinned against.

    Maps every line through ``map_line``, groups runs of one channel that
    share a bank and row, and books each group with the device's own
    reservation helpers.  With *abort_after* set it raises
    :class:`TransientFaultError` at the first group start by which that
    many lines have moved, or after the last group.
    """
    lines_done = 0
    finish = now
    burst = device.config.line_transfer_cycles
    channels = device.config.channels
    last_line = first_line + line_count
    for channel in range(channels):
        offset = (channel - first_line) % channels
        channel_lines = list(range(first_line + offset, last_line, channels))
        index = 0
        while index < len(channel_lines):
            if abort_after is not None and lines_done >= abort_after:
                raise TransientFaultError(
                    "bulk transfer died mid-flight",
                    device=device.config.name,
                    line=channel_lines[index],
                    cycle=now,
                )
            _, bank, row = device.map_line(channel_lines[index])
            group = 1
            while index + group < len(channel_lines):
                _, next_bank, next_row = device.map_line(channel_lines[index + group])
                if next_bank != bank or next_row != row:
                    break
                group += 1
            open_row = device._open_rows[bank]
            row_hit = open_row == row
            row_conflict = open_row >= 0 and not row_hit
            device._open_rows[bank] = row
            core_latency = device.config.read_latency_cycles(row_hit, row_conflict)
            if device._row_written[bank] and (row_conflict or not is_write):
                core_latency += device.config.write_recovery_cycles()
                device._row_written[bank] = False
            if is_write:
                device._row_written[bank] = True
            occupancy = core_latency + group * burst
            if not device.model_contention:
                end = now + occupancy
            else:
                start = device._reserve_bank(bank, now, occupancy, bulk)
                bus_start = device._reserve_bus(
                    channel, start + core_latency, group * burst, bulk
                )
                end = bus_start + group * burst
            finish = max(finish, end)
            if is_write:
                device.writes += group
            else:
                device.reads += group
            if row_hit:
                device.row_hits += group
            device.service_time_total += occupancy
            index += group
            lines_done += group
    if abort_after is not None:
        raise TransientFaultError(
            "bulk transfer died mid-flight",
            device=device.config.name,
            line=last_line - 1,
            cycle=now,
        )
    return finish


def _outcome(transfer, *args, **kwargs):
    """A transfer's finish time, or the line its injected abort names."""
    try:
        return ("finish", transfer(*args, **kwargs))
    except TransientFaultError as fault:
        return ("abort", fault.line)


def _device_state(device):
    """Every observable piece of device state, for differential checks."""
    return (
        list(device._bank_demand_until),
        list(device._bank_any_until),
        list(device._bank_total_busy),
        list(device._bus_demand_until),
        list(device._bus_any_until),
        list(device._bus_total_busy),
        list(device._open_rows),
        list(device._row_written),
        device.reads,
        device.writes,
        device.row_hits,
        device.queue_delay_total,
        device.service_time_total,
    )


def _traffic(seed=7, count=400, lines=4096):
    """A deterministic mixed demand/bulk access pattern."""
    import random

    rng = random.Random(seed)
    now = 0
    for _ in range(count):
        now += rng.randrange(0, 30)
        yield (now, rng.randrange(lines), rng.random() < 0.4,
               rng.random() < 0.2)


class TestAccessFinishDifferential:
    """``access_finish`` is ``access`` minus the AccessResult allocation.

    The rewrite inlined the two-priority reservation bodies into
    ``access_finish``; this differential harness drives both entry points
    with identical traffic on two identical devices and requires the
    finish times and the complete internal state (bank/bus timelines,
    open rows, write-recovery flags, counters) to stay bit-identical.
    """

    @pytest.mark.parametrize("nvm", [False, True])
    @pytest.mark.parametrize("contention", [True, False])
    def test_same_schedule_and_state(self, nvm, contention):
        full = make_device(contention=contention, nvm=nvm)
        fast = make_device(contention=contention, nvm=nvm)
        for now, line, is_write, bulk in _traffic():
            result = full.access(now, line, is_write, bulk=bulk)
            finish = fast.access_finish(now, line, is_write, bulk=bulk)
            assert finish == result.finish
        assert _device_state(full)[:11] == _device_state(fast)[:11]

    def test_queue_delay_only_tracked_by_access(self):
        """The one intentional divergence: access_finish skips the
        queue-delay aggregate (nothing on the hot path reads it)."""
        full = make_device()
        fast = make_device()
        for now, line, is_write, bulk in _traffic(seed=3, count=100):
            full.access(now, line, is_write, bulk=bulk)
            fast.access_finish(now, line, is_write, bulk=bulk)
        assert full.queue_delay_total >= 0


class TestTransferPageDifferential:
    """Closed-form transfer planning vs the per-line walk.

    ``_per_line_transfer`` maps and groups every line individually; the
    closed-form planner in ``transfer_page`` must match its finish time,
    its abort line and every state mutation exactly, both for clean
    transfers and when an injector forces an abort budget.
    """

    @pytest.mark.parametrize("is_write", [False, True])
    @pytest.mark.parametrize("bulk", [False, True])
    def test_matches_scalar_walk(self, is_write, bulk):
        closed = make_device()
        scalar = make_device()
        now = 0
        for first_line, count in [(0, 64), (7, 64), (128, 32), (3, 1),
                                  (200, 5), (64, 64)]:
            now += 50
            a = closed.transfer_page(now, first_line, count, is_write,
                                     bulk=bulk)
            b = _per_line_transfer(scalar, now, first_line, count, is_write,
                                   bulk)
            assert a == b, (first_line, count)
        assert _device_state(closed) == _device_state(scalar)

    def test_interleaved_with_demand_traffic(self):
        closed = make_device()
        scalar = make_device()
        import random

        rng = random.Random(11)
        now = 0
        for _ in range(60):
            now += rng.randrange(0, 100)
            if rng.random() < 0.3:
                first = rng.randrange(0, 4096 - 64)
                count = rng.choice([1, 8, 32, 64])
                a = closed.transfer_page(now, first, count, True, bulk=True)
                b = _per_line_transfer(scalar, now, first, count, True, True)
            else:
                line = rng.randrange(4096)
                write = rng.random() < 0.5
                a = closed.access_finish(now, line, write)
                b = scalar.access_finish(now, line, write)
            assert a == b
        assert _device_state(closed) == _device_state(scalar)

    @pytest.mark.parametrize("contention", [True, False])
    @pytest.mark.parametrize("first_line,count", [(0, 64), (7, 64), (130, 32)])
    @pytest.mark.parametrize("budget", [0, 1, 5, 16, 17, 40, 63])
    def test_forced_abort_budget(self, contention, first_line, count, budget):
        """Both sides raise at the same line, with the partial transfer's
        lines counted and its bank and bus time booked identically."""
        closed = make_device(contention=contention)
        scalar = make_device(contention=contention)
        for device in (closed, scalar):
            device.transfer_page(0, 256, 64, False)  # open some rows first
        closed.injector = _BudgetInjector(budget)
        a = _outcome(closed.transfer_page, 100, first_line, count, True)
        b = _outcome(_per_line_transfer, scalar, 100, first_line, count, True,
                     False, abort_after=budget)
        assert a == b
        assert a[0] == "abort"
        assert _device_state(closed) == _device_state(scalar)

    def test_abort_budgets_interleaved_with_traffic(self):
        """Random budgets, clean transfers and demand accesses in one
        stream: every step agrees, so an abort leaves no drift behind."""
        import random

        closed = make_device(nvm=True)
        scalar = make_device(nvm=True)
        injector = _BudgetInjector()
        closed.injector = injector
        rng = random.Random(5)
        now = 0
        aborts = 0
        for _ in range(120):
            now += rng.randrange(0, 200)
            if rng.random() < 0.5:
                first = rng.randrange(0, 4096 - 64)
                count = rng.choice([1, 8, 32, 64])
                is_write = rng.random() < 0.5
                bulk = rng.random() < 0.5
                budget = (
                    None if rng.random() < 0.4 else int(count * rng.random())
                )
                injector.budget = budget
                a = _outcome(closed.transfer_page, now, first, count,
                             is_write, bulk)
                b = _outcome(_per_line_transfer, scalar, now, first, count,
                             is_write, bulk, abort_after=budget)
                aborts += a[0] == "abort"
            else:
                line = rng.randrange(4096)
                write = rng.random() < 0.5
                a = closed.access_finish(now, line, write)
                b = scalar.access_finish(now, line, write)
            assert a == b
        assert aborts > 10
        assert _device_state(closed) == _device_state(scalar)


#: Where a resource's backlog sits relative to the time a demand request
#: asks for it (``t``) and the preempt cap: ``(demand_until, any_until)``
#: as functions of ``(t, cap)``.  Each case is one branch of the grant's
#: split on ``any_until``; ``any_until >= demand_until`` in all of them.
_GRANT_CASES = {
    "idle": lambda t, cap: (t - 40, t - 10),
    "backlog_within_cap": lambda t, cap: (t - 10, t + cap // 2),
    "backlog_beyond_cap": lambda t, cap: (t + cap // 2, t + 3 * cap),
    "demand_beyond_cap": lambda t, cap: (t + 2 * cap, t + 3 * cap),
}


def _place_backlog(device, resource, case, t):
    """Give channel 0's bank or bus the case's watermarks at time *t*."""
    demand_until, any_until = _GRANT_CASES[case](t, device.preempt_cap_cycles)
    bank = device.map_line(0)[1]
    if resource == "bank":
        device._bank_demand_until[bank] = demand_until
        device._bank_any_until[bank] = any_until
    else:
        device._bus_demand_until[0] = demand_until
        device._bus_any_until[0] = any_until
    return demand_until, any_until


def _expected_demand_finish(device, resource, case, now, data):
    """The demand grant ``max(t, demand_until, min(any_until, t + cap))``
    on the one busy resource, for a read of a closed row from line 0."""
    cap = device.preempt_cap_cycles
    core = device._lat_row_closed
    if resource == "bank":
        demand_until, any_until = _GRANT_CASES[case](now, cap)
        start = max(now, demand_until, min(any_until, now + cap))
        return start + core + data
    data_ready = now + core
    demand_until, any_until = _GRANT_CASES[case](data_ready, cap)
    return max(data_ready, demand_until, min(any_until, data_ready + cap)) + data


class TestDemandGrantCases:
    """Each branch of the demand grant's case split, on bank and bus.

    ``access_finish`` and ``transfer_page`` grant a demand request by
    cases on ``any_until`` instead of evaluating ``max(t, demand_until,
    min(any_until, t + cap))``.  Every case places one backlog on line
    0's bank or on channel 0's bus, checks the finish time against that
    formula, and checks the whole device state against the reference
    (``access`` and the per-line walk, which book through
    ``_reserve_bank``/``_reserve_bus``).
    """

    NOW = 1000

    @pytest.mark.parametrize("resource", ["bank", "bus"])
    @pytest.mark.parametrize("case", sorted(_GRANT_CASES))
    def test_line_access(self, case, resource):
        fast = make_device()
        reference = make_device()
        for device in (fast, reference):
            t = self.NOW if resource == "bank" else self.NOW + device._lat_row_closed
            _place_backlog(device, resource, case, t)
        finish = fast.access_finish(self.NOW, 0, False)
        result = reference.access(self.NOW, 0, False)
        assert finish == result.finish == _expected_demand_finish(
            fast, resource, case, self.NOW, fast._burst
        )
        assert _device_state(fast) == _device_state(reference)
        assert all(
            any_until >= demand_until
            for any_until, demand_until in (
                *zip(fast._bank_any_until, fast._bank_demand_until),
                *zip(fast._bus_any_until, fast._bus_demand_until),
            )
        )

    @pytest.mark.parametrize("resource", ["bank", "bus"])
    @pytest.mark.parametrize("case", sorted(_GRANT_CASES))
    def test_page_transfer(self, case, resource):
        closed = make_device()
        scalar = make_device()
        for device in (closed, scalar):
            t = self.NOW if resource == "bank" else self.NOW + device._lat_row_closed
            _place_backlog(device, resource, case, t)
        # Line 0's row group: channel 0's lines of the page in its row.
        channels = closed.config.channels
        group = sum(
            1 for line in range(0, 64, channels)
            if closed.map_line(line) == closed.map_line(0)
        )
        finish = closed.transfer_page(self.NOW, 0, 64, False)
        assert finish == _per_line_transfer(scalar, self.NOW, 0, 64, False, False)
        assert finish == _expected_demand_finish(
            closed, resource, case, self.NOW, group * closed._burst
        )
        assert _device_state(closed) == _device_state(scalar)
