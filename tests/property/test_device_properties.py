"""Property-based tests for the memory-device timing model."""

from hypothesis import given, settings, strategies as st

from repro.common.config import dram_timing_table1, nvm_timing_table1
from repro.common.stats import StatsRegistry
from repro.mem.device import MemoryDevice

accesses = st.lists(
    st.tuples(
        st.integers(0, 500),      # time delta
        st.integers(0, 4095),     # line
        st.booleans(),            # is_write
        st.booleans(),            # bulk
    ),
    max_size=150,
)


class TestDeviceInvariants:
    @given(access_list=accesses)
    @settings(max_examples=100, deadline=None)
    def test_finish_after_issue(self, access_list):
        device = MemoryDevice(dram_timing_table1(4 * 2**20), StatsRegistry())
        now = 0
        for delta, line, is_write, bulk in access_list:
            now += delta
            result = device.access(now, line, is_write, bulk)
            assert result.start >= now
            assert result.finish > result.start

    @given(access_list=accesses)
    @settings(max_examples=100, deadline=None)
    def test_demand_queue_delay_bounded_by_demand_and_cap(self, access_list):
        """Demand waits for demand plus at most one preemption window."""
        device = MemoryDevice(nvm_timing_table1(4 * 2**20), StatsRegistry())
        bank_demand_busy = {}
        now = 0
        for delta, line, is_write, bulk in access_list:
            now += delta
            _, bank, _ = device.map_line(line)
            result = device.access(now, line, is_write, bulk)
            if not bulk:
                prior = bank_demand_busy.get(bank, 0)
                allowed = max(now, prior) + device.preempt_cap_cycles
                assert result.start <= allowed
                bank_demand_busy[bank] = result.finish
            else:
                bank_demand_busy[bank] = max(
                    bank_demand_busy.get(bank, 0), result.finish
                )

    @given(access_list=accesses)
    @settings(max_examples=100, deadline=None)
    def test_counters_match_access_count(self, access_list):
        device = MemoryDevice(dram_timing_table1(4 * 2**20), StatsRegistry())
        now = 0
        for delta, line, is_write, bulk in access_list:
            now += delta
            device.access(now, line, is_write, bulk)
        writes = sum(1 for a in access_list if a[2])
        assert device.writes == writes
        assert device.reads == len(access_list) - writes

    @given(
        start=st.integers(0, 10_000),
        first_line=st.integers(0, 1024),
        count=st.integers(1, 64),
        is_write=st.booleans(),
    )
    @settings(max_examples=100, deadline=None)
    def test_transfer_page_counts_and_time(self, start, first_line, count, is_write):
        device = MemoryDevice(nvm_timing_table1(4 * 2**20), StatsRegistry())
        finish = device.transfer_page(start, first_line, count, is_write)
        assert finish > start
        moved = device.writes if is_write else device.reads
        assert moved == count

    @given(access_list=accesses)
    @settings(max_examples=50, deadline=None)
    def test_contention_only_adds_latency(self, access_list):
        """With contention on, every access is at least as slow."""
        fast = MemoryDevice(
            dram_timing_table1(4 * 2**20), StatsRegistry(), model_contention=False
        )
        slow = MemoryDevice(dram_timing_table1(4 * 2**20), StatsRegistry())
        now = 0
        for delta, line, is_write, bulk in access_list:
            now += delta
            uncontended = fast.access(now, line, is_write, bulk)
            contended = slow.access(now, line, is_write, bulk)
            assert contended.finish >= uncontended.finish


#: Line accesses and page transfers, demand and bulk, at request times
#: that may step back (per-core clocks are not globally monotone).
_device_calls = st.lists(
    st.one_of(
        st.tuples(
            st.just("line"), st.integers(-300, 500), st.integers(0, 4095),
            st.booleans(), st.booleans(),
        ),
        st.tuples(
            st.just("page"), st.integers(-300, 500), st.integers(0, 4095),
            st.integers(1, 64), st.booleans(), st.booleans(),
        ),
    ),
    max_size=120,
)


class TestGrantWatermarks:
    """``any_until >= demand_until`` on every bank and bus after every call.

    The demand grants of ``access_finish`` and ``transfer_page`` split on
    ``any_until`` alone, which gives ``max(now, demand_until,
    min(any_until, now + cap))`` only while this holds.
    """

    @given(calls=_device_calls, nvm=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_any_until_never_below_demand_until(self, calls, nvm):
        timing = nvm_timing_table1 if nvm else dram_timing_table1
        device = MemoryDevice(timing(4 * 2**20), StatsRegistry())
        now = 0
        for call in calls:
            now = max(0, now + call[1])
            if call[0] == "line":
                _, _, line, is_write, bulk = call
                device.access_finish(now, line, is_write, bulk)
            else:
                _, _, first_line, count, is_write, bulk = call
                device.transfer_page(now, first_line, count, is_write, bulk)
            for any_until, demand_until in (
                *zip(device._bank_any_until, device._bank_demand_until),
                *zip(device._bus_any_until, device._bus_demand_until),
            ):
                assert any_until >= demand_until
