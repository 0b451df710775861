"""Property-based tests: the Swap Driver preserves the PRT's invariants."""

from hypothesis import given, settings, strategies as st

from repro.common.config import (
    HybridMemoryConfig,
    PageSeerConfig,
    dram_timing_table1,
    nvm_timing_table1,
)
from repro.common.stats import StatsRegistry
from repro.core.hpt import HotPageTable
from repro.core.prt import PageRemapTable
from repro.core.swap_driver import SwapDriver, TRIGGER_REGULAR
from repro.mem.main_memory import MainMemory
from repro.mem.swap_buffer import SwapBufferPool
from tests.swap_stubs import FrameStub

DRAM_PAGES = 64
NVM_PAGES = 256
TOTAL = DRAM_PAGES + NVM_PAGES


def make_driver():
    stats = StatsRegistry()
    memory = MainMemory(
        HybridMemoryConfig(
            dram=dram_timing_table1(DRAM_PAGES * 4096),
            nvm=nvm_timing_table1(NVM_PAGES * 4096),
        ),
        stats,
    )
    prt = PageRemapTable(DRAM_PAGES, TOTAL, 4)
    driver = SwapDriver(
        PageSeerConfig(),
        memory,
        prt,
        HotPageTable(64, 63, 100_000),
        SwapBufferPool(24, stats),
        stats,
        FrameStub(protected={0, 1}),
    )
    return driver, prt


requests = st.lists(
    st.tuples(
        st.integers(0, NVM_PAGES - 1),   # which NVM page
        st.integers(1, 50_000),          # time delta
    ),
    max_size=60,
)


class TestSwapDriverInvariants:
    @given(request_list=requests)
    @settings(max_examples=60, deadline=None)
    def test_prt_stays_an_involution(self, request_list):
        driver, prt = make_driver()
        now = 0
        for page_index, delta in request_list:
            now += delta
            driver.request_swap(now, DRAM_PAGES + page_index, TRIGGER_REGULAR, 0.0)
        for page in range(TOTAL):
            assert prt.location_of(prt.location_of(page)) == page

    @given(request_list=requests)
    @settings(max_examples=60, deadline=None)
    def test_locations_stay_a_permutation(self, request_list):
        driver, prt = make_driver()
        now = 0
        for page_index, delta in request_list:
            now += delta
            driver.request_swap(now, DRAM_PAGES + page_index, TRIGGER_REGULAR, 0.0)
        locations = sorted(prt.location_of(page) for page in range(TOTAL))
        assert locations == list(range(TOTAL))

    @given(request_list=requests)
    @settings(max_examples=60, deadline=None)
    def test_protected_frames_never_vacated(self, request_list):
        driver, prt = make_driver()
        now = 0
        for page_index, delta in request_list:
            now += delta
            driver.request_swap(now, DRAM_PAGES + page_index, TRIGGER_REGULAR, 0.0)
        # Frames 0 and 1 are protected: their home data must still be there.
        for frame in (0, 1):
            assert prt.location_of(frame) == frame

    @given(request_list=requests)
    @settings(max_examples=60, deadline=None)
    def test_accepted_swaps_match_prt_population(self, request_list):
        driver, prt = make_driver()
        now = 0
        swapped_in = 0
        swapped_out = 0
        for page_index, delta in request_list:
            now += delta
            before = prt.active_pairs
            if driver.request_swap(
                now, DRAM_PAGES + page_index, TRIGGER_REGULAR, 0.0
            ):
                swapped_in += 1
                after = prt.active_pairs
                if after == before:
                    swapped_out += 1
        assert prt.active_pairs == swapped_in - swapped_out

    @given(request_list=requests)
    @settings(max_examples=60, deadline=None)
    def test_records_monotone_and_bounded(self, request_list):
        driver, prt = make_driver()
        now = 0
        for page_index, delta in request_list:
            now += delta
            driver.request_swap(now, DRAM_PAGES + page_index, TRIGGER_REGULAR, 0.0)
        for record in driver.records:
            assert record.end > record.start
            assert record.reads in (2, 3)
            assert record.writes == record.reads


def reference_purge(driver, now):
    """``SwapDriver._purge`` as a full scan: the state it must leave."""
    last_purge_time = max(driver.last_purge_time, now)
    active = [(page, end) for page, end in driver._active.items() if end > now]
    ends = [end for end in driver._in_flight_ends if end > now]
    return active, ends, last_purge_time


#: Swap requests and buffer-service probes, for DRAM and NVM pages, at
#: times that drift forward but step back too (per-core request times
#: are not globally monotone); "at_end" probes land exactly on an
#: in-flight swap's end, the purge's boundary case.
calls = st.lists(
    st.tuples(
        st.sampled_from(["request", "service", "at_end"]),
        st.integers(0, TOTAL - 1),
        st.integers(-3_000, 6_000),      # time step, may go back
    ),
    max_size=80,
)


class TestPurgeGuard:
    """``_purge`` skips its scans when no in-flight swap has ended; that
    is exact only while every ``_active`` end is an in-flight end."""

    @given(call_list=calls)
    @settings(max_examples=80, deadline=None)
    def test_guarded_purge_matches_a_full_scan(self, call_list):
        driver, _ = make_driver()
        now = 0
        for call, page, step in call_list:
            ends = driver._in_flight_ends
            if call == "at_end" and ends:
                now = ends[page % len(ends)]
            else:
                now = max(0, now + step)
            expected = reference_purge(driver, now)
            driver._purge(now)
            assert (
                list(driver._active.items()),
                driver._in_flight_ends,
                driver.last_purge_time,
            ) == expected
            if call == "request":
                driver.request_swap(now, page, TRIGGER_REGULAR, 0.0)
            else:
                driver.service_if_swapping(now, page)
            assert set(driver._active.values()) <= set(driver._in_flight_ends)

    def test_a_declined_request_still_purges(self):
        # Forgetting ended swaps is part of every request, declined or
        # not: a later probe at an earlier time must not see them again.
        driver, _ = make_driver()
        assert driver.request_swap(0, DRAM_PAGES + 9, TRIGGER_REGULAR, 0.0)
        (end,) = driver._in_flight_ends
        assert not driver.request_swap(end, 9, TRIGGER_REGULAR, 0.0)
        assert driver._active == {} and driver._in_flight_ends == []
        assert driver.service_if_swapping(end - 1, DRAM_PAGES + 9) is None
