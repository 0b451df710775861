"""Property tests: swap aborts at arbitrary fault points roll back cleanly.

The Swap Driver's commit-after-transfer design means an injected fault at
*any* point of the transfer phase must leave the PRT (and all driver
state) exactly as it was.  These tests drive swaps through a scripted
injector that kills a chosen device operation, and assert the remap
relation is still a colour-respecting involution over the whole physical
space afterwards — for every abort point hypothesis can find.
"""

from hypothesis import given, settings, strategies as st

from repro.common.config import (
    FaultConfig,
    HybridMemoryConfig,
    PageSeerConfig,
    dram_timing_table1,
    nvm_timing_table1,
)
from repro.common.errors import UnrecoverableFaultError
from repro.common.stats import StatsRegistry
from repro.core.hpt import HotPageTable
from repro.core.prt import PageRemapTable
from repro.core.swap_driver import SwapDriver, TRIGGER_REGULAR
from repro.faults.injector import FaultInjector
from repro.mem.main_memory import MainMemory
from repro.mem.swap_buffer import SwapBufferPool
from tests.swap_stubs import FrameStub

DRAM_PAGES = 64
NVM_PAGES = 256
TOTAL = DRAM_PAGES + NVM_PAGES


class ScriptedInjector:
    """Injector double that faults specific transfer operations.

    ``abort_plan`` maps a 0-based transfer ordinal to the line budget the
    device gets before the fault fires (0 = dies immediately); ordinals
    not in the plan run clean.  ``uncorrectable_at`` marks ordinals that
    fail permanently instead.
    """

    def __init__(self, abort_plan, uncorrectable_at=frozenset()):
        self.abort_plan = dict(abort_plan)
        self.uncorrectable_at = set(uncorrectable_at)
        self.transfer_ordinal = 0

    def check_access(self, device, now, line_number, is_write):
        return None

    def check_transfer(self, device, now, first_line, line_count, is_write):
        ordinal = self.transfer_ordinal
        self.transfer_ordinal += 1
        if ordinal in self.uncorrectable_at and not is_write:
            raise UnrecoverableFaultError(
                "scripted uncorrectable", device=device, line=first_line,
                cycle=now,
            )
        if ordinal in self.abort_plan:
            return min(self.abort_plan[ordinal], max(0, line_count - 1))
        return None


def make_harness(injector, max_retries=0):
    stats = StatsRegistry()
    memory = MainMemory(
        HybridMemoryConfig(
            dram=dram_timing_table1(DRAM_PAGES * 4096),
            nvm=nvm_timing_table1(NVM_PAGES * 4096),
        ),
        stats,
    )
    memory.attach_injector(injector)
    prt = PageRemapTable(DRAM_PAGES, TOTAL, 4)
    driver = SwapDriver(
        PageSeerConfig(),
        memory,
        prt,
        HotPageTable(64, 63, 100_000),
        SwapBufferPool(24, stats),
        stats,
        FrameStub(protected={0, 1}),
        faults=FaultConfig(enabled=True, max_retries=max_retries),
        injector=injector,
    )
    return driver, prt, stats


def snapshot(prt):
    return [prt.location_of(page) for page in range(TOTAL)]


def assert_involution(prt):
    locations = snapshot(prt)
    assert sorted(locations) == list(range(TOTAL))
    for page in range(TOTAL):
        assert prt.location_of(locations[page]) == page


requests = st.lists(
    st.tuples(
        st.integers(0, NVM_PAGES - 1),   # which NVM page
        st.integers(1, 50_000),          # time delta
    ),
    min_size=1,
    max_size=30,
)

# Which transfer ordinals die, and how many lines each moves first.
abort_plans = st.dictionaries(
    st.integers(0, 120), st.integers(0, 63), max_size=25
)
uncorrectable_marks = st.sets(st.integers(0, 120), max_size=8)


class TestAbortRollback:
    @given(request_list=requests, plan=abort_plans)
    @settings(max_examples=60, deadline=None)
    def test_prt_survives_arbitrary_transient_aborts(self, request_list, plan):
        injector = ScriptedInjector(plan)
        driver, prt, stats = make_harness(injector, max_retries=0)
        now = 0
        for page_index, delta in request_list:
            now += delta
            before = snapshot(prt)
            aborted_before = stats.get("swap_driver/aborted_swaps")
            started = driver.request_swap(
                now, DRAM_PAGES + page_index, TRIGGER_REGULAR, 0.0
            )
            if not started and stats.get("swap_driver/aborted_swaps") > aborted_before:
                # The swap aborted mid-transfer: zero state drift allowed.
                assert snapshot(prt) == before
        assert_involution(prt)

    @given(request_list=requests, plan=abort_plans, marks=uncorrectable_marks)
    @settings(max_examples=60, deadline=None)
    def test_prt_survives_mixed_fault_kinds_with_retries(
        self, request_list, plan, marks
    ):
        injector = ScriptedInjector(plan, uncorrectable_at=marks)
        driver, prt, stats = make_harness(injector, max_retries=2)
        now = 0
        for page_index, delta in request_list:
            now += delta
            driver.request_swap(
                now, DRAM_PAGES + page_index, TRIGGER_REGULAR, 0.0
            )
        assert_involution(prt)
        # Protected frames still hold their home data.
        for frame in (0, 1):
            assert prt.location_of(frame) == frame

    @given(request_list=requests, plan=abort_plans)
    @settings(max_examples=40, deadline=None)
    def test_aborts_never_record_swaps(self, request_list, plan):
        injector = ScriptedInjector(plan)
        driver, prt, stats = make_harness(injector, max_retries=0)
        now = 0
        accepted = 0
        for page_index, delta in request_list:
            now += delta
            if driver.request_swap(
                now, DRAM_PAGES + page_index, TRIGGER_REGULAR, 0.0
            ):
                accepted += 1
        assert len(driver.records) == accepted
        assert stats.get("swap_driver/swaps") == accepted
        # Conservation: every accepted swap put exactly one NVM page into
        # a DRAM frame, minus those later displaced by an optimized slow
        # swap (which removes one pair as it installs another).
        assert prt.active_pairs <= accepted

    @given(
        bad_page=st.integers(0, NVM_PAGES - 1),
        request_list=requests,
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_quarantine_remap_keeps_bijectivity(
        self, bad_page, request_list, seed
    ):
        """A real injector + rescue path: bijectivity survives quarantine."""
        stats = StatsRegistry()
        config = FaultConfig(enabled=True, max_retries=1, fault_seed=seed)
        injector = FaultInjector(config, stats)
        memory = MainMemory(
            HybridMemoryConfig(
                dram=dram_timing_table1(DRAM_PAGES * 4096),
                nvm=nvm_timing_table1(NVM_PAGES * 4096),
            ),
            stats,
        )
        memory.attach_injector(injector)
        prt = PageRemapTable(DRAM_PAGES, TOTAL, 4)
        frames = FrameStub()
        quarantined = frames.quarantined
        driver = SwapDriver(
            PageSeerConfig(),
            memory,
            prt,
            HotPageTable(64, 63, 100_000),
            SwapBufferPool(24, stats),
            stats,
            frames,
            faults=config,
            injector=injector,
        )
        spa = DRAM_PAGES + bad_page
        injector.mark_bad(bad_page)
        quarantined.add(spa)
        rescued = driver.rescue_swap(0, spa)
        now = 0
        for page_index, delta in request_list:
            now += delta
            driver.request_swap(
                now, DRAM_PAGES + page_index, TRIGGER_REGULAR, 0.0
            )
        assert_involution(prt)
        if rescued:
            # The rescued page stays pinned in DRAM through every
            # subsequent swap (its home location is unreadable).
            assert prt.dram_frame_holding(spa) is not None
