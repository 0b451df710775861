"""Unit tests for fault injection & recovery (repro.faults)."""

import pickle

import pytest

from repro.common.addr import LINES_PER_PAGE
from repro.common.config import (
    FaultConfig,
    HybridMemoryConfig,
    PageSeerConfig,
    dram_timing_table1,
    nvm_timing_table1,
)
from repro.common.errors import (
    ConfigError,
    FaultError,
    SweepError,
    TransientFaultError,
    UnrecoverableFaultError,
    WorkerFaultError,
)
from repro.common.stats import StatsRegistry
from repro.core.hpt import HotPageTable
from repro.core.prt import PageRemapTable
from repro.core.swap_driver import SwapDriver, TRIGGER_REGULAR
from repro.faults import FAULT_PROFILES, FaultInjector, FaultRecovery, resolve_profile
from repro.mem.main_memory import MainMemory
from repro.mem.swap_buffer import SwapBufferPool
from tests.swap_stubs import FrameStub

DRAM_PAGES = 64
NVM_PAGES = 256
TOTAL = DRAM_PAGES + NVM_PAGES


def make_memory(stats):
    return MainMemory(
        HybridMemoryConfig(
            dram=dram_timing_table1(DRAM_PAGES * 4096),
            nvm=nvm_timing_table1(NVM_PAGES * 4096),
        ),
        stats,
    )


class TestFaultConfig:
    def test_defaults_are_disabled_and_free(self):
        config = FaultConfig()
        assert not config.enabled
        assert config.nvm_uncorrectable_rate == 0.0
        assert config.transient_rate == 0.0
        assert config.transfer_fault_rate == 0.0

    @pytest.mark.parametrize("field", [
        "nvm_uncorrectable_rate", "transient_rate", "transfer_fault_rate",
        "worker_crash_rate", "worker_stall_rate",
    ])
    def test_rates_must_be_probabilities(self, field):
        with pytest.raises(ConfigError):
            FaultConfig(**{field: 1.5})
        with pytest.raises(ConfigError):
            FaultConfig(**{field: -0.1})

    def test_retry_and_cycle_bounds(self):
        with pytest.raises(ConfigError):
            FaultConfig(max_retries=-1)
        with pytest.raises(ConfigError):
            FaultConfig(retry_backoff_cycles=0)
        with pytest.raises(ConfigError):
            FaultConfig(recovery_read_cycles=0)
        with pytest.raises(ConfigError):
            FaultConfig(worker_stall_seconds=-1.0)


class TestProfiles:
    def test_off_resolves_to_none(self):
        assert resolve_profile("off") is None
        assert resolve_profile("off", fault_seed=9) is None

    def test_unknown_profile_rejected(self):
        with pytest.raises(ConfigError):
            resolve_profile("meteor-strike")

    def test_seed_is_threaded_through(self):
        config = resolve_profile("storm", fault_seed=42)
        assert config.enabled
        assert config.fault_seed == 42

    def test_every_profile_is_valid(self):
        for name in FAULT_PROFILES:
            config = resolve_profile(name, fault_seed=1)
            assert config is None or config.enabled


class TestFaultErrors:
    def test_site_rendering(self):
        exc = TransientFaultError("boom", device="nvm", line=12, cycle=99)
        assert "device=nvm" in str(exc)
        assert "line=12" in str(exc)
        assert "cycle=99" in str(exc)
        assert exc.device == "nvm"

    def test_hierarchy(self):
        assert issubclass(TransientFaultError, FaultError)
        assert issubclass(UnrecoverableFaultError, FaultError)
        assert issubclass(WorkerFaultError, FaultError)

    def test_pickle_roundtrip_preserves_type(self):
        # Pool workers ship exceptions back to the parent by pickle; the
        # retry policy dispatches on the reconstructed type.
        exc = WorkerFaultError("crashed", device="worker")
        clone = pickle.loads(pickle.dumps(exc))
        assert isinstance(clone, WorkerFaultError)
        assert "crashed" in str(clone)

    def test_sweep_error_distinguishes_retry_exhaustion(self):
        request_a = ("pageseer", "lbmx4", "default")
        request_b = ("pom", "lbmx4", "default")
        exc = SweepError(
            [(request_a, ValueError("x")), (request_b, WorkerFaultError("y"))],
            attempts={request_a: 1, request_b: 3},
        )
        message = str(exc)
        assert "failed on first attempt, not retried" in message
        assert "failed on all 3 attempts, retries exhausted" in message


class TestInjector:
    def make(self, **overrides):
        stats = StatsRegistry()
        config = FaultConfig(enabled=True, **overrides)
        return FaultInjector(config, stats), stats

    def replay(self, injector, accesses):
        """Run an access schedule; return the indices that faulted."""
        fired = []
        for index, (device, line, is_write) in enumerate(accesses):
            try:
                injector.check_access(device, index, line, is_write)
            except FaultError:
                fired.append(index)
        return fired

    def test_same_seed_same_schedule(self):
        schedule = [("nvm", i % 97, i % 3 == 0) for i in range(400)]
        a, _ = self.make(transient_rate=0.05, fault_seed=11)
        b, _ = self.make(transient_rate=0.05, fault_seed=11)
        assert self.replay(a, schedule) == self.replay(b, schedule)

    def test_different_seed_different_schedule(self):
        schedule = [("nvm", i % 97, False) for i in range(400)]
        a, _ = self.make(transient_rate=0.05, fault_seed=1)
        b, _ = self.make(transient_rate=0.05, fault_seed=2)
        assert self.replay(a, schedule) != self.replay(b, schedule)

    def test_bad_pages_are_sticky(self):
        injector, stats = self.make()
        injector.mark_bad(3)
        assert injector.is_bad_page(3)
        assert injector.bad_pages == [3]
        # Every unsuppressed read of the bad page fails, deterministically.
        for _ in range(3):
            with pytest.raises(UnrecoverableFaultError):
                injector.check_access("nvm", 0, 3 * LINES_PER_PAGE, False)
        assert stats.get("faults/uncorrectable_reads") == 3
        assert stats.get("faults/bad_pages") == 1

    def test_writes_to_bad_pages_do_not_fault(self):
        injector, _ = self.make()
        injector.mark_bad(3)
        injector.check_access("nvm", 0, 3 * LINES_PER_PAGE, True)

    def test_dram_never_uncorrectable(self):
        injector, _ = self.make(nvm_uncorrectable_rate=1.0)
        injector.check_access("dram", 0, 0, False)
        with pytest.raises(UnrecoverableFaultError):
            injector.check_access("nvm", 0, 0, False)

    def test_suppression_masks_everything(self):
        injector, _ = self.make(
            transient_rate=1.0, nvm_uncorrectable_rate=1.0
        )
        injector.mark_bad(0)
        with injector.suppressed():
            assert not injector.active
            injector.check_access("nvm", 0, 0, False)
            assert injector.check_transfer("nvm", 0, 0, LINES_PER_PAGE, False) is None
            with injector.suppressed():
                injector.check_access("nvm", 0, 0, False)
            injector.check_access("nvm", 0, 0, False)
        assert injector.active
        with pytest.raises(UnrecoverableFaultError):
            injector.check_access("nvm", 0, 0, False)

    def test_transfer_budget_is_partial(self):
        injector, stats = self.make(transfer_fault_rate=1.0)
        budget = injector.check_transfer("dram", 0, 0, LINES_PER_PAGE, False)
        assert budget is not None
        assert 0 <= budget < LINES_PER_PAGE
        assert stats.get("faults/transfer_dram") == 1

    def test_bulk_read_over_bad_page_is_uncorrectable(self):
        injector, _ = self.make()
        injector.mark_bad(2)
        with pytest.raises(UnrecoverableFaultError):
            injector.check_transfer(
                "nvm", 0, 2 * LINES_PER_PAGE, LINES_PER_PAGE, False
            )
        # A bulk *write* to the same page is fine (it rewrites the cells).
        assert injector.check_transfer(
            "nvm", 0, 2 * LINES_PER_PAGE, LINES_PER_PAGE, True
        ) is None


class _ScriptedDevice:
    """A MemoryDevice stand-in that fails a scripted number of times."""

    def __init__(self, failures, exc_factory):
        self.failures = failures
        self.exc_factory = exc_factory
        self.issue_times = []

    def access_finish(self, now, line, is_write, bulk=False):
        self.issue_times.append(now)
        if self.failures > 0:
            self.failures -= 1
            raise self.exc_factory()
        return now + 50


class TestRecovery:
    def make(self, **overrides):
        stats = StatsRegistry()
        config = FaultConfig(
            enabled=True, max_retries=3, retry_backoff_cycles=200,
            recovery_read_cycles=2000, **overrides,
        )
        injector = FaultInjector(config, stats)
        return FaultRecovery(config, injector, stats), stats

    def test_backoff_schedule_is_exponential(self):
        device = _ScriptedDevice(2, lambda: TransientFaultError("flaky"))
        recovery, stats = self.make()
        finish = recovery.access(device, 0, 1000, 7, False)
        # Issue times: 1000, +200, +400 — then the third attempt succeeds.
        assert device.issue_times == [1000, 1200, 1600]
        assert finish == 1650
        assert stats.get("faults/retries") == 2
        assert stats.get("faults/retry_backoff_cycles") == 600
        assert stats.get("faults/degraded_services") == 0

    def test_exhausted_retries_degrade(self):
        device = _ScriptedDevice(99, lambda: TransientFaultError("flaky"))
        recovery, stats = self.make()
        finish = recovery.access(device, 0, 0, 7, False)
        # max_retries=3 allows 4 issues (original + 3 retries).
        assert len(device.issue_times) == 4
        assert finish == device.issue_times[-1] + 2000
        assert stats.get("faults/retries_exhausted") == 1
        assert stats.get("faults/degraded_services") == 1

    def test_uncorrectable_calls_hook_and_degrades(self):
        device = _ScriptedDevice(
            99, lambda: UnrecoverableFaultError("dead cells")
        )
        recovery, stats = self.make()
        seen = []
        recovery.on_uncorrectable = lambda now, line: seen.append((now, line))
        finish = recovery.access(device, 1000, 500, 42, False)
        # The hook sees the system line: the device's base plus its line.
        assert seen == [(500, 1042)]
        assert len(device.issue_times) == 1  # never retried
        assert finish == 500 + 2000
        assert stats.get("faults/uncorrectable_services") == 1
        assert stats.get("faults/degraded_services") == 1


class FaultyHarness:
    """A SwapDriver wired to a real memory with a real injector."""

    def __init__(self, fault_config, quarantined=()):
        self.stats = StatsRegistry()
        self.memory = make_memory(self.stats)
        self.injector = FaultInjector(fault_config, self.stats)
        self.memory.attach_injector(self.injector)
        self.prt = PageRemapTable(DRAM_PAGES, TOTAL, 4)
        self.frames = FrameStub(quarantined=quarantined)
        self.quarantined = self.frames.quarantined
        self.driver = SwapDriver(
            PageSeerConfig(),
            self.memory,
            self.prt,
            HotPageTable(64, 63, 100_000),
            SwapBufferPool(24, self.stats),
            self.stats,
            self.frames,
            faults=fault_config,
            injector=self.injector,
        )


class TestSwapDriverFaults:
    def test_abort_leaves_no_trace(self):
        config = FaultConfig(
            enabled=True, transfer_fault_rate=1.0, max_retries=0
        )
        h = FaultyHarness(config)
        page = DRAM_PAGES  # colour 0
        assert not h.driver.request_swap(0, page, TRIGGER_REGULAR, 0.0)
        assert h.stats.get("swap_driver/aborted_swaps") == 1
        assert h.prt.active_pairs == 0
        assert not h.driver.active_swaps()
        assert h.driver.records == []
        assert h.stats.get("swap_driver/swaps") == 0

    def test_transient_transfer_faults_are_retried(self):
        # With a moderate rate and a deep retry budget, the swap lands
        # eventually — and the retries are visible in the stats.
        config = FaultConfig(
            enabled=True, transfer_fault_rate=0.3, max_retries=8, fault_seed=4
        )
        h = FaultyHarness(config)
        page = DRAM_PAGES
        assert h.driver.request_swap(0, page, TRIGGER_REGULAR, 0.0)
        assert h.prt.is_swapped(page)
        assert h.stats.get("swap_driver/swap_retries") > 0
        # The commit time reflects the backoff: start moved past `now`.
        assert h.driver.records[-1].start > 0

    def test_uncorrectable_page_cannot_be_swapped_normally(self):
        config = FaultConfig(enabled=True, max_retries=4)
        h = FaultyHarness(config)
        page = DRAM_PAGES
        h.injector.mark_bad(page - DRAM_PAGES)
        assert not h.driver.request_swap(0, page, TRIGGER_REGULAR, 0.0)
        assert h.stats.get("swap_driver/aborted_swaps") == 1
        assert not h.prt.is_swapped(page)

    def test_rescue_swap_suppresses_injection(self):
        config = FaultConfig(enabled=True, max_retries=0)
        h = FaultyHarness(config)
        page = DRAM_PAGES
        h.injector.mark_bad(page - DRAM_PAGES)
        h.quarantined.add(page)
        assert h.driver.rescue_swap(0, page)
        assert h.prt.is_swapped(page)
        assert [record.trigger for record in h.driver.records] == ["rescue"]
        assert h.stats.get("swap_driver/swaps_rescue") == 1

    def test_quarantined_page_declined_by_request_swap(self):
        config = FaultConfig(enabled=True)
        h = FaultyHarness(config, quarantined={DRAM_PAGES})
        assert not h.driver.request_swap(0, DRAM_PAGES, TRIGGER_REGULAR, 0.0)
        assert h.stats.get("swap_driver/declined_quarantined") == 1

    def test_rescued_page_is_pinned_in_dram(self):
        config = FaultConfig(enabled=True)
        h = FaultyHarness(config)
        colours = 16  # 64 frames / 4 ways
        bad_page = DRAM_PAGES  # colour 0
        h.injector.mark_bad(bad_page - DRAM_PAGES)
        h.quarantined.add(bad_page)
        assert h.driver.rescue_swap(0, bad_page)
        frame = h.prt.dram_frame_holding(bad_page)
        # Swap in more colour-0 pages than there are remaining colour-0
        # frames; the quarantined page's frame must never be the victim.
        for index in range(1, 6):
            h.driver.request_swap(
                10_000 * index, DRAM_PAGES + index * colours,
                TRIGGER_REGULAR, 0.0,
            )
        assert h.prt.dram_frame_holding(bad_page) == frame
