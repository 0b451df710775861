"""Unit tests for the simulation sanitizer (repro.check)."""

import dataclasses

import pytest

from repro.check import (
    CheckManager,
    PrtBijectivityChecker,
    ShadowPageOracle,
    SlotMapChecker,
    StatsSanityChecker,
    Violation,
    build_checkers,
)
from repro.common.config import CheckConfig
from repro.common.errors import CheckViolationError, ConfigError
from repro.core.swap_driver import TRIGGER_REGULAR, SwapRecord
from repro.sim.system import build_system
from repro.workloads import workload_by_name


def checked_system(scheme="pageseer", level="full", interval=64, fail_fast=True):
    return build_system(
        scheme,
        workload_by_name("lbmx4"),
        scale=1024,
        check=CheckConfig(level=level, interval_ops=interval, fail_fast=fail_fast),
    )


def system_now(system):
    return max(core.clock for core in system.cores)


class TestCheckConfig:
    def test_default_is_off(self):
        config = CheckConfig()
        assert config.level == "off"
        assert not config.enabled
        assert not config.shadow_enabled

    def test_levels(self):
        assert CheckConfig(level="invariants").enabled
        assert not CheckConfig(level="invariants").shadow_enabled
        assert CheckConfig(level="full").shadow_enabled

    def test_bad_level_rejected(self):
        with pytest.raises(ConfigError):
            CheckConfig(level="paranoid")

    def test_bad_interval_rejected(self):
        with pytest.raises(ConfigError):
            CheckConfig(level="full", interval_ops=0)


class TestViolation:
    def test_str_names_checker_page_and_frame(self):
        violation = Violation(
            checker="prt-bijectivity", message="broken", page=42, frame=7
        )
        text = str(violation)
        assert "prt-bijectivity" in text
        assert "broken" in text
        assert "page=42" in text
        assert "frame=7" in text

    def test_error_aggregates_violations(self):
        error = CheckViolationError([
            Violation(checker="a", message="first"),
            Violation(checker="b", message="second"),
        ])
        assert len(error.violations) == 2
        assert "2 invariant violations" in str(error)
        assert "first" in str(error) and "second" in str(error)


class TestAttachment:
    def test_off_level_builds_nothing(self):
        system = build_system("pageseer", workload_by_name("lbmx4"), scale=1024)
        assert system.checker is None
        # No instance wrapper: handle_request resolves to the class method.
        assert "handle_request" not in vars(system.hmc)

    def test_enabled_level_wraps_instance(self):
        system = checked_system(level="invariants")
        assert system.checker is not None
        assert "handle_request" in vars(system.hmc)
        assert system.checker.shadow is None

    def test_full_level_adds_shadow_for_pageseer(self):
        system = checked_system(level="full")
        assert system.checker.shadow is not None
        listeners = system.hmc.swap_driver.listeners
        assert system.checker.shadow.on_swap in listeners
        assert system.checker._on_swap in listeners

    def test_scheme_specific_checkers(self):
        pageseer = {c.name for c in build_checkers(checked_system("pageseer"))}
        pom = {c.name for c in build_checkers(checked_system("pom"))}
        assert "prt-bijectivity" in pageseer
        assert "prt-bijectivity" not in pom
        assert "frame-exclusivity" in pageseer and "frame-exclusivity" in pom
        assert "stats-sanity" in pageseer and "stats-sanity" in pom
        assert "slot-map" in pom and "slot-map" not in pageseer
        for scheme in ("mempod", "cameo"):
            names = {c.name for c in build_checkers(checked_system(scheme))}
            assert "slot-map" in names
        noswap = {c.name for c in build_checkers(checked_system("noswap"))}
        assert "slot-map" not in noswap


class TestSlotMap:
    @staticmethod
    def _swapped_system(scheme):
        system = build_system(scheme, workload_by_name("streamx4"), scale=1024)
        system.run_ops(2000)
        return system

    @pytest.mark.parametrize("scheme", ["pom", "mempod", "cameo"])
    def test_clean_after_real_run(self, scheme):
        system = self._swapped_system(scheme)
        maps = system.hmc._pods if scheme == "mempod" else [system.hmc._slots]
        assert any(slot_map._slot_of for slot_map in maps)
        assert SlotMapChecker().check(system, system_now(system)) == []

    def test_missing_reverse_entry_flagged(self):
        system = self._swapped_system("pom")
        slots = system.hmc._slots
        slot = next(iter(slots._member_in))
        member = slots._member_in.pop(slot)
        violations = SlotMapChecker().check(system, system_now(system))
        assert any("entries" in v.message for v in violations)
        assert any(v.page == member and "no inverse" in v.message
                   for v in violations)

    def test_identity_and_out_of_space_entries_flagged(self):
        system = self._swapped_system("cameo")
        slots = system.hmc._slots
        space = system.hmc.total_lines
        slots._slot_of[5] = 5
        slots._member_in[5] = 5
        slots._slot_of[space] = 7
        slots._member_in[7] = space
        messages = [
            v.message
            for v in SlotMapChecker().check(system, system_now(system))
        ]
        assert any("identity member entry 5 -> 5" in m for m in messages)
        assert any("identity slot entry 5 -> 5" in m for m in messages)
        assert any("outside the slot space" in m for m in messages)

    def test_mempod_entry_of_another_pod_flagged(self):
        system = self._swapped_system("mempod")
        hmc = system.hmc
        first, second = hmc._pods[0], hmc._pods[-1]
        assert first is not second
        stranger = second.fast_slots[0]
        home = first.fast_slots[0]
        first._slot_of[stranger] = home
        first._member_in[home] = stranger
        violations = SlotMapChecker().check(system, system_now(system))
        assert any(
            v.page == stranger and "another pod" in v.message
            for v in violations
        )

    def test_mempod_pods_that_do_not_divide_the_fast_segments(self):
        # 5 pods over streamx4's 256 fast segments: the last pod takes
        # the remainder, and every request must consult the pod that owns
        # its segment's slot.
        def five_pods(config):
            return dataclasses.replace(
                config, mempod=dataclasses.replace(config.mempod, pods=5)
            )

        system = build_system(
            "mempod", workload_by_name("streamx4"), scale=1024,
            config_mutator=five_pods, check=CheckConfig(level="full"),
        )
        system.run(4000, 1000)
        assert system.hmc.migrations > 0
        assert system.checker.report().clean


class TestPrtBijectivity:
    def test_clean_after_real_run(self):
        system = checked_system()
        system.run_ops(300)
        assert PrtBijectivityChecker().check(system, system_now(system)) == []

    def test_forward_without_reverse_flagged(self):
        system = checked_system(level="invariants")
        system.run_ops(200)
        prt = system.hmc.prt
        nvm = prt.dram_pages + prt.num_colours * 3 + 1
        frame = prt.dram_frames_of_colour(prt.colour_of(nvm))[0]
        prt._corrupt_for_test(nvm, frame)
        violations = PrtBijectivityChecker().check(system, system_now(system))
        assert violations
        assert any(v.page == nvm and v.frame == frame for v in violations)


class TestStatsSanity:
    def test_clean_registry_passes(self, tiny_system):
        tiny_system.run_ops(100)
        checker = StatsSanityChecker()
        assert checker.check(tiny_system, system_now(tiny_system)) == []

    def test_negative_counter_flagged(self, tiny_system):
        tiny_system.stats._counters["hmc/bogus"] = -3.0
        checker = StatsSanityChecker()
        violations = checker.check(tiny_system, system_now(tiny_system))
        assert any("hmc/bogus" in v.message for v in violations)


class FakePrt:
    """Minimal PRT stand-in for oracle unit tests."""

    def __init__(self, mapping):
        self._mapping = dict(mapping)

    def location_of(self, page):
        if page in self._mapping:
            return self._mapping[page]
        inverse = {v: k for k, v in self._mapping.items()}
        return inverse.get(page, page)

    def entries(self):
        return list(self._mapping.items())


def swap(start, page, frame, occupant, end):
    """The record of one committed swap, as the Swap Driver announces it."""
    return SwapRecord(
        page=page, dram_frame=frame, trigger=TRIGGER_REGULAR, start=start,
        end=end, reads=2 if occupant is None else 3,
        writes=2 if occupant is None else 3,
        optimized_slow=occupant is not None, occupant=occupant,
    )


class TestShadowOracle:
    def test_swap_maps_both_directions(self):
        oracle = ShadowPageOracle(dram_pages=8, total_pages=32)
        oracle.on_swap(swap(100, 20, 3, None, 150))
        assert oracle.expected_location(20) == 3
        assert oracle.expected_location(3) == 20
        assert oracle.expected_location(21) == 21  # untouched NVM page
        assert oracle.expected_location(4) == 4    # untouched DRAM frame
        assert not oracle.event_violations

    def test_occupant_returns_home(self):
        oracle = ShadowPageOracle(dram_pages=8, total_pages=32)
        oracle.on_swap(swap(100, 20, 3, None, 150))
        oracle.on_swap(swap(200, 21, 3, 20, 250))  # 21 evicts 20 from frame 3
        assert oracle.expected_location(20) == 20
        assert oracle.expected_location(21) == 3
        assert not oracle.event_violations

    def test_unknown_occupant_flagged(self):
        oracle = ShadowPageOracle(dram_pages=8, total_pages=32)
        oracle.on_swap(swap(100, 21, 3, 20, 150))  # oracle never saw 20 arrive
        assert any(v.page == 20 for v in oracle.event_violations)

    def test_double_install_flagged(self):
        oracle = ShadowPageOracle(dram_pages=8, total_pages=32)
        oracle.on_swap(swap(100, 20, 3, None, 150))
        oracle.on_swap(swap(200, 20, 5, None, 250))
        assert any(v.page == 20 for v in oracle.event_violations)

    def test_verify_access_catches_divergence(self):
        oracle = ShadowPageOracle(dram_pages=8, total_pages=32)
        oracle.on_swap(swap(100, 20, 3, None, 150))
        good = FakePrt({20: 3})
        bad = FakePrt({})  # lost the remap entirely
        assert oracle.verify_access(good, 20) is None
        violation = oracle.verify_access(bad, 20)
        assert violation is not None and violation.page == 20

    def test_verify_full_reports_both_directions(self):
        oracle = ShadowPageOracle(dram_pages=8, total_pages=32)
        oracle.on_swap(swap(100, 20, 3, None, 150))
        missing = oracle.verify_full(FakePrt({}))
        assert any(v.page == 20 and v.frame == 3 for v in missing)
        extra = oracle.verify_full(FakePrt({20: 3, 22: 5}))
        assert any(v.page == 22 for v in extra)


class TestManager:
    def test_collect_mode_defers_to_finalize(self):
        manager = CheckManager(CheckConfig(level="invariants", fail_fast=False))
        manager.violations.append(
            Violation(checker="test", message="stashed")
        )
        system = build_system("noswap", workload_by_name("lbmx4"), scale=1024)
        manager.attach(system)
        with pytest.raises(CheckViolationError) as excinfo:
            manager.finalize(0)
        assert any(v.message == "stashed" for v in excinfo.value.violations)

    def test_report_counts_activity(self):
        system = checked_system(level="full", interval=32)
        system.run_ops(200)
        report = system.checker.report()
        assert report.clean
        assert report.accesses_observed > 0
        assert report.sweeps >= 1
        assert report.shadow_accesses_checked > 0
        assert "prt-bijectivity" in report.checkers
