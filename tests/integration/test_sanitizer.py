"""Integration tests for the sanitizer over whole simulations.

Two halves of the acceptance story: every scheme completes a full small
run with zero violations, and a deliberately injected PRT corruption is
caught and reported with the violating page and frame.
"""

import pytest

from repro.common.config import CheckConfig
from repro.common.errors import CheckViolationError
from repro.sim.system import build_system
from repro.workloads import workload_by_name


def checked_system(scheme, level="full", interval=64, fail_fast=True):
    return build_system(
        scheme,
        workload_by_name("lbmx4"),
        scale=1024,
        check=CheckConfig(level=level, interval_ops=interval, fail_fast=fail_fast),
    )


class TestCleanRuns:
    @pytest.mark.parametrize("scheme", ["pageseer", "pom", "mempod"])
    def test_full_check_run_is_clean(self, scheme):
        system = checked_system(scheme)
        system.run(400, 400)
        report = system.checker.report()
        assert report.clean, [str(v) for v in report.violations]
        assert report.accesses_observed > 0
        assert report.sweeps > 0

    def test_pageseer_shadow_actually_exercised(self):
        """The oracle must have replayed swaps and checked accesses —
        a clean report with zero shadow activity would prove nothing."""
        system = checked_system("pageseer")
        system.run(400, 400)
        report = system.checker.report()
        assert report.shadow_accesses_checked > 0
        assert report.shadow_swaps_replayed > 0

    def test_invariants_level_skips_shadow(self):
        system = checked_system("pageseer", level="invariants")
        system.run(400, 400)
        report = system.checker.report()
        assert report.clean
        assert report.shadow_accesses_checked == 0


class TestInjectedCorruption:
    def _corrupt(self, system):
        """Plant a forward PRT entry with no inverse; returns (page, frame)."""
        prt = system.hmc.prt
        nvm = prt.dram_pages + prt.num_colours * 3 + 1
        frame = prt.dram_frames_of_colour(prt.colour_of(nvm))[0]
        prt._corrupt_for_test(nvm, frame)
        return nvm, frame

    def test_corruption_is_caught_and_located(self):
        system = checked_system("pageseer", interval=16)
        system.run_ops(400)
        page, frame = self._corrupt(system)
        with pytest.raises(CheckViolationError) as excinfo:
            system.run_ops(2000)
        text = str(excinfo.value)
        assert "prt-bijectivity" in text
        # The write bypassed the Swap Driver's commit, so no swap record
        # accounts for the extra pair.
        assert "prt-event-conservation" in text
        assert f"page={page}" in text
        assert f"frame={frame}" in text

    def test_collect_mode_raises_at_finalize(self):
        system = checked_system("pageseer", interval=16, fail_fast=False)
        system.run_ops(400)
        page, _frame = self._corrupt(system)
        with pytest.raises(CheckViolationError) as excinfo:
            system.run(400)
        assert any(v.page == page for v in excinfo.value.violations)
        # collect mode kept sweeping instead of dying on the first hit
        assert len(excinfo.value.violations) >= 1
        assert system.checker.sweeps > 1
