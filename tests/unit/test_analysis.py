"""Unit tests for the post-run analysis toolkit (repro.analysis)."""

import pytest

from repro.analysis import LeadTimeProbe, ResidencyProbe, ammat_breakdown
from repro.analysis.lead_time import LeadTimeSummary
from repro.analysis.residency import ResidencySummary
from repro.sim.system import build_system
from repro.workloads import workload_by_name


def probed_system(workload="lbmx4", ops=4000):
    system = build_system("pageseer", workload_by_name(workload), scale=1024)
    lead = LeadTimeProbe(system)
    residency = ResidencyProbe(system)
    system.run_ops(ops)
    return system, lead, residency


class TestLeadTimeProbe:
    def test_requires_pageseer(self):
        system = build_system("noswap", workload_by_name("lbmx4"), scale=1024)
        with pytest.raises(ValueError):
            LeadTimeProbe(system)

    def test_observes_swaps(self):
        _, lead, _ = probed_system()
        summary = lead.summary()
        assert summary.swaps_observed > 0
        assert summary.swaps_with_demand <= summary.swaps_observed

    def test_counts_swaps_committed_before_it_attached(self):
        system = build_system("pageseer", workload_by_name("lbmx4"), scale=1024)
        system.run_ops(2000)
        earlier = len(system.hmc.swap_driver.records)
        assert earlier > 0
        lead = LeadTimeProbe(system)
        system.run_ops(2000)
        records = system.hmc.swap_driver.records
        assert len(records) > earlier
        assert lead.summary().swaps_observed == len(records)

    def test_leads_are_sane(self):
        _, lead, _ = probed_system()
        for lead_cycles, start, end, first_hit in lead.observations:
            assert lead_cycles == first_hit - start
            assert end > start

    def test_probe_does_not_change_results(self):
        plain = build_system("pageseer", workload_by_name("lbmx4"), scale=1024)
        plain.run_ops(3000)
        probed = build_system("pageseer", workload_by_name("lbmx4"), scale=1024)
        LeadTimeProbe(probed)
        probed.run_ops(3000)
        assert [c.clock for c in plain.cores] == [c.clock for c in probed.cores]
        assert plain.stats.get("swap_driver/swaps") == probed.stats.get(
            "swap_driver/swaps"
        )

    def test_summary_fractions(self):
        summary = LeadTimeSummary(
            swaps_observed=10, swaps_with_demand=8, mean_lead=5, median_lead=4,
            fully_hidden=2, partially_hidden=4,
        )
        assert summary.hidden_fraction == pytest.approx(0.25)
        assert summary.covered_fraction == pytest.approx(0.75)

    def test_summary_empty(self):
        summary = LeadTimeSummary(0, 0, 0.0, 0.0, 0, 0)
        assert summary.hidden_fraction == 0.0
        assert "swaps observed" in summary.render()


class TestResidencyProbe:
    def test_requires_pageseer(self):
        system = build_system("pom", workload_by_name("lbmx4"), scale=1024)
        with pytest.raises(ValueError):
            ResidencyProbe(system)

    def test_tracks_residencies(self):
        _, _, residency = probed_system()
        summary = residency.summary()
        assert summary.completed_residencies + summary.live_residencies > 0

    def test_hits_counted(self):
        _, _, residency = probed_system()
        summary = residency.summary()
        assert summary.mean_hits > 0

    def test_break_even_from_config(self):
        system, _, residency = probed_system(ops=500)
        assert residency.break_even_hits == system.config.pageseer.pct_prefetch_threshold

    def test_summary_render(self):
        summary = ResidencySummary(3, 1, 100.0, 20.0, 4, 14)
        text = summary.render()
        assert "3 completed" in text
        assert summary.amortised_fraction == pytest.approx(1.0)


class TestAmmatBreakdown:
    def test_parts_bounded_by_whole(self):
        system, _, _ = probed_system()
        breakdown = ammat_breakdown(system)
        assert breakdown.ammat > 0
        for part in (breakdown.device_service, breakdown.queueing,
                     breakdown.remap_wait, breakdown.other):
            assert 0 <= part <= breakdown.ammat

    def test_device_service_positive(self):
        system, _, _ = probed_system()
        assert ammat_breakdown(system).device_service > 0

    def test_works_for_baselines(self):
        system = build_system("pom", workload_by_name("lbmx4"), scale=1024)
        system.run_ops(2000)
        breakdown = ammat_breakdown(system)
        assert breakdown.ammat > 0

    def test_empty_run(self):
        system = build_system("noswap", workload_by_name("lbmx4"), scale=1024)
        breakdown = ammat_breakdown(system)
        assert breakdown.ammat == 0.0

    def test_render(self):
        system, _, _ = probed_system(ops=1000)
        text = ammat_breakdown(system).render()
        assert "AMMAT" in text
        assert "queueing" in text
