"""Unit tests for run metrics (repro.sim.metrics)."""

import pytest

from repro.sim.metrics import PERSISTED_FIELDS, RunMetrics


def make_metrics(**overrides):
    base = dict(
        scheme="pageseer",
        workload="lbmx4",
        suite="spec",
        instructions=10_000,
        cycles=20_000.0,
        ipc=0.5,
        ammat=300.0,
        serviced_dram=700,
        serviced_nvm=250,
        serviced_buffer=50,
        positive_accesses=600,
        negative_accesses=10,
        neutral_accesses=390,
        swaps_total=20,
        swaps_mmu=10,
        swaps_pct=4,
        swaps_regular=6,
        prefetch_accurate=12,
        prefetch_inaccurate=2,
        tlb_misses=100,
        pte_llc_misses=15,
        mmu_driver_hit_rate=0.99,
        remap_wait_cycles=5000.0,
        remap_misses=40,
    )
    base.update(overrides)
    return RunMetrics(**base)


class TestShares:
    def test_serviced_shares_sum_to_one(self):
        m = make_metrics()
        assert m.dram_share + m.nvm_share + m.buffer_share == pytest.approx(1.0)

    def test_dram_share(self):
        assert make_metrics().dram_share == 0.7

    def test_shares_zero_when_empty(self):
        m = make_metrics(serviced_dram=0, serviced_nvm=0, serviced_buffer=0)
        assert m.dram_share == 0.0
        assert m.total_serviced == 0

    def test_positive_shares(self):
        m = make_metrics()
        total = 600 + 10 + 390
        assert m.positive_share == pytest.approx(600 / total)
        assert m.negative_share == pytest.approx(10 / total)
        assert m.neutral_share == pytest.approx(390 / total)


class TestSwapDerivations:
    def test_swaps_per_kilo_instruction(self):
        assert make_metrics().swaps_per_kilo_instruction == pytest.approx(2.0)

    def test_spki_zero_instructions(self):
        assert make_metrics(instructions=0).swaps_per_kilo_instruction == 0.0

    def test_prefetch_shares(self):
        m = make_metrics()
        assert m.prefetch_swaps == 14
        assert m.prefetch_swap_share == pytest.approx(0.7)
        assert m.mmu_swap_share == pytest.approx(0.5)

    def test_prefetch_shares_no_swaps(self):
        m = make_metrics(swaps_total=0, swaps_mmu=0, swaps_pct=0, swaps_regular=0)
        assert m.prefetch_swap_share == 0.0

    def test_prefetch_accuracy(self):
        assert make_metrics().prefetch_accuracy == pytest.approx(12 / 14)

    def test_accuracy_no_prefetches(self):
        m = make_metrics(prefetch_accurate=0, prefetch_inaccurate=0)
        assert m.prefetch_accuracy == 0.0


class TestPte:
    def test_pte_cache_miss_rate(self):
        assert make_metrics().pte_cache_miss_rate == pytest.approx(0.15)

    def test_pte_rate_no_tlb_misses(self):
        assert make_metrics(tlb_misses=0).pte_cache_miss_rate == 0.0


class TestPayload:
    def test_payload_is_every_field_but_raw_in_declaration_order(self):
        metrics = make_metrics(raw={"tlb/misses": 100.0})
        payload = metrics.payload()
        assert tuple(payload) == PERSISTED_FIELDS
        assert "raw" not in payload
        assert PERSISTED_FIELDS[:3] == ("scheme", "workload", "suite")
        assert PERSISTED_FIELDS[-1] == "degraded_services"
        assert RunMetrics(raw={}, **payload) == make_metrics()
