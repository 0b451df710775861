"""Unit tests for the sensitivity and stability experiment modules."""

import pytest

from repro.experiments import sensitivity, stability
from repro.experiments.runner import VARIANTS
from repro.common.config import default_system_config

from tests.unit.test_figures import FakeRunner, metrics


class TestVariantRegistration:
    def test_all_sweep_points_registered(self):
        for parameter, values in sensitivity.SWEEPS.items():
            for value in values:
                assert sensitivity.variant_name(parameter, value) in VARIANTS

    def test_variant_mutates_config(self):
        name = sensitivity.variant_name("pct_prefetch_threshold", 7)
        config = VARIANTS[name](default_system_config(scale=1024))
        assert config.pageseer.pct_prefetch_threshold == 7

    def test_paper_values_inside_sweeps(self):
        for parameter, paper_value in sensitivity.PAPER_VALUES.items():
            assert paper_value in sensitivity.SWEEPS[parameter]


class TestSensitivityCompute:
    def make_runner(self):
        table = {}
        for parameter, values in sensitivity.SWEEPS.items():
            for value in values:
                variant = sensitivity.variant_name(parameter, value)
                for workload in sensitivity.WORKLOADS:
                    # IPC peaks at the paper's value.
                    distance = abs(value - sensitivity.PAPER_VALUES[parameter])
                    table[("pageseer", workload, variant)] = metrics(
                        "pageseer", workload, ipc=1.0 / (1 + distance)
                    )
        return FakeRunner(table)

    def test_rows_cover_all_sweeps(self):
        result = sensitivity.compute(self.make_runner())
        expected = sum(len(v) for v in sensitivity.SWEEPS.values())
        assert len(result.rows) == expected

    def test_paper_value_marked(self):
        result = sensitivity.compute(self.make_runner())
        marked = [row for row in result.rows if row[5] == "*"]
        assert len(marked) == len(sensitivity.SWEEPS)

    def test_best_value_helper(self):
        result = sensitivity.compute(self.make_runner())
        for parameter, paper_value in sensitivity.PAPER_VALUES.items():
            assert sensitivity.best_value_for(result, parameter) == paper_value


class TestStabilityCompute:
    def make_runner(self, ratios):
        """ratios: {(workload, seed): (pageseer_ipc, mempod_ipc)}"""
        parent = FakeRunner({})
        parent.scale = 512
        parent.measure_ops = 1
        parent.warmup_ops = 1
        parent.cache_dir = None

        class SeededFake(FakeRunner):
            def __init__(self, seed):
                table = {}
                for workload in stability.WORKLOADS:
                    ps_ipc, mp_ipc = ratios[(workload, seed)]
                    table[("pageseer", workload, "default")] = metrics(
                        "pageseer", workload, ipc=ps_ipc
                    )
                    table[("mempod", workload, "default")] = metrics(
                        "mempod", workload, ipc=mp_ipc
                    )
                super().__init__(table)

        import unittest.mock as mock

        self._patch = mock.patch.object(
            stability, "_runner_for_seed", lambda runner, seed: SeededFake(seed)
        )
        self._patch.start()
        parent.workload_names = lambda: list(stability.WORKLOADS)
        return parent

    def teardown_method(self, method):
        if hasattr(self, "_patch"):
            self._patch.stop()

    def test_ratios_computed_per_seed(self):
        ratios = {
            (w, s): (1.2, 1.0)
            for w in stability.WORKLOADS
            for s in stability.SEEDS
        }
        result = stability.compute(self.make_runner(ratios))
        per_seed = [row for row in result.rows if isinstance(row[1], int)]
        assert len(per_seed) == len(stability.WORKLOADS) * len(stability.SEEDS)
        assert all(row[4] == pytest.approx(1.2) for row in per_seed)

    def test_spread_zero_for_identical_seeds(self):
        ratios = {
            (w, s): (1.5, 1.0)
            for w in stability.WORKLOADS
            for s in stability.SEEDS
        }
        result = stability.compute(self.make_runner(ratios))
        assert all(s == pytest.approx(0.0) for s in stability.ratio_spreads(result))

    def test_spread_reflects_variance(self):
        ratios = {}
        for w in stability.WORKLOADS:
            for index, s in enumerate(stability.SEEDS):
                ratios[(w, s)] = (1.0 + 0.2 * index, 1.0)
        result = stability.compute(self.make_runner(ratios))
        for spread in stability.ratio_spreads(result):
            assert spread > 0.2
