"""Unit tests for the scheme-comparison helper (repro.analysis.compare)."""

import inspect

import pytest

from repro.analysis.compare import (
    ComparisonRow,
    compare_schemes,
    comparison_table,
    winner_by_ipc,
)
from repro.experiments.runner import (
    DEFAULT_MEASURE_OPS,
    DEFAULT_SCALE,
    DEFAULT_WARMUP_OPS,
)
from repro.workloads.extras import extra_workload_by_name

from tests.unit.test_figures import metrics

SIZING = dict(scale=1024, measure_ops=300, warmup_ops=300)


class TestCompareSchemes:
    def test_defaults_are_the_runners_paper_sizing(self):
        # One sizing for every scheme comparison: the runner's, whose
        # warm-up covers the longest workload's first sweep.
        defaults = {
            name: parameter.default
            for name, parameter in inspect.signature(
                compare_schemes
            ).parameters.items()
        }
        assert defaults["scale"] == DEFAULT_SCALE
        assert defaults["measure_ops"] == DEFAULT_MEASURE_OPS
        assert defaults["warmup_ops"] == DEFAULT_WARMUP_OPS

    def test_rows_cover_matrix(self):
        rows = compare_schemes(["milcx4"], schemes=("noswap", "pageseer"), **SIZING)
        assert len(rows) == 2
        assert {row.scheme for row in rows} == {"noswap", "pageseer"}

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            compare_schemes(["milcx4"], schemes=("bogus",), **SIZING)

    def test_accepts_workload_specs(self):
        spec = extra_workload_by_name("gupsx4")
        rows = compare_schemes([spec], schemes=("noswap",), **SIZING)
        assert rows[0].workload == "gupsx4"

    def test_fast_share(self):
        row = ComparisonRow("w", "s", metrics("s", "lbmx4",
                                              serviced_dram=80,
                                              serviced_nvm=10,
                                              serviced_buffer=10))
        assert row.fast_share == pytest.approx(0.9)


class TestTableAndWinner:
    def make_rows(self):
        return [
            ComparisonRow("lbmx4", "noswap", metrics("noswap", "lbmx4", ipc=0.2)),
            ComparisonRow("lbmx4", "pageseer", metrics("pageseer", "lbmx4", ipc=0.3)),
            ComparisonRow("milcx4", "noswap", metrics("noswap", "milcx4", ipc=0.9)),
            ComparisonRow("milcx4", "pageseer", metrics("pageseer", "milcx4", ipc=0.8)),
        ]

    def test_table_shape(self):
        table = comparison_table(self.make_rows())
        assert len(table.rows) == 4
        assert "Comparison" in table.render()

    def test_winner_by_ipc(self):
        winners = winner_by_ipc(self.make_rows())
        assert winners == {"lbmx4": "pageseer", "milcx4": "noswap"}
