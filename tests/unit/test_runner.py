"""Unit tests for the experiment runner (repro.experiments.runner)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments.jobcore import execute_job
from repro.experiments.runner import (
    CACHE_VERSION,
    VARIANTS,
    ExperimentRunner,
)
from repro.sim.metrics import PERSISTED_FIELDS


def make_runner(tmp_path, **kwargs):
    kwargs.setdefault("scale", 1024)
    kwargs.setdefault("measure_ops", 400)
    kwargs.setdefault("warmup_ops", 500)
    kwargs.setdefault("workloads", ["lbmx4"])
    return ExperimentRunner(cache_dir=tmp_path / "cache", **kwargs)


class TestCacheKeys:
    def test_key_includes_everything(self, tmp_path):
        runner = make_runner(tmp_path)
        key = runner._key("pageseer", "lbmx4", "nocorr")
        for fragment in (
            f"v{CACHE_VERSION}", "pageseer", "lbmx4", "nocorr",
            "s1024", "m400", "w500", "seed0",
        ):
            assert fragment in key

    def test_different_sizing_different_keys(self, tmp_path):
        a = make_runner(tmp_path)
        b = make_runner(tmp_path, measure_ops=401)
        assert a._key("x", "y", "z") != b._key("x", "y", "z")

    def test_corrupt_cache_entry_ignored(self, tmp_path):
        runner = make_runner(tmp_path)
        runner.cache_dir.mkdir(parents=True, exist_ok=True)
        path = runner._cache_path(runner._key("noswap", "lbmx4", "default"))
        path.write_text("{not json")
        metrics = runner.run("noswap", "lbmx4")  # recomputes cleanly
        assert metrics.scheme == "noswap"


class TestRunMany:
    def test_dedup_and_results(self, tmp_path):
        runner = make_runner(tmp_path)
        requests = [("noswap", "lbmx4", "default")] * 3
        results = runner.run_many(requests, jobs=1)
        assert len(results) == 1

    def test_serial_path_matches_run(self, tmp_path):
        runner = make_runner(tmp_path)
        results = runner.run_many([("noswap", "lbmx4", "default")], jobs=1)
        direct = runner.run("noswap", "lbmx4")
        assert results[("noswap", "lbmx4", "default")].ipc == direct.ipc

    def test_cached_requests_skip_simulation(self, tmp_path, monkeypatch):
        runner = make_runner(tmp_path)
        runner.run("noswap", "lbmx4")  # populate

        import repro.experiments.runner as runner_module

        def boom(*args, **kwargs):
            raise AssertionError("simulation should not run")

        monkeypatch.setattr(runner_module, "build_system", boom)
        results = runner.run_many([("noswap", "lbmx4", "default")], jobs=1)
        assert ("noswap", "lbmx4", "default") in results


class TestJob:
    """:func:`repro.experiments.jobcore.execute_job`, the fleet's unit."""

    def test_job_standalone(self, tmp_path):
        payload = execute_job(
            ("noswap", "lbmx4", "default"), (1024, 200, 200, 0, "off"),
            None, 0, tmp_path,
        )
        assert payload["scheme"] == "noswap"
        assert payload["instructions"] > 0
        assert payload["resumed_at_ops"] == 0

    def test_job_applies_variant(self, tmp_path):
        payload = execute_job(
            ("pageseer", "lbmx4", "nohints"), (1024, 400, 1500, 0, "off"),
            None, 0, tmp_path,
        )
        assert payload["swaps_mmu"] == 0

    def test_job_runs_sanitizer(self, tmp_path):
        """The worker path checks at level full by default, and checking
        must not change the metrics it returns."""
        request = ("pageseer", "lbmx4", "default")
        plain = execute_job(
            request, (1024, 300, 300, 0, "off"), None, 0, tmp_path / "plain"
        )
        checked = execute_job(
            request, (1024, 300, 300, 0, "full"), None, 0, tmp_path / "full"
        )
        for name in PERSISTED_FIELDS:
            assert plain[name] == checked[name]


class TestSweepFailures:
    def inject_failing_variant(self, monkeypatch):
        import repro.experiments.runner as runner_module

        def explode(config):
            raise RuntimeError("injected variant failure")

        monkeypatch.setitem(runner_module.VARIANTS, "explode", explode)

    def test_serial_sweep_collects_and_names_failures(self, tmp_path, monkeypatch):
        from repro.common.errors import SweepError

        self.inject_failing_variant(monkeypatch)
        runner = make_runner(tmp_path)
        requests = [
            ("noswap", "lbmx4", "default"),
            ("noswap", "lbmx4", "explode"),
        ]
        with pytest.raises(SweepError) as excinfo:
            runner.run_many(requests, jobs=1)
        error = excinfo.value
        assert [request for request, _ in error.failures] == [
            ("noswap", "lbmx4", "explode")
        ]
        assert "noswap/lbmx4/explode" in str(error)
        assert "injected variant failure" in str(error)
        # the healthy request still completed and was cached
        assert runner._load(runner._key("noswap", "lbmx4", "default")) is not None

    def test_parallel_sweep_collects_and_names_failures(self, tmp_path, monkeypatch):
        from repro.common.errors import SweepError

        self.inject_failing_variant(monkeypatch)
        runner = make_runner(tmp_path, measure_ops=200, warmup_ops=200)
        requests = [
            ("noswap", "lbmx4", "default"),
            ("noswap", "lbmx4", "explode"),
        ]
        with pytest.raises(SweepError) as excinfo:
            runner.run_many(requests, jobs=2)
        assert [request for request, _ in excinfo.value.failures] == [
            ("noswap", "lbmx4", "explode")
        ]
        assert "injected variant failure" in str(excinfo.value)
        # the healthy request was harvested and cached despite the failure
        assert runner._load(runner._key("noswap", "lbmx4", "default")) is not None


class TestPrewarm:
    def test_prewarm_covers_standard_matrix(self, tmp_path, monkeypatch):
        runner = make_runner(tmp_path)
        seen = []

        def fake_run_many(requests, jobs=None):
            seen.extend(requests)
            return {}

        monkeypatch.setattr(runner, "run_many", fake_run_many)
        runner.prewarm()
        variants = {request[2] for request in seen}
        assert variants == {"default", "nobw", "nocorr", "nohints", "partial"}
        schemes = {request[0] for request in seen}
        assert schemes == {"pageseer", "pom", "mempod"}

    def test_partial_only_on_the_ablation_workloads(self, tmp_path, monkeypatch):
        """fftx4 is not among ``ablation_partial.WORKLOADS``."""
        runner = make_runner(tmp_path, workloads=["lbmx4", "fftx4", "mcfx8"])
        seen = []
        monkeypatch.setattr(
            runner, "run_many", lambda requests, jobs=None: seen.extend(requests)
        )
        runner.prewarm()
        partial = [request for request in seen if request[2] == "partial"]
        assert partial == [("pageseer", "lbmx4", "partial"), ("pageseer", "mcfx8", "partial")]

    def test_report_after_prewarm_simulates_nothing(self, tmp_path, monkeypatch):
        from repro.experiments import runner as runner_module
        from repro.experiments.report import generate_report

        runner = make_runner(tmp_path, measure_ops=200, warmup_ops=200)
        runner.prewarm(jobs=1)

        def no_simulation(*args, **kwargs):
            raise AssertionError("report simulated a run prewarm left out")

        monkeypatch.setattr(runner_module, "build_system", no_simulation)
        fresh = make_runner(tmp_path, measure_ops=200, warmup_ops=200)
        assert "Ablation (partial swaps)" in generate_report(fresh)


class TestVariantRegistry:
    def test_builtin_variants_present(self):
        for name in ("default", "nocorr", "nobw", "nohints"):
            assert name in VARIANTS

    def test_runner_alone_defines_every_variant(self):
        """A fresh interpreter importing only the runner sees the whole
        table: no experiment module has to be imported to register one."""
        code = (
            "from repro.experiments.runner import VARIANTS\n"
            "print(' '.join(sorted(VARIANTS)))\n"
        )
        src = Path(__file__).resolve().parents[2] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        names = subprocess.run(
            [sys.executable, "-c", code], env=env,
            capture_output=True, text=True, check=True,
        ).stdout.split()
        sweeps = {
            "pct_prefetch_threshold": (7, 14, 28),
            "hpt_swap_threshold": (3, 6, 12),
            "swap_engines": (1, 3, 6),
            "prt_ways": (2, 4, 8),
        }
        expected = {"default", "nocorr", "nobw", "nohints", "partial"}
        expected |= {
            f"sens_{knob}_{value}"
            for knob, values in sweeps.items() for value in values
        }
        expected |= {f"dramcap_x{m}" for m in (1, 2, 4, 8)}
        assert len(expected) == 21
        assert set(names) == expected

    def test_variants_are_pure(self):
        from repro.common.config import default_system_config

        config = default_system_config(scale=1024)
        mutated = VARIANTS["nocorr"](config)
        assert config.pageseer.correlation_enabled
        assert not mutated.pageseer.correlation_enabled
