"""Integration: fault storms complete, check clean, and reproduce exactly.

The acceptance bar for the fault-injection subsystem (docs/FAULTS.md):

* a seeded fault storm runs to completion with the sanitizer at level
  "full" and zero violations;
* re-running the identical configuration reproduces every metric and
  every fault counter bit-for-bit;
* the sweep fleet survives injected worker crashes and stalls,
  returning a result for every request via retry and salvage.
"""

import dataclasses
import json
import warnings

import pytest

from repro import persist
from repro.common.config import CheckConfig, FaultConfig
from repro.common.errors import SweepError
from repro.experiments.jobcore import RESULT_NAME, execute_job
from repro.experiments.runner import ExperimentRunner
from repro.faults import resolve_profile
from repro.sim.metrics import PERSISTED_FIELDS
from repro.sim.system import build_system
from repro.sweepd.fleet import JOBS_DIRNAME, run_distributed_sweep
from repro.sweepd.jobs import job_id_for
from repro.workloads import workload_by_name

SIZING = dict(scale=1024, seed=0)
OPS = dict(measure_ops=1500, warmup_ops=1500)


def run_storm(fault_seed, check_level="full"):
    faults = resolve_profile("storm", fault_seed=fault_seed)
    # Device faults only: the worker knobs belong to the sweep runner.
    faults = dataclasses.replace(
        faults, worker_crash_rate=0.0, worker_stall_rate=0.0,
        worker_stall_seconds=0.0,
    )
    system = build_system(
        "pageseer",
        workload_by_name("lbmx4"),
        check=CheckConfig(level=check_level),
        faults=faults,
        **SIZING,
    )
    metrics = system.run(**OPS)
    return system, metrics


class TestFaultStorm:
    def test_storm_completes_clean_at_check_full(self):
        system, metrics = run_storm(fault_seed=7)
        report = system.checker.report()
        assert report.violations == []
        assert report.sweeps > 0
        # The storm actually stormed: every fault family fired.
        assert metrics.faults_injected > 0
        assert metrics.fault_retries > 0
        assert metrics.degraded_services > 0
        assert metrics.quarantined_pages > 0
        # ...and the workload still made full progress.
        assert metrics.instructions > 0
        assert metrics.ipc > 0

    def test_storm_is_bit_for_bit_reproducible(self):
        _, first = run_storm(fault_seed=7)
        _, second = run_storm(fault_seed=7)
        assert first == second  # includes raw stats and fault counters

    def test_different_fault_seed_differs(self):
        _, first = run_storm(fault_seed=7)
        _, second = run_storm(fault_seed=8)
        assert first.raw != second.raw

    def test_faults_off_is_identical_to_no_fault_config(self):
        """Zero-cost-off: a disabled FaultConfig changes nothing at all."""
        base = build_system(
            "pageseer", workload_by_name("lbmx4"),
            check=CheckConfig(level="full"), **SIZING,
        ).run(**OPS)
        disabled = build_system(
            "pageseer", workload_by_name("lbmx4"),
            check=CheckConfig(level="full"),
            faults=FaultConfig(enabled=False), **SIZING,
        ).run(**OPS)
        assert base == disabled
        assert base.faults_injected == 0
        assert base.swap_aborts == 0


class TestSweepResilience:
    def make_runner(self, tmp_path, **overrides):
        settings = dict(
            scale=1024, measure_ops=300, warmup_ops=300,
            cache_dir=tmp_path / "cache", worker_check_level="off",
        )
        settings.update(overrides)
        return ExperimentRunner(**settings)

    def test_worker_crashes_are_retried_to_success(self, tmp_path):
        # crash rate 0.9: attempt-indexed RNG streams let retries pass.
        faults = FaultConfig(
            enabled=True, worker_crash_rate=0.9, fault_seed=5
        )
        runner = self.make_runner(tmp_path, faults=faults, max_attempts=25)
        requests = [
            ("noswap", "lbmx4", "default"),
            ("pageseer", "lbmx4", "default"),
        ]
        results = runner.run_many(requests, jobs=2)
        assert set(results) == set(requests)

    def test_exhausted_retries_report_attempts(self, tmp_path):
        faults = FaultConfig(
            enabled=True, worker_crash_rate=1.0, fault_seed=5
        )
        runner = self.make_runner(tmp_path, faults=faults, max_attempts=3)
        with pytest.raises(SweepError) as info:
            runner.run_many([("noswap", "lbmx4", "default")], jobs=2)
        assert "failed on all 3 attempts, retries exhausted" in str(info.value)
        assert info.value.attempts[("noswap", "lbmx4", "default")] == 3

    def test_serial_path_injects_no_worker_faults(self, tmp_path):
        """jobs=1 runs in-process: there is no worker to crash."""
        faults = FaultConfig(
            enabled=True, worker_crash_rate=1.0, fault_seed=5
        )
        runner = self.make_runner(tmp_path, faults=faults)
        request = ("noswap", "lbmx4", "default")
        assert set(runner.run_many([request], jobs=1)) == {request}

    def test_genuine_bugs_fail_fast_without_retry(self, tmp_path):
        runner = self.make_runner(tmp_path, max_attempts=5)
        with pytest.raises(SweepError) as info:
            runner.run_many([("pageseer", "no-such-workload", "default")],
                            jobs=1)
        assert "failed on first attempt, not retried" in str(info.value)

    def test_stalled_workers_still_return_every_result(self, tmp_path):
        # Every first attempt wedges mid-run; a stall shorter than the
        # lease only costs time — the worker wakes and reports.
        faults = FaultConfig(
            enabled=True, worker_stall_rate=1.0, worker_stall_seconds=1.0,
            fault_seed=5,
        )
        runner = self.make_runner(tmp_path, faults=faults, max_attempts=2)
        requests = [("noswap", "lbmx4", "default")]
        results = runner.run_many(requests, jobs=2)
        assert set(results) == set(requests)

    def test_unreported_result_is_salvaged_not_resimulated(
        self, tmp_path, monkeypatch
    ):
        """A worker that landed result.json but died before reporting it:
        the next lease holder ships the file instead of re-simulating."""
        runner = self.make_runner(tmp_path)
        request = ("noswap", "lbmx4", "default")
        root = tmp_path / "svc"
        job_dir = root / JOBS_DIRNAME / job_id_for(
            request, runner._sizing(), None
        )
        payload = execute_job(request, runner._sizing(), None, 0, job_dir)
        persist.write_json(job_dir / RESULT_NAME, payload, site="result")

        import repro.sim.system as system_module

        def boom(*args, **kwargs):
            raise AssertionError("salvageable job was re-simulated")

        monkeypatch.setattr(system_module, "build_system", boom)
        results, _ = run_distributed_sweep(runner, [request], root, workers=1)
        assert results[request].payload() == {
            name: payload[name] for name in PERSISTED_FIELDS
        }

    def test_sweep_with_crashes_and_stalls_completes(self, tmp_path):
        """The acceptance scenario: one crashy sweep, generous retries."""
        faults = FaultConfig(
            enabled=True, worker_crash_rate=0.5, worker_stall_rate=0.2,
            worker_stall_seconds=0.1, fault_seed=11,
        )
        runner = self.make_runner(tmp_path, faults=faults, max_attempts=20)
        requests = [
            ("noswap", "lbmx4", "default"),
            ("noswap", "streamx4", "default"),
            ("pageseer", "lbmx4", "default"),
            ("pageseer", "streamx4", "default"),
        ]
        results = runner.run_many(requests, jobs=2)
        assert set(results) == set(requests)
        # A rerun is served entirely from the (atomically written) cache.
        fresh = self.make_runner(tmp_path, faults=faults)
        again = fresh.run_many(requests, jobs=1)
        assert again == results


class TestCacheRobustness:
    def make_runner(self, tmp_path):
        return ExperimentRunner(
            scale=1024, measure_ops=300, warmup_ops=300,
            cache_dir=tmp_path / "cache",
        )

    def test_store_is_atomic_and_leaves_no_temp_files(self, tmp_path):
        runner = self.make_runner(tmp_path)
        runner.run("noswap", "lbmx4")
        entries = list((tmp_path / "cache").iterdir())
        assert len(entries) == 1
        assert entries[0].suffix == ".json"
        json.loads(entries[0].read_text())  # complete, parseable JSON

    def test_torn_cache_entry_warns_and_misses(self, tmp_path):
        runner = self.make_runner(tmp_path)
        metrics = runner.run("noswap", "lbmx4")
        key = runner._key("noswap", "lbmx4", "default")
        path = runner._cache_path(key)
        path.write_text('{"scheme": "noswap", "workl')  # torn mid-write
        fresh = self.make_runner(tmp_path)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            recomputed = fresh.run("noswap", "lbmx4")
        assert any("cache miss" in str(w.message) for w in caught)
        assert dataclasses.replace(recomputed, raw={}) == \
            dataclasses.replace(metrics, raw={})
        # The recomputation healed the cache entry.
        json.loads(path.read_text())

    def test_missing_fields_treated_as_schema_change(self, tmp_path):
        runner = self.make_runner(tmp_path)
        runner.run("noswap", "lbmx4")
        key = runner._key("noswap", "lbmx4", "default")
        path = runner._cache_path(key)
        payload = json.loads(path.read_text())
        del payload["faults_injected"]  # pretend an older schema wrote it
        path.write_text(json.dumps(payload))
        fresh = self.make_runner(tmp_path)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert fresh._load(key) is None
        assert any("cache miss" in str(w.message) for w in caught)

    def test_fault_config_fragments_the_cache_key(self, tmp_path):
        plain = self.make_runner(tmp_path)
        faulty = ExperimentRunner(
            scale=1024, measure_ops=300, warmup_ops=300,
            cache_dir=tmp_path / "cache",
            faults=FaultConfig(enabled=True, transient_rate=0.01),
        )
        assert plain._key("noswap", "lbmx4", "default") != \
            faulty._key("noswap", "lbmx4", "default")
        # Worker-only knobs do NOT fragment: results are attempt-invariant.
        crashy = ExperimentRunner(
            scale=1024, measure_ops=300, warmup_ops=300,
            cache_dir=tmp_path / "cache",
            faults=FaultConfig(
                enabled=True, transient_rate=0.01, worker_crash_rate=0.5,
            ),
        )
        assert faulty._key("noswap", "lbmx4", "default") == \
            crashy._key("noswap", "lbmx4", "default")
