"""Determinism guarantees the golden harness depends on.

Goldens pin exact metric values, so the simulator must be reproducible:
the same seed must give byte-identical results run to run, the sanitizer
must not perturb the simulation it observes, and the parallel sweep path
must agree with the serial one.
"""

import dataclasses

from repro.common.config import CheckConfig
from repro.experiments.runner import ExperimentRunner
from repro.sim.metrics import PERSISTED_FIELDS
from repro.sim.system import build_system
from repro.workloads import workload_by_name


def run_once(scheme="pageseer", seed=0, check=None):
    system = build_system(
        scheme, workload_by_name("lbmx4"), scale=1024, seed=seed, check=check
    )
    return system.run(400, 400)


class TestSeedDeterminism:
    def test_same_seed_is_byte_identical(self):
        a = run_once()
        b = run_once()
        # Full equality including ``raw`` — every counter, not just the
        # headline numbers.
        assert dataclasses.asdict(a) == dataclasses.asdict(b)

    def test_different_seed_differs(self):
        a = run_once(seed=0)
        b = run_once(seed=1)
        assert dataclasses.asdict(a) != dataclasses.asdict(b)

    def test_sanitizer_does_not_perturb_metrics(self):
        """Checkers are pure observers: full checking must leave every
        metric — including raw counters — exactly as an unchecked run."""
        plain = run_once()
        checked = run_once(check=CheckConfig(level="full", interval_ops=64))
        assert dataclasses.asdict(plain) == dataclasses.asdict(checked)


class TestSweepDeterminism:
    def test_serial_and_parallel_sweeps_agree(self, tmp_path):
        """run_many(jobs=1) and run_many(jobs=2) must produce identical
        metrics from separate caches (the pool path also runs the
        sanitizer at level full, so this doubles as an end-to-end
        metrics-neutrality proof)."""
        requests = [
            ("pageseer", "lbmx4", "default"),
            ("pom", "lbmx4", "default"),
        ]
        serial = ExperimentRunner(
            scale=1024, measure_ops=300, warmup_ops=300,
            cache_dir=tmp_path / "serial",
        ).run_many(requests, jobs=1)
        parallel = ExperimentRunner(
            scale=1024, measure_ops=300, warmup_ops=300,
            cache_dir=tmp_path / "parallel",
        ).run_many(requests, jobs=2)
        assert set(serial) == set(parallel) == set(requests)
        for request in requests:
            for name in PERSISTED_FIELDS:
                assert getattr(serial[request], name) == getattr(
                    parallel[request], name
                ), f"{'/'.join(request)} diverges on {name}"
