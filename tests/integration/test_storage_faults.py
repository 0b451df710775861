"""Crash-consistency matrix: persistence sites × storage-fault classes.

The invariants, asserted for every profile (ENOSPC, EIO/fsync, torn
writes, bit-rot, and the combined storm):

* storage faults perturb *durability*, never *results* — a faulted run
  finishes with metrics identical to a clean run;
* a resumed job whose ``latest.ckpt`` silently rotted falls back to a
  preserved generation and still lands the clean-run metrics;
* a fleet sweep under an inherited environment storm loses no
  acknowledged result;
* ``repro fsck --repair`` leaves every faulted directory clean — and a
  rescan agrees.
"""

import pytest

from repro import persist
from repro.check.golden import GOLDEN_SIZING
from repro.experiments.jobcore import execute_job
from repro.experiments.runner import ExperimentRunner
from repro.faults.storage import (
    STORAGE_FAULTS_ENV,
    StorageFaultInjector,
    resolve_storage_profile,
)
from repro.fsck import run_fsck
from repro.sim.metrics import PERSISTED_FIELDS
from repro.snapshot.checkpoint import LATEST_NAME, generation_files
from repro.sweepd.fleet import run_distributed_sweep

REQUEST = ("pageseer", "lbmx4", "default")
SIZING = (
    GOLDEN_SIZING["scale"],
    GOLDEN_SIZING["measure_ops"],
    GOLDEN_SIZING["warmup_ops"],
    GOLDEN_SIZING["seed"],
    "off",
)
CHECKPOINT_EVERY = 100  # small, so every profile gets many persist writes

PROFILES = ["enospc", "eio", "torn", "bitrot", "storm"]


@pytest.fixture(autouse=True)
def _disarmed():
    persist.install_storage_faults(None)
    yield
    persist.install_storage_faults(None)


def _run_job(directory):
    return execute_job(
        REQUEST, SIZING, None, 0, directory,
        checkpoint_every=CHECKPOINT_EVERY, heartbeat_seconds=60.0,
    )


def _metrics(payload):
    return {name: payload[name] for name in PERSISTED_FIELDS}


@pytest.fixture(scope="module")
def clean_payload(tmp_path_factory):
    return _run_job(tmp_path_factory.mktemp("clean") / "job")


class TestJobUnderEveryProfile:
    @pytest.mark.parametrize("profile", PROFILES)
    def test_faulted_job_lands_clean_metrics(self, profile, tmp_path,
                                             clean_payload):
        injector = StorageFaultInjector(
            resolve_storage_profile(profile, storage_seed=7)
        )
        persist.install_storage_faults(injector)
        try:
            payload = _run_job(tmp_path / "job")
        finally:
            persist.install_storage_faults(None)
        assert injector.injected, (
            f"profile {profile} never fired — the run exercised nothing"
        )
        assert _metrics(payload) == _metrics(clean_payload)

    @pytest.mark.parametrize("profile", PROFILES)
    def test_fsck_repair_converges_after_the_storm(self, profile, tmp_path,
                                                   clean_payload):
        directory = tmp_path / "job"
        injector = StorageFaultInjector(
            resolve_storage_profile(profile, storage_seed=7)
        )
        persist.install_storage_faults(injector)
        try:
            _run_job(directory)
        finally:
            persist.install_storage_faults(None)
        # Whatever silent damage the profile left behind, one repair pass
        # quarantines/promotes it and a rescan finds nothing wrong.
        run_fsck([directory], repair=True)
        findings, exit_code = run_fsck([directory])
        assert exit_code == 0
        assert all(f.status in ("ok", "legacy") for f in findings)


class TestGenerationFallbackResume:
    def test_rotted_latest_resumes_from_generation(self, tmp_path,
                                                   clean_payload):
        directory = tmp_path / "job"
        _run_job(directory)
        generations = generation_files(directory)
        assert generations, "the checkpointer kept no generations"
        # Silently rot the newest checkpoint, as a lying disk would.
        latest = directory / LATEST_NAME
        raw = bytearray(latest.read_bytes())
        raw[-20] ^= 0x40
        latest.write_bytes(bytes(raw))
        payload = _run_job(directory)
        assert payload["resumed_at_ops"] > 0
        assert _metrics(payload) == _metrics(clean_payload)

    def test_everything_rotted_restarts_and_still_agrees(self, tmp_path,
                                                         clean_payload):
        directory = tmp_path / "job"
        _run_job(directory)
        for path in [directory / LATEST_NAME] + generation_files(directory):
            path.write_bytes(b"REPRO-CKPT rot")
        payload = _run_job(directory)
        assert payload["resumed_at_ops"] == 0  # fresh build, not a crash
        assert _metrics(payload) == _metrics(clean_payload)


class TestSupervisedSweepUnderStorm:
    REQUESTS = [
        ("pageseer", "lbmx4", "default"),
        ("pom", "lbmx4", "default"),
    ]

    def _runner(self, cache_dir):
        return ExperimentRunner(
            scale=GOLDEN_SIZING["scale"],
            measure_ops=GOLDEN_SIZING["measure_ops"],
            warmup_ops=GOLDEN_SIZING["warmup_ops"],
            seed=GOLDEN_SIZING["seed"],
            worker_check_level="off",
            cache_dir=cache_dir,
        )

    def test_no_acknowledged_result_lost(self, tmp_path, monkeypatch):
        reference = {
            request: self._runner(tmp_path / "cache_ref").run(*request)
            for request in self.REQUESTS
        }
        # Arm through the environment: the forked server and workers
        # inherit it, which is exactly how `repro sweep --storage-faults
        # storm` storms every process.
        monkeypatch.setenv(STORAGE_FAULTS_ENV, "storm:3")
        persist.reset_storage_faults()
        root = tmp_path / "sweep"
        try:
            results, _ = run_distributed_sweep(
                self._runner(tmp_path / "cache"), list(self.REQUESTS), root,
                workers=2, checkpoint_every=200, heartbeat_seconds=0.1,
            )
        finally:
            monkeypatch.delenv(STORAGE_FAULTS_ENV, raising=False)
            persist.install_storage_faults(None)
        assert set(results) == set(self.REQUESTS), "a sweep result was lost"
        for request in self.REQUESTS:
            assert results[request].payload() == reference[request].payload()
        # The storm may have left silent damage on disk; repair converges.
        run_fsck([root], repair=True)
        _, exit_code = run_fsck([root])
        assert exit_code == 0
