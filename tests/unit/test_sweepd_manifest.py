"""The sweep service's job manifest: scheduling, persistence, versioning."""

import json
import pickle

import pytest

from repro.common.errors import ManifestVersionError
from repro.experiments.jobcore import BACKOFF_BASE_SECONDS
from repro.sweepd.jobs import (
    DONE,
    LEASED,
    PENDING,
    QUARANTINED,
    build_job,
    job_id_for,
)
from repro.sweepd.manifest import (
    MANIFEST_NAME,
    SWEEPD_MANIFEST_VERSION,
    JobManifest,
)

SIZING = (1024, 400, 400, 0, "off")


def _job(scheme="pageseer", workload="lbmx4", variant="default"):
    return build_job((scheme, workload, variant), SIZING, None)


def _manifest(tmp_path, **kwargs):
    kwargs.setdefault("max_attempts", 3)
    kwargs.setdefault("lease_seconds", 10.0)
    return JobManifest(tmp_path, **kwargs)


class TestJobIdentity:
    def test_job_id_is_deterministic(self):
        request = ("pageseer", "lbmx4", "default")
        assert job_id_for(request, SIZING, None) == job_id_for(request, SIZING, None)

    def test_job_id_distinguishes_seed(self):
        request = ("pageseer", "lbmx4", "default")
        other = (1024, 400, 400, 1, "off")
        assert job_id_for(request, SIZING, None) != job_id_for(request, other, None)

    def test_record_round_trips_through_json(self):
        record = _job()
        clone = type(record).from_json(
            json.loads(json.dumps(record.to_json()))
        )
        assert clone == record


class TestSubmission:
    def test_submit_is_idempotent_by_job_id(self, tmp_path):
        manifest = _manifest(tmp_path)
        new, known = manifest.submit([_job()])
        assert len(new) == 1 and known == []
        new, known = manifest.submit([_job()])
        assert new == [] and len(known) == 1
        assert len(manifest.jobs) == 1


class TestLeasing:
    def test_leases_in_submit_order(self, tmp_path):
        manifest = _manifest(tmp_path)
        manifest.submit([_job(workload="lbmx4")])
        manifest.submit([_job(workload="milcx4")])
        _, first, _ = manifest.lease("w0", now=0.0)
        _, second, _ = manifest.lease("w1", now=0.0)
        assert first.workload == "lbmx4"
        assert second.workload == "milcx4"

    def test_lease_regrants_same_job_to_same_worker(self, tmp_path):
        manifest = _manifest(tmp_path)
        manifest.submit([_job()])
        _, first, _ = manifest.lease("w0", now=0.0)
        # The reply was lost; the worker retries the same RPC.
        _, again, _ = manifest.lease("w0", now=1.0)
        assert again.job_id == first.job_id
        assert again.attempts == first.attempts == 1

    def test_idle_when_everything_is_leased(self, tmp_path):
        manifest = _manifest(tmp_path)
        manifest.submit([_job()])
        manifest.lease("w0", now=0.0)
        kind, record, retry_after = manifest.lease("w1", now=0.0)
        assert kind == "idle" and record is None and retry_after > 0

    def test_drain_when_all_jobs_are_terminal(self, tmp_path):
        manifest = _manifest(tmp_path)
        (job_id,), _ = manifest.submit([_job()])
        manifest.mark_done(job_id, "digest")
        kind, _, _ = manifest.lease("w0", now=0.0)
        assert kind == "drain"
        assert manifest.drained()

    def test_heartbeat_extends_the_lease(self, tmp_path):
        manifest = _manifest(tmp_path, lease_seconds=10.0)
        (job_id,), _ = manifest.submit([_job()])
        manifest.lease("w0", now=0.0)
        manifest.heartbeat("w0", job_id, now=8.0)
        assert not manifest.reclaim_expired(now=12.0)

    def test_heartbeat_reclaims_job_after_server_restart(self, tmp_path):
        manifest = _manifest(tmp_path)
        (job_id,), _ = manifest.submit([_job()])
        manifest.lease("w0", now=0.0)
        # Simulate restart: persist (demotes the lease) and reload.
        manifest.persist()
        reloaded = _manifest(tmp_path)
        assert reloaded.load()
        assert reloaded.jobs[job_id].state == PENDING
        # The worker is still simulating and heartbeats: it gets the
        # lease back instead of a second worker starting the same job.
        reloaded.heartbeat("w0", job_id, now=0.0)
        assert reloaded.jobs[job_id].state == LEASED
        assert reloaded.jobs[job_id].lease_worker == "w0"
        # ...continuing its attempt rather than burning a new one.
        assert reloaded.jobs[job_id].attempts == 1
        kind, _, _ = reloaded.lease("w1", now=0.0)
        assert kind == "idle"

    def test_reclaimed_worker_cannot_reclaim_by_heartbeat(self, tmp_path):
        manifest = _manifest(tmp_path, lease_seconds=1.0)
        (job_id,), _ = manifest.submit([_job()])
        manifest.lease("w0", now=0.0)
        manifest.reclaim_expired(now=2.0)
        # w0 was declared dead; a late heartbeat must not hand the job
        # back to a worker the fleet is about to kill.
        manifest.heartbeat("w0", job_id, now=2.5)
        assert manifest.jobs[job_id].state == PENDING


class TestFailureHandling:
    def test_expired_lease_requeues_with_backoff(self, tmp_path):
        manifest = _manifest(tmp_path, lease_seconds=10.0)
        (job_id,), _ = manifest.submit([_job()])
        manifest.lease("w0", now=0.0)
        reclaimed = manifest.reclaim_expired(now=11.0)
        assert [record.job_id for record in reclaimed] == [job_id]
        record = manifest.jobs[job_id]
        assert record.state == PENDING
        assert record.reclaims == 1
        # The fleet SIGKILLs workers named here (dead or hung).
        assert manifest.reclaimed_workers == {"w0"}
        assert record.not_before == pytest.approx(
            11.0 + BACKOFF_BASE_SECONDS
        )
        # Not leasable until the backoff elapses.
        kind, _, _ = manifest.lease("w1", now=11.0)
        assert kind == "idle"
        kind, _, _ = manifest.lease("w1", now=11.0 + BACKOFF_BASE_SECONDS)
        assert kind == "job"

    def test_poison_job_quarantines_after_max_attempts(self, tmp_path):
        manifest = _manifest(tmp_path, max_attempts=2, lease_seconds=1.0)
        (job_id,), _ = manifest.submit([_job()])
        now = 0.0
        for _ in range(2):
            kind, record, retry_after = manifest.lease("w0", now=now)
            while kind != "job":
                now += retry_after
                kind, record, retry_after = manifest.lease("w0", now=now)
            now += 2.0
            manifest.reclaim_expired(now=now)
        record = manifest.jobs[job_id]
        assert record.state == QUARANTINED
        assert record.attempts == 2
        assert len(record.errors) == 2
        assert manifest.drained()

    def test_retryable_failure_requeues(self, tmp_path):
        manifest = _manifest(tmp_path)
        (job_id,), _ = manifest.submit([_job()])
        manifest.lease("w0", now=0.0)
        state = manifest.fail(job_id, "w0", "boom", retryable=True, now=0.0)
        assert state == PENDING
        assert manifest.jobs[job_id].errors == ["boom"]

    def test_non_retryable_failure_quarantines_immediately(self, tmp_path):
        manifest = _manifest(tmp_path)
        (job_id,), _ = manifest.submit([_job()])
        manifest.lease("w0", now=0.0)
        state = manifest.fail(job_id, "w0", "bug", retryable=False, now=0.0)
        assert state == QUARANTINED

    def test_late_failure_for_a_done_job_is_ignored(self, tmp_path):
        manifest = _manifest(tmp_path)
        (job_id,), _ = manifest.submit([_job()])
        manifest.mark_done(job_id, "digest")
        assert manifest.fail(job_id, "w0", "late", retryable=True, now=0.0) == DONE
        assert manifest.jobs[job_id].state == DONE


class TestPersistence:
    def test_round_trip_preserves_records(self, tmp_path):
        manifest = _manifest(tmp_path)
        (done_id, other_id), _ = manifest.submit([
            _job(workload="lbmx4"), _job(workload="milcx4"),
        ])
        manifest.mark_done(done_id, "digest")
        manifest.persist()
        reloaded = _manifest(tmp_path)
        assert reloaded.load()
        assert reloaded.jobs[done_id].state == DONE
        assert reloaded.jobs[done_id].result_digest == "digest"
        assert reloaded.jobs[other_id].state == PENDING
        assert reloaded.counts() == {
            PENDING: 1, LEASED: 0, DONE: 1, QUARANTINED: 0,
        }

    def test_load_returns_false_with_no_manifest(self, tmp_path):
        assert not _manifest(tmp_path).load()

    def test_version_skew_raises_with_hint(self, tmp_path):
        (tmp_path / MANIFEST_NAME).write_text(json.dumps({
            "sweepd_manifest_version": SWEEPD_MANIFEST_VERSION + 1,
            "jobs": [],
        }))
        with pytest.raises(ManifestVersionError, match="unsupported") as excinfo:
            _manifest(tmp_path).load()
        assert excinfo.value.hint

    def test_pickled_manifest_from_older_build_raises(self, tmp_path):
        (tmp_path / MANIFEST_NAME).write_bytes(pickle.dumps({"jobs": []}))
        with pytest.raises(ManifestVersionError, match="pickled"):
            _manifest(tmp_path).load()

    def test_schema_mismatch_in_job_entry_raises(self, tmp_path):
        (tmp_path / MANIFEST_NAME).write_text(json.dumps({
            "sweepd_manifest_version": SWEEPD_MANIFEST_VERSION,
            "jobs": [{"job_id": "abc"}],
        }))
        with pytest.raises(ManifestVersionError, match="schema"):
            _manifest(tmp_path).load()

    def test_manifest_with_retired_priority_field_resumes(self, tmp_path):
        """A version-1 manifest from a build with priority lanes still
        carries ``"priority"`` on every job; it loads, and its job leases."""
        entry = _job().to_json()
        entry["priority"] = 0
        (tmp_path / MANIFEST_NAME).write_text(json.dumps({
            "sweepd_manifest_version": SWEEPD_MANIFEST_VERSION,
            "max_attempts": 3,
            "jobs": [entry],
        }))
        manifest = _manifest(tmp_path)
        assert manifest.load()
        kind, record, _ = manifest.lease("w0", now=0.0)
        assert kind == "job"
        assert record.job_id == entry["job_id"]

    def test_submit_seq_continues_after_reload(self, tmp_path):
        manifest = _manifest(tmp_path)
        manifest.submit([_job(workload="lbmx4")])
        manifest.persist()
        reloaded = _manifest(tmp_path)
        reloaded.load()
        (new_id,), _ = reloaded.submit([_job(workload="milcx4")])
        first = next(iter(manifest.jobs.values()))
        assert reloaded.jobs[new_id].submit_seq > first.submit_seq
