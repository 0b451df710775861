"""The distributed sweep service, unchaosed: protocol + equivalence.

Contract under test (docs/SWEEP_SERVICE.md): ``repro sweep`` (the
local fleet) is interchangeable with the serial runner — same cache
entries, bit-identical metrics — and the server's handlers are
idempotent enough that retried or duplicated RPCs cannot corrupt the
result set.
"""

import json
import threading

import pytest

from repro.check.golden import GOLDEN_SIZING
from repro.experiments.runner import ExperimentRunner
from repro.sim.metrics import PERSISTED_FIELDS
from repro.sweepd.fleet import run_distributed_sweep
from repro.sweepd.jobs import PENDING, build_job
from repro.sweepd.manifest import JobManifest
from repro.sweepd.protocol import RpcClient
from repro.sweepd.server import SweepdServer

REQUESTS = [
    ("pageseer", "lbmx4", "default"),
    ("pom", "lbmx4", "default"),
]


def _runner(tmp_path, **kwargs):
    kwargs.setdefault("scale", GOLDEN_SIZING["scale"])
    kwargs.setdefault("measure_ops", GOLDEN_SIZING["measure_ops"])
    kwargs.setdefault("warmup_ops", GOLDEN_SIZING["warmup_ops"])
    kwargs.setdefault("seed", GOLDEN_SIZING["seed"])
    kwargs.setdefault("worker_check_level", "off")
    kwargs.setdefault("cache_dir", tmp_path / "cache")
    return ExperimentRunner(**kwargs)


def _payloads(results):
    return {
        "/".join(request): metrics.payload()
        for request, metrics in results.items()
    }


def test_distributed_sweep_matches_serial_bit_for_bit(tmp_path):
    serial_runner = _runner(tmp_path / "serial")
    serial = {request: serial_runner.run(*request) for request in REQUESTS}

    dist_runner = _runner(tmp_path / "dist")
    results, report = run_distributed_sweep(
        dist_runner, list(REQUESTS), tmp_path / "dist" / "svc",
        workers=2, lease_seconds=5.0,
        checkpoint_every=300, heartbeat_seconds=0.1, timeout=120.0,
    )
    assert report.jobs_total == len(REQUESTS)
    assert report.quarantined == []
    assert _payloads(results) == _payloads(serial)


def test_resubmitted_sweep_is_served_entirely_from_cache(tmp_path):
    runner = _runner(tmp_path)
    run_distributed_sweep(
        runner, list(REQUESTS), tmp_path / "svc1",
        workers=2, lease_seconds=5.0,
        checkpoint_every=300, heartbeat_seconds=0.1, timeout=120.0,
    )
    # Fresh service root, same cache: every job is done on admission.
    results, report = run_distributed_sweep(
        runner, list(REQUESTS), tmp_path / "svc2",
        workers=1, lease_seconds=5.0,
        checkpoint_every=300, heartbeat_seconds=0.1, timeout=60.0,
    )
    assert report.jobs_already_done == len(REQUESTS)
    assert len(results) == len(REQUESTS)


def test_sweep_without_workers_is_refused_up_front(tmp_path):
    """No worker would ever drain the queue: the sweep is refused before
    it touches the root, not left polling until its timeout (forever
    when that is None)."""
    root = tmp_path / "svc"
    with pytest.raises(ValueError, match="at least one worker"):
        run_distributed_sweep(
            _runner(tmp_path), list(REQUESTS), root,
            workers=0, timeout=5.0,
        )
    assert not root.exists()


class _ServerThread:
    """A live in-process server for protocol-level tests."""

    def __init__(self, tmp_path, **kwargs):
        self.server = SweepdServer(
            tmp_path / "svc", tmp_path / "cache", **kwargs
        )
        self.thread = threading.Thread(
            target=self.server.serve_forever,
            kwargs={"poll_seconds": 0.02},
            daemon=True,
        )

    def __enter__(self):
        self.thread.start()
        return self.server

    def __exit__(self, *exc_info):
        self.server.stop()
        self.thread.join(timeout=5.0)


@pytest.fixture
def live_server(tmp_path):
    with _ServerThread(tmp_path) as server:
        yield server


def _submit(rpc, jobs):
    return rpc.call({
        "type": "submit",
        "jobs": [record.to_json() for record in jobs],
    })


def test_rpc_submit_is_idempotent(live_server, tmp_path):
    sizing = (1024, 400, 400, 0, "off")
    job = build_job(("pageseer", "lbmx4", "default"), sizing, None)
    with RpcClient(live_server.address) as rpc:
        first = _submit(rpc, [job])
        second = _submit(rpc, [job])
    assert len(first["new"]) == 1
    assert second["new"] == []
    assert second["known"] == first["new"]


def test_duplicate_result_rpc_is_discarded_not_restored(live_server, tmp_path):
    sizing = (1024, 400, 400, 0, "off")
    job = build_job(("pageseer", "lbmx4", "default"), sizing, None)
    payload = {name: 1.0 for name in PERSISTED_FIELDS}
    with RpcClient(live_server.address) as rpc:
        _submit(rpc, [job])
        rpc.call({"type": "lease", "worker": "w0"})
        first = rpc.call({
            "type": "result", "worker": "w0",
            "job_id": job.job_id, "payload": payload,
        })
        # The ack was "lost"; the worker reports the same result again.
        second = rpc.call({
            "type": "result", "worker": "w0",
            "job_id": job.job_id, "payload": payload,
        })
        status = rpc.call({"type": "status"})
    assert first["verdict"] == "stored"
    assert second["verdict"] == "duplicate"
    assert status["counts"]["done"] == 1
    log_lines = [
        json.loads(line)
        for line in (tmp_path / "svc" / "aggregator.jsonl")
        .read_text().splitlines()
    ]
    assert [entry["verdict"] for entry in log_lines] == ["stored", "duplicate"]


def test_unknown_message_type_gets_an_error_reply(live_server):
    with RpcClient(live_server.address) as rpc:
        reply = rpc.call({"type": "frobnicate"})
    assert reply["type"] == "error"
    assert "frobnicate" in reply["error"]


def test_restart_requeues_done_jobs_whose_cache_entry_is_gone(tmp_path):
    """The cache, not the manifest, says which jobs are finished: a done
    job whose entry was lost (deleted, bit-rotted) is pending again."""
    sizing = (1024, 400, 400, 0, "off")
    job = build_job(("pageseer", "lbmx4", "default"), sizing, None)
    root = tmp_path / "svc"
    root.mkdir()
    manifest = JobManifest(root)
    manifest.submit([job])
    manifest.mark_done(job.job_id, "digest")
    assert manifest.persist()
    server = SweepdServer(root, tmp_path / "cache")
    try:
        assert server.manifest.jobs[job.job_id].state == PENDING
    finally:
        server.close()


def test_reclaim_count_survives_a_server_restart(tmp_path):
    """The status reply's ``reclaims`` sums the persisted per-job counts,
    so the fleet's "lease reclaims" figure keeps the reclaims made before
    a scripted server restart."""
    sizing = (1024, 400, 400, 0, "off")
    job = build_job(("pageseer", "lbmx4", "default"), sizing, None)
    root = tmp_path / "svc"
    root.mkdir()
    manifest = JobManifest(root, lease_seconds=1.0)
    manifest.submit([job])
    manifest.lease("w0", now=0.0)
    assert manifest.reclaim_expired(now=2.0)
    assert manifest.persist()
    server = SweepdServer(root, tmp_path / "cache")
    try:
        assert server.manifest.jobs[job.job_id].reclaims == 1
        assert server._on_status({})["reclaims"] == 1
    finally:
        server.close()
