"""Chaos matrix for the distributed sweep service (satellite of the
sweep-service PR).

Each scenario injects a different failure — lossy/duplicating/reordering
transport, a SIGKILLed worker mid-simulation, a SIGKILLed-and-relaunched
server mid-sweep, and all of them at once — and asserts the same
invariants every time:

* the aggregated result set is bit-identical to a serial run,
* zero results are lost (every request resolves),
* zero results are duplicated (at most one ``stored`` aggregator-log
  entry per job, never a ``divergent`` one).
"""

import json

import pytest

from repro.check.golden import GOLDEN_SIZING
from repro.experiments.runner import ExperimentRunner
from repro.faults.chaos import ChaosConfig, FleetChaos
from repro.sweepd.aggregator import AGGREGATOR_LOG
from repro.sweepd.fleet import run_distributed_sweep

REQUESTS = [
    ("pageseer", "lbmx4", "default"),
    ("pageseer", "milcx4", "default"),
    ("pom", "lbmx4", "default"),
]

MESSAGE_CHAOS = ChaosConfig(
    enabled=True,
    chaos_seed=7,
    drop_rate=0.08,
    duplicate_rate=0.08,
    reorder_rate=0.1,
)


def _runner(cache_dir):
    return ExperimentRunner(
        scale=GOLDEN_SIZING["scale"],
        measure_ops=GOLDEN_SIZING["measure_ops"],
        warmup_ops=GOLDEN_SIZING["warmup_ops"],
        seed=GOLDEN_SIZING["seed"],
        worker_check_level="off",
        cache_dir=cache_dir,
    )


def _payloads(results):
    return {
        "/".join(request): metrics.payload()
        for request, metrics in results.items()
    }


@pytest.fixture(scope="module")
def serial_reference(tmp_path_factory):
    runner = _runner(tmp_path_factory.mktemp("serial") / "cache")
    return _payloads(
        {request: runner.run(*request) for request in REQUESTS}
    )


def _chaotic_sweep(tmp_path, *, chaos=None, fleet_chaos=None, workers=2):
    root = tmp_path / "svc"
    results, report = run_distributed_sweep(
        _runner(tmp_path / "cache"), list(REQUESTS), root,
        workers=workers,
        chaos=chaos,
        fleet_chaos=fleet_chaos,
        lease_seconds=2.0,
        checkpoint_every=200,
        heartbeat_seconds=0.05,
        timeout=180.0,
    )
    return results, report, root


def _aggregator_entries(root):
    return [
        json.loads(line)
        for line in (root / AGGREGATOR_LOG).read_text().splitlines()
    ]


def _assert_exactly_once(root, *, allow_missing_stored=False):
    """No job may be stored twice or diverge; normally each is stored once.

    ``allow_missing_stored`` covers server-SIGKILL scenarios, where the
    kill can land between the atomic cache write and the log append —
    the result still counts exactly once (the restarted server adopts it
    from the cache), it just has no ``stored`` line.
    """
    stored = {}
    for entry in _aggregator_entries(root):
        assert entry["verdict"] != "divergent", entry
        if entry["verdict"] == "stored":
            stored[entry["job_id"]] = stored.get(entry["job_id"], 0) + 1
    assert all(count == 1 for count in stored.values()), stored
    if not allow_missing_stored:
        assert len(stored) == len(REQUESTS), stored


def test_lossy_duplicating_reordering_transport(tmp_path, serial_reference):
    results, report, root = _chaotic_sweep(tmp_path, chaos=MESSAGE_CHAOS)
    assert _payloads(results) == serial_reference
    assert report.quarantined == []
    _assert_exactly_once(root)


def test_worker_sigkilled_mid_job_is_reclaimed(tmp_path, serial_reference):
    results, report, root = _chaotic_sweep(
        tmp_path,
        fleet_chaos=FleetChaos(kill_worker_mid_job={0: 200}),
    )
    assert _payloads(results) == serial_reference
    assert report.chaos_worker_kills == 1
    assert report.worker_relaunches >= 1
    assert report.quarantined == []
    _assert_exactly_once(root)


def test_server_sigkilled_and_restarted_mid_sweep(tmp_path, serial_reference):
    results, report, root = _chaotic_sweep(
        tmp_path,
        fleet_chaos=FleetChaos(restart_server_after_results=1),
    )
    assert _payloads(results) == serial_reference
    assert report.chaos_server_restarts == 1
    assert report.quarantined == []
    _assert_exactly_once(root, allow_missing_stored=True)


def test_full_chaos_matrix(tmp_path, serial_reference):
    """Everything at once: lossy transport, a worker SIGKILL, and a
    server SIGKILL+restart in the same sweep."""
    results, report, root = _chaotic_sweep(
        tmp_path,
        chaos=MESSAGE_CHAOS,
        fleet_chaos=FleetChaos(
            kill_worker_mid_job={0: 200},
            restart_server_after_results=1,
        ),
    )
    assert _payloads(results) == serial_reference
    assert report.chaos_worker_kills == 1
    assert report.chaos_server_restarts == 1
    assert report.quarantined == []
    _assert_exactly_once(root, allow_missing_stored=True)


def test_poison_job_is_quarantined_not_retried_forever(tmp_path):
    """A job that always crashes must land in quarantine after
    max_attempts instead of looping forever, and the sweep must still
    drain and name the poison request."""
    from repro.common.config import FaultConfig
    from repro.common.errors import SweepError

    runner = _runner(tmp_path / "cache")
    runner.faults = FaultConfig(enabled=True, worker_crash_rate=1.0)
    with pytest.raises(SweepError) as excinfo:
        run_distributed_sweep(
            runner, [REQUESTS[0]], tmp_path / "svc",
            workers=1,
            lease_seconds=2.0,
            checkpoint_every=200,
            heartbeat_seconds=0.05,
            timeout=120.0,
        )
    assert excinfo.value.failures
    assert "/".join(REQUESTS[0]) in str(excinfo.value)
