"""End-to-end checkpoint/restore determinism and supervision tests.

The contract under test (docs/CHECKPOINTS.md): a run interrupted at any
point and restored — even in a *fresh process* — finishes with metrics
bit-identical to the uninterrupted run.  The 12 pinned goldens provide
the uninterrupted references; each is re-run with two interior cut
points (one during warm-up, one mid-measurement) and both cuts are
restored in a subprocess and driven to completion.

Also covered here: the CLI signal protocol (SIGINT/SIGTERM write one
final checkpoint and exit 75; a second signal force-quits), the fault
matrix's "worker SIGKILLed mid-run, resumed, digest identical" row, and
the sweep fleet's hung-worker kill + ``sweep --resume`` behaviour.
"""

import dataclasses
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro import persist
from repro.check.golden import (
    GOLDEN_SIZING,
    golden_matrix,
    load_golden,
    metrics_payload,
    payload_digest,
)
from repro.cli import main
from repro.common.config import CheckConfig, FaultConfig
from repro.experiments.jobcore import RESULT_NAME
from repro.experiments.runner import _METRIC_FIELDS, VARIANTS, ExperimentRunner
from repro.snapshot import Checkpointer, load_checkpoint
from repro.sweepd.aggregator import AGGREGATOR_LOG
from repro.sweepd.fleet import JOBS_DIRNAME, run_distributed_sweep
from repro.sweepd.manifest import MANIFEST_NAME, SWEEPD_MANIFEST_VERSION
from repro.workloads import workload_by_name

from tests.reference_scheduler import use_reference_scheduler

REPO_ROOT = Path(__file__).resolve().parents[2]
GOLDEN_DIR = REPO_ROOT / "tests" / "golden"

#: Interior cut points, in scheduler steps.  At GOLDEN_SIZING (400+400
#: ops/core, 4 cores) a full run is 3200 steps and warm-up ends at 1600:
#: the first cut lands mid-warm-up, the second mid-measurement.
WARMUP_CUT = 500
MEASURE_CUT = 2000

_RESTORE_SCRIPT = """\
import sys
from repro.check.golden import metrics_payload, payload_digest
from repro.snapshot import load_checkpoint

for path in sys.argv[1:]:
    system = load_checkpoint(path)
    metrics = system.resume_run()
    print(payload_digest(metrics_payload(metrics)))
"""


def _subprocess_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return env


def _golden_system(scheme, workload, variant):
    """The exact system run_golden_entry builds (sanitizer at full)."""
    from repro.sim.system import build_system

    def mutate(config):
        config = VARIANTS[variant](config)
        return dataclasses.replace(config, check=CheckConfig(level="full"))

    return build_system(
        scheme,
        workload_by_name(workload),
        scale=GOLDEN_SIZING["scale"],
        seed=GOLDEN_SIZING["seed"],
        config_mutator=mutate,
    )


def _metric_dict(metrics):
    return {name: getattr(metrics, name) for name in _METRIC_FIELDS}


def _wait_for(path: Path, timeout: float = 30.0) -> None:
    deadline = time.monotonic() + timeout
    while not path.exists():
        if time.monotonic() > deadline:
            raise AssertionError(f"{path} did not appear within {timeout}s")
        time.sleep(0.01)


# -- the cut-point matrix -----------------------------------------------------


@pytest.mark.parametrize("scheme,workload,variant", golden_matrix())
def test_fresh_process_restore_matches_golden(scheme, workload, variant, tmp_path):
    """Every golden, interrupted at two interior cuts and restored in a
    fresh interpreter, must reproduce its pinned digest bit-for-bit."""
    document = load_golden(GOLDEN_DIR, scheme, workload, variant)
    assert document is not None, "golden files missing; run `repro golden --update`"

    system = _golden_system(scheme, workload, variant)
    Checkpointer(tmp_path, cut_points=[WARMUP_CUT, MEASURE_CUT]).arm(system)
    metrics = system.run(GOLDEN_SIZING["measure_ops"], GOLDEN_SIZING["warmup_ops"])

    # Checkpointing itself must not perturb the simulation.
    assert payload_digest(metrics_payload(metrics)) == document["digest"]

    cuts = [tmp_path / f"cut_{WARMUP_CUT}.ckpt", tmp_path / f"cut_{MEASURE_CUT}.ckpt"]
    for cut in cuts:
        assert cut.exists()
    completed = subprocess.run(
        [sys.executable, "-c", _RESTORE_SCRIPT, *map(str, cuts)],
        capture_output=True, text=True, timeout=300,
        env=_subprocess_env(), cwd=REPO_ROOT,
    )
    assert completed.returncode == 0, completed.stderr
    digests = completed.stdout.split()
    assert digests == [document["digest"]] * len(cuts), (
        f"restored run diverged from uninterrupted reference "
        f"({scheme}/{workload}/{variant}): {digests} "
        f"vs pinned {document['digest']}"
    )


# -- CLI signal protocol ------------------------------------------------------


def _launch_cli_run(checkpoint_dir: Path, *extra: str) -> subprocess.Popen:
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro", "run",
            "--scheme", "pageseer", "--workload", "lbmx4",
            "--scale", "1024", "--warmup-ops", "1000",
            "--measure-ops", "50000", "--checkpoint-every", "400",
            "--checkpoint-dir", str(checkpoint_dir), *extra,
        ],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=_subprocess_env(), cwd=REPO_ROOT,
    )


@pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM])
def test_signal_writes_final_checkpoint_and_exit_75(tmp_path, signum):
    checkpoint_dir = tmp_path / "ck"
    process = _launch_cli_run(checkpoint_dir)
    _wait_for(checkpoint_dir / "latest.ckpt")
    process.send_signal(signum)
    _, stderr = process.communicate(timeout=60)
    assert process.returncode == 75, stderr
    assert f"interrupted by signal {int(signum)}" in stderr
    assert "resume with: python -m repro run --resume" in stderr
    assert (checkpoint_dir / "latest.ckpt").exists()

    # The advertised resume command completes the run cleanly.
    resumed = subprocess.run(
        [sys.executable, "-m", "repro", "run",
         "--resume", str(checkpoint_dir / "latest.ckpt")],
        capture_output=True, text=True, timeout=300,
        env=_subprocess_env(), cwd=REPO_ROOT,
    )
    assert resumed.returncode == 0, resumed.stderr
    assert "resuming pageseer on lbmx4" in resumed.stdout


def test_second_signal_force_quits(tmp_path):
    checkpoint_dir = tmp_path / "ck"
    process = _launch_cli_run(checkpoint_dir)
    _wait_for(checkpoint_dir / "latest.ckpt")
    # Two signals back-to-back: both are pending before the run loop can
    # finalize, so the second handler invocation must force-exit with the
    # conventional 128+signum status.
    process.send_signal(signal.SIGINT)
    process.send_signal(signal.SIGTERM)
    process.communicate(timeout=60)
    assert process.returncode == 128 + signal.SIGTERM


def test_resume_scheme_mismatch_is_rejected(tmp_path):
    system = _golden_system("pom", "lbmx4", "default")
    system.run_ops(50)
    from repro.snapshot import save_checkpoint

    path = save_checkpoint(system, tmp_path / "pom.ckpt")
    completed = subprocess.run(
        [sys.executable, "-m", "repro", "run",
         "--scheme", "pageseer", "--resume", str(path)],
        capture_output=True, text=True, timeout=120,
        env=_subprocess_env(), cwd=REPO_ROOT,
    )
    assert completed.returncode == 2
    assert "contradicts" in completed.stderr


# -- fault matrix: SIGKILL mid-run --------------------------------------------


_KILLABLE_SCRIPT = """\
import dataclasses, sys
from pathlib import Path
from repro.check.golden import GOLDEN_SIZING
from repro.common.config import CheckConfig
from repro.experiments.runner import VARIANTS
from repro.sim.system import build_system
from repro.snapshot import Checkpointer
from repro.workloads import workload_by_name

def mutate(config):
    config = VARIANTS["default"](config)
    return dataclasses.replace(config, check=CheckConfig(level="full"))

system = build_system(
    "pageseer", workload_by_name("lbmx4"),
    scale=GOLDEN_SIZING["scale"], seed=GOLDEN_SIZING["seed"],
    config_mutator=mutate,
)
Checkpointer(Path(sys.argv[1]), every_ops=200).arm(system)
system.run(GOLDEN_SIZING["measure_ops"], GOLDEN_SIZING["warmup_ops"])
"""


def test_sigkill_mid_run_resume_digest_identical(tmp_path):
    """The fault-matrix row: worker SIGKILLed mid-run, resumed from its
    last checkpoint, final digest identical to the uninterrupted run."""
    document = load_golden(GOLDEN_DIR, "pageseer", "lbmx4", "default")
    assert document is not None
    process = subprocess.Popen(
        [sys.executable, "-c", _KILLABLE_SCRIPT, str(tmp_path)],
        env=_subprocess_env(), cwd=REPO_ROOT,
    )
    _wait_for(tmp_path / "latest.ckpt")
    process.kill()  # SIGKILL: no handler, no final checkpoint, no cleanup
    process.wait(timeout=60)
    assert process.returncode == -signal.SIGKILL

    system = load_checkpoint(tmp_path / "latest.ckpt")
    metrics = system.resume_run()
    assert payload_digest(metrics_payload(metrics)) == document["digest"]


# -- fleet sweeps --------------------------------------------------------------


def _runner(tmp_path, **kwargs):
    kwargs.setdefault("scale", GOLDEN_SIZING["scale"])
    kwargs.setdefault("measure_ops", GOLDEN_SIZING["measure_ops"])
    kwargs.setdefault("warmup_ops", GOLDEN_SIZING["warmup_ops"])
    kwargs.setdefault("seed", GOLDEN_SIZING["seed"])
    kwargs.setdefault("worker_check_level", "off")
    kwargs.setdefault("cache_dir", tmp_path / "cache")
    return ExperimentRunner(**kwargs)


def test_watchdog_recovers_stalled_worker(tmp_path):
    """A worker wedged mid-run (no heartbeat) loses its lease, the fleet
    kills it, and its relaunch resumes from the checkpoint — and the
    result is unaffected."""
    request = ("pageseer", "lbmx4", "default")
    faults = FaultConfig(
        enabled=True, worker_stall_rate=1.0, worker_stall_seconds=60.0
    )
    root = tmp_path / "sweep"
    start = time.monotonic()
    results, report = run_distributed_sweep(
        _runner(tmp_path, faults=faults), [request], root,
        workers=1, lease_seconds=2.0,
        checkpoint_every=300, heartbeat_seconds=0.1,
    )
    elapsed = time.monotonic() - start

    assert report.hung_worker_kills >= 1, "watchdog never fired"
    (result_file,) = (root / JOBS_DIRNAME).glob(f"*/{RESULT_NAME}")
    payload = persist.read_json(result_file, site="result")
    assert payload["resumed_at_ops"] > 0, "retry did not resume"
    assert elapsed < 40.0, "watchdog waited out the stall instead of killing"

    # Stalls affect liveness only: metrics equal a plain unsupervised run.
    reference = _runner(
        tmp_path, cache_dir=tmp_path / "cache_ref"
    ).run(*request)
    assert _metric_dict(results[request]) == _metric_dict(reference)


def test_sweep_resume_skips_completed_requests(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    root = tmp_path / "sweep"
    code = main([
        "sweep", "--schemes", "pageseer", "mempod", "--workloads", "lbmx4",
        "--scale", str(GOLDEN_SIZING["scale"]),
        "--measure-ops", str(GOLDEN_SIZING["measure_ops"]),
        "--warmup-ops", str(GOLDEN_SIZING["warmup_ops"]),
        "--seed", str(GOLDEN_SIZING["seed"]),
        "--checkpoint-root", str(root), "--jobs", "2", "--quiet",
    ])
    assert code == 0
    first = capsys.readouterr().out

    manifest = json.loads((root / MANIFEST_NAME).read_text())
    assert manifest["sweepd_manifest_version"] == SWEEPD_MANIFEST_VERSION
    assert sorted(
        "/".join((job["scheme"], job["workload"], job["variant"]))
        for job in manifest["jobs"] if job["state"] == "done"
    ) == ["mempod/lbmx4/default", "pageseer/lbmx4/default"]
    stored = (root / AGGREGATOR_LOG).read_text()

    # `sweep --resume` on the same root restarts the fleet on the
    # manifest: nothing is resubmitted, leased, or re-run.
    code = main([
        "sweep", "--resume", "--checkpoint-root", str(root),
        "--jobs", "2", "--quiet",
    ])
    assert code == 0
    second = capsys.readouterr().out
    resumed = json.loads((root / MANIFEST_NAME).read_text())
    assert [job["attempts"] for job in resumed["jobs"]] == [
        job["attempts"] for job in manifest["jobs"]
    ], "completed requests were re-run"
    assert (root / AGGREGATOR_LOG).read_text() == stored

    def digest(out):
        return [line for line in out.splitlines()
                if line.startswith("results digest:")]

    assert digest(second) == digest(first) != []


# -- the engine under the cut-point protocol -----------------------------------


def _run_with_cuts(tmp_path, cuts):
    """Run the pageseer/lbmx4 golden config with checkpoint cuts at *cuts*.

    Returns the digest of an uninterrupted run of the same config on the
    reference scheduler, after checking the cut run itself matches it.
    """
    from repro.bench import stats_digest
    from repro.sim.system import build_system

    def fresh():
        return build_system(
            "pageseer",
            workload_by_name("lbmx4"),
            scale=GOLDEN_SIZING["scale"],
            seed=GOLDEN_SIZING["seed"],
        )

    reference = use_reference_scheduler(fresh())
    reference.run(GOLDEN_SIZING["measure_ops"], GOLDEN_SIZING["warmup_ops"])
    reference_digest = stats_digest(reference)

    victim = fresh()
    Checkpointer(tmp_path, cut_points=cuts).arm(victim)
    victim.run(GOLDEN_SIZING["measure_ops"], GOLDEN_SIZING["warmup_ops"])
    assert stats_digest(victim) == reference_digest
    return reference_digest


def test_mid_batch_cuts_resume_bit_identical(tmp_path):
    """A checkpoint cut mid-batch must resume bit-identical — against the
    reference scheduler's uninterrupted run.

    The cut points (500/2000 scheduler steps) land inside the engine's
    free-running drain windows, so this pins the engine's checkpoint
    contract: the poll boundary where the cut is taken is a real
    quiescent point (pending ops re-stashed, per-core state flushed),
    and the resumed half reproduces the reference exactly.
    """
    from repro.bench import stats_digest

    reference_digest = _run_with_cuts(tmp_path, [WARMUP_CUT, MEASURE_CUT])
    for cut in (WARMUP_CUT, MEASURE_CUT):
        path = tmp_path / f"cut_{cut}.ckpt"
        assert path.exists(), f"cut at step {cut} was not written"
        restored = load_checkpoint(path)
        restored.resume_run()
        assert stats_digest(restored) == reference_digest, (
            f"resume from step {cut} diverged from the reference run"
        )


def test_chunked_stream_two_interior_cuts_resume_bit_identical(tmp_path):
    """Two interior cuts restore streams mid-chunk and resume bit-identical
    to the reference scheduler's uninterrupted run.

    The stream buffers :class:`~repro.workloads.chunks.OpChunk` batches;
    at these cut points (one mid-warm-up, one mid-measurement) some core
    is inside a chunk, so its restored stream must fast-forward through
    whole chunks and re-enter the last one at the recorded interior
    offset (REPRO-CKPT consumption accounting).
    """
    from repro.bench import stats_digest

    cuts = [1111, 2777]
    reference_digest = _run_with_cuts(tmp_path, cuts)
    for cut in cuts:
        path = tmp_path / f"cut_{cut}.ckpt"
        assert path.exists(), f"interior cut at step {cut} was not written"
        restored = load_checkpoint(path)
        offsets = [core.ops.peek_chunk()[1] for core in restored.cores]
        assert any(offsets), f"no stream restored mid-chunk at cut {cut}"
        restored.resume_run()
        assert stats_digest(restored) == reference_digest, (
            f"resume from interior cut {cut} diverged"
        )


@pytest.mark.parametrize(
    "engine,stream", [("batched", "chunked"), ("scalar", "perop")]
)
def test_older_run_mode_checkpoint_resumes_bit_identical(
    tmp_path, monkeypatch, engine, stream
):
    """A checkpoint written while ``System`` still had run modes resumes
    on the one run path, bit-identical.

    Such REPRO-CKPT v1 files carry a ``System.engine`` attribute,
    ``engine`` and ``stream`` entries in the pickled ``SystemConfig``,
    and six-field stream states that end in the stream mode.  The old
    layout is reproduced by adding those to a restored interior cut and
    saving it again with the six-field stream state.  Every mode ran the
    same op order, so the resumed run lands on the reference scheduler's
    uninterrupted digest.
    """
    from repro.bench import stats_digest
    from repro.snapshot import save_checkpoint
    from repro.snapshot.stream import ReplayStream

    def six_field_state(self):
        return (self.workload, self.core_id, self.seed, self.scale,
                self.consumed, stream)

    reference_digest = _run_with_cuts(tmp_path, [1111])
    cut = load_checkpoint(tmp_path / "cut_1111.ckpt")
    cut.__dict__["engine"] = engine
    cut.config.__dict__.update(engine=engine, stream=stream)
    with monkeypatch.context() as patch:
        patch.setattr(ReplayStream, "__getstate__", six_field_state)
        old_layout = save_checkpoint(cut, tmp_path / "old_layout.ckpt")

    restored = load_checkpoint(old_layout)
    assert restored.engine == engine, "the old System attribute rides along"
    assert restored.config.__dict__["stream"] == stream
    assert any(core.ops.peek_chunk()[1] for core in restored.cores), (
        "some stream must restore mid-chunk from its six-field state"
    )
    restored.resume_run()
    assert stats_digest(restored) == reference_digest


def test_numpy_array_state_round_trips_checkpoint(tmp_path):
    """RL006 snapshot safety for numpy-backed state (REPRO-CKPT v1).

    The system graph now carries numpy struct-of-arrays members (each
    process's :class:`repro.vm.mmu.DenseVpnCache`); the checkpoint store
    must round-trip them exactly — same dtype, same values, still
    *usable* (the resumed run keeps translating through the array)."""
    import numpy as np

    from repro.bench import stats_digest
    from repro.sim.system import build_system
    from repro.snapshot import save_checkpoint
    from repro.vm.mmu import DenseVpnCache

    system = build_system(
        "pageseer", workload_by_name("lbmx4"), scale=1024, seed=0
    )
    system.run_ops(300)
    table = system.cores[0].process.page_table
    cache = table._vpn_cache
    assert isinstance(cache, DenseVpnCache), (
        "the OS model should install the numpy-backed VPN cache"
    )
    assert len(cache) > 0, "warm-up must have populated the dense window"

    path = save_checkpoint(system, tmp_path / "numpy.ckpt")
    restored = load_checkpoint(path)
    restored_cache = restored.cores[0].process.page_table._vpn_cache
    assert isinstance(restored_cache, DenseVpnCache)
    assert restored_cache._ppns.dtype == np.int64
    assert np.array_equal(restored_cache._ppns, cache._ppns)
    assert restored_cache._overflow == cache._overflow
    assert restored_cache.base_vpn == cache.base_vpn

    # The restored array is live state, not a display copy: both halves
    # must keep running and agree bit-for-bit.
    system.run_ops(300)
    restored.run_ops(300)
    assert stats_digest(restored) == stats_digest(system)


def test_checkpoint_without_walk_memo_resumes_bit_identical(tmp_path):
    """A checkpoint written before ``PageTable`` had its walk memo resumes.

    Such REPRO-CKPT v1 files pickle every page table without
    ``_walk_lines``; ``PageTable.__setstate__`` restores an empty memo,
    which is exact because the memo is derived state.  The old layout is
    reproduced by dropping the attribute from a restored system and
    saving it again.  The resumed run must walk (mcfx8 walks on every
    other op) and land on the uninterrupted run's digest.
    """
    from repro.sim.system import build_system
    from repro.snapshot import save_checkpoint

    def fresh():
        return build_system(
            "pageseer", workload_by_name("mcfx8"),
            scale=GOLDEN_SIZING["scale"], seed=GOLDEN_SIZING["seed"],
        )

    system = fresh()
    Checkpointer(tmp_path, cut_points=[WARMUP_CUT]).arm(system)
    metrics = system.run(GOLDEN_SIZING["measure_ops"], GOLDEN_SIZING["warmup_ops"])
    reference = payload_digest(metrics_payload(metrics))

    cut = load_checkpoint(tmp_path / f"cut_{WARMUP_CUT}.ckpt")
    tables = [core.process.page_table for core in cut.cores]
    assert any(table._walk_lines for table in tables), "walks precede the cut"
    for table in tables:
        del table.__dict__["_walk_lines"]
    old_layout = save_checkpoint(cut, tmp_path / "old_layout.ckpt")

    restored = load_checkpoint(old_layout)
    assert all(core.process.page_table._walk_lines == {} for core in restored.cores)
    resumed = restored.resume_run()
    assert payload_digest(metrics_payload(resumed)) == reference
    assert any(core.process.page_table._walk_lines for core in restored.cores)


def test_soa_timeline_round_trips_codec():
    """SoaBankedTimeline state survives the snapshot codec layer."""
    import numpy as np

    from repro.common.timeline import SoaBankedTimeline
    from repro.snapshot import codec

    soa = SoaBankedTimeline(6)
    soa.reserve(2, 10, 7)
    soa.reserve_all(20, 3)
    restored = codec.loads(codec.dumps(soa))
    assert np.array_equal(restored.busy_until, soa.busy_until)
    assert np.array_equal(restored.total_busy, soa.total_busy)
    assert restored.busy_until.dtype == np.int64
