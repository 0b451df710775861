"""``sweep --resume`` manifest validation and per-job directory dedup.

An incompatible sweepd manifest must fail with one clear, versioned
error (distinct exit code + remediation hint) raised in the driver's own
process — never an unpickling traceback, and never a server child that
dies during startup — and two sweeps that differ only in seed/sizing
must never share per-job checkpoint directories.
"""

import json
import pickle

import pytest

from repro.cli import EXIT_MANIFEST_VERSION, main
from repro.common.errors import CheckpointError, ManifestVersionError
from repro.experiments.runner import ExperimentRunner
from repro.sweepd.fleet import JOBS_DIRNAME, run_distributed_sweep
from repro.sweepd.jobs import build_job, job_id_for
from repro.sweepd.manifest import MANIFEST_NAME, SWEEPD_MANIFEST_VERSION

REQUEST = ("pageseer", "lbmx4", "default")
SIZING = (1024, 400, 400, 0, "off")


def _runner(tmp_path, seed=0):
    return ExperimentRunner(
        scale=1024, measure_ops=400, warmup_ops=400, seed=seed,
        worker_check_level="off", cache_dir=tmp_path / f"cache{seed}",
    )


def _resume(tmp_path):
    return run_distributed_sweep(_runner(tmp_path), None, tmp_path / "sweep")


def _write_manifest(tmp_path, data, binary=False):
    root = tmp_path / "sweep"
    root.mkdir(parents=True, exist_ok=True)
    path = root / MANIFEST_NAME
    if binary:
        path.write_bytes(data)
    else:
        path.write_text(json.dumps(data))
    return root


class TestManifestValidation:
    def test_pickled_manifest_raises_versioned_error(self, tmp_path):
        _write_manifest(
            tmp_path, pickle.dumps({"jobs": []}), binary=True
        )
        with pytest.raises(ManifestVersionError, match="pickled") as excinfo:
            _resume(tmp_path)
        assert excinfo.value.hint is not None
        assert "checkpoint-root" in excinfo.value.hint

    def test_version_skew_raises_versioned_error(self, tmp_path):
        _write_manifest(tmp_path, {
            "sweepd_manifest_version": SWEEPD_MANIFEST_VERSION + 1,
            "jobs": [],
        })
        with pytest.raises(ManifestVersionError, match="unsupported"):
            _resume(tmp_path)

    def test_missing_sizing_fields_raise_versioned_error(self, tmp_path):
        entry = build_job(REQUEST, SIZING, None).to_json()
        entry["sizing"] = {"scale": 1024}
        _write_manifest(tmp_path, {
            "sweepd_manifest_version": SWEEPD_MANIFEST_VERSION,
            "jobs": [entry],
        })
        with pytest.raises(ManifestVersionError, match="missing sizing"):
            _resume(tmp_path)

    def test_missing_job_list_raises_versioned_error(self, tmp_path):
        _write_manifest(tmp_path, {
            "sweepd_manifest_version": SWEEPD_MANIFEST_VERSION,
        })
        with pytest.raises(ManifestVersionError, match="job list"):
            _resume(tmp_path)

    def test_absent_manifest_is_a_plain_checkpoint_error(self, tmp_path):
        with pytest.raises(CheckpointError, match="nothing to resume"):
            _resume(tmp_path)

    @pytest.mark.parametrize("resume", [True, False])
    def test_cli_exits_with_distinct_code_and_hint(
        self, tmp_path, capsys, monkeypatch, resume
    ):
        """Both ``--resume`` and a fresh sweep onto a root holding an
        incompatible manifest fail before the server launches."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        root = _write_manifest(
            tmp_path, pickle.dumps({"jobs": []}), binary=True
        )
        argv = ["sweep", "--checkpoint-root", str(root), "--quiet"]
        if resume:
            argv.append("--resume")
        else:
            argv += ["--schemes", "pageseer", "--workloads", "lbmx4"]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == EXIT_MANIFEST_VERSION
        assert "pickled" in captured.err
        assert "hint:" in captured.err
        assert "Traceback" not in captured.err
        assert "server died" not in captured.err


class TestJobDirectoryDedup:
    def test_job_id_distinguishes_seed_and_sizing(self):
        other_seed = (1024, 400, 400, 1, "off")
        other_scale = (512, 400, 400, 0, "off")
        base_id = job_id_for(REQUEST, SIZING, None)
        assert base_id != job_id_for(REQUEST, other_seed, None)
        assert base_id != job_id_for(REQUEST, other_scale, None)
        assert base_id == job_id_for(REQUEST, SIZING, None)

    def test_same_config_different_seeds_use_disjoint_directories(self, tmp_path):
        """Two sweeps differing only in seed share a root but must
        checkpoint into different job directories."""
        root = tmp_path / "sweep"
        for seed in (0, 1):
            run_distributed_sweep(
                _runner(tmp_path, seed), [REQUEST], root,
                workers=1, checkpoint_every=300,
            )
        dirs = sorted(p.name for p in (root / JOBS_DIRNAME).iterdir())
        assert dirs == sorted(
            job_id_for(REQUEST, (1024, 400, 400, seed, "off"), None)
            for seed in (0, 1)
        )
