"""Generational checkpoint rotation and corrupt-``latest.ckpt`` fallback.

The recovery contract (docs/FAULTS.md): ``save_checkpoint(...,
keep_generations=N)`` preserves the previous ``latest.ckpt`` content as
``gen-<n>.ckpt`` before replacing it, pruned to the newest N; a reader
whose ``latest.ckpt`` fails validation falls back through those
generations newest-first and loses a few thousand re-executed ops — not
the run.
"""

import argparse
import json

import pytest

from repro.common.errors import CorruptCheckpointError
from repro.experiments.jobcore import execute_job
from repro.experiments.runner import _METRIC_FIELDS
from repro.fsck import QUARANTINE_DIRNAME, command_fsck, scan_directory
from repro.sim.system import build_system
from repro.snapshot import (
    DEFAULT_KEEP_GENERATIONS,
    load_checkpoint,
    save_checkpoint,
)
from repro.snapshot.checkpoint import (
    LATEST_NAME,
    MAGIC,
    generation_files,
    load_checkpoint_with_fallback,
    rotate_generations,
    verify_checkpoint,
)
from repro.workloads import workload_by_name


def _tiny_system():
    return build_system(
        "pageseer", workload_by_name("lbmx4"), scale=1024, seed=0
    )


def _as_older_version(path, version=1):
    """Rewrite a checkpoint as an older format version, header and checksum
    intact.

    A v1 checkpoint written where numpy was installed pickles ndarray
    state this build cannot rebuild, a v2 payload names line routers
    this build no longer has, and a v3 payload holds HPTs without their
    count-1 index; here the version is the only thing wrong with the
    file.
    """
    rest = path.read_bytes()[len(MAGIC):]
    header_line, payload = rest.split(b"\n", 1)
    header = json.loads(header_line)
    header["format_version"] = version
    path.write_bytes(
        b"REPRO-CKPT v%d\n" % version
        + json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
        + b"\n"
        + payload
    )


def _as_header_version_one(path):
    """Set the header's ``format_version`` to 1 under the current magic."""
    rest = path.read_bytes()[len(MAGIC):]
    header_line, payload = rest.split(b"\n", 1)
    header = json.loads(header_line)
    header["format_version"] = 1
    path.write_bytes(
        MAGIC
        + json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
        + b"\n"
        + payload
    )


def _copy_directory(source, destination):
    destination.mkdir()
    for path in source.iterdir():
        (destination / path.name).write_bytes(path.read_bytes())
    return destination


@pytest.fixture(scope="module")
def staged(tmp_path_factory):
    """One run checkpointed four times with keep_generations=2.

    Returns ``(directory, steps)`` where ``steps[i]`` is the
    ``steps_total`` recorded by the i-th save (steps[-1] == latest).
    """
    directory = tmp_path_factory.mktemp("gens")
    system = _tiny_system()
    steps = []
    for _ in range(4):
        system.run_ops(10)
        save_checkpoint(system, directory / LATEST_NAME, keep_generations=2)
        steps.append(system.steps_total)
    return directory, steps


class TestRotation:
    def test_keeps_only_the_newest_generations(self, staged):
        directory, _ = staged
        names = [path.name for path in generation_files(directory)]
        # Four saves preserve three previous contents; pruned to 2.
        assert names == ["gen-00000002.ckpt", "gen-00000003.ckpt"]

    def test_generations_hold_the_previous_contents(self, staged):
        directory, steps = staged
        gen2, gen3 = generation_files(directory)
        assert load_checkpoint(gen2).steps_total == steps[1]
        assert load_checkpoint(gen3).steps_total == steps[2]
        assert load_checkpoint(directory / LATEST_NAME).steps_total == steps[3]

    def test_rotate_without_existing_file_is_a_no_op(self, tmp_path):
        assert rotate_generations(tmp_path / LATEST_NAME, keep=2) is None
        assert generation_files(tmp_path) == []

    def test_rotate_with_keep_zero_is_a_no_op(self, tmp_path):
        path = tmp_path / LATEST_NAME
        path.write_bytes(b"content")
        assert rotate_generations(path, keep=0) is None
        assert generation_files(tmp_path) == []

    def test_numbering_continues_after_pruning(self, tmp_path):
        path = tmp_path / LATEST_NAME
        for n in range(1, 5):
            path.write_bytes(b"v%d" % n)
            rotate_generations(path, keep=1)
        (only,) = generation_files(tmp_path)
        assert only.name == "gen-00000004.ckpt"  # monotonic, never reused
        assert only.read_bytes() == b"v4"

    def test_generation_files_of_missing_directory(self, tmp_path):
        assert generation_files(tmp_path / "absent") == []

    def test_checkpointer_default_keeps_generations(self):
        assert DEFAULT_KEEP_GENERATIONS >= 1


class TestVerify:
    def test_verdicts(self, staged, tmp_path):
        directory, _ = staged
        status, detail = verify_checkpoint(directory / LATEST_NAME)
        assert status == "ok"
        assert "step" in detail
        assert verify_checkpoint(tmp_path / "absent.ckpt")[0] == "missing"

    def test_truncation_is_corrupt(self, tmp_path):
        system = _tiny_system()
        system.run_ops(10)
        path = save_checkpoint(system, tmp_path / LATEST_NAME)
        path.write_bytes(path.read_bytes()[:-30])
        status, detail = verify_checkpoint(path)
        assert status == "corrupt"
        assert "truncation" in detail


class TestFallback:
    def _corrupt(self, path):
        raw = bytearray(path.read_bytes())
        raw[-10] ^= 0xFF
        path.write_bytes(bytes(raw))

    def _staged_copy(self, staged, tmp_path):
        directory, steps = staged
        return _copy_directory(directory, tmp_path / "work"), steps

    def test_healthy_latest_wins(self, staged, tmp_path):
        directory, steps = self._staged_copy(staged, tmp_path)
        system, path, skipped = load_checkpoint_with_fallback(directory)
        assert path.name == LATEST_NAME
        assert system.steps_total == steps[3]
        assert skipped == []

    def test_corrupt_latest_falls_back_to_newest_generation(self, staged,
                                                            tmp_path):
        directory, steps = self._staged_copy(staged, tmp_path)
        self._corrupt(directory / LATEST_NAME)
        system, path, skipped = load_checkpoint_with_fallback(directory)
        assert path.name == "gen-00000003.ckpt"
        assert system.steps_total == steps[2]
        assert [p.name for p, _ in skipped] == [LATEST_NAME]

    def test_falls_back_past_a_corrupt_generation_too(self, staged, tmp_path):
        directory, steps = self._staged_copy(staged, tmp_path)
        self._corrupt(directory / LATEST_NAME)
        self._corrupt(directory / "gen-00000003.ckpt")
        system, path, skipped = load_checkpoint_with_fallback(directory)
        assert path.name == "gen-00000002.ckpt"
        assert system.steps_total == steps[1]
        assert len(skipped) == 2

    def test_everything_corrupt_returns_none_with_evidence(self, staged,
                                                           tmp_path):
        directory, _ = self._staged_copy(staged, tmp_path)
        for path in list(directory.iterdir()):
            self._corrupt(path)
        system, path, skipped = load_checkpoint_with_fallback(directory)
        assert system is None and path is None
        assert len(skipped) == 3

    def test_version_one_latest_falls_back_to_newest_generation(self, staged,
                                                                tmp_path):
        directory, steps = self._staged_copy(staged, tmp_path)
        _as_older_version(directory / LATEST_NAME)
        system, path, skipped = load_checkpoint_with_fallback(directory)
        assert path.name == "gen-00000003.ckpt"
        assert system.steps_total == steps[2]
        ((skipped_path, error),) = skipped
        assert skipped_path.name == LATEST_NAME
        assert error.check == "version"

    def test_only_version_one_files_return_none_with_version_evidence(
        self, staged, tmp_path
    ):
        directory, _ = self._staged_copy(staged, tmp_path)
        for path in list(directory.iterdir()):
            _as_older_version(path)
        system, path, skipped = load_checkpoint_with_fallback(directory)
        assert system is None and path is None
        assert [p.name for p, _ in skipped] == [
            LATEST_NAME, "gen-00000003.ckpt", "gen-00000002.ckpt"
        ]
        assert {error.check for _, error in skipped} == {"version"}

    def test_empty_directory(self, tmp_path):
        assert load_checkpoint_with_fallback(tmp_path) == (None, None, [])

    def test_fallback_resumes_to_the_same_metrics(self, tmp_path):
        """Losing latest.ckpt costs re-executed ops, never determinism.

        A checkpointed run whose ``latest.ckpt`` rots falls back to a
        generation and finishes with metrics bit-identical to the
        uninterrupted run (the docs/CHECKPOINTS.md contract, extended to
        the generation chain by docs/FAULTS.md).
        """
        from repro.experiments.runner import _METRIC_FIELDS
        from repro.snapshot import Checkpointer

        reference = _tiny_system().run(100, 50)
        directory = tmp_path / "ckpts"
        checkpointed = _tiny_system()
        Checkpointer(directory, every_ops=30).arm(checkpointed)
        checkpointed.run(100, 50)
        assert generation_files(directory)  # rotation actually happened
        self._corrupt(directory / LATEST_NAME)
        resumed, path, skipped = load_checkpoint_with_fallback(directory)
        assert path.name != LATEST_NAME
        assert [p.name for p, _ in skipped] == [LATEST_NAME]
        metrics = resumed.resume_run()
        for name in _METRIC_FIELDS:
            assert getattr(metrics, name) == getattr(reference, name), name


class TestFormatVersionOne:
    """Version 1 files fail the version check, in the loader and in fsck."""

    def _version_one_checkpoint(self, tmp_path):
        system = _tiny_system()
        system.run_ops(10)
        path = save_checkpoint(system, tmp_path / LATEST_NAME)
        _as_older_version(path)
        return path

    def test_load_fails_the_version_check(self, tmp_path):
        path = self._version_one_checkpoint(tmp_path)
        with pytest.raises(CorruptCheckpointError) as excinfo:
            load_checkpoint(path)
        assert excinfo.value.check == "version"

    def test_fsck_reports_the_version_check(self, tmp_path, capsys):
        path = self._version_one_checkpoint(tmp_path)
        assert verify_checkpoint(path) == ("corrupt", "failed check: version")
        args = argparse.Namespace(dirs=[str(tmp_path)], repair=False, quiet=False)
        assert command_fsck(args) == 1
        assert "failed check: version" in capsys.readouterr().out

    def test_header_version_under_the_current_magic_fails_the_version_check(
        self, tmp_path
    ):
        """Both gates — the magic line and the header's ``format_version``
        — report a v1 file as a version failure, never a payload error."""
        system = _tiny_system()
        system.run_ops(10)
        path = save_checkpoint(system, tmp_path / LATEST_NAME)
        _as_header_version_one(path)
        with pytest.raises(CorruptCheckpointError) as excinfo:
            load_checkpoint(path)
        assert excinfo.value.check == "version"
        assert verify_checkpoint(path) == ("corrupt", "failed check: version")

    def test_fsck_repair_promotes_the_newest_current_generation(
        self, staged, tmp_path
    ):
        directory, steps = staged
        work = _copy_directory(directory, tmp_path / "work")
        _as_older_version(work / LATEST_NAME)
        findings = {
            finding.path.name: finding
            for finding in scan_directory(work, repair=True)
        }
        latest = findings[LATEST_NAME]
        assert latest.status == "repaired"
        assert "promoted gen-00000003.ckpt" in latest.repair
        (quarantined,) = (work / QUARANTINE_DIRNAME).iterdir()
        assert quarantined.read_bytes().startswith(b"REPRO-CKPT v1\n")
        assert load_checkpoint(work / LATEST_NAME).steps_total == steps[2]

    def test_job_with_only_version_one_checkpoints_starts_fresh(
        self, staged, tmp_path
    ):
        """A sweep job whose directory holds nothing this build reads
        builds a fresh system and lands on a clean run's metrics."""
        request = ("pageseer", "lbmx4", "default")
        sizing = (1024, 200, 200, 0, "off")
        clean = execute_job(request, sizing, None, 0, tmp_path / "clean")
        job_dir = _copy_directory(staged[0], tmp_path / "job")
        for path in job_dir.iterdir():
            _as_older_version(path)
        payload = execute_job(request, sizing, None, 0, job_dir)
        assert payload["resumed_at_ops"] == 0
        for name in _METRIC_FIELDS:
            assert payload[name] == clean[name], name

    def test_run_resume_names_both_formats(self, tmp_path, capsys):
        from repro.cli import main

        path = self._version_one_checkpoint(tmp_path)
        assert main(["run", "--resume", str(path)]) == 1
        err = capsys.readouterr().err
        assert "'REPRO-CKPT v1'" in err
        assert f"'{MAGIC.decode().strip()}'" in err
        assert "failed check: version" in err


class TestFormatVersionTwo:
    """Version 2 files — whose payloads name the deleted line routers —
    fail the version check too, before anything is unpickled."""

    def test_load_fails_the_version_check(self, tmp_path):
        system = _tiny_system()
        system.run_ops(10)
        path = save_checkpoint(system, tmp_path / LATEST_NAME)
        _as_older_version(path, 2)
        with pytest.raises(CorruptCheckpointError) as excinfo:
            load_checkpoint(path)
        assert excinfo.value.check == "version"

    def test_fallback_passes_over_it(self, staged, tmp_path):
        directory, steps = staged
        work = _copy_directory(directory, tmp_path / "work")
        _as_older_version(work / LATEST_NAME, 2)
        system, path, skipped = load_checkpoint_with_fallback(work)
        assert path.name == "gen-00000003.ckpt"
        assert system.steps_total == steps[2]
        ((skipped_path, error),) = skipped
        assert skipped_path.name == LATEST_NAME
        assert error.check == "version"

    def test_fsck_reports_the_version_check(self, tmp_path, capsys):
        system = _tiny_system()
        system.run_ops(10)
        path = save_checkpoint(system, tmp_path / LATEST_NAME)
        _as_older_version(path, 2)
        assert verify_checkpoint(path) == ("corrupt", "failed check: version")
        args = argparse.Namespace(dirs=[str(tmp_path)], repair=False, quiet=False)
        assert command_fsck(args) == 1
        assert "failed check: version" in capsys.readouterr().out


class TestFormatVersionThree:
    """Version 3 files — whose payloads hold HPTs without their count-1
    index and ``PctEntry`` dataclass instances — fail the version check
    too, before anything is unpickled."""

    def test_load_fails_the_version_check(self, tmp_path):
        system = _tiny_system()
        system.run_ops(10)
        path = save_checkpoint(system, tmp_path / LATEST_NAME)
        _as_older_version(path, 3)
        with pytest.raises(CorruptCheckpointError) as excinfo:
            load_checkpoint(path)
        assert excinfo.value.check == "version"
        assert verify_checkpoint(path) == ("corrupt", "failed check: version")
