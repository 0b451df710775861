"""Units for ``repro fsck`` (``repro.fsck``): scan, verify, repair.

Fixtures hand-assemble the three persisted file classes — REPRO-CKPT
checkpoints, stamped JSON envelopes, JSONL journals — corrupt them in
controlled ways, and assert the scanner's verdicts and the repair
actions (quarantine, generation promotion, ``.bak`` restore, torn-tail
truncation).
"""

import argparse
import hashlib
import json
import zlib
from pathlib import Path

import pytest

from repro import persist
from repro.fsck import (
    QUARANTINE_DIRNAME,
    _classify,
    _probe_journal,
    _quarantine,
    command_fsck,
    run_fsck,
    scan_directory,
    summarize,
)
from repro.snapshot.checkpoint import (
    CHECKPOINT_FORMAT_VERSION,
    LATEST_NAME,
    MAGIC,
    verify_checkpoint,
)


def make_checkpoint(path: Path, payload: bytes = b"system state") -> Path:
    """A minimal valid REPRO-CKPT file (fsck never unpickles payloads)."""
    compressed = zlib.compress(payload)
    header = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "checksum_sha256": hashlib.sha256(compressed).hexdigest(),
        "payload_bytes": len(compressed),
        "ops_executed": [3, 4],
    }
    blob = (
        MAGIC
        + json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
        + b"\n"
        + compressed
    )
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(blob)
    return path


def corrupt_tail(path: Path, drop: int = 5) -> None:
    raw = path.read_bytes()
    path.write_bytes(raw[:-drop])


def journal_lines(*records) -> bytes:
    return b"".join(
        json.dumps(record).encode() + b"\n" for record in records
    )


def by_name(findings):
    return {finding.path.name: finding for finding in findings}


# -- classification -----------------------------------------------------------


class TestClassify:
    @pytest.mark.parametrize("name,kind", [
        ("latest.ckpt", "checkpoint"),
        ("gen-00000001.ckpt", "checkpoint"),
        ("result.json", "json"),
        ("manifest.json.bak", "json"),
        ("aggregator.jsonl", "journal"),
        ("heartbeat", None),
        ("result.json.1234.tmp", None),
        ("notes.txt", None),
    ])
    def test_kinds(self, tmp_path, name, kind):
        assert _classify(tmp_path / name) == kind


# -- scanning -----------------------------------------------------------------


class TestScan:
    def test_clean_directory_is_all_ok(self, tmp_path):
        make_checkpoint(tmp_path / LATEST_NAME)
        persist.write_json(tmp_path / "result.json", {"ipc": 1.0})
        (tmp_path / "log.jsonl").write_bytes(journal_lines({"a": 1}, {"b": 2}))
        findings = scan_directory(tmp_path)
        assert len(findings) == 3
        assert all(f.status == "ok" for f in findings)

    def test_legacy_json_is_reported_not_flagged(self, tmp_path):
        (tmp_path / "old.json").write_text(json.dumps({"v": 1}))
        (finding,) = scan_directory(tmp_path)
        assert finding.status == "legacy"
        assert not finding.problem

    def test_corruption_is_detected_per_class(self, tmp_path):
        corrupt_tail(make_checkpoint(tmp_path / LATEST_NAME))
        persist.write_json(tmp_path / "result.json", {"ipc": 1.0})
        raw = (tmp_path / "result.json").read_text()
        (tmp_path / "result.json").write_text(raw.replace("1.0", "2.0"))
        (tmp_path / "log.jsonl").write_bytes(
            journal_lines({"a": 1}) + b'{"torn": '
        )
        findings = by_name(scan_directory(tmp_path))
        assert findings[LATEST_NAME].status == "corrupt"
        assert "truncation" in findings[LATEST_NAME].detail
        assert findings["result.json"].status == "corrupt"
        assert findings["log.jsonl"].status == "corrupt"
        assert "torn tail" in findings["log.jsonl"].detail

    def test_quarantine_directory_is_never_rescanned(self, tmp_path):
        corrupt = tmp_path / QUARANTINE_DIRNAME / "bad.json"
        corrupt.parent.mkdir()
        corrupt.write_bytes(b"garbage")
        assert scan_directory(tmp_path) == []

    def test_ignored_names_are_skipped(self, tmp_path):
        (tmp_path / "heartbeat").write_text("12345")
        (tmp_path / "doc.json.999.tmp").write_bytes(b"partial")
        assert scan_directory(tmp_path) == []


# -- journal probing ----------------------------------------------------------


class TestJournalProbe:
    def test_clean_journal(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_bytes(journal_lines({"a": 1}, {"b": 2}, {"c": 3}))
        status, detail, offset = _probe_journal(path)
        assert status == "ok"
        assert "3 records" in detail
        assert offset == -1

    def test_torn_final_line_is_recoverable(self, tmp_path):
        good = journal_lines({"a": 1}, {"b": 2})
        path = tmp_path / "log.jsonl"
        path.write_bytes(good + b'{"c": 3')  # crash mid-append, no newline
        status, detail, offset = _probe_journal(path)
        assert status == "corrupt"
        assert "torn tail" in detail
        assert offset == len(good)

    def test_mid_file_corruption_is_not_truncatable(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_bytes(
            journal_lines({"a": 1}) + b"garbage\n" + journal_lines({"c": 3})
        )
        status, detail, offset = _probe_journal(path)
        assert status == "corrupt"
        assert offset == -1


# -- repair -------------------------------------------------------------------


class TestRepair:
    def test_corrupt_latest_promotes_newest_good_generation(self, tmp_path):
        make_checkpoint(tmp_path / "gen-00000001.ckpt", b"older state")
        good = make_checkpoint(tmp_path / "gen-00000002.ckpt", b"newer state")
        corrupt_tail(make_checkpoint(tmp_path / LATEST_NAME, b"newest state"))
        findings = by_name(scan_directory(tmp_path, repair=True))
        latest = findings[LATEST_NAME]
        assert latest.status == "repaired"
        assert "promoted gen-00000002.ckpt" in latest.repair
        assert verify_checkpoint(tmp_path / LATEST_NAME)[0] == "ok"
        assert (tmp_path / LATEST_NAME).read_bytes() == good.read_bytes()
        assert (tmp_path / QUARANTINE_DIRNAME / LATEST_NAME).exists()

    def test_corrupt_generation_is_skipped_for_promotion(self, tmp_path):
        corrupt_tail(make_checkpoint(tmp_path / "gen-00000002.ckpt", b"bad"))
        good = make_checkpoint(tmp_path / "gen-00000001.ckpt", b"good")
        corrupt_tail(make_checkpoint(tmp_path / LATEST_NAME))
        findings = by_name(scan_directory(tmp_path, repair=True))
        assert "promoted gen-00000001.ckpt" in findings[LATEST_NAME].repair
        assert (tmp_path / LATEST_NAME).read_bytes() == good.read_bytes()

    def test_no_generation_means_restart_from_scratch(self, tmp_path):
        corrupt_tail(make_checkpoint(tmp_path / LATEST_NAME))
        findings = by_name(scan_directory(tmp_path, repair=True))
        assert findings[LATEST_NAME].status == "repaired"
        assert "no verifiable generation" in findings[LATEST_NAME].repair
        assert not (tmp_path / LATEST_NAME).exists()  # quarantined away

    def test_corrupt_non_latest_checkpoint_is_only_quarantined(self, tmp_path):
        corrupt_tail(make_checkpoint(tmp_path / "gen-00000001.ckpt"))
        make_checkpoint(tmp_path / LATEST_NAME)
        findings = by_name(scan_directory(tmp_path, repair=True))
        assert findings["gen-00000001.ckpt"].status == "repaired"
        assert "promoted" not in findings["gen-00000001.ckpt"].repair
        assert (tmp_path / QUARANTINE_DIRNAME / "gen-00000001.ckpt").exists()

    def test_corrupt_json_restores_from_backup(self, tmp_path):
        path = tmp_path / "manifest.json"
        persist.write_json(path, {"gen": 1}, backup=True)
        persist.write_json(path, {"gen": 2}, backup=True)
        path.write_bytes(b"trashed")
        findings = by_name(scan_directory(tmp_path, repair=True))
        assert findings["manifest.json"].status == "repaired"
        assert "restored from manifest.json.bak" in findings["manifest.json"].repair
        assert persist.read_json(path) == {"gen": 1}

    def test_corrupt_json_without_backup_is_quarantined(self, tmp_path):
        path = tmp_path / "result.json"
        path.write_bytes(b"trashed")
        findings = by_name(scan_directory(tmp_path, repair=True))
        assert findings["result.json"].status == "repaired"
        assert "restored" not in findings["result.json"].repair
        assert not path.exists()
        assert (tmp_path / QUARANTINE_DIRNAME / "result.json").exists()

    def test_torn_journal_tail_is_truncated(self, tmp_path):
        good = journal_lines({"a": 1}, {"b": 2})
        path = tmp_path / "aggregator.jsonl"
        path.write_bytes(good + b'{"c": ')
        findings = by_name(scan_directory(tmp_path, repair=True))
        assert findings["aggregator.jsonl"].status == "repaired"
        assert "truncated torn tail" in findings["aggregator.jsonl"].repair
        assert path.read_bytes() == good
        # Every surviving record still parses.
        records = [json.loads(l) for l in path.read_text().splitlines() if l]
        assert records == [{"a": 1}, {"b": 2}]

    def test_mid_corrupt_journal_is_quarantined(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_bytes(
            journal_lines({"a": 1}) + b"garbage\n" + journal_lines({"c": 3})
        )
        findings = by_name(scan_directory(tmp_path, repair=True))
        assert findings["log.jsonl"].status == "repaired"
        assert not path.exists()
        assert (tmp_path / QUARANTINE_DIRNAME / "log.jsonl").exists()

    def test_quarantine_never_overwrites(self, tmp_path):
        first = tmp_path / "x.json"
        first.write_bytes(b"one")
        moved_first = _quarantine(first)
        second = tmp_path / "x.json"
        second.write_bytes(b"two")
        moved_second = _quarantine(second)
        assert moved_first.name == "x.json"
        assert moved_second.name == "x.json.1"
        assert moved_first.read_bytes() == b"one"
        assert moved_second.read_bytes() == b"two"

    def test_repair_then_rescan_is_clean(self, tmp_path):
        make_checkpoint(tmp_path / "gen-00000001.ckpt")
        corrupt_tail(make_checkpoint(tmp_path / LATEST_NAME))
        persist.write_json(tmp_path / "m.json", {"gen": 1}, backup=True)
        persist.write_json(tmp_path / "m.json", {"gen": 2}, backup=True)
        (tmp_path / "m.json").write_bytes(b"bad")
        (tmp_path / "log.jsonl").write_bytes(
            journal_lines({"a": 1}) + b'{"torn'
        )
        _, first_exit = run_fsck([tmp_path], repair=True)
        assert first_exit == 0  # everything was repairable
        findings, second_exit = run_fsck([tmp_path])
        assert second_exit == 0
        assert all(f.status in ("ok", "legacy") for f in findings)


# -- exit codes and CLI glue --------------------------------------------------


def _args(dirs, repair=False, quiet=False):
    return argparse.Namespace(dirs=dirs, repair=repair, quiet=quiet)


class TestExitCodes:
    def test_run_fsck_flags_corruption(self, tmp_path):
        (tmp_path / "bad.json").write_bytes(b"nope")
        findings, exit_code = run_fsck([tmp_path])
        assert exit_code == 1
        assert summarize(findings)["corrupt"] == 1

    def test_command_clean_exits_zero(self, tmp_path, capsys):
        persist.write_json(tmp_path / "ok.json", {"a": 1})
        assert command_fsck(_args([str(tmp_path)])) == 0
        assert "1 ok" in capsys.readouterr().out

    def test_command_corrupt_exits_one_with_hint(self, tmp_path, capsys):
        (tmp_path / "bad.json").write_bytes(b"nope")
        assert command_fsck(_args([str(tmp_path)])) == 1
        captured = capsys.readouterr()
        assert "--repair" in captured.err

    def test_command_repair_exits_zero(self, tmp_path, capsys):
        (tmp_path / "bad.json").write_bytes(b"nope")
        assert command_fsck(_args([str(tmp_path)], repair=True)) == 0
        assert "1 repaired" in capsys.readouterr().out

    def test_explicit_missing_directory_is_usage_error(self, tmp_path, capsys):
        missing = tmp_path / "absent"
        assert command_fsck(_args([str(missing)])) == 2
        assert "not a directory" in capsys.readouterr().err

    def test_default_directories_are_skipped_quietly(self, tmp_path, capsys,
                                                     monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert command_fsck(_args([])) == 0
        assert "scanned nothing" in capsys.readouterr().out

    def test_quiet_suppresses_healthy_lines(self, tmp_path, capsys):
        persist.write_json(tmp_path / "ok.json", {"a": 1})
        (tmp_path / "bad.json").write_bytes(b"nope")
        command_fsck(_args([str(tmp_path)], quiet=True))
        out = capsys.readouterr().out
        assert "bad.json" in out
        assert "ok.json" not in out
