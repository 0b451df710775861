"""Repository state checking and repair: ``python -m repro fsck``.

The persistence layer (:mod:`repro.persist`, REPRO-CKPT files, the
aggregator's audit log) stamps everything it writes with checksums so
torn writes and bit-rot are *detectable*.  This module is the detector:
it walks checkpoint/sweep/cache/bench directories, verifies every file
it recognises, and reports — or, with ``--repair``, quarantines corrupt
files and promotes the best surviving fallback:

* a corrupt ``latest.ckpt`` is replaced by the newest verifiable
  ``gen-<n>.ckpt`` generation;
* a corrupt persisted JSON file (manifest, cache entry, result, bench
  document) falls back to its ``.bak`` when one verifies;
* an ``aggregator.jsonl`` with a torn tail record (a server killed
  mid-append) is truncated back to its last complete line — the torn
  record was never acknowledged, so dropping it is correct;
* anything quarantined lands in a ``quarantine/`` sibling directory,
  never deleted — post-mortems want the bytes.

Exit status: 0 when every scanned file is ok/legacy (or was repaired),
1 when unrepaired corruption remains, 2 for usage errors.

File classes scanned (everything else is ignored): ``*.ckpt``,
``*.json``, ``*.json.bak``, ``*.jsonl``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro import persist
from repro.common.errors import PersistError
from repro.snapshot.checkpoint import (
    LATEST_NAME,
    generation_files,
    verify_checkpoint,
)

#: Where fsck moves corrupt files (a sibling of the file, never deleted).
QUARANTINE_DIRNAME = "quarantine"



@dataclasses.dataclass
class Finding:
    """One scanned file's verdict (and what --repair did about it)."""

    path: Path
    kind: str            # "checkpoint" | "json" | "journal"
    status: str          # "ok" | "legacy" | "corrupt"
    detail: str
    repair: Optional[str] = None   # what --repair did, when it ran

    @property
    def problem(self) -> bool:
        return self.status == "corrupt"


def _classify(path: Path) -> Optional[str]:
    name = path.name
    if name.endswith(".tmp"):
        return None
    if name.endswith(".ckpt"):
        return "checkpoint"
    if name.endswith(".jsonl"):
        return "journal"
    if name.endswith(".json") or name.endswith(".json.bak"):
        return "json"
    return None


def _probe_journal(path: Path) -> Tuple[str, str, int]:
    """Verdict for a JSONL journal: ``(status, detail, torn_tail_offset)``.

    A single unparseable *final* line is a torn tail (crash mid-append):
    recoverable by truncating back to the offset returned.  Unparseable
    lines anywhere else are corruption proper (offset -1: not safely
    truncatable without losing good records).
    """
    try:
        raw = path.read_bytes()
    except OSError as exc:
        return ("corrupt", f"unreadable: {exc}", -1)
    offset = 0
    bad: List[Tuple[int, int]] = []  # (line number, byte offset)
    lines = raw.split(b"\n")
    for number, line in enumerate(lines, start=1):
        if line.strip():
            try:
                json.loads(line.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError):
                bad.append((number, offset))
        offset += len(line) + 1
    if not bad:
        return ("ok", f"{sum(1 for l in lines if l.strip())} records", -1)
    last_number, last_offset = bad[-1]
    if len(bad) == 1 and last_number == len(lines) - (0 if lines[-1] else 1):
        return ("corrupt", f"torn tail record at line {last_number}",
                last_offset)
    return ("corrupt",
            f"{len(bad)} unparseable line(s), first at line {bad[0][0]}", -1)


def _quarantine(path: Path) -> Optional[Path]:
    """Move *path* into a ``quarantine/`` sibling; None when that fails."""
    target_dir = path.parent / QUARANTINE_DIRNAME
    try:
        target_dir.mkdir(parents=True, exist_ok=True)
    except OSError:
        return None
    target = target_dir / path.name
    suffix = 0
    while target.exists():
        suffix += 1
        target = target_dir / f"{path.name}.{suffix}"
    try:
        os.replace(path, target)
    except OSError:
        return None
    return target


def _restore_bytes(source: Path, destination: Path) -> bool:
    """Copy *source*'s bytes over *destination* (atomically); False on failure."""
    try:
        data = source.read_bytes()
        persist.atomic_write_bytes(destination, data, site="fsck")
    except (OSError, PersistError):
        return False
    return True


def _repair_checkpoint(finding: Finding) -> None:
    """Quarantine a corrupt checkpoint; promote a generation for latest."""
    path = finding.path
    moved = _quarantine(path)
    if moved is None:
        finding.repair = "quarantine failed (permissions?)"
        return
    if path.name != LATEST_NAME:
        finding.repair = f"quarantined to {moved}"
        finding.status = "repaired"
        return
    for candidate in reversed(generation_files(path.parent)):
        status, _ = verify_checkpoint(candidate)
        if status == "ok" and _restore_bytes(candidate, path):
            finding.repair = (f"quarantined to {moved}; promoted "
                              f"{candidate.name} to {LATEST_NAME}")
            finding.status = "repaired"
            return
    finding.repair = (f"quarantined to {moved}; no verifiable generation "
                      f"to promote — the run restarts from scratch")
    finding.status = "repaired"


def _repair_json(finding: Finding) -> None:
    """Quarantine a corrupt JSON file; promote its ``.bak`` when good."""
    path = finding.path
    moved = _quarantine(path)
    if moved is None:
        finding.repair = "quarantine failed (permissions?)"
        return
    backup = persist.backup_path(path)
    if not path.name.endswith(".bak") and backup.exists():
        status, _ = persist.verify_file(backup)
        if status in ("ok", "legacy") and _restore_bytes(backup, path):
            finding.repair = (f"quarantined to {moved}; restored from "
                              f"{backup.name}")
            finding.status = "repaired"
            return
    finding.repair = f"quarantined to {moved}"
    finding.status = "repaired"


def _repair_journal(finding: Finding, torn_offset: int) -> None:
    """Truncate a torn tail record; quarantine anything worse."""
    path = finding.path
    if torn_offset >= 0:
        try:
            raw = path.read_bytes()
            persist.atomic_write_bytes(path, raw[:torn_offset], site="fsck")
        except (OSError, PersistError):
            finding.repair = "truncation failed"
            return
        finding.repair = f"truncated torn tail at byte {torn_offset}"
        finding.status = "repaired"
        return
    moved = _quarantine(path)
    if moved is None:
        finding.repair = "quarantine failed (permissions?)"
        return
    finding.repair = f"quarantined to {moved}"
    finding.status = "repaired"


def scan_directory(
    directory: Path, *, repair: bool = False
) -> List[Finding]:
    """Verify (and optionally repair) every recognised file under *directory*."""
    findings: List[Finding] = []
    for dirpath, dirnames, filenames in os.walk(directory):
        # Never descend into our own quarantine — those files are
        # *expected* to be corrupt; rescanning them would loop forever.
        dirnames[:] = sorted(d for d in dirnames if d != QUARANTINE_DIRNAME)
        for name in sorted(filenames):
            path = Path(dirpath) / name
            kind = _classify(path)
            if kind is None:
                continue
            if kind == "checkpoint":
                status, detail = verify_checkpoint(path)
                finding = Finding(path, kind, status, detail)
                if repair and finding.problem:
                    _repair_checkpoint(finding)
            elif kind == "journal":
                status, detail, torn_offset = _probe_journal(path)
                finding = Finding(path, kind, status, detail)
                if repair and finding.problem:
                    _repair_journal(finding, torn_offset)
            else:
                status, detail = persist.verify_file(path)
                finding = Finding(path, kind, status, detail)
                if repair and finding.problem:
                    _repair_json(finding)
            findings.append(finding)
    return findings


def default_scan_dirs() -> List[Path]:
    """The directories ``repro fsck`` scans when none are given."""
    cache_env = os.environ.get("REPRO_CACHE_DIR")
    return [
        Path("checkpoints"),
        Path(cache_env) if cache_env else Path(".repro_cache"),
        Path("benchmarks"),
    ]


def summarize(findings: List[Finding]) -> Dict[str, int]:
    counts = {"ok": 0, "legacy": 0, "corrupt": 0, "repaired": 0}
    for finding in findings:
        counts[finding.status] = counts.get(finding.status, 0) + 1
    return counts


# -- CLI glue (wired into repro.cli's subcommand table) ----------------------

def add_fsck_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("dirs", nargs="*", default=None, metavar="DIR",
                        help="directories to scan (default: checkpoints/, "
                             "the result cache, benchmarks/)")
    parser.add_argument("--repair", action="store_true",
                        help="quarantine corrupt files, promote last-good "
                             "checkpoint generations and .bak fallbacks, "
                             "truncate torn journal tails")
    parser.add_argument("--quiet", action="store_true",
                        help="print problems (and repairs) only")


def command_fsck(args: argparse.Namespace) -> int:
    # fsck is the tool that *recovers from* storage trouble; its own
    # writes must never be storm targets.
    persist.install_storage_faults(None)
    dirs = [Path(d) for d in args.dirs] if args.dirs else default_scan_dirs()
    explicit = bool(args.dirs)
    findings: List[Finding] = []
    scanned: List[Path] = []
    for directory in dirs:
        if not directory.is_dir():
            if explicit:
                print(f"error: {directory} is not a directory",
                      file=sys.stderr)
                return 2
            continue
        scanned.append(directory)
        findings.extend(scan_directory(directory, repair=args.repair))
    for finding in findings:
        if args.quiet and finding.status in ("ok", "legacy"):
            continue
        line = f"{finding.status:9s} {finding.path}  [{finding.detail}]"
        if finding.repair:
            line += f" -> {finding.repair}"
        print(line)
    counts = summarize(findings)
    roots = ", ".join(str(d) for d in scanned) or "nothing"
    print(f"fsck: scanned {roots}: {counts['ok']} ok, "
          f"{counts['legacy']} legacy, {counts['corrupt']} corrupt, "
          f"{counts['repaired']} repaired")
    if counts["corrupt"]:
        if not args.repair:
            print("hint: re-run with --repair to quarantine corrupt files "
                  "and promote last-good generations", file=sys.stderr)
        return 1
    return 0


def run_fsck(
    dirs: Sequence[Path], *, repair: bool = False
) -> Tuple[List[Finding], int]:
    """Library entry: scan *dirs*; returns (findings, exit_code)."""
    findings: List[Finding] = []
    for directory in dirs:
        if Path(directory).is_dir():
            findings.extend(scan_directory(Path(directory), repair=repair))
    exit_code = 1 if any(f.problem for f in findings) else 0
    return findings, exit_code
