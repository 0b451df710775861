"""The committed lint baseline: grandfathered findings.

Some findings are real but cannot be fixed without changing simulation
results (e.g. wiring up a dead latency knob would shift every golden
digest).  Those live in ``lint-baseline.json`` at the repository root:
each entry pins one finding by its line-number-independent fingerprint
plus a human-written ``comment`` explaining *why* it is grandfathered.

``python -m repro lint`` subtracts baselined findings from the failing
set; ``--update-baseline`` rewrites the file from the current findings,
preserving comments of entries that survive.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

from repro.lint.engine import Finding, LintReport

_FORMAT_VERSION = 1


class Baseline:
    """The set of grandfathered findings, keyed by fingerprint."""

    def __init__(self, entries: Optional[Dict[str, Dict[str, object]]] = None):
        #: fingerprint -> {"rule", "path", "message", "comment"}.
        self.entries: Dict[str, Dict[str, object]] = dict(entries or {})

    # -- persistence -------------------------------------------------------
    @classmethod
    def load(cls, path: Path) -> "Baseline":
        """Read a baseline file; a missing file is an empty baseline."""
        if not path.exists():
            return cls()
        document = json.loads(path.read_text(encoding="utf-8"))
        entries = {
            str(entry["fingerprint"]): {
                "rule": entry.get("rule", ""),
                "path": entry.get("path", ""),
                "message": entry.get("message", ""),
                "comment": entry.get("comment", ""),
            }
            for entry in document.get("findings", [])
        }
        return cls(entries)

    def save(self, path: Path) -> None:
        document = {
            "version": _FORMAT_VERSION,
            "findings": [
                {
                    "fingerprint": fingerprint,
                    "rule": entry["rule"],
                    "path": entry["path"],
                    "message": entry["message"],
                    "comment": entry["comment"],
                }
                for fingerprint, entry in sorted(self.entries.items())
            ],
        }
        path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")

    # -- application -------------------------------------------------------
    def contains(self, finding: Finding) -> bool:
        return finding.fingerprint in self.entries

    def apply(self, report: LintReport) -> LintReport:
        """Move baselined findings out of the report's active set."""
        active: List[Finding] = []
        for finding in report.findings:
            if self.contains(finding):
                report.baselined.append(finding)
            else:
                active.append(finding)
        report.findings = active
        return report

    def update_from(
        self, findings: Iterable[Finding]
    ) -> Tuple[int, int]:
        """Rebuild the baseline from *findings* (typically a report's
        failing set), keeping comments of entries that are still present.

        Returns ``(kept, added)`` counts.
        """
        kept = added = 0
        fresh: Dict[str, Dict[str, object]] = {}
        for finding in findings:
            previous = self.entries.get(finding.fingerprint)
            if previous is not None:
                kept += 1
                comment = previous.get("comment", "")
            else:
                added += 1
                comment = "TODO: justify or fix this grandfathered finding"
            fresh[finding.fingerprint] = {
                "rule": finding.rule,
                "path": finding.path,
                "message": finding.message,
                "comment": comment,
            }
        self.entries = fresh
        return kept, added

    def stale_entries(self, findings: Iterable[Finding]) -> List[str]:
        """Fingerprints pinned in the baseline but no longer found."""
        live = {finding.fingerprint for finding in findings}
        return sorted(fp for fp in self.entries if fp not in live)
