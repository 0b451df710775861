"""RL101 — stats-key liveness and near-duplicate keys, program-wide.

Every record site and every read site in the entire program
participates, including reads through ``StatsSnapshot`` copies and
metric dictionaries in the experiments/report layers, and records made
straight into the registry's dicts by flattened hot paths.  The rule
flags:

* a key **read but recorded nowhere** — a silent zero in a figure
  (typically a typo'd key straddling the sim/report module boundary),
  with a did-you-mean suggestion;
* **near-duplicate** recorded keys (edit distance 1, ignoring pairs that
  differ only in a digit such as ``l1``/``l2``) — a typo splitting one
  counter into two;
* (informational) a key **recorded but read nowhere** — dead
  instrumentation weight.
"""

from __future__ import annotations

from repro.lint.engine import ProjectContext, Severity, register_rule
from repro.lint.program.base import ProgramRule
from repro.lint.program.model import ProgramModel


def _edit_distance(a: str, b: str, limit: int = 3) -> int:
    """Levenshtein distance, capped at *limit* + 1 for speed."""
    if abs(len(a) - len(b)) > limit:
        return limit + 1
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        current = [i]
        for j, cb in enumerate(b, start=1):
            current.append(
                min(
                    previous[j] + 1,
                    current[j - 1] + 1,
                    previous[j - 1] + (ca != cb),
                )
            )
        if min(current) > limit:
            return limit + 1
        previous = current
    return previous[-1]


def _digit_only_difference(a: str, b: str) -> bool:
    """True if *a* and *b* differ in exactly one position, digit vs digit."""
    if len(a) != len(b):
        return False
    diffs = [(ca, cb) for ca, cb in zip(a, b) if ca != cb]
    return len(diffs) == 1 and diffs[0][0].isdigit() and diffs[0][1].isdigit()


@register_rule
class StatsLivenessRule(ProgramRule):
    """RL101: record/read liveness over the whole program's key space."""

    rule_id = "RL101"
    name = "program-stats-liveness"
    default_severity = Severity.WARNING

    def check(self, model: ProgramModel, ctx: ProjectContext) -> None:
        self._reads_without_records(model, ctx)
        self._near_duplicates(model, ctx)
        self._records_without_reads(model, ctx)

    @staticmethod
    def _nearest(model: ProgramModel, key: str) -> str:
        best, best_distance = None, 3
        for candidate in model.recorded:
            distance = _edit_distance(key, candidate, limit=2)
            if distance < best_distance:
                best, best_distance = candidate, distance
        return f'; did you mean "{best}"?' if best else ""

    def _reads_without_records(self, model: ProgramModel, ctx: ProjectContext) -> None:
        for key in sorted(model.read):
            if key in model.recorded:
                continue
            if any(key.startswith(prefix) for prefix, _, _ in model.record_patterns):
                continue
            for relpath, site in model.read[key]:
                self.emit_at(
                    ctx, relpath, site.line, site.col,
                    f'stats key "{key}" is read here but recorded nowhere in '
                    f"the program — the consumer silently sees zero"
                    f"{self._nearest(model, key)}",
                )

    def _near_duplicates(self, model: ProgramModel, ctx: ProjectContext) -> None:
        keys = sorted(model.recorded)
        for i, a in enumerate(keys):
            for b in keys[i + 1:]:
                if _digit_only_difference(a, b):
                    continue
                if _edit_distance(a, b, limit=1) == 1:
                    relpath, site = model.recorded[b][0]
                    self.emit_at(
                        ctx, relpath, site.line, site.col,
                        f'recorded stats keys "{a}" and "{b}" differ by one '
                        "character — likely a typo splitting one counter "
                        "into two",
                    )

    def _records_without_reads(self, model: ProgramModel, ctx: ProjectContext) -> None:
        for key in sorted(model.recorded):
            if key in model.read:
                continue
            relpath, site = model.recorded[key][0]
            self.emit_at(
                ctx, relpath, site.line, site.col,
                f'stats key "{key}" is recorded but never read anywhere in '
                "the program (only surfaced via the raw dump); wire it into "
                "a consumer or drop it",
                severity=Severity.INFO,
            )
