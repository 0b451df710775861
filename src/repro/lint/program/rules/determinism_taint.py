"""RL102 — whole-program determinism taint.

PageSeer runs must be bit-reproducible: the golden-digest harness
(PRs 1–6) diffs stats and checkpoints across engines and resumes.  Any
value derived from ambient nondeterminism — ``random``, wall-clock time,
``id()``, ``os.urandom``, ``uuid`` — that reaches simulator state or a
stats record breaks that contract in ways no per-file rule can see once
the source and the sink live in different functions or modules.

This rule consumes the model's interprocedural taint findings: a source
is clean only when laundered through ``repro.common.rng``'s
``DeterministicRng`` (seeded, named, checkpointable).  Wall-clock reads
that stay in watchdog/telemetry code paths never reach a sink and are
not flagged — the analysis is flow-sensitive, not import-sensitive like
RL001.
"""

from __future__ import annotations

from repro.lint.engine import ProjectContext, Severity, register_rule
from repro.lint.program.base import ProgramRule
from repro.lint.program.model import ProgramModel, TaintFinding


def _render_chain(finding: TaintFinding) -> str:
    names = [symbol.partition(":")[2] for symbol in finding.chain]
    return " → ".join(names)


@register_rule
class DeterminismTaintRule(ProgramRule):
    """RL102: nondeterminism sources must not reach state or stats."""

    rule_id = "RL102"
    name = "program-determinism-taint"
    default_severity = Severity.WARNING

    def check(self, model: ProgramModel, ctx: ProjectContext) -> None:
        for finding in model.taint_findings:
            if finding.sink_kind == "stats":
                consequence = (
                    f"reaches the stats record at {finding.sink_detail} — "
                    "figures become nondeterministic"
                )
            else:
                consequence = (
                    f"reaches simulator state {finding.sink_detail} — "
                    "checkpoints and golden digests become nondeterministic"
                )
            via = (
                f" (via {_render_chain(finding)})" if len(finding.chain) > 1 else ""
            )
            self.emit_at(
                ctx, finding.relpath, finding.line, finding.col,
                f"value tainted by {finding.source} {consequence}{via}; "
                "draw through common/rng.DeterministicRng instead",
            )
