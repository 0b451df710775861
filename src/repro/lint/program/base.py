"""Base class for whole-program (RL1xx) rules.

A program rule is an ordinary engine :class:`~repro.lint.engine.Rule`
(registered with :func:`~repro.lint.engine.register_rule`) whose
``collect`` pass is a no-op; all of its reasoning happens in ``finalize``
against ``ctx.program_model`` (the
:class:`~repro.lint.program.model.ProgramModel` the engine builds before
dispatching rules).

Program rules must emit findings only into *linted* files: the model
spans the full ``src/repro`` tree even when a subset is linted, and a
finding in an un-linted file could never be suppressed or inspected by
the user who asked for that subset.
"""

from __future__ import annotations

from typing import Optional

from repro.lint.engine import Finding, ProjectContext, Rule, Severity, SourceFile
from repro.lint.program.model import ProgramModel


class ProgramRule(Rule):
    """Base class for RL1xx rules; override :meth:`check`."""

    def collect(self, source: SourceFile, ctx: ProjectContext) -> None:
        """Program rules read extracted facts, not per-file ASTs."""

    def finalize(self, ctx: ProjectContext) -> None:
        self.check(ctx.program_model, ctx)

    def check(self, model: ProgramModel, ctx: ProjectContext) -> None:
        raise NotImplementedError

    # -- helpers -----------------------------------------------------------
    def emit_at(
        self,
        ctx: ProjectContext,
        relpath: str,
        line: int,
        col: int,
        message: str,
        severity: Optional[Severity] = None,
    ) -> None:
        """Emit a finding at a file position, linted files only."""
        if relpath not in ctx.files_by_relpath:
            return  # outside the linted set — the model is wider than it
        ctx.findings.append(
            Finding(
                rule=self.rule_id,
                severity=severity if severity is not None else self.default_severity,
                path=relpath,
                line=line,
                col=col,
                message=message,
            )
        )
