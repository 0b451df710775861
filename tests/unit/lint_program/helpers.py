"""Shared fixture plumbing for the whole-program lint tests.

Each test builds a synthetic multi-module mini-project in ``tmp_path``
(package dirs like ``sim/`` so the package-scoping heuristics apply),
then lints it and asserts on the findings and the model.
``write_project`` returns the root; ``lint_project`` runs the engine the
same way ``repro lint`` does.
"""

from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.lint.engine import Finding, LintEngine, LintReport


def write_project(root: Path, files: Dict[str, str]) -> Path:
    for relpath, text in files.items():
        path = root / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    return root


def lint_project(
    root: Path,
    cache_path: Optional[Path] = None,
) -> Tuple[LintReport, LintEngine]:
    engine = LintEngine(root=root, cache_path=cache_path)
    report = engine.run([root])
    return report, engine


def findings_for(report: LintReport, rule: str) -> List[Finding]:
    return [finding for finding in report.findings if finding.rule == rule]
