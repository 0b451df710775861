"""The declared Python floor is the oldest interpreter CI runs.

``pyproject.toml``'s ``requires-python`` promises that ``import repro``
works on every version from the floor up, but only the versions in the
CI workflow are ever exercised.  A floor below the oldest CI version is
a promise nothing checks (the floor once said 3.9 while the code used
3.10-only ``dataclass(slots=True)``); a floor above it wastes a CI leg.
"""

import ast
import re
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src" / "repro"

#: ``dataclasses.dataclass`` keywords and the Python version that added them.
DATACLASS_KEYWORD_SINCE = {
    "match_args": (3, 10),
    "kw_only": (3, 10),
    "slots": (3, 10),
    "weakref_slot": (3, 11),
}


def _version(text):
    return tuple(int(part) for part in text.split("."))


def declared_floor():
    pyproject = (REPO_ROOT / "pyproject.toml").read_text()
    match = re.search(r'^requires-python\s*=\s*">=\s*([0-9.]+)"', pyproject, re.M)
    assert match is not None, "pyproject.toml declares no >= requires-python"
    return _version(match.group(1))


def ci_versions():
    """Every literal ``python-version`` the CI workflow sets up."""
    workflow = (REPO_ROOT / ".github" / "workflows" / "ci.yml").read_text()
    versions = set()
    for value in re.findall(r"python-version:\s*(.+)", workflow):
        versions.update(_version(v) for v in re.findall(r'"(\d+\.\d+)"', value))
    return versions


def test_requires_python_floor_is_the_oldest_ci_version():
    versions = ci_versions()
    assert versions, "ci.yml sets up no literal python-version"
    assert declared_floor() == min(versions)


def test_mypy_checks_at_the_floor():
    pyproject = (REPO_ROOT / "pyproject.toml").read_text()
    match = re.search(r'^python_version\s*=\s*"([0-9.]+)"', pyproject, re.M)
    assert match is not None, "pyproject.toml sets no [tool.mypy] python_version"
    assert _version(match.group(1)) == declared_floor()


def _sources():
    return sorted(SRC.rglob("*.py"))


def test_every_module_parses_at_the_floor():
    floor = declared_floor()
    for path in _sources():
        ast.parse(path.read_text(), filename=str(path), feature_version=floor[:2])


def test_dataclass_keywords_exist_at_the_floor():
    """Keywords like ``slots=`` are not syntax, so parsing at the floor
    misses them; on an older interpreter they raise ``TypeError`` at
    import time."""
    floor = declared_floor()
    too_new = []
    for path in _sources():
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name != "dataclass":
                continue
            for keyword in node.keywords:
                since = DATACLASS_KEYWORD_SINCE.get(keyword.arg)
                if since is not None and since > floor:
                    too_new.append(f"{path.relative_to(REPO_ROOT)}:{node.lineno} {keyword.arg}=")
    assert too_new == []
