"""The simulator imports, runs, checks and checkpoints without numpy.

``pyproject.toml`` declares no dependencies, and nothing under ``src/``
imports numpy, guarded or not.  This module pins that in a subprocess
whose ``sys.path`` starts with a sentinel ``numpy`` package.  Importing
the sentinel raises ``RuntimeError``, which an ``except ImportError``
guard does not catch, so even a guarded import fails the run; and the
sentinel shadows any installed numpy, so the test means the same with
or without numpy on the machine.

The subprocess imports ``repro.cli`` and every other ``repro`` module,
runs two golden configurations with the sanitizer at ``full`` (their
digests must equal the committed goldens), and saves and loads a
checkpoint whose restored system keeps running bit-identically.  An
import inside a function body only runs when that function does, so a
static scan also requires that no module under ``src/``, ``tests/`` or
``benchmarks/`` names numpy in an import.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

from repro.check.golden import load_golden

REPO_ROOT = Path(__file__).resolve().parents[2]
GOLDEN_DIR = REPO_ROOT / "tests" / "golden"

#: Golden configurations: PageSeer and PoM, one workload each.
CONFIGS = [("pageseer", "lbmx4"), ("pom", "streamx4")]

_SENTINEL = 'raise RuntimeError("numpy is blocked: nothing under src/ may use it")\n'

_SCRIPT = """\
import importlib
import json
import pkgutil
import sys
from pathlib import Path

import repro
import repro.cli  # noqa: F401
from repro.bench import stats_digest
from repro.check.golden import payload_digest, run_golden_entry
from repro.common.config import CheckConfig
from repro.sim.system import build_system
from repro.snapshot import load_checkpoint, save_checkpoint
from repro.workloads import workload_by_name

for module in pkgutil.walk_packages(repro.__path__, "repro."):
    importlib.import_module(module.name)

configs, checkpoint_dir = json.loads(sys.argv[1]), Path(sys.argv[2])
digests = {
    f"{scheme}/{workload}": payload_digest(
        run_golden_entry(scheme, workload, "default").payload()
    )
    for scheme, workload in configs
}

system = build_system(
    "pageseer", workload_by_name("mcfx8"), scale=1024, seed=0,
    check=CheckConfig(level="full"),
)
system.run_ops(300)
restored = load_checkpoint(save_checkpoint(system, checkpoint_dir / "run.ckpt"))
system.run_ops(300)
restored.run_ops(300)

try:
    importlib.import_module("numpy")
except RuntimeError:
    sentinel_shadows_numpy = True
else:
    sentinel_shadows_numpy = False

print(json.dumps({
    "digests": digests,
    "checkpoint_resumes_identically": stats_digest(restored) == stats_digest(system),
    "sentinel_shadows_numpy": sentinel_shadows_numpy,
}))
"""


def test_runs_and_checkpoints_with_numpy_unimportable(tmp_path):
    sentinel = tmp_path / "sentinel"
    (sentinel / "numpy").mkdir(parents=True)
    (sentinel / "numpy" / "__init__.py").write_text(_SENTINEL)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(sentinel), str(REPO_ROOT / "src"), str(REPO_ROOT)]
    )
    env["REPRO_CACHE_DIR"] = str(tmp_path / "cache")
    result = subprocess.run(
        [sys.executable, "-c", _SCRIPT, json.dumps(CONFIGS), str(tmp_path)],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
        check=False,
    )
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout.strip().splitlines()[-1])
    assert report["sentinel_shadows_numpy"]
    assert report["checkpoint_resumes_identically"]
    assert report["digests"] == {
        f"{scheme}/{workload}": load_golden(GOLDEN_DIR, scheme, workload, "default")["digest"]
        for scheme, workload in CONFIGS
    }


def _imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            yield node.module
        elif (
            isinstance(node, ast.Call)
            and getattr(node.func, "attr", getattr(node.func, "id", None))
            in ("import_module", "__import__")
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, str)
        ):
            yield node.args[0].value


def test_no_module_imports_numpy():
    offenders = []
    for top in ("src", "tests", "benchmarks"):
        for path in sorted((REPO_ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            for module in _imported_modules(tree):
                if module.split(".")[0] == "numpy":
                    offenders.append(f"{path.relative_to(REPO_ROOT)}: {module}")
    assert offenders == []
