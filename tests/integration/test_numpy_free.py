"""Runs without numpy give the same results as runs with it.

``pyproject.toml`` declares no dependencies, so an install may lack
numpy.  The simulator then takes its fallbacks: the engine's chunk prep
kernel runs its scalar branch, and page tables use the plain-dict VPN
cache.  This module runs two golden configurations in a subprocess where
``import numpy`` fails, and requires the stats digest of the in-process
(numpy) run.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.bench import stats_digest
from repro.check.golden import GOLDEN_SIZING
from repro.common.config import CheckConfig
from repro.sim.system import build_system
from repro.workloads import workload_by_name

REPO_ROOT = Path(__file__).resolve().parents[2]

#: Golden configurations: PageSeer and PoM, one workload each.
CONFIGS = [("pageseer", "lbmx4"), ("pom", "streamx4")]


def golden_digests(configs):
    """``{"scheme/workload": stats digest}`` of each golden-sized run."""
    digests = {}
    for scheme, workload in configs:
        system = build_system(
            scheme,
            workload_by_name(workload),
            scale=GOLDEN_SIZING["scale"],
            seed=GOLDEN_SIZING["seed"],
            check=CheckConfig(level="full"),
        )
        system.run(GOLDEN_SIZING["measure_ops"], GOLDEN_SIZING["warmup_ops"])
        digests[f"{scheme}/{workload}"] = stats_digest(system)
    return digests


_SCRIPT = """\
import json
import sys

sys.modules["numpy"] = None  # every `import numpy` now raises ImportError

from repro.sim import engine
from repro.vm import mmu
from tests.integration.test_numpy_free import golden_digests

assert engine._np is None and mmu._np is None, "numpy was imported"
print(json.dumps(golden_digests(json.loads(sys.argv[1]))))
"""


def test_numpy_free_runs_match_numpy_runs():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(REPO_ROOT / "src"), str(REPO_ROOT)])
    result = subprocess.run(
        [sys.executable, "-c", _SCRIPT, json.dumps(CONFIGS)],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
        check=False,
    )
    assert result.returncode == 0, result.stderr
    without_numpy = json.loads(result.stdout.strip().splitlines()[-1])
    assert without_numpy == golden_digests(CONFIGS)
