"""RL104: SoA kernel contracts (positive and negative)."""

from tests.unit.lint_program.helpers import findings_for, lint_project, write_project


def test_positive_mixed_dtype_allocations(tmp_path):
    write_project(tmp_path, {
        "mem/pool.py": (
            "import numpy as np\n"
            "class Pool:\n"
            "    def __init__(self, n):\n"
            "        self.ticks = np.zeros(n, dtype=np.int64)\n"
            "    def grow(self, n):\n"
            "        self.ticks = np.zeros(n)\n"  # implicit float64
        ),
    })
    report, _ = lint_project(tmp_path)
    findings = findings_for(report, "RL104")
    assert len(findings) == 1
    finding = findings[0]
    assert finding.severity.label == "warning"
    assert finding.line == 6  # the widening (implicit float64) site
    assert "implicit float64" in finding.message
    assert "int64" in finding.message
    assert report.exit_code == 1


def test_positive_cross_module_astype_widening_in_hot_kernel(tmp_path):
    write_project(tmp_path, {
        "mem/pool.py": (
            "import numpy as np\n"
            "class Pool:\n"
            "    def __init__(self, n):\n"
            "        self.ticks = np.zeros(n, dtype=np.int32)\n"
        ),
        "sim/kernel.py": (
            "import numpy as np\n"
            "# repro-hot\n"
            "def drain(pool):\n"
            "    return pool.ticks.astype(np.float64)\n"
        ),
    })
    report, _ = lint_project(tmp_path)
    findings = findings_for(report, "RL104")
    assert len(findings) == 1
    assert findings[0].path == "sim/kernel.py"
    assert "astype(float64)" in findings[0].message
    assert "Pool.ticks" in findings[0].message


def test_positive_scalar_item_roundtrip_in_hot_loop(tmp_path):
    write_project(tmp_path, {
        "sim/kernel.py": (
            "import numpy as np\n"
            "# repro-hot\n"
            "def drain(arr, n):\n"
            "    out = []\n"
            "    for i in range(n):\n"
            "        out.append(arr[i].item())\n"
            "    return out\n"
        ),
    })
    report, _ = lint_project(tmp_path)
    findings = findings_for(report, "RL104")
    assert len(findings) == 1
    assert ".item()" in findings[0].message
    assert findings[0].severity.label == "warning"


def test_copying_allocator_in_hot_kernel_is_informational(tmp_path):
    write_project(tmp_path, {
        "sim/kernel.py": (
            "import numpy as np\n"
            "# repro-hot\n"
            "def extend(a, b):\n"
            "    return np.concatenate([a, b])\n"
        ),
    })
    report, _ = lint_project(tmp_path)
    findings = findings_for(report, "RL104")
    assert len(findings) == 1
    assert findings[0].severity.label == "info"
    assert report.exit_code == 0


def test_negative_consistent_dtypes_pass(tmp_path):
    write_project(tmp_path, {
        "mem/pool.py": (
            "import numpy as np\n"
            "class Pool:\n"
            "    def __init__(self, n):\n"
            "        self.ticks = np.zeros(n, dtype=np.int64)\n"
            "    def grow(self, n):\n"
            "        self.ticks = np.zeros(n, dtype=np.int64)\n"
        ),
        "sim/kernel.py": (
            "import numpy as np\n"
            "# repro-hot\n"
            "def drain(pool):\n"
            "    return pool.ticks.astype(np.int32)\n"  # narrowing: no copy blowup
        ),
    })
    report, _ = lint_project(tmp_path)
    assert findings_for(report, "RL104") == []


def test_negative_cold_functions_are_not_policed(tmp_path):
    write_project(tmp_path, {
        "sim/kernel.py": (
            "import numpy as np\n"
            "def drain(arr, n):\n"  # no repro-hot marker
            "    return [arr[i].item() for i in range(n)]\n"
        ),
    })
    report, _ = lint_project(tmp_path)
    assert findings_for(report, "RL104") == []
