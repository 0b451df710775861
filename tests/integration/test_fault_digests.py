"""Pinned results of fault-injected runs, for all five schemes.

The goldens in tests/golden/ run with faults off and cover three schemes.
This module pins the ``repro.bench.stats_digest`` of every scheme under
every fault profile on lbmx4 (scale 1024, 1000 warm-up + 1000 measured ops
per core, fault seed 7).  Together the runs reach every recovery path:
retries with backoff, swap aborts on all four swapping schemes, degraded
service, and a PageSeer quarantine with a rescue swap under ``storm``.  A
digest moves only when the model or the fault layer changes behaviour.
"""

import pytest

from repro.bench import stats_digest
from repro.faults.profiles import resolve_profile
from repro.snapshot import Checkpointer, load_checkpoint
from repro.sim.system import build_system
from repro.workloads import workload_by_name

SCALE = 1024
WARMUP_OPS = 1000
MEASURE_OPS = 1000
FAULT_SEED = 7

FAULT_DIGESTS = {
    ("pageseer", "off"): "c89d1c69444d3f16",
    ("pageseer", "transient"): "0138a9b90be12032",
    ("pageseer", "uncorrectable"): "0d60074fce051269",
    ("pageseer", "storm"): "362e6e97bca652f7",
    ("pom", "off"): "c64411609b61c12d",
    ("pom", "transient"): "e6dda502673d34e7",
    ("pom", "uncorrectable"): "077d4fdaccc46822",
    ("pom", "storm"): "f52a6cc3bbc65efe",
    ("mempod", "off"): "dfb665743a9effec",
    ("mempod", "transient"): "995b198dceccbe6e",
    ("mempod", "uncorrectable"): "f5ef10c1abd1789c",
    ("mempod", "storm"): "0dda85ac87d917d8",
    ("cameo", "off"): "f020774d96896dcb",
    ("cameo", "transient"): "41bbe1ee8f289998",
    ("cameo", "uncorrectable"): "8918b281c18439a4",
    ("cameo", "storm"): "6dcc721d40c0ae22",
    ("noswap", "off"): "54337e1c670b1e24",
    ("noswap", "transient"): "ec916cfbba29a37a",
    ("noswap", "uncorrectable"): "e9e29a20fae530b6",
    ("noswap", "storm"): "8a87bfc20454eca2",
}

#: The stats key each swapping scheme counts an aborted swap under.
ABORT_KEYS = {
    "pageseer": "swap_driver/aborted_swaps",
    "pom": "pom/aborted_swaps",
    "mempod": "mempod/aborted_migrations",
    "cameo": "cameo/aborted_swaps",
}


def _build(scheme, profile):
    return build_system(
        scheme,
        workload_by_name("lbmx4"),
        scale=SCALE,
        faults=resolve_profile(profile, FAULT_SEED),
    )


@pytest.mark.parametrize(
    "scheme,profile", sorted(FAULT_DIGESTS),
    ids=[f"{scheme}-{profile}" for scheme, profile in sorted(FAULT_DIGESTS)],
)
def test_fault_injected_digest(scheme, profile):
    system = _build(scheme, profile)
    system.run(MEASURE_OPS, WARMUP_OPS)
    assert stats_digest(system) == FAULT_DIGESTS[scheme, profile]
    if profile == "storm":
        # The storm runs exercise what the digests guard: retries,
        # degraded service, an aborted swap in every swapping scheme, and
        # PageSeer's quarantine with its rescue swap.
        stats = system.stats
        assert stats.get("faults/retries") > 0
        assert stats.get("faults/degraded_services") > 0
        if scheme in ABORT_KEYS:
            assert stats.get(ABORT_KEYS[scheme]) > 0
        if scheme == "pageseer":
            assert stats.get("faults/quarantined_pages") > 0
            assert stats.get("faults/rescue_swaps") > 0


def test_faults_on_checkpoint_resumes_bit_identical(tmp_path):
    """A ``storm`` PageSeer run cut mid-warm-up and mid-measurement
    resumes from either checkpoint onto the pinned digest."""
    cuts = [2000, 6000]
    victim = _build("pageseer", "storm")
    Checkpointer(tmp_path, cut_points=cuts).arm(victim)
    victim.run(MEASURE_OPS, WARMUP_OPS)
    expected = FAULT_DIGESTS["pageseer", "storm"]
    assert stats_digest(victim) == expected
    for cut in cuts:
        restored = load_checkpoint(tmp_path / f"cut_{cut}.ckpt")
        assert restored.hmc.fault_recovery is not None
        restored.resume_run()
        assert stats_digest(restored) == expected, cut
