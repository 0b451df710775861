"""Pinned results of every scheme: fault-injected, and on a walk-heavy chase.

The goldens in tests/golden/ run with faults off and cover three schemes.
This module pins the ``repro.bench.stats_digest`` of all five schemes
(scale 1024, 1000 warm-up + 1000 measured ops per core):

* under every fault profile on lbmx4 (fault seed 7).  Together the runs
  reach every recovery path: retries with backoff, swap aborts on all
  four swapping schemes, degraded service, and a PageSeer quarantine
  with a rescue swap under ``storm``;
* with faults off on mcfx8, a pointer chase: about half of its ops walk,
  so every scheme serves PTE requests and PageSeer's MMU hints fetch PTE
  lines (about 3,500 driver fetches, against 8 on lbmx4).

Checkpoints cut mid-run resume onto the same pins.  A digest moves only
when the model or the fault layer changes behaviour.
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

DIGESTS = {
    ("lbmx4", "pageseer", "off"): "c89d1c69444d3f16",
    ("lbmx4", "pageseer", "transient"): "0138a9b90be12032",
    ("lbmx4", "pageseer", "uncorrectable"): "0d60074fce051269",
    ("lbmx4", "pageseer", "storm"): "362e6e97bca652f7",
    ("lbmx4", "pom", "off"): "c64411609b61c12d",
    ("lbmx4", "pom", "transient"): "e6dda502673d34e7",
    ("lbmx4", "pom", "uncorrectable"): "077d4fdaccc46822",
    ("lbmx4", "pom", "storm"): "f52a6cc3bbc65efe",
    ("lbmx4", "mempod", "off"): "dfb665743a9effec",
    ("lbmx4", "mempod", "transient"): "995b198dceccbe6e",
    ("lbmx4", "mempod", "uncorrectable"): "f5ef10c1abd1789c",
    ("lbmx4", "mempod", "storm"): "0dda85ac87d917d8",
    ("lbmx4", "cameo", "off"): "f020774d96896dcb",
    ("lbmx4", "cameo", "transient"): "41bbe1ee8f289998",
    ("lbmx4", "cameo", "uncorrectable"): "8918b281c18439a4",
    ("lbmx4", "cameo", "storm"): "6dcc721d40c0ae22",
    ("lbmx4", "noswap", "off"): "54337e1c670b1e24",
    ("lbmx4", "noswap", "transient"): "ec916cfbba29a37a",
    ("lbmx4", "noswap", "uncorrectable"): "e9e29a20fae530b6",
    ("lbmx4", "noswap", "storm"): "8a87bfc20454eca2",
    ("mcfx8", "pageseer", "off"): "42eab9a577a21979",
    ("mcfx8", "pom", "off"): "d54d6e6b9a38dccd",
    ("mcfx8", "mempod", "off"): "59da45447e6e43b3",
    ("mcfx8", "cameo", "off"): "0c99ce35c9801aa8",
    ("mcfx8", "noswap", "off"): "cc9672dc33490311",
}

#: The stats key each swapping scheme counts an aborted swap under.
ABORT_KEYS = {
    "pageseer": "swap_driver/aborted_swaps",
    "pom": "pom/aborted_swaps",
    "mempod": "mempod/aborted_migrations",
    "cameo": "cameo/aborted_swaps",
}


#: The walk-heavy pins: mcfx8 with faults off, one per scheme.
WALK_HEAVY = sorted(key for key in DIGESTS if key[0] == "mcfx8")


def _case_id(workload, scheme, profile):
    # lbmx4 is the fault matrix's workload; its ids carry no prefix.
    case = f"{scheme}-{profile}"
    return case if workload == "lbmx4" else f"{workload}-{case}"


def _build(workload, scheme, profile):
    return build_system(
        scheme,
        workload_by_name(workload),
        scale=SCALE,
        faults=resolve_profile(profile, FAULT_SEED),
    )


@pytest.mark.parametrize(
    "workload,scheme,profile", sorted(DIGESTS),
    ids=[_case_id(*key) for key in sorted(DIGESTS)],
)
def test_fault_injected_digest(workload, scheme, profile):
    system = _build(workload, scheme, profile)
    system.run(MEASURE_OPS, WARMUP_OPS)
    assert stats_digest(system) == DIGESTS[workload, scheme, profile]
    if workload == "mcfx8":
        # The walks reach the controller as PTE requests in every scheme.
        assert system.stats.get("hmc/requests_pte") > 0
        if scheme == "pageseer":
            assert system.stats.get("mmu_driver/fetches") > 1000
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


def _assert_resumes_onto_pin(tmp_path, key, cuts):
    """Run *key*'s case cut at *cuts*; the run and every resume from a
    cut must land on the case's pinned digest."""
    workload, scheme, profile = key
    victim = _build(workload, scheme, profile)
    Checkpointer(tmp_path, cut_points=cuts).arm(victim)
    victim.run(MEASURE_OPS, WARMUP_OPS)
    expected = DIGESTS[key]
    assert stats_digest(victim) == expected
    for cut in cuts:
        restored = load_checkpoint(tmp_path / f"cut_{cut}.ckpt")
        assert (restored.hmc.fault_recovery is not None) == (profile != "off")
        restored.resume_run()
        assert stats_digest(restored) == expected, cut


def test_faults_on_checkpoint_resumes_bit_identical(tmp_path):
    """A ``storm`` PageSeer run cut mid-warm-up and mid-measurement
    resumes from either checkpoint onto the pinned digest."""
    _assert_resumes_onto_pin(tmp_path, ("lbmx4", "pageseer", "storm"), [2000, 6000])


@pytest.mark.parametrize(
    "key", WALK_HEAVY, ids=[_case_id(*key) for key in WALK_HEAVY]
)
def test_walk_heavy_checkpoint_resumes_bit_identical(key, tmp_path):
    """A checkpoint cut mid-measurement, while other cores are parked,
    restores each scheme's controller state (PageSeer's tables, the
    baselines' slot maps) and resumes onto the pinned digest."""
    _assert_resumes_onto_pin(tmp_path, key, [12_345])
