"""The differential harness proving the engine equal to the reference.

The engine (``repro.sim.engine``) drains independent operations per core
between shared events; its equivalence contract says the result is
*bit-identical* to the one-op-at-a-time reference scheduler
(``tests/reference_scheduler.py``), not statistically close.  This suite
is the proof obligation:

* every scheme × representative workload runs on both loops and must
  produce identical stats snapshots (the full dict, not just a digest),
  identical per-core end states, and the identical *sequence* of swap
  transfers (page/segment moves with their timestamps and directions);
* a hypothesis harness samples configurations — scheme, workload, seed,
  ablation variant, and the chunking of ``run_ops`` calls — and compares
  the two loops op-for-op at every chunk boundary, so a divergence is
  pinned to the first chunk it appears in rather than the end of a run;
* another samples the sanitizer level and, for PageSeer, attaches a
  :class:`~repro.analysis.lead_time.LeadTimeProbe`: both rebind
  ``hmc.handle_request`` on the instance, the one hook the engine must
  re-read around every controller call.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.lead_time import LeadTimeProbe
from repro.bench import stats_digest
from repro.common.config import CHECK_LEVELS, CheckConfig
from repro.experiments.runner import VARIANTS
from repro.faults import resolve_profile
from repro.sim.system import SCHEMES, build_system
from repro.workloads import workload_by_name

from tests.reference_scheduler import use_reference_scheduler

ALL_SCHEMES = sorted(SCHEMES)

#: Representative coverage: a pointer-chasing, a streaming, and a
#: hot/cold workload — together they exercise swaps, write-backs, page
#: walks, and every hit class on all five schemes.
WORKLOADS = ["lbmx4", "streamx4", "milcx4"]


def _record_swap_events(system):
    """Instrument the memory so every swap transfer lands in a list.

    All swap machinery (PageSeer's swap driver, PoM/MemPod fast swaps,
    CAMEO line swaps) moves data through ``MainMemory.read_page`` /
    ``write_page`` / ``transfer_segment``; demand traffic does not.
    Wrapping the instance methods therefore captures the complete swap
    event sequence without touching scheme internals.
    """
    events = []
    memory = system.hmc.memory
    for name in ("read_page", "write_page", "transfer_segment"):
        original = getattr(memory, name)

        def wrapper(*args, _name=name, _original=original, **kwargs):
            events.append((_name, args, tuple(sorted(kwargs.items()))))
            return _original(*args, **kwargs)

        setattr(memory, name, wrapper)
    return events


def _run(scheme, workload_name, loop, *, ops=1200, seed=0, scale=1024,
         variant="default", chunks=None, config_mutator=None, faults=None,
         check=None, probe=False):
    """Run one configuration on *loop*: ``"engine"`` or ``"reference"``."""
    system = build_system(
        scheme,
        workload_by_name(workload_name),
        scale=scale,
        seed=seed,
        config_mutator=config_mutator or VARIANTS[variant],
        check=check,
        faults=faults,
    )
    if loop == "reference":
        use_reference_scheduler(system)
    events = _record_swap_events(system)
    lead_time = LeadTimeProbe(system) if probe else None
    checkpoints = []
    remaining = list(chunks) if chunks else [ops]
    for chunk in remaining:
        system.run_ops(chunk)
        checkpoints.append(_core_state(system))
    return {
        "stats": system.stats.as_dict(),
        "digest": stats_digest(system),
        "cores": _core_state(system),
        "checkpoints": checkpoints,
        "events": events,
        "observations": lead_time.observations if lead_time else None,
    }


def _core_state(system):
    return [
        (core.core_id, core.clock, core.instructions, core.ops_executed)
        for core in system.cores
    ]


class TestEngineEquivalence:
    """Reference vs engine on the full scheme grid."""

    @pytest.mark.parametrize("workload", WORKLOADS)
    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_identical_stats_cores_and_swap_sequence(self, scheme, workload):
        reference = _run(scheme, workload, "reference")
        engine = _run(scheme, workload, "engine")
        assert reference["digest"] == engine["digest"]
        assert reference["stats"] == engine["stats"]
        assert reference["cores"] == engine["cores"]
        assert reference["events"] == engine["events"]

    @pytest.mark.parametrize("scheme", ["pageseer", "pom"])
    def test_equivalence_survives_ablation_variants(self, scheme):
        for variant in sorted(VARIANTS):
            reference = _run(scheme, "milcx4", "reference", ops=800,
                             variant=variant)
            engine = _run(scheme, "milcx4", "engine", ops=800,
                          variant=variant)
            assert reference["digest"] == engine["digest"], variant
            assert reference["events"] == engine["events"], variant


class TestEngineEquivalenceFuzz:
    """Hypothesis over sampled configurations, compared op-for-op."""

    @settings(max_examples=15, deadline=None)
    @given(
        scheme=st.sampled_from(ALL_SCHEMES),
        workload=st.sampled_from(WORKLOADS),
        seed=st.integers(min_value=0, max_value=3),
        variant=st.sampled_from(sorted(VARIANTS)),
        chunks=st.lists(st.integers(min_value=1, max_value=300),
                        min_size=1, max_size=5),
    )
    def test_chunked_runs_agree_at_every_boundary(
        self, scheme, workload, seed, variant, chunks
    ):
        reference = _run(scheme, workload, "reference", seed=seed,
                         variant=variant, chunks=chunks)
        engine = _run(scheme, workload, "engine", seed=seed,
                      variant=variant, chunks=chunks)
        # Op-for-op: per-core clocks/instruction counts must already agree
        # at every chunk boundary, not merely at the end.
        assert reference["checkpoints"] == engine["checkpoints"]
        assert reference["digest"] == engine["digest"]
        assert reference["events"] == engine["events"]

    @settings(max_examples=8, deadline=None)
    @given(
        scheme=st.sampled_from(ALL_SCHEMES),
        seed=st.integers(min_value=0, max_value=2),
        scale=st.sampled_from([512, 1024]),
    )
    def test_scale_and_seed_sweep(self, scheme, seed, scale):
        reference = _run(scheme, "milcx4", "reference", ops=500, seed=seed,
                         scale=scale)
        engine = _run(scheme, "milcx4", "engine", ops=500, seed=seed,
                      scale=scale)
        assert reference["digest"] == engine["digest"]
        assert reference["cores"] == engine["cores"]

    @settings(max_examples=10, deadline=None)
    @given(
        scheme=st.sampled_from(ALL_SCHEMES),
        dram_shrink=st.sampled_from([1, 2]),
        hpt_threshold=st.integers(min_value=2, max_value=10),
        pct_threshold=st.integers(min_value=4, max_value=20),
        fault_profile=st.sampled_from(
            [None, "transient", "uncorrectable", "storm"]
        ),
        fault_seed=st.integers(min_value=0, max_value=3),
    )
    def test_random_configs_agree(
        self, scheme, dram_shrink, hpt_threshold, pct_threshold,
        fault_profile, fault_seed,
    ):
        """Equivalence over sampled *configurations*: the DRAM:NVM ratio,
        the swap/prefetch thresholds, and the fault-injection profile all
        shift where the batch boundaries fall (more swaps, more rescue
        transfers, different PRT pressure) — none of it may change what
        the engine computes."""
        def mutate(config):
            memory = dataclasses.replace(
                config.memory,
                dram=dataclasses.replace(
                    config.memory.dram,
                    capacity_bytes=(
                        config.memory.dram.capacity_bytes // dram_shrink
                    ),
                ),
            )
            pageseer = dataclasses.replace(
                config.pageseer,
                hpt_swap_threshold=hpt_threshold,
                pct_prefetch_threshold=pct_threshold,
            )
            return dataclasses.replace(
                config, memory=memory, pageseer=pageseer
            )

        faults = (
            resolve_profile(fault_profile, fault_seed=fault_seed)
            if fault_profile else None
        )
        reference = _run(scheme, "milcx4", "reference", ops=600,
                         config_mutator=mutate, faults=faults)
        engine = _run(scheme, "milcx4", "engine", ops=600,
                      config_mutator=mutate, faults=faults)
        assert reference["digest"] == engine["digest"]
        assert reference["stats"] == engine["stats"]
        assert reference["cores"] == engine["cores"]
        assert reference["events"] == engine["events"]

    @settings(max_examples=8, deadline=None)
    @given(
        scheme=st.sampled_from(ALL_SCHEMES),
        workload=st.sampled_from(WORKLOADS),
        level=st.sampled_from(CHECK_LEVELS),
        seed=st.integers(min_value=0, max_value=3),
    )
    def test_sanitizer_and_probe_agree(self, scheme, workload, level, seed):
        """The sanitizer (at any level) and, on PageSeer, a lead-time
        probe wrap ``hmc.handle_request`` on the instance; the engine
        must call through those wrappers at exactly the reference
        scheduler's points, so every observation matches too."""
        check = CheckConfig(level=level)
        probe = scheme == "pageseer"
        reference = _run(scheme, workload, "reference", ops=600, seed=seed,
                         check=check, probe=probe)
        engine = _run(scheme, workload, "engine", ops=600, seed=seed,
                      check=check, probe=probe)
        assert reference["digest"] == engine["digest"]
        assert reference["events"] == engine["events"]
        assert reference["observations"] == engine["observations"]
