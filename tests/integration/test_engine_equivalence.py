"""The differential harness proving the engine equal to the reference.

The engine (``repro.sim.engine``) drains independent operations per core
between shared events; its equivalence contract says the result is
*bit-identical* to the one-op-at-a-time reference scheduler
(``tests/reference_scheduler.py``), not statistically close.  This suite
is the proof obligation:

* every scheme × representative workload runs on both loops and must
  produce identical stats snapshots (the full dict, not just a digest),
  identical per-core end states, identical contents at every TLB and
  cache level (LRU order, dirty bits and PPNs included), and the
  identical *sequence* of swap transfers (page/segment moves with their
  timestamps and directions);
* a hypothesis harness samples configurations — scheme, workload, seed,
  ablation variant, and the chunking of ``run_ops`` calls — and compares
  the two loops op-for-op at every chunk boundary, so a divergence is
  pinned to the first chunk it appears in rather than the end of a run;
* another samples the sanitizer level and, for PageSeer, attaches a
  :class:`~repro.analysis.lead_time.LeadTimeProbe`: both rebind
  ``hmc.handle_request`` on the instance, the one hook the engine must
  re-read around every controller call.
"""

import collections
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
from repro.workloads.synthetic import HEAP_BASE
from repro.workloads.trace import trace_workload

from tests.reference_scheduler import use_reference_scheduler

ALL_SCHEMES = sorted(SCHEMES)

#: Representative coverage: two streaming workloads (lbmx4 and streamx4,
#: both ``stream_sweep`` with different array counts and write mixes), a
#: hot/cold one (milcx4) and a pointer chase (mcfx8, where about half the
#: ops miss the L1 TLB and walk) — together they exercise swaps,
#: write-backs, page walks, first touches, and every hit class on all
#: five schemes.
WORKLOADS = ["lbmx4", "streamx4", "milcx4", "mcfx8"]

#: The ablation variants (the sensitivity and DRAM-capacity points only
#: move Table II knobs and capacities these already cover).
ABLATION_VARIANTS = ("default", "nobw", "nocorr", "nohints", "partial")


def _record_swap_events(system):
    """Instrument the memory so every swap transfer lands in a list.

    The page and segment swap machinery (PageSeer's swap driver, PoM and
    MemPod fast swaps) moves data through ``MainMemory.read_page`` /
    ``write_page`` / ``transfer_segment``; demand traffic does not.
    CAMEO's 64 B line swaps issue to the devices directly, but each one
    starts from the controller's ``_swap_in``, which ``handle_request``
    reads on the instance — so wrapping it there records every CAMEO
    swap attempt with its timestamp, line and group.  Wrapping instance
    methods captures these swap event sequences without touching scheme
    internals.
    """
    events = []
    targets = [
        (system.hmc.memory, name)
        for name in ("read_page", "write_page", "transfer_segment")
    ]
    if system.scheme == "cameo":
        targets.append((system.hmc, "_swap_in"))
    for owner, name in targets:
        original = getattr(owner, name)

        def wrapper(*args, _name=name, _original=original, **kwargs):
            events.append((_name, args, tuple(sorted(kwargs.items()))))
            return _original(*args, **kwargs)

        setattr(owner, name, wrapper)
    return events


def _run(scheme, workload, loop, *, ops=1200, seed=0, scale=1024,
         variant="default", chunks=None, config_mutator=None, faults=None,
         check=None, probe=False):
    """Run one configuration on *loop*: ``"engine"`` or ``"reference"``.

    *workload* is a workload name or a ready-made ``WorkloadSpec``.
    """
    system = build_system(
        scheme,
        workload_by_name(workload) if isinstance(workload, str) else workload,
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
        "contents": _contents(system),
        "checkpoints": checkpoints,
        "events": events,
        "observations": lead_time.observations if lead_time else None,
    }


def _core_state(system):
    return [
        (core.core_id, core.clock, core.instructions, core.ops_executed)
        for core in system.cores
    ]


def _contents(system):
    """Every TLB and cache level's sets as ``list(entries.items())``.

    Each set is an ``OrderedDict`` in LRU-first order, so the items
    carry the LRU order along with each entry's PPN (TLBs) or dirty bit
    (caches): each core's L1 and L2 TLB and L1 and L2 cache, then the
    shared L3.
    """
    hierarchy = system.hierarchy
    levels = []
    for core in system.cores:
        levels += [
            core.mmu.l1_tlb,
            core.mmu.l2_tlb,
            hierarchy.l1[core.core_id],
            hierarchy.l2[core.core_id],
        ]
    levels.append(hierarchy.l3)
    return [
        [list(entries.items()) for entries in level._sets] for level in levels
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
        assert reference["contents"] == engine["contents"]
        assert reference["events"] == engine["events"]

    @pytest.mark.parametrize("scheme", ["pageseer", "pom"])
    def test_equivalence_survives_ablation_variants(self, scheme):
        for variant in ABLATION_VARIANTS:
            reference = _run(scheme, "milcx4", "reference", ops=800,
                             variant=variant)
            engine = _run(scheme, "milcx4", "engine", ops=800,
                          variant=variant)
            assert reference["digest"] == engine["digest"], variant
            assert reference["events"] == engine["events"], variant


class TestTlbRunReset:
    """The engine's L1-TLB run outlives segments and shared turns, so the
    one path that fills the TLB — a translation turn — must re-seed it
    to the entry it filled rather than leave it on the old page."""

    def test_walk_that_evicts_the_run_page_ends_the_run(self, tmp_path):
        # Each core replays V, V', W: two lines of page V, then one line
        # of page W.  Under a one-entry L1 TLB every W escape evicts V
        # while V is still the run, so the next V must miss again.
        paths = []
        for core in range(4):
            path = tmp_path / f"core{core}.trace"
            path.write_text(
                f"{HEAP_BASE:x} r 3\n"
                f"{HEAP_BASE + 64:x} w 3\n"
                f"{HEAP_BASE + 4096:x} r 3\n"
            )
            paths.append(path)
        spec = trace_workload("vvw", paths)

        def one_entry_l1_tlb(config):
            return dataclasses.replace(
                config,
                l1_tlb=dataclasses.replace(config.l1_tlb, entries=1, ways=1),
            )

        reference = _run("pageseer", spec, "reference",
                         config_mutator=one_entry_l1_tlb)
        engine = _run("pageseer", spec, "engine",
                      config_mutator=one_entry_l1_tlb)
        # Only V' hits the L1 TLB: one hit per three ops on every core.
        assert reference["stats"]["tlb/l1_hits"] == 4 * 1200 / 3
        assert reference["stats"] == engine["stats"]
        assert reference["cores"] == engine["cores"]
        assert reference["contents"] == engine["contents"]
        assert reference["events"] == engine["events"]

    def test_a_new_run_touches_its_entry_once(self, tmp_path):
        # Each core cycles through pages 0, 1, 0, 2, 0 under a one-set,
        # two-way L1 TLB, so every change of page starts a new run.  The
        # next fill evicts the other page only because page 0's latest
        # run touched its entry: an engine that skipped that touch would
        # evict page 0 instead and count fewer L1-TLB hits.
        spec = _core_traces(
            tmp_path,
            [(0, 0, "r"), (1, 0, "r"), (0, 1, "r"), (2, 0, "r"), (0, 2, "r")],
        )
        mutator = _geometry(l1_tlb=(2, 2))
        reference = _run("pageseer", spec, "reference", config_mutator=mutator)
        engine = _run("pageseer", spec, "engine", config_mutator=mutator)
        assert reference["stats"]["tlb/l1_hits"] == 2876
        assert reference["stats"] == engine["stats"]
        assert reference["cores"] == engine["cores"]
        assert reference["contents"] == engine["contents"]
        assert reference["events"] == engine["events"]


def _geometry(l1_tlb=None, l2_tlb=None, l1=None, l2=None, l3=None):
    """A config mutator setting TLBs to ``(entries, ways)`` and caches to
    ``(sets, ways)`` of 64 B lines; levels left as None keep their size."""
    def mutate(config):
        changes = {}
        for name, tlb in (("l1_tlb", l1_tlb), ("l2_tlb", l2_tlb)):
            if tlb is not None:
                changes[name] = dataclasses.replace(
                    getattr(config, name), entries=tlb[0], ways=tlb[1]
                )
        for name, cache in (("l1", l1), ("l2", l2), ("l3", l3)):
            if cache is not None:
                sets, ways = cache
                changes[name] = dataclasses.replace(
                    getattr(config, name), size_bytes=64 * sets * ways, ways=ways
                )
        return dataclasses.replace(config, **changes)

    return mutate


def _core_traces(tmp_path, pattern, cores=4):
    """Write one trace per core from *pattern*, a list of
    ``(page, slot, "r" | "w")`` references, and return the workload.

    Core ``c``'s pages start ``8 * c`` pages above the heap base, so its
    leaf entries sit in PTE line ``c`` of its page-table page, and slot
    ``k`` of a page is its line ``4 * k + c``.  Under an L3 of four sets
    every line core ``c`` touches — data and PTE alike — maps to L3 set
    ``c``: each core's L3 behaviour is its own trace's, while the cores
    still share the L3, the controller and the global turn order.
    """
    paths = []
    for core in range(cores):
        path = tmp_path / f"core{core}.trace"
        path.write_text("".join(
            f"{HEAP_BASE + (8 * core + page) * 4096 + (4 * slot + core) * 64:x}"
            f" {access} 3\n"
            for page, slot, access in pattern
        ))
        paths.append(path)
    return trace_workload("shapes", paths)


def _reference_shapes(spec, config_mutator):
    """Run *spec* on the reference scheduler and count each op's shape:
    ``(translation, hit level, write-backs)``, where the translation is
    ``"first"`` for a first touch, else ``Mmu.translate``'s source
    (``"l1"``, ``"l2"`` or ``"walk"``), and the hit level and write-back
    count are those of the op's data-line hierarchy access."""
    system = use_reference_scheduler(build_system(
        "pageseer", spec, scale=1024, config_mutator=config_mutator,
    ))
    shapes = collections.Counter()
    for core in system.cores:
        page_table = core._page_table
        ensure_mapped, translate, access = (
            core._ensure_mapped, core._translate, core._access,
        )
        seen = {}

        def ensure_wrapper(vpn, _ensure=ensure_mapped, _table=page_table,
                           _seen=seen):
            _seen["first"] = vpn not in _table._vpn_cache
            return _ensure(vpn)

        def translate_wrapper(*args, _translate=translate, _seen=seen):
            result = _translate(*args)
            _seen["source"] = "first" if _seen["first"] else result.source
            return result

        def access_wrapper(*args, _access=access, _seen=seen):
            outcome = _access(*args)
            shapes[(_seen["source"], outcome.hit_level,
                    len(outcome.writebacks))] += 1
            return outcome

        core._ensure_mapped = ensure_wrapper
        core._translate = translate_wrapper
        core._access = access_wrapper
    system.run_ops(1200)
    return shapes


#: One-entry TLBs: every change of page misses the L1 TLB, and with a
#: one-entry L2 TLB too, every such miss walks.
_WALK_EVERY_PAGE_CHANGE = {"l1_tlb": (1, 1), "l2_tlb": (1, 1)}

#: Shape cases: per-core pattern, geometry, and the shape prefix the
#: oracle must report.  Where two pages alternate, every op is a
#: translation turn; where one page's lines alternate through a one-line
#: L1, every op after the first is a data turn behind an L1-TLB hit.
TURN_SHAPES = [
    pytest.param(
        [(0, 0, "r"), (1, 0, "r")], {"l1_tlb": (1, 1)}, ("l2", "l1", 0),
        id="l2_tlb_hit",
    ),
    pytest.param(
        [(0, 0, "r"), (1, 0, "w")], _WALK_EVERY_PAGE_CHANGE, ("walk", "l1", 0),
        id="walk_then_l1_hit",
    ),
    pytest.param(
        [(0, 0, "r"), (1, 0, "r")], {**_WALK_EVERY_PAGE_CHANGE, "l1": (1, 1)},
        ("walk", "l2", 0), id="walk_then_clean_victim_l2_hit",
    ),
    pytest.param(
        [(0, 0, "w"), (1, 0, "w")], {**_WALK_EVERY_PAGE_CHANGE, "l1": (1, 1)},
        ("walk", "l2", 1), id="walk_then_dirty_victim_l2_hit",
    ),
    # The walk's PTE line displaces the data line from the one-line L2.
    pytest.param(
        [(0, 0, "r"), (1, 0, "r")],
        {**_WALK_EVERY_PAGE_CHANGE, "l1": (1, 1), "l2": (1, 1), "l3": (4, 4)},
        ("walk", "l3", 0), id="walk_then_l3_hit",
    ),
    # Write hits at L3 and L2 leave dirty lines that age to LRU, so the
    # miss after the walk to page 1 evicts a dirty victim at every level.
    pytest.param(
        [(1, 1, "w"), (0, 2, "w"), (0, 0, "w"), (0, 2, "w"), (1, 1, "r"),
         (0, 3, "w"), (0, 2, "w"), (0, 3, "w")],
        {**_WALK_EVERY_PAGE_CHANGE, "l1": (1, 1), "l2": (1, 2), "l3": (4, 3)},
        ("walk", None, 3), id="walk_then_llc_miss_evicting_three_dirty_victims",
    ),
    # 96 fresh pages per core: each page's first op maps it at its turn;
    # the second is unmapped at prep time and re-resolved by the drain.
    pytest.param(
        [(page, slot, "w" if slot else "r")
         for page in range(96) for slot in (0, 1)],
        {}, ("first",), id="first_touch",
    ),
    # An L2 hit whose L1 fill evicts a clean victim touches only this
    # core's state, yet runs at its turn like every other L1 miss.
    pytest.param(
        [(0, 0, "r"), (0, 1, "r")], {"l1": (1, 1)}, ("l1", "l2", 0),
        id="l1_tlb_hit_then_clean_victim_l2_hit",
    ),
    pytest.param(
        [(0, 0, "w"), (0, 1, "w")], {"l1": (1, 1)}, ("l1", "l2", 1),
        id="l1_tlb_hit_then_dirty_victim_l2_hit",
    ),
    pytest.param(
        [(0, 0, "r"), (0, 1, "r")], {"l1": (1, 1), "l2": (1, 1), "l3": (4, 4)},
        ("l1", "l3", 0), id="l1_tlb_hit_then_l3_hit",
    ),
    # Four written lines cycle through a three-way L3 set: every op
    # misses the LLC, and the victims it evicts are dirty.
    pytest.param(
        [(0, slot, "w") for slot in range(4)],
        {"l1": (1, 1), "l2": (1, 1), "l3": (4, 3)},
        ("l1", None), id="l1_tlb_hit_then_llc_miss",
    ),
]


class TestTurnShapes:
    """Every shape a translation or data turn can take, engine vs oracle.

    A translation turn (an L1-TLB miss or a first touch) runs inside the
    engine: it probes the L2 TLB, walks on a miss and fills both TLBs.
    Every turn, translation or not, then serves its data line through
    the engine's one inline data-turn block; an op that hits both the
    L1 TLB and the L1 cache is the only one the engine drains as pure.
    Each case's traces and geometry force one shape — checked on the
    oracle, whose scalar chain reports it — and the engine must then
    match the oracle's stats, cores and events.
    """

    @pytest.mark.parametrize("pattern,geometry,expected", TURN_SHAPES)
    def test_shape_is_forced_and_engine_matches_oracle(
        self, tmp_path, pattern, geometry, expected
    ):
        spec = _core_traces(tmp_path, pattern)
        mutator = _geometry(**geometry)
        shapes = _reference_shapes(spec, mutator)
        assert any(
            shape[:len(expected)] == expected for shape in shapes
        ), dict(shapes)
        reference = _run("pageseer", spec, "reference", config_mutator=mutator)
        engine = _run("pageseer", spec, "engine", config_mutator=mutator)
        assert reference["stats"] == engine["stats"]
        assert reference["cores"] == engine["cores"]
        assert reference["contents"] == engine["contents"]
        assert reference["events"] == engine["events"]


class TestEngineEquivalenceFuzz:
    """Hypothesis over sampled configurations, compared op-for-op."""

    @settings(max_examples=15, deadline=None)
    @given(
        scheme=st.sampled_from(ALL_SCHEMES),
        workload=st.sampled_from(WORKLOADS),
        seed=st.integers(min_value=0, max_value=3),
        variant=st.sampled_from(ABLATION_VARIANTS),
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
        assert reference["contents"] == engine["contents"]
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
        assert reference["contents"] == engine["contents"]
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
