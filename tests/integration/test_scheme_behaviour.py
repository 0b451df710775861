"""Integration tests of scheme-level behaviour (the paper's mechanisms)."""

import dataclasses
import functools

from repro.sim.system import build_system
from repro.workloads import workload_by_name

# lbm at scale 1024 sweeps ~105 pages x 64 lines / 3 arrays ~= 6.7K ops per
# sweep; the warm-up must cover at least one full sweep so the PCT has
# history when measurement starts.
MEASURE = 5000
WARMUP = 9000


@functools.lru_cache(maxsize=None)
def _run_cached(scheme, workload, scale, overrides, measure, warmup):
    mutator = pageseer_mutator(**dict(overrides)) if overrides else None
    system = build_system(
        scheme, workload_by_name(workload), scale=scale, config_mutator=mutator
    )
    return system.run(measure, warmup)


def run(scheme, workload="lbmx4", scale=1024, measure=MEASURE, warmup=WARMUP,
        **overrides):
    return _run_cached(
        scheme, workload, scale, tuple(sorted(overrides.items())), measure, warmup
    )


def pageseer_mutator(**overrides):
    def mutate(config):
        return dataclasses.replace(
            config, pageseer=dataclasses.replace(config.pageseer, **overrides)
        )
    return mutate


class TestPageSeerMechanisms:
    def test_streaming_generates_mmu_swaps(self):
        metrics = run("pageseer")
        assert metrics.swaps_mmu > 0

    def test_mmu_swaps_dominate_prefetches_on_streams(self):
        metrics = run("pageseer")
        assert metrics.swaps_mmu >= metrics.swaps_pct

    def test_prefetch_accuracy_high_on_stable_streams(self):
        metrics = run("pageseer")
        assert metrics.prefetch_accuracy > 0.5

    def test_pointer_chase_starves_prefetch_swaps(self):
        metrics = run("pageseer", workload="mcfx8", measure=1000, warmup=1200)
        assert metrics.prefetch_swaps <= metrics.swaps_total
        assert metrics.swaps_mmu < 10

    def test_buffer_services_present_on_streams(self):
        metrics = run("pageseer")
        assert metrics.serviced_buffer > 0

    def test_mmu_driver_hit_rate_high(self):
        metrics = run("pageseer")
        assert metrics.mmu_driver_hit_rate > 0.9

    def test_negative_accesses_bounded(self):
        metrics = run("pageseer")
        assert metrics.negative_share < 0.3


class TestAblations:
    def test_nohints_kills_mmu_swaps(self):
        metrics = run("pageseer", mmu_hints_enabled=False)
        assert metrics.swaps_mmu == 0

    def test_nohints_keeps_other_swaps(self):
        metrics = run("pageseer", mmu_hints_enabled=False)
        assert metrics.swaps_total > 0

    def test_nobw_swaps_at_least_as_many(self):
        default = run("pageseer", workload="milcx4")
        nobw = run(
            "pageseer", workload="milcx4", bandwidth_heuristic_enabled=False
        )
        assert nobw.swaps_total >= default.swaps_total

    def test_nocorr_runs_clean(self):
        metrics = run("pageseer", correlation_enabled=False)
        assert metrics.instructions > 0


class TestBaselineMechanisms:
    def test_pom_swaps_on_streams(self):
        metrics = run("pom")
        assert metrics.swaps_total > 0
        assert metrics.swaps_mmu == 0

    def test_mempod_migrates_on_hot_sets(self):
        metrics = run("mempod", workload="milcx4")
        assert metrics.swaps_total > 0

    def test_mempod_interval_bounded_migrations(self):
        """Migrations happen in interval bursts, bounded per interval."""
        system = build_system("mempod", workload_by_name("milcx4"), scale=1024)
        metrics = system.run(MEASURE, WARMUP)
        intervals = max(
            1.0,
            (metrics.cycles * 2) / system.config.mempod.interval_cycles,
        )
        per_interval_cap = (
            system.hmc.migrations_per_interval * len(system.hmc._pods)
        )
        assert metrics.swaps_total <= intervals * per_interval_cap * 2


class TestHeadlineShape:
    """The paper's core comparison, on one representative workload each."""

    def test_pageseer_highest_dram_share_on_streams(self):
        shares = {
            scheme: run(scheme).dram_share + run(scheme).buffer_share
            for scheme in ("pageseer", "pom", "mempod")
        }
        assert shares["pageseer"] >= shares["mempod"]

    def test_pageseer_beats_mempod_ipc_on_streams(self):
        assert run("pageseer").ipc > run("mempod").ipc

    def test_pageseer_lowest_ammat_on_hot_cold(self):
        ammat = {
            scheme: run(scheme, workload="milcx4").ammat
            for scheme in ("pageseer", "pom", "mempod", "noswap")
        }
        assert ammat["pageseer"] < ammat["noswap"]

    def test_swapping_beats_noswap_on_hot_cold(self):
        assert run("pageseer", workload="milcx4").ipc > run(
            "noswap", workload="milcx4"
        ).ipc
