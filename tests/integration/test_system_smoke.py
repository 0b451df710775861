"""Integration smoke tests: every scheme builds and runs end to end."""

import pytest

from repro.sim.system import SCHEMES, build_system
from repro.workloads import workload_by_name

MEASURE = 600
WARMUP = 400


def run(scheme, workload="lbmx4", scale=1024, seed=0, mutator=None):
    system = build_system(
        scheme, workload_by_name(workload), scale=scale, seed=seed,
        config_mutator=mutator,
    )
    return system.run(MEASURE, WARMUP)


class TestAllSchemesRun:
    @pytest.mark.parametrize("scheme", sorted(SCHEMES))
    def test_runs_and_reports(self, scheme):
        metrics = run(scheme)
        assert metrics.scheme == scheme
        assert metrics.instructions > 0
        assert metrics.cycles > 0
        assert 0 < metrics.ipc < 4
        assert metrics.ammat > 0

    @pytest.mark.parametrize("scheme", sorted(SCHEMES))
    def test_shares_consistent(self, scheme):
        metrics = run(scheme)
        assert metrics.total_serviced > 0
        total = metrics.dram_share + metrics.nvm_share + metrics.buffer_share
        assert total == pytest.approx(1.0)
        classified = (
            metrics.positive_accesses
            + metrics.negative_accesses
            + metrics.neutral_accesses
        )
        assert classified == metrics.total_serviced

    @pytest.mark.parametrize("scheme", sorted(SCHEMES))
    def test_deterministic(self, scheme):
        a = run(scheme, seed=3)
        b = run(scheme, seed=3)
        assert a.ipc == b.ipc
        assert a.ammat == b.ammat
        assert a.swaps_total == b.swaps_total

    def test_seeds_differ(self):
        a = run("pageseer", workload="milcx4", seed=1)
        b = run("pageseer", workload="milcx4", seed=2)
        assert (a.ipc, a.ammat) != (b.ipc, b.ammat)


class TestWorkloadVariety:
    @pytest.mark.parametrize(
        "workload", ["milcx4", "mcfx8", "mix1", "streamx4"]
    )
    def test_pageseer_handles_workload(self, workload):
        metrics = run("pageseer", workload=workload)
        assert metrics.instructions > 0
        assert metrics.total_serviced > 0

    def test_mix_uses_all_cores(self):
        system = build_system("noswap", workload_by_name("mix1"), scale=1024)
        system.run_ops(200)
        for core in system.cores:
            assert core.ops_executed == 200

    def test_multi_instance_cores(self):
        system = build_system("noswap", workload_by_name("mcfx8"), scale=1024)
        assert len(system.cores) == 8


class TestNoSwapReference:
    def test_never_swaps(self):
        metrics = run("noswap")
        assert metrics.swaps_total == 0
        assert metrics.buffer_share == 0.0

    def test_all_accesses_neutral(self):
        metrics = run("noswap")
        assert metrics.positive_accesses == 0
        assert metrics.negative_accesses == 0


class TestContentionToggle:
    def test_no_contention_is_faster(self):
        contended = run("pageseer", workload="milcx4")
        system = build_system("pageseer", workload_by_name("milcx4"), scale=1024)
        system.hmc.memory.dram.model_contention = False
        system.hmc.memory.nvm.model_contention = False
        free = system.run(MEASURE, WARMUP)
        assert free.ammat <= contended.ammat
