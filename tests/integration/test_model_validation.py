"""Model validation: the simulator against closed-form expectations.

These tests pin the timing model to quantities that can be computed by
hand from Table I, so modelling regressions (double-charged latencies,
broken clock conversions, inverted priorities) surface as test failures
rather than silently skewed figures.
"""

import dataclasses

from repro.baselines.static import all_dram_config, all_nvm_config
from repro.common.addr import LINES_PER_PAGE
from repro.common.config import (
    CYCLES_PER_MEMORY_CYCLE,
    default_system_config,
)
from repro.common.stats import StatsRegistry
from repro.mem.main_memory import MainMemory
from repro.sim.system import build_system
from repro.workloads import workload_by_name


def uncontended_memory(config):
    """A main memory whose devices ignore channel/bank contention."""
    memory = MainMemory(config.memory, StatsRegistry())
    memory.dram.model_contention = False
    memory.nvm.model_contention = False
    return memory


class TestClosedFormLatencies:
    def test_dram_cold_read_latency(self):
        """A cold DRAM read = (tRCD + tCAS) * 2 + burst, exactly."""
        config = default_system_config(scale=1024)
        memory = uncontended_memory(config)
        result = memory.dram.access(0, 0, is_write=False)
        dram = config.memory.dram
        expected = (dram.t_rcd + dram.t_cas) * CYCLES_PER_MEMORY_CYCLE + 8
        assert result.finish - result.start == expected

    def test_nvm_cold_read_latency(self):
        config = default_system_config(scale=1024)
        memory = uncontended_memory(config)
        result = memory.nvm.access(0, 0, is_write=False)
        nvm = config.memory.nvm
        expected = (nvm.t_rcd + nvm.t_cas) * CYCLES_PER_MEMORY_CYCLE + 8
        assert result.finish - result.start == expected

    def test_nvm_dram_activation_gap(self):
        """The NVM/DRAM cold-read gap is exactly (58-11)*2 cycles."""
        config = default_system_config(scale=1024)
        memory = uncontended_memory(config)
        dram_result = memory.dram.access(0, 0, False)
        nvm_result = memory.nvm.access(0, 0, False)
        gap = (nvm_result.finish - nvm_result.start) - (
            dram_result.finish - dram_result.start
        )
        assert gap == (58 - 11) * CYCLES_PER_MEMORY_CYCLE

    def test_page_transfer_bus_bound(self):
        """An uncontended DRAM page read is bus-bound: >= 64 lines / 4 ch."""
        config = default_system_config(scale=1024)
        memory = uncontended_memory(config)
        finish = memory.read_page(0, 10)
        lines_per_channel = LINES_PER_PAGE // config.memory.dram.channels
        min_bus_cycles = lines_per_channel * config.memory.dram.line_transfer_cycles
        assert finish >= min_bus_cycles


class TestBoundingConfigurations:
    def run_with(self, mutator, workload="milcx4"):
        system = build_system(
            "noswap", workload_by_name(workload), scale=1024, config_mutator=mutator
        )
        return system.run(1500, 2000)

    def test_all_dram_bounds_hybrid_from_above(self):
        hybrid = self.run_with(None)
        ceiling = self.run_with(all_dram_config)
        assert ceiling.ipc >= hybrid.ipc
        assert ceiling.ammat <= hybrid.ammat

    def test_all_nvm_bounds_hybrid_from_below(self):
        # Use the bandwidth-bound stream: for cache-friendly workloads the
        # self-throttling queueing equilibrium can blur the bound slightly.
        hybrid = self.run_with(None, workload="lbmx4")
        floor = self.run_with(all_nvm_config, workload="lbmx4")
        assert floor.ipc <= hybrid.ipc * 1.02

    def test_pageseer_between_bounds(self):
        system = build_system("pageseer", workload_by_name("milcx4"), scale=1024)
        pageseer = system.run(1500, 2000)
        ceiling = self.run_with(all_dram_config)
        floor = self.run_with(all_nvm_config)
        assert floor.ipc * 0.9 <= pageseer.ipc <= ceiling.ipc * 1.1


class TestMonotonicity:
    def test_contention_increases_ammat(self):
        contended = build_system(
            "noswap", workload_by_name("lbmx4"), scale=1024
        ).run(1200, 1200)
        free = build_system("noswap", workload_by_name("lbmx4"), scale=1024)
        free.hmc.memory.dram.model_contention = False
        free.hmc.memory.nvm.model_contention = False
        uncontended = free.run(1200, 1200)
        assert contended.ammat >= uncontended.ammat

    def test_slower_nvm_hurts(self):
        def much_slower(config):
            nvm = dataclasses.replace(config.memory.nvm, t_rcd=200, t_wr=400)
            return dataclasses.replace(
                config, memory=dataclasses.replace(config.memory, nvm=nvm)
            )

        base = build_system("noswap", workload_by_name("lbmx4"), scale=1024)
        slow = build_system(
            "noswap", workload_by_name("lbmx4"), scale=1024,
            config_mutator=much_slower,
        )
        assert slow.run(1200, 1200).ipc < base.run(1200, 1200).ipc

    def test_higher_mlp_raises_ipc(self):
        def more_mlp(config):
            return dataclasses.replace(
                config,
                core=dataclasses.replace(config.core, memory_level_parallelism=8.0),
            )

        base = build_system("noswap", workload_by_name("lbmx4"), scale=1024)
        wide = build_system(
            "noswap", workload_by_name("lbmx4"), scale=1024, config_mutator=more_mlp
        )
        assert wide.run(1200, 1200).ipc > base.run(1200, 1200).ipc


class TestAccountingConsistency:
    def test_serviced_counts_match_classification(self):
        system = build_system("pageseer", workload_by_name("lbmx4"), scale=1024)
        metrics = system.run(2000, 3000)
        classified = (
            metrics.positive_accesses
            + metrics.negative_accesses
            + metrics.neutral_accesses
        )
        assert classified == metrics.total_serviced

    def test_noswap_ammat_matches_device_latencies(self):
        """With no swaps, AMMAT must sit between pure DRAM and pure NVM hits."""
        system = build_system("noswap", workload_by_name("milcx4"), scale=1024)
        metrics = system.run(1500, 1500)
        dram = system.config.memory.dram
        nvm = system.config.memory.nvm
        floor = dram.t_cas * CYCLES_PER_MEMORY_CYCLE  # row-hit DRAM read
        ceiling = (
            (nvm.t_rp + nvm.t_rcd + nvm.t_cas + nvm.t_wr)
            * CYCLES_PER_MEMORY_CYCLE
            * 10  # generous queueing allowance
        )
        assert floor < metrics.ammat < ceiling
