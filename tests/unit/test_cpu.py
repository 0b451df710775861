"""Unit tests for the analytic core model (repro.sim.cpu)."""

from repro.sim.cpu import MemoryOp
from repro.sim.system import build_system
from repro.workloads.base import unique_workload
from repro.workloads.synthetic import BLOCK_GENERATORS, HEAP_BASE

from tests.conftest import make_system, take_ops


def execute_all(core, ops):
    for op in ops:
        core.execute(op)


def run_ops(system, core_id=0, count=10):
    """Execute the core's next *count* stream ops through ``Core.execute``."""
    core = system.cores[core_id]
    execute_all(core, take_ops(core.ops, count))
    return core


class TestStepping:
    def test_instructions_accumulate(self, tiny_system):
        core = run_ops(tiny_system, count=5)
        assert core.ops_executed == 5
        assert core.instructions >= 5

    def test_clock_advances(self, tiny_system):
        core = run_ops(tiny_system, count=5)
        assert core.clock > 0

    def test_ipc_positive(self, tiny_system):
        core = run_ops(tiny_system, count=20)
        assert 0 < core.ipc < 4

    def test_stream_end_sets_done(self, monkeypatch):
        def one_op(rng, footprint_pages):
            yield [HEAP_BASE], [False], [1]

        monkeypatch.setitem(BLOCK_GENERATORS, "one_op", one_op)
        workload = unique_workload("oneop", "test", 1, 1, "one_op")
        system = build_system("noswap", workload, scale=1024)
        system.run_ops(3)
        core = system.cores[0]
        assert core.ops_executed == 1
        assert core.done


class TestMemoryInteraction:
    def test_llc_misses_reach_hmc(self, tiny_system):
        run_ops(tiny_system, count=30)
        assert tiny_system.stats.get("hmc/requests_demand") > 0

    def test_first_touch_maps_page(self, tiny_system):
        core = tiny_system.cores[0]
        before = core.process.page_table.mapped_pages
        run_ops(tiny_system, count=1)
        assert core.process.page_table.mapped_pages == before + 1

    def test_tlb_miss_then_hits_within_page(self):
        system = make_system("noswap")
        core = system.cores[0]
        execute_all(core, [MemoryOp(HEAP_BASE + 64 * k, False, 1) for k in range(8)])
        assert system.stats.get("tlb/misses") == 1

    def test_cache_hit_cheaper_than_miss(self):
        system = make_system("noswap")
        core = system.cores[0]
        # Two accesses to the same line: miss then L1 hit.
        core.execute(MemoryOp(HEAP_BASE, False, 0))
        after_miss = core.clock
        core.execute(MemoryOp(HEAP_BASE, False, 0))
        assert core.clock - after_miss < after_miss

    def test_write_stall_smaller_than_read(self):
        miss_read = make_system("noswap")
        miss_write = make_system("noswap")
        miss_read.cores[0].execute(MemoryOp(HEAP_BASE, False, 0))
        miss_write.cores[0].execute(MemoryOp(HEAP_BASE, True, 0))
        assert miss_write.cores[0].clock < miss_read.cores[0].clock

    def test_writebacks_do_not_stall(self):
        system = make_system("noswap")
        core = system.cores[0]
        # Touch many aliasing lines with writes to force dirty evictions.
        l1_sets = system.config.l1.num_sets
        execute_all(
            core, [MemoryOp(HEAP_BASE + 64 * l1_sets * k, True, 0) for k in range(40)]
        )
        assert system.stats.get("hmc/requests_writeback") > 0
