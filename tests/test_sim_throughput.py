"""Hot-path guard: the sanitizer at level "off" must cost nothing.

The zero-overhead contract is structural, not statistical: at the default
``off`` level no CheckManager is built and ``handle_request`` is the
plain class method — no per-access Python callback exists to pay for.
The timing bound is deliberately generous (CI machines vary wildly); the
structural assertions are the real guard.
"""

import collections
import functools
import inspect
import re
import time

import pytest

from repro.cache.cache import EvictedLine
from repro.common.config import CheckConfig
from repro.faults.recovery import FaultRecovery
from repro.mem.device import MemoryDevice
from repro.sim import engine
from repro.sim.cpu import Core, MemoryOp
from repro.sim.hmc_base import HmcBase
from repro.sim.system import SCHEMES, build_system
from repro.snapshot.stream import ReplayStream
from repro.vm.mmu import Mmu
from repro.workloads import workload_by_name

from tests.reference_scheduler import use_reference_scheduler

#: The per-request controller methods (the flattened request paths and
#: the helpers they escape to for memory).
REQUEST_PATHS = (
    "handle_request", "handle_pte_fetch", "mmu_hint", "metadata_access",
    "line_access", "_pctc_fill_from_pct", "_fetch_pte_line",
    "_migrate_residue_line",
)


def make(check=None):
    return build_system(
        "pageseer", workload_by_name("lbmx4"), scale=1024, check=check
    )


class TestZeroOverheadOff:
    def test_no_checker_constructed(self):
        system = make()
        assert system.checker is None

    def test_handle_request_is_unwrapped(self):
        """No instance-level wrapper: the hot path dispatches straight to
        the class method, exactly as before the sanitizer existed."""
        system = make()
        assert "handle_request" not in vars(system.hmc)
        assert system.hmc.handle_request.__func__ is type(
            system.hmc
        ).handle_request

    def test_enabled_level_does_wrap(self):
        """Sanity check of the guard itself: when checking is on, the
        wrapper *is* installed — so the off-level assertions above would
        catch a regression that left it installed unconditionally."""
        system = make(check=CheckConfig(level="invariants"))
        assert system.checker is not None
        assert "handle_request" in vars(system.hmc)


class TestZeroOverheadFaultsOff:
    """The same structural contract for fault injection (repro.faults)."""

    def test_no_recovery_or_injector_constructed(self):
        system = make()
        assert system.hmc.fault_recovery is None
        assert system.hmc.fault_injector is None
        assert system.hmc.memory.dram.injector is None
        assert system.hmc.memory.nvm.injector is None

    def test_device_entries_are_the_devices_access_finish(self):
        """With faults off, each per-device line entry is that device's
        bound ``access_finish`` itself — no recovery indirection."""
        hmc = make().hmc
        for entry, device in (
            (hmc.dram_access, hmc.memory.dram),
            (hmc.nvm_access, hmc.memory.nvm),
        ):
            assert entry.__self__ is device
            assert entry.__func__ is MemoryDevice.access_finish

    def test_device_entries_bind_recovery_when_faulting(self):
        from repro.common.config import FaultConfig

        hmc = build_system(
            "pageseer", workload_by_name("lbmx4"), scale=1024,
            faults=FaultConfig(enabled=True, transient_rate=0.01),
        ).hmc
        for entry, device, line_base in (
            (hmc.dram_access, hmc.memory.dram, 0),
            (hmc.nvm_access, hmc.memory.nvm, hmc._nvm_line_base),
        ):
            assert isinstance(entry, functools.partial)
            assert entry.func.__self__ is hmc.fault_recovery
            assert entry.func.__func__ is FaultRecovery.access
            assert entry.args == (device, line_base)

    def test_no_request_path_tests_whether_faults_are_armed(self):
        """Every scheme's request paths reach memory through the two device
        entries, so none of them reads the fault machinery."""
        for cls in {HmcBase, *SCHEMES.values()}:
            for name in REQUEST_PATHS:
                method = vars(cls).get(name)
                if method is None:
                    continue
                source = inspect.getsource(method)
                assert not re.search(r"\bfault|injector", source), (
                    cls.__name__, name,
                )

    def test_enabled_faults_do_attach(self):
        """Sanity check of the guard: with injection on, the devices carry
        an injector and the HMC routes accesses through FaultRecovery."""
        from repro.common.config import FaultConfig

        system = build_system(
            "pageseer", workload_by_name("lbmx4"), scale=1024,
            faults=FaultConfig(enabled=True, transient_rate=0.01),
        )
        assert system.hmc.fault_recovery is not None
        assert system.hmc.memory.nvm.injector is system.hmc.fault_injector


class TestThroughputBound:
    def test_unchecked_run_stays_fast(self):
        """A small unchecked run finishes well inside a generous bound
        (~0.3 s on 2024 hardware; the bound allows a 50x slower CI box)."""
        system = make()
        start = time.perf_counter()
        system.run(400, 400)
        elapsed = time.perf_counter() - start
        assert elapsed < 15.0, f"unchecked small run took {elapsed:.1f}s"


class TestDrainCostStaysFlat:
    """The drain loop finds the next prep-time-unmapped op of a chunk in
    constant reads per op, not by rescanning the chunk's ``unmapped``
    column from its start at every segment entry and re-resolve.

    Structural, like the guards above: the bound counts element reads of
    the column, not seconds.  lbmx4 is a first-touch stream, so about a
    third of its ops are still unmapped when their chunk is prepped.
    """

    def test_unmapped_column_reads_per_op_are_bounded(self, monkeypatch):
        reads = [0]

        class CountingList(list):
            def __iter__(self):
                for item in list.__iter__(self):
                    reads[0] += 1
                    yield item

            def __getitem__(self, index):
                reads[0] += 1
                return list.__getitem__(self, index)

        prep = engine._prep_chunk

        def counting_prep(*args):
            columns = prep(*args)
            return columns[:-1] + (CountingList(columns[-1]),)

        monkeypatch.setattr(engine, "_prep_chunk", counting_prep)
        system = make()
        system.run_ops(1200)
        ops = sum(core.ops_executed for core in system.cores)
        assert ops == 4 * 1200
        assert reads[0] / ops <= 32, (
            f"{reads[0] / ops:.1f} unmapped-column reads per op"
        )


class TestStreamCallsPerChunk:
    """The engine peeks each core's stream once per chunk and advances it
    once per flush of executed ops, not once per op.

    Structural, like the guards above: class-level wrappers count
    ``ReplayStream.peek_chunk`` and ``advance`` calls and the distinct
    chunks handed out.  On lbmx4 and mcfx8 nearly every op is a shared
    turn, so a runner that peeked at every segment entry and advanced
    after every shared op would make about one call of each per op.
    """

    @pytest.mark.parametrize("workload", ["lbmx4", "mcfx8"])
    def test_calls_scale_with_chunks_not_ops(self, monkeypatch, workload):
        counts = collections.Counter()
        #: Every chunk handed out, by id; holding them keeps ids unique.
        chunks = {}
        peek_chunk = ReplayStream.peek_chunk
        advance = ReplayStream.advance

        def counting_peek_chunk(self):
            counts["peek_chunk"] += 1
            peeked = peek_chunk(self)
            if peeked is not None:
                chunks[id(peeked[0])] = peeked[0]
            return peeked

        def counting_advance(self, count):
            counts["advance"] += 1
            return advance(self, count)

        monkeypatch.setattr(ReplayStream, "peek_chunk", counting_peek_chunk)
        monkeypatch.setattr(ReplayStream, "advance", counting_advance)
        system = build_system("pageseer", workload_by_name(workload), scale=1024)
        system.run_ops(1000)
        cores = len(system.cores)
        ops = sum(core.ops_executed for core in system.cores)
        assert ops == cores * 1000
        bound = 2 * (len(chunks) + cores)
        assert counts["peek_chunk"] <= bound, (dict(counts), len(chunks))
        assert counts["advance"] <= bound, (dict(counts), len(chunks))
        # The bound sits far below one call per op.
        assert bound * 4 < ops


class TestTranslationTurnsStayInTheEngine:
    """Translation turns (L1-TLB misses and first touches) run inside the
    engine, so an engine run never enters the scalar per-op chain
    (``Core.execute``, ``Mmu.translate``) and builds none of its per-op
    objects: no ``MemoryOp`` and no ``EvictedLine`` victim per filled
    cache level.

    Structural, like the guards above: class-level wrappers count calls
    and constructions.  They go in before the build, because ``Core``
    hoists bound methods at construction.  mcfx8 is a pointer chase:
    about half of its ops miss the L1 TLB and walk.
    """

    @staticmethod
    def _count_scalar_chain(monkeypatch):
        counts = collections.Counter()
        for cls, name in (
            (Core, "execute"),
            (Mmu, "translate"),
            (MemoryOp, "__init__"),
            (EvictedLine, "__init__"),
        ):
            original = getattr(cls, name)

            def wrapper(*args, _key=f"{cls.__name__}.{name}",
                        _original=original, **kwargs):
                counts[_key] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(cls, name, wrapper)
        return counts

    @staticmethod
    def _mcf():
        return build_system("pageseer", workload_by_name("mcfx8"), scale=1024)

    def test_engine_run_makes_no_scalar_calls_or_per_op_objects(
        self, monkeypatch
    ):
        counts = self._count_scalar_chain(monkeypatch)
        system = self._mcf()
        system.run_ops(1000)
        ops = sum(core.ops_executed for core in system.cores)
        assert ops == 8 * 1000
        stats = system.stats.as_dict()
        # The run is walk-heavy and first-touches pages, so translation
        # turns of both sorts ran.
        assert stats["walk/walks"] >= ops // 4
        assert sum(
            core.process.page_table.mapped_pages for core in system.cores
        ) > 0
        assert counts == {}, dict(counts)

    def test_wrappers_count_the_reference_path(self, monkeypatch):
        """Sanity check of the guard: the reference scheduler runs every
        op through the scalar chain, and a reference-model fill that
        evicts builds a victim, so the same wrappers see both."""
        counts = self._count_scalar_chain(monkeypatch)
        system = use_reference_scheduler(self._mcf())
        system.run_ops(200)
        assert counts["Core.execute"] == 8 * 200
        assert counts["MemoryOp.__init__"] == 8 * 200
        assert counts["Mmu.translate"] == 8 * 200
        l1 = system.hierarchy.l1[0]
        for way in range(l1.ways + 1):
            l1.fill(way * l1.num_sets)
        assert counts["EvictedLine.__init__"] >= 1
