"""The analytic core model (see DESIGN.md Section 2, core substitution).

A core consumes a stream of :class:`MemoryOp` items produced by a workload
generator.  Non-memory work advances the clock by ``base_cpi`` cycles per
instruction; address translation and cache/memory latencies add stall
cycles, divided by an MLP factor that stands in for the out-of-order
window's ability to overlap misses.  IPC differences between schemes are
then driven by main-memory access time — exactly the coupling the paper's
Figure 14 relies on.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.common.addr import LINE_SHIFT, PAGE_BYTES, PAGE_SHIFT
from repro.common.config import SystemConfig
from repro.common.stats import StatsRegistry
from repro.cache.hierarchy import CacheHierarchy
from repro.sim.hmc_base import DEMAND, WRITEBACK, HmcBase
from repro.vm.mmu import Mmu
from repro.vm.os_model import Process

if TYPE_CHECKING:
    from repro.snapshot.stream import ReplayStream


class MemoryOp:
    """One memory reference emitted by a workload generator.

    A plain ``__slots__`` class rather than a (frozen) dataclass: workload
    generators construct one of these per reference on the hot path, and
    dataclass ``__init__``/``__setattr__`` machinery costs measurably more
    than direct slot stores.  Equality and hashing match the old dataclass
    semantics (trace round-trip tests compare op lists).
    """

    __slots__ = ("vaddr", "is_write", "instructions_before")

    def __init__(self, vaddr: int, is_write: bool, instructions_before: int = 4):
        self.vaddr = vaddr
        self.is_write = is_write
        #: Non-memory instructions executed since the previous reference.
        self.instructions_before = instructions_before

    def __repr__(self) -> str:
        return (
            f"MemoryOp(vaddr={self.vaddr:#x}, is_write={self.is_write}, "
            f"instructions_before={self.instructions_before})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MemoryOp):
            return NotImplemented
        return (
            self.vaddr == other.vaddr
            and self.is_write == other.is_write
            and self.instructions_before == other.instructions_before
        )

    def __hash__(self) -> int:
        return hash((self.vaddr, self.is_write, self.instructions_before))


#: Store misses stall the core less than load misses (store buffers drain
#: in the background); this factor scales their contribution.
_STORE_STALL_FRACTION = 0.25

_PAGE_MASK = PAGE_BYTES - 1


class Core:
    """One simulated core bound to a process and an op stream.

    The engine (:mod:`repro.sim.engine`) fetches ops from ``ops`` and
    services every one inline; :meth:`execute` is the reference per-op
    path that the test oracle runs.
    """

    __slots__ = (
        "core_id",
        "config",
        "mmu",
        "hierarchy",
        "hmc",
        "process",
        "ops",
        "stats",
        "clock",
        "instructions",
        "ops_executed",
        "done",
        "_base_cpi",
        "_mlp",
        "_pid",
        "_page_table",
        "_ensure_mapped",
        "_translate",
        "_access",
    )

    def __init__(
        self,
        core_id: int,
        config: SystemConfig,
        mmu: Mmu,
        hierarchy: CacheHierarchy,
        hmc: HmcBase,
        process: Process,
        ops: "ReplayStream",
        stats: StatsRegistry,
    ):
        self.core_id = core_id
        self.config = config
        self.mmu = mmu
        self.hierarchy = hierarchy
        self.hmc = hmc
        self.process = process
        self.ops = ops
        self.stats = stats
        self.clock = 0.0
        self.instructions = 0
        self.ops_executed = 0
        self.done = False
        # Invariant lookups hoisted out of execute(): config and process
        # are fixed for the core's lifetime, and translate/access are never
        # wrapped after construction (unlike hmc.handle_request, which the
        # sanitizer and analysis layers rebind on the instance — execute()
        # must keep reading that attribute dynamically).
        self._base_cpi = config.core.base_cpi
        self._mlp = config.core.memory_level_parallelism
        self._pid = process.pid
        self._page_table = process.page_table
        self._ensure_mapped = process.page_table.ensure_mapped
        self._translate = mmu.translate
        self._access = hierarchy.access

    @property
    def now(self) -> int:
        return int(self.clock)

    # repro-hot
    def execute(self, op: MemoryOp) -> None:
        """Execute one already-fetched operation (the full scalar path).

        The engine never calls this: it services pure TLB/cache hits,
        the cache-miss shapes and translation turns inline.  The body is
        the reference per-op semantics every inline path replicates, and
        the one-op-at-a-time test oracle runs every op through it.
        """
        work = op.instructions_before + 1
        self.instructions += work
        clock = self.clock + work * self._base_cpi
        now = int(clock)

        # Address translation (first touch allocates the frame, as the OS
        # would on a minor fault).
        vaddr = op.vaddr
        self._ensure_mapped(vaddr >> PAGE_SHIFT)
        translation = self._translate(now, self._page_table, vaddr)
        if translation.source == "walk":
            # A TLB miss blocks the access; hit latencies are folded into
            # the base CPI.
            clock += translation.latency
            now = int(clock)

        line = ((translation.ppn << PAGE_SHIFT) | (vaddr & _PAGE_MASK)) >> LINE_SHIFT
        is_write = op.is_write
        outcome = self._access(self.core_id, line, is_write)

        stall = 0.0
        hit_level = outcome.hit_level
        if hit_level is None:
            finish = self.hmc.handle_request(
                now + outcome.latency_cycles,
                line,
                is_write,
                self._pid,
                DEMAND,
            )
            memory_latency = finish - now
            if is_write:
                stall = memory_latency * _STORE_STALL_FRACTION / self._mlp
            else:
                stall = memory_latency / self._mlp
        elif hit_level != "l1":
            stall = outcome.latency_cycles / self._mlp
        clock += stall
        self.clock = clock

        # Dirty victims displaced by the fill drain to memory in the
        # background (they consume bandwidth but do not stall the core).
        writebacks = outcome.writebacks
        if writebacks:
            wb_now = int(clock)
            for dirty_line in writebacks:
                self.hmc.handle_request(
                    wb_now, dirty_line, True, self._pid, WRITEBACK
                )

        self.ops_executed += 1

    @property
    def ipc(self) -> float:
        if self.clock <= 0:
            return 0.0
        return self.instructions / self.clock
