"""Full-system assembly and the simulation loop.

:func:`build_system` wires a complete machine — OS, caches, TLBs/walkers,
one memory-controller scheme, and one core per workload part — and
:meth:`System.run` drives it: cores execute in global time order (always
the core with the smallest local clock steps next), a warm-up window
populates caches/TLBs/history tables, then statistics are reset and the
measured window produces a :class:`repro.sim.metrics.RunMetrics`.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Type

from repro.baselines.cameo import CameoHmc
from repro.baselines.mempod import MemPodHmc
from repro.baselines.pom import PomHmc
from repro.common.config import CheckConfig, FaultConfig, SystemConfig
from repro.common.errors import ConfigError, SimulationError
from repro.common.stats import StatsRegistry
from repro.cache.hierarchy import CacheHierarchy
from repro.core.hmc import PageSeerHmc
from repro.sim import engine
from repro.sim.cpu import Core
from repro.sim.hmc_base import PTE, WRITEBACK, HmcBase, NoSwapHmc
from repro.sim.metrics import RunMetrics, collect_metrics
from repro.snapshot.stream import ReplayStream
from repro.vm.mmu import Mmu
from repro.vm.os_model import OsModel
from repro.vm.walker import PageWalkCache, PageWalker
from repro.workloads.base import WorkloadSpec

SCHEMES: Dict[str, Type[HmcBase]] = {
    "pageseer": PageSeerHmc,
    "pom": PomHmc,
    "mempod": MemPodHmc,
    "cameo": CameoHmc,
    "noswap": NoSwapHmc,
}


class RunProgress:
    """Where a :meth:`System.run` call is in its phase sequence.

    Persisted inside checkpoints so a restored system can finish the
    interrupted ``run()`` with identical semantics: ``targets`` are
    *absolute* per-core op counts for the current phase (warm-up or
    measure), and the measurement baselines are captured once at the
    warm-up/measure boundary, exactly as the uninterrupted path does.
    """

    __slots__ = (
        "measure_ops",
        "warmup_ops",
        "phase",
        "targets",
        "baseline_instr",
        "baseline_clock",
    )

    def __init__(self, measure_ops: int, warmup_ops: int):
        self.measure_ops = measure_ops
        self.warmup_ops = warmup_ops
        #: "warmup" -> "measure" -> "done".
        self.phase = "warmup"
        self.targets: List[int] = []
        self.baseline_instr: List[int] = []
        self.baseline_clock: List[float] = []

    def __repr__(self) -> str:
        return (
            f"RunProgress(phase={self.phase!r}, measure={self.measure_ops}, "
            f"warmup={self.warmup_ops}, targets={self.targets})"
        )


class System:
    """One simulated machine bound to one workload."""

    def __init__(self, config: SystemConfig, scheme: str, workload: WorkloadSpec, scale: int):
        if scheme not in SCHEMES:
            raise ConfigError(f"unknown scheme {scheme!r}; pick from {sorted(SCHEMES)}")
        self.config = config
        self.scheme = scheme
        self.workload = workload
        self.scale = scale
        self.stats = StatsRegistry()
        self.os_model = OsModel(config.memory)
        self.hmc: HmcBase = SCHEMES[scheme](config, self.os_model, self.stats)
        self.hierarchy = CacheHierarchy(config, self.stats)
        self.cores: List[Core] = []
        self._build_cores()
        #: Operations executed across all cores since construction; the
        #: checkpoint machinery uses it as a deterministic position marker.
        self.steps_total = 0
        #: The phase machine of an in-flight :meth:`run`, or None outside
        #: one.  Travels inside checkpoints so ``resume_run`` can finish.
        self.progress: Optional[RunProgress] = None
        #: An armed :class:`repro.snapshot.hooks.Checkpointer`, or None.
        #: Never serialized (detached around every checkpoint write).
        self.checkpointer = None
        #: The runtime sanitizer (``repro.check``), or None at level "off".
        #: None means *nothing* was wrapped: the hot path is untouched.
        self.checker = None
        if config.check.enabled:
            from repro.check import CheckManager

            self.checker = CheckManager(config.check)
            self.checker.attach(self)

    def _build_cores(self) -> None:
        use_hints = self.scheme == "pageseer"
        for core_id in range(self.config.cores):
            process = self.os_model.create_process(pid=core_id + 1)
            pwc = PageWalkCache(self.config.pwc_entries_per_level)
            walker = PageWalker(
                core_id,
                self.hierarchy,
                pwc,
                self.config.pwc_latency_cycles,
                self.stats,
                memory_fetch=self._walker_memory_fetch,
                mmu_hint=self.hmc.mmu_hint if use_hints else None,
            )
            mmu = Mmu(core_id, self.config, walker, self.stats)
            stream = ReplayStream(self.workload, core_id, self.config.seed, self.scale)
            self.cores.append(
                Core(
                    core_id,
                    self.config,
                    mmu,
                    self.hierarchy,
                    self.hmc,
                    process,
                    stream,
                    self.stats,
                )
            )

    def _walker_memory_fetch(
        self,
        now: int,
        line_spa: int,
        is_write: bool,
        is_pte: bool,
        target_ppn: Optional[int],
        pid: int,
    ) -> int:
        if is_pte:
            return self.hmc.handle_pte_fetch(now, line_spa, target_ppn, pid)
        kind = WRITEBACK if is_write else PTE
        return self.hmc.handle_request(now, line_spa, is_write, pid, kind)

    # -- driving --------------------------------------------------------------
    def _run_to_targets(self, targets: Sequence[int]) -> None:
        """Advance cores in time order until each hits its absolute target.

        Operations execute in global ``(clock, core_id)`` order: the core
        with the smallest local clock goes next, and equal clocks are
        broken by core id, so the interleaving is deterministic and a
        pure function of (cores, targets).  That is what makes mid-loop
        checkpoints bit-identical on resume.  The loop itself is
        :func:`repro.sim.engine.run_to_targets` (see its equivalence
        contract).
        """
        engine.run_to_targets(self, targets)

    def run_ops(self, ops_per_core: int) -> None:
        """Advance every core by *ops_per_core* operations in time order.

        This window is not resumable on its own: checkpoints taken here
        restore mid-window, but only :meth:`run` records enough phase
        state (:class:`RunProgress`) for :meth:`resume_run` to finish a
        full warm-up/measure sequence.
        """
        self._run_to_targets([core.ops_executed + ops_per_core for core in self.cores])

    def _enter_measure(self) -> None:
        """Cross the warm-up/measure boundary: reset stats, take baselines."""
        progress = self.progress
        self.stats.reset()
        progress.baseline_instr = [core.instructions for core in self.cores]
        progress.baseline_clock = [core.clock for core in self.cores]
        progress.targets = [
            core.ops_executed + progress.measure_ops for core in self.cores
        ]
        progress.phase = "measure"

    def _advance(self) -> RunMetrics:
        """Drive the :class:`RunProgress` phase machine to completion."""
        progress = self.progress
        if progress.phase == "warmup":
            self._run_to_targets(progress.targets)
            self._enter_measure()
        if progress.phase == "measure":
            self._run_to_targets(progress.targets)
            progress.phase = "done"

        end_time = max(core.now for core in self.cores)
        self.hmc.finalize(end_time)
        if self.checker is not None:
            self.checker.finalize(end_time)

        instructions = [
            core.instructions - base
            for core, base in zip(self.cores, progress.baseline_instr)
        ]
        cycles = [
            core.clock - base
            for core, base in zip(self.cores, progress.baseline_clock)
        ]
        return collect_metrics(
            self, instructions_per_core=instructions, cycles_per_core=cycles
        )

    def run(self, measure_ops: int, warmup_ops: int = 0) -> RunMetrics:
        """Warm up, reset statistics, run the measured window, and report."""
        progress = RunProgress(measure_ops=measure_ops, warmup_ops=warmup_ops)
        self.progress = progress
        if warmup_ops > 0:
            progress.targets = [
                core.ops_executed + warmup_ops for core in self.cores
            ]
        else:
            self._enter_measure()
        return self._advance()

    def resume_run(self) -> RunMetrics:
        """Finish a :meth:`run` restored from a checkpoint.

        Produces the metrics the interrupted process would have: the
        remaining warm-up and/or measured ops execute in the identical
        order (see :meth:`_run_to_targets`), against the restored stats
        and baselines.
        """
        if self.progress is None:
            raise SimulationError(
                "nothing to resume: this system has no run in progress"
            )
        if self.progress.phase == "done":
            raise SimulationError(
                "nothing to resume: the checkpointed run already completed"
            )
        return self._advance()


def build_system(
    scheme: str,
    workload: WorkloadSpec,
    scale: int = 256,
    seed: int = 0,
    config_mutator: Optional[Callable[[SystemConfig], SystemConfig]] = None,
    check: Optional[CheckConfig] = None,
    faults: Optional[FaultConfig] = None,
) -> System:
    """Build a ready-to-run system for one scheme and one workload.

    ``config_mutator`` lets callers adjust the scaled config (ablations:
    disable correlation, disable the bandwidth heuristic, ...).
    ``check`` overrides the sanitizer configuration after the mutator ran
    (convenience for the CLI's ``--check`` flags and for tests), and
    ``faults`` does the same for fault injection (``--faults``).
    """
    import dataclasses

    from repro.common.config import default_system_config

    config = default_system_config(
        scale=scale, cores=workload.cores, seed=seed
    )
    if config_mutator is not None:
        config = config_mutator(config)
    if check is not None:
        config = dataclasses.replace(config, check=check)
    if faults is not None:
        config = dataclasses.replace(config, faults=faults)

    # Fail early with a clear message if the workload cannot fit: data
    # pages plus page tables plus controller metadata must fit the scaled
    # physical memory, or first-touch allocation dies mid-run.
    data_pages = workload.footprint_pages(scale)
    overhead_estimate = workload.cores * 8 + 64  # page tables + metadata
    if data_pages + overhead_estimate > config.memory.total_pages:
        raise ConfigError(
            f"workload {workload.name} needs ~{data_pages} data pages but the "
            f"scale-1/{scale} memory has only {config.memory.total_pages}; "
            f"use a smaller scale"
        )
    return System(config, scheme, workload, scale)
