"""Run metrics: the quantities the paper's figures are drawn from."""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, List, Tuple


@dataclass(frozen=True)
class RunMetrics:
    """Everything a single (scheme, workload) run produces."""

    scheme: str
    workload: str
    suite: str
    instructions: int
    #: Mean CPU cycles across cores in the measured window.
    cycles: float
    #: Mean of per-core IPCs.
    ipc: float
    #: Average main-memory access time (controller arrival -> data back).
    ammat: float
    #: Requests serviced by each memory module (Figure 7).
    serviced_dram: int
    serviced_nvm: int
    serviced_buffer: int
    #: Swap-effectiveness classification (Figure 8).
    positive_accesses: int
    negative_accesses: int
    neutral_accesses: int
    #: Swap activity (Figures 10, 11).
    swaps_total: int
    swaps_mmu: int
    swaps_pct: int
    swaps_regular: int
    #: Prefetch-swap accuracy (Figure 9).
    prefetch_accurate: int
    prefetch_inaccurate: int
    #: Page-walk behaviour (Figure 12).
    tlb_misses: int
    pte_llc_misses: int
    mmu_driver_hit_rate: float
    #: Remap-table stall time (Figure 13).
    remap_wait_cycles: float
    remap_misses: int
    #: Fault injection & graceful degradation (``repro.faults``); all zero
    #: when injection is off.
    faults_injected: int = 0
    fault_retries: int = 0
    swap_aborts: int = 0
    quarantined_pages: int = 0
    degraded_services: int = 0
    raw: Dict[str, float] = field(default_factory=dict, repr=False)

    def payload(self) -> Dict[str, object]:
        """The persisted, JSON-stable view: every :data:`PERSISTED_FIELDS`
        value, in declaration order."""
        return {name: getattr(self, name) for name in PERSISTED_FIELDS}

    # -- derived quantities ----------------------------------------------------
    @property
    def total_serviced(self) -> int:
        return self.serviced_dram + self.serviced_nvm + self.serviced_buffer

    @property
    def dram_share(self) -> float:
        return self.serviced_dram / self.total_serviced if self.total_serviced else 0.0

    @property
    def nvm_share(self) -> float:
        return self.serviced_nvm / self.total_serviced if self.total_serviced else 0.0

    @property
    def buffer_share(self) -> float:
        return self.serviced_buffer / self.total_serviced if self.total_serviced else 0.0

    @property
    def positive_share(self) -> float:
        total = self.positive_accesses + self.negative_accesses + self.neutral_accesses
        return self.positive_accesses / total if total else 0.0

    @property
    def negative_share(self) -> float:
        total = self.positive_accesses + self.negative_accesses + self.neutral_accesses
        return self.negative_accesses / total if total else 0.0

    @property
    def neutral_share(self) -> float:
        total = self.positive_accesses + self.negative_accesses + self.neutral_accesses
        return self.neutral_accesses / total if total else 0.0

    @property
    def swaps_per_kilo_instruction(self) -> float:
        if self.instructions <= 0:
            return 0.0
        return 1000.0 * self.swaps_total / self.instructions

    @property
    def prefetch_swaps(self) -> int:
        return self.swaps_mmu + self.swaps_pct

    @property
    def prefetch_swap_share(self) -> float:
        return self.prefetch_swaps / self.swaps_total if self.swaps_total else 0.0

    @property
    def mmu_swap_share(self) -> float:
        return self.swaps_mmu / self.swaps_total if self.swaps_total else 0.0

    @property
    def prefetch_accuracy(self) -> float:
        total = self.prefetch_accurate + self.prefetch_inaccurate
        return self.prefetch_accurate / total if total else 0.0

    @property
    def pte_cache_miss_rate(self) -> float:
        """Fraction of TLB-miss PTE requests that missed L2+L3 (Figure 12)."""
        return self.pte_llc_misses / self.tlb_misses if self.tlb_misses else 0.0


#: The :class:`RunMetrics` fields a run persists, in declaration order:
#: every field but ``raw`` (large, and only useful interactively).  Result
#: caches, golden files and sweep results store exactly these, and their
#: digests cover exactly these.
PERSISTED_FIELDS: Tuple[str, ...] = tuple(
    item.name for item in fields(RunMetrics) if item.name != "raw"
)


def collect_metrics(
    system,
    instructions_per_core: List[int],
    cycles_per_core: List[float],
) -> RunMetrics:
    """Distil a finished measured window into a :class:`RunMetrics`."""
    stats = system.stats
    scheme = system.scheme

    if scheme == "pageseer":
        swaps_mmu = int(stats.get("swap_driver/swaps_mmu"))
        swaps_pct = int(stats.get("swap_driver/swaps_pct"))
        swaps_regular = int(stats.get("swap_driver/swaps_regular"))
        swaps_total = int(stats.get("swap_driver/swaps"))
    elif scheme == "pom":
        swaps_mmu = swaps_pct = 0
        swaps_regular = swaps_total = int(stats.get("pom/swaps"))
    elif scheme == "mempod":
        swaps_mmu = swaps_pct = 0
        swaps_regular = swaps_total = int(stats.get("mempod/migrations"))
    elif scheme == "cameo":
        swaps_mmu = swaps_pct = 0
        swaps_regular = swaps_total = int(stats.get("cameo/swaps"))
    else:
        swaps_mmu = swaps_pct = swaps_regular = swaps_total = 0

    ipcs = [
        instr / cycles
        for instr, cycles in zip(instructions_per_core, cycles_per_core)
        if cycles > 0
    ]
    mean_ipc = sum(ipcs) / len(ipcs) if ipcs else 0.0
    mean_cycles = (
        sum(cycles_per_core) / len(cycles_per_core) if cycles_per_core else 0.0
    )

    driver = getattr(system.hmc, "mmu_driver", None)
    mmu_driver_hit_rate = driver.intercept_hit_rate if driver is not None else 0.0

    faults_injected = int(
        stats.get("faults/transient_dram")
        + stats.get("faults/transient_nvm")
        + stats.get("faults/transfer_dram")
        + stats.get("faults/transfer_nvm")
        + stats.get("faults/uncorrectable_reads")
    )
    fault_retries = int(
        stats.get("faults/retries") + stats.get("swap_driver/swap_retries")
    )
    swap_aborts = int(
        stats.get("swap_driver/aborted_swaps")
        + stats.get("pom/aborted_swaps")
        + stats.get("mempod/aborted_migrations")
        + stats.get("cameo/aborted_swaps")
    )
    degraded_services = int(stats.get("faults/degraded_services"))

    return RunMetrics(
        scheme=scheme,
        workload=system.workload.name,
        suite=system.workload.suite,
        instructions=sum(instructions_per_core),
        cycles=mean_cycles,
        ipc=mean_ipc,
        ammat=stats.mean("hmc/ammat"),
        serviced_dram=int(stats.get("hmc/serviced_dram")),
        serviced_nvm=int(stats.get("hmc/serviced_nvm")),
        serviced_buffer=int(stats.get("hmc/serviced_buffer")),
        positive_accesses=int(stats.get("hmc/positive_accesses")),
        negative_accesses=int(stats.get("hmc/negative_accesses")),
        neutral_accesses=int(stats.get("hmc/neutral_accesses")),
        swaps_total=swaps_total,
        swaps_mmu=swaps_mmu,
        swaps_pct=swaps_pct,
        swaps_regular=swaps_regular,
        prefetch_accurate=int(stats.get("hmc/prefetch_swaps_accurate")),
        prefetch_inaccurate=int(stats.get("hmc/prefetch_swaps_inaccurate")),
        tlb_misses=int(stats.get("tlb/misses")),
        pte_llc_misses=int(stats.get("walk/pte_llc_misses")),
        mmu_driver_hit_rate=mmu_driver_hit_rate,
        remap_wait_cycles=stats.get("hmc/remap_wait_cycles"),
        remap_misses=int(stats.get("hmc/remap_misses")),
        faults_injected=faults_injected,
        fault_retries=fault_retries,
        swap_aborts=swap_aborts,
        quarantined_pages=int(stats.get("faults/quarantined_pages")),
        degraded_services=degraded_services,
        raw=stats.as_dict(),
    )
