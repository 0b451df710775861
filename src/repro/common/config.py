"""Configuration dataclasses mirroring Tables I and II of the paper.

All latencies in the simulator are expressed in **CPU cycles at 2 GHz** (the
core clock of Table I).  The memory devices run at 1 GHz, so every
memory-clock parameter from Table I is multiplied by
:data:`CYCLES_PER_MEMORY_CYCLE` when it enters the timing model.

Because 2-billion-instruction full-system runs are not feasible in pure
Python, every size-like parameter can be *scaled down* coherently by an
integer ``scale`` factor (default 64): memory capacities, hardware-table
entry counts, and workload footprints all shrink by the same factor, so the
dimensionless pressures that drive the paper's results (working-set size
versus DRAM size, footprint versus remap-table reach) are preserved.
Thresholds and time-interval constants are absolute in the paper and stay
unchanged.  See DESIGN.md Section 5.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.common.addr import Bytes
from repro.common.errors import ConfigError
from repro.common.timeline import Cycles

#: CPU cycles (2 GHz) per memory cycle (1 GHz), Table I.
CYCLES_PER_MEMORY_CYCLE = 2

KB = 1024
MB = 1024 * KB
GB = 1024 * MB


def _is_power_of_two(value: int) -> bool:
    return value > 0 and (value & (value - 1)) == 0


@dataclass(frozen=True)
class MemoryTimingConfig:
    """Timing and geometry of one memory technology (Table I, memory half).

    All ``t_*`` values are in native memory-clock cycles (1 GHz), exactly as
    printed in Table I; the device model converts to CPU cycles.
    """

    name: str
    capacity_bytes: Bytes
    channels: int
    ranks_per_channel: int
    banks_per_rank: int
    t_cas: int
    t_rcd: int
    t_ras: int
    t_rp: int
    t_wr: int
    row_bytes: int = 2048
    #: Data-bus bytes per memory cycle; 64-bit DDR moves 16 B/cycle.
    bus_bytes_per_cycle: int = 16

    def __post_init__(self) -> None:
        if self.capacity_bytes <= 0:
            raise ConfigError(f"{self.name}: capacity must be positive")
        if not _is_power_of_two(self.row_bytes):
            raise ConfigError(f"{self.name}: row_bytes must be a power of two")
        for label, value in (
            ("channels", self.channels),
            ("ranks_per_channel", self.ranks_per_channel),
            ("banks_per_rank", self.banks_per_rank),
        ):
            if value <= 0:
                raise ConfigError(f"{self.name}: {label} must be positive")

    @property
    def total_banks_per_channel(self) -> int:
        return self.ranks_per_channel * self.banks_per_rank

    @property
    def line_transfer_cycles(self) -> Cycles:
        """CPU cycles the data bus is busy moving one 64 B line."""
        mem_cycles = max(1, 64 // self.bus_bytes_per_cycle)
        return mem_cycles * CYCLES_PER_MEMORY_CYCLE

    def read_latency_cycles(self, row_hit: bool, row_conflict: bool) -> Cycles:
        """CPU cycles from command issue to first data for a read."""
        cycles = self.t_cas
        if not row_hit:
            cycles += self.t_rcd
            if row_conflict:
                cycles += self.t_rp
        return cycles * CYCLES_PER_MEMORY_CYCLE

    def write_recovery_cycles(self) -> Cycles:
        """Extra CPU cycles a bank stays busy after a write (t_WR)."""
        return self.t_wr * CYCLES_PER_MEMORY_CYCLE

    def scaled(self, scale: int) -> "MemoryTimingConfig":
        """Return a copy with capacity divided by *scale* (timing unchanged)."""
        if scale <= 0:
            raise ConfigError("scale must be positive")
        return replace(self, capacity_bytes=max(self.row_bytes, self.capacity_bytes // scale))


def dram_timing_table1(capacity_bytes: int = 512 * MB) -> MemoryTimingConfig:
    """DRAM half of Table I: 512 MB, 4 channels, 1 rank, 8 banks."""
    return MemoryTimingConfig(
        name="dram",
        capacity_bytes=capacity_bytes,
        channels=4,
        ranks_per_channel=1,
        banks_per_rank=8,
        t_cas=11,
        t_rcd=11,
        t_ras=28,
        t_rp=11,
        t_wr=12,
    )


def nvm_timing_table1(capacity_bytes: int = 4 * GB) -> MemoryTimingConfig:
    """NVM half of Table I: 4 GB, 2 channels, 2 ranks, 8 banks.

    The row buffer is 256 B: PCM-class devices use much narrower sense
    arrays than DRAM (Lee et al., ISCA'09), so sequential NVM traffic pays
    t_RCD every few lines instead of streaming a 2 KB open row — one of the
    asymmetries that makes moving hot pages to DRAM worthwhile.
    """
    return MemoryTimingConfig(
        name="nvm",
        capacity_bytes=capacity_bytes,
        channels=2,
        ranks_per_channel=2,
        banks_per_rank=8,
        t_cas=11,
        t_rcd=58,
        t_ras=80,
        t_rp=11,
        t_wr=180,
        row_bytes=256,
    )


@dataclass(frozen=True)
class CacheConfig:
    """One level of the data-cache hierarchy (Table I)."""

    name: str
    size_bytes: int
    ways: int
    latency_cycles: int
    line_bytes: int = 64

    def __post_init__(self) -> None:
        if self.size_bytes % (self.ways * self.line_bytes) != 0:
            raise ConfigError(
                f"{self.name}: size {self.size_bytes} not divisible by "
                f"ways*line ({self.ways}*{self.line_bytes})"
            )
        if self.num_sets < 1:
            raise ConfigError(f"{self.name}: needs at least one set")

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.ways * self.line_bytes)


@dataclass(frozen=True)
class TlbConfig:
    """One TLB level (Table I)."""

    name: str
    entries: int
    ways: int
    latency_cycles: int

    def __post_init__(self) -> None:
        if self.entries % self.ways != 0:
            raise ConfigError(f"{self.name}: entries must be divisible by ways")

    @property
    def num_sets(self) -> int:
        return self.entries // self.ways


@dataclass(frozen=True)
class CoreConfig:
    """Analytic core model parameters.

    The paper simulates 4 out-of-order cores at 2 GHz.  We approximate a
    core by a fixed base CPI on non-miss work plus memory stall cycles
    divided by an MLP (memory-level-parallelism) factor, which stands in for
    the out-of-order window's ability to overlap misses.
    """

    base_cpi: float = 0.5
    memory_level_parallelism: float = 2.0

    def __post_init__(self) -> None:
        if self.base_cpi <= 0 or self.memory_level_parallelism <= 0:
            raise ConfigError("core parameters must be positive")


@dataclass(frozen=True)
class HybridMemoryConfig:
    """The flat DRAM+NVM physical address space.

    DRAM occupies physical pages ``[0, dram_pages)`` and NVM occupies
    ``[dram_pages, dram_pages + nvm_pages)``, mirroring a flat address map.
    """

    dram: MemoryTimingConfig
    nvm: MemoryTimingConfig

    @property
    def dram_pages(self) -> int:
        return self.dram.capacity_bytes // 4096

    @property
    def nvm_pages(self) -> int:
        return self.nvm.capacity_bytes // 4096

    @property
    def total_pages(self) -> int:
        return self.dram_pages + self.nvm_pages

    def is_dram_page(self, ppn: int) -> bool:
        """True if physical page *ppn* lies in the DRAM address range."""
        return 0 <= ppn < self.dram_pages

    def is_nvm_page(self, ppn: int) -> bool:
        """True if physical page *ppn* lies in the NVM address range."""
        return self.dram_pages <= ppn < self.total_pages


@dataclass(frozen=True)
class PageSeerConfig:
    """Table II: every PageSeer design parameter.

    Entry counts follow Table II's structure sizes divided by its entry
    sizes (PRTc 32 KB / 3.5 B, PCTc 32 KB / 10.5 B, HPT 5.3 KB / 5.25 B,
    Filter 2.2 KB / 17.25 B), rounded to powers of two where the structure
    is set-associative.
    """

    #: LLC misses per invocation before a PCTc entry triggers a prefetch swap.
    pct_prefetch_threshold: int = 14
    #: NVM HPT count that triggers a regular swap.
    hpt_swap_threshold: int = 6
    #: CPU cycles between automatic halvings of HPT counters
    #: (50 K cycles at 1 GHz = 100 K CPU cycles).
    hpt_decay_interval_cycles: int = 100_000
    #: Saturating counter width used throughout (Table II: 6 bits).
    counter_bits: int = 6
    #: MMU-to-HMC hint latency (2 CPU cycles at 2 GHz).
    mmu_hint_latency_cycles: int = 2
    #: The in-DRAM PRT's set associativity (Table II: 4-way); this fixes the
    #: number of cache colours to ``dram_pages / prt_ways``.
    prt_ways: int = 4
    #: PRTc geometry (32 KB / 3.5 B per entry ~= 9362 -> 8192 entries).
    prtc_entries: int = 8192
    prtc_ways: int = 4
    #: PRTc access latency, 1 cycle at 1 GHz.
    prtc_latency_cycles: int = 2
    #: PCTc geometry (32 KB / 10.5 B per entry ~= 3120 -> 3072 entries).
    pctc_entries: int = 3072
    pctc_ways: int = 4
    pctc_latency_cycles: int = 2
    #: HPT geometry (5.3 KB / 5.25 B per entry ~= 1034 -> 1024), per table.
    hpt_entries: int = 1024
    hpt_latency_cycles: int = 8
    #: Filter geometry (2.2 KB / 17.25 B per entry ~= 130 -> 128 entries).
    filter_entries: int = 128
    filter_latency_cycles: int = 4
    #: PTE lines cached in the MMU Driver (Section IV-B: 16 lines).
    mmu_driver_pte_lines: int = 16
    #: Swap buffers available in each memory module.
    swap_buffers: int = 24
    #: Concurrent swap operations the Swap Driver sustains; further swap
    #: requests are declined (not queued), which keeps swap latency within
    #: a page flurry.
    swap_engines: int = 3
    #: Swap Driver heuristic: decline swaps while DRAM has served more than
    #: this fraction of main-memory requests (Section V-B: 95%).
    bandwidth_decline_dram_share: float = 0.95
    #: Enable the bandwidth heuristic at all (Figure 11 ablation).
    bandwidth_heuristic_enabled: bool = True
    #: Follower (correlation) prefetching enabled; False = PageSeer-NoCorr.
    correlation_enabled: bool = True
    #: MMU hints enabled; False disables MMU-triggered prefetch swaps.
    mmu_hints_enabled: bool = True
    #: SILC-FM-style partial swaps (Section VI): move only the lines the
    #: page's observed bitmap marks hot; cold lines migrate lazily on
    #: first touch.  Off by default — it is the paper's suggested
    #: extension, not part of baseline PageSeer.
    partial_swaps_enabled: bool = False
    #: A page whose bitmap marks at least this many lines is moved whole
    #: (the bitmap saves nothing for dense pages).
    partial_swap_full_threshold: int = 48

    @property
    def counter_max(self) -> int:
        return (1 << self.counter_bits) - 1

    def scaled(self, scale: int) -> "PageSeerConfig":
        """Shrink table entry counts by *scale*, keeping thresholds/timing."""
        if scale <= 0:
            raise ConfigError("scale must be positive")

        def shrink(entries: int, minimum: int) -> int:
            return max(minimum, entries // scale)

        return replace(
            self,
            prtc_entries=shrink(self.prtc_entries, 4 * self.prtc_ways),
            pctc_entries=shrink(self.pctc_entries, 4 * self.pctc_ways),
            hpt_entries=shrink(self.hpt_entries, 16),
            filter_entries=shrink(self.filter_entries, 8),
        )


@dataclass(frozen=True)
class PomConfig:
    """PoM baseline parameters (Section IV-B).

    2 KB segments, direct-mapped swap groups, swaps triggered when a slow
    segment accumulates ``swap_threshold`` accesses (the paper adjusts PoM's
    K to 12 for its memory timing), fast swaps, and a 32 KB SRC remap cache.
    """

    segment_bytes: int = 2048
    swap_threshold: int = 12
    #: SRC entries: 32 KB at ~4 B per entry.
    src_entries: int = 8192
    src_ways: int = 4
    src_latency_cycles: int = 2
    #: Counter decay interval so thresholds adapt to phases.
    counter_decay_interval_cycles: int = 100_000
    #: PoM's adaptive-threshold mechanism (the original paper adapts the
    #: swap threshold to the program; Section IV-B of PageSeer pins K=12
    #: for its evaluation, so this is opt-in).  When enabled, the
    #: threshold moves within [threshold_min, threshold_max] every decay
    #: interval based on how well recent swaps paid off.
    adaptive_threshold: bool = False
    threshold_min: int = 6
    threshold_max: int = 24
    #: Post-swap hits a segment must earn for its swap to count as useful.
    adaptive_benefit_hits: int = 16

    def scaled(self, scale: int) -> "PomConfig":
        return replace(self, src_entries=max(4 * self.src_ways, self.src_entries // scale))


@dataclass(frozen=True)
class MemPodConfig:
    """MemPod baseline parameters (Section IV-B).

    64 MEA counters per pod, migration decisions every 50 us (= 100 K CPU
    cycles), 2 KB segments, a 32 KB remap cache, and a zero-latency inverted
    map (the paper's optimistic assumption).
    """

    segment_bytes: int = 2048
    mea_counters: int = 64
    interval_cycles: int = 100_000
    pods: int = 2
    remap_cache_entries: int = 8192
    remap_cache_ways: int = 4
    remap_cache_latency_cycles: int = 2

    def scaled(self, scale: int) -> "MemPodConfig":
        return replace(
            self,
            remap_cache_entries=max(
                4 * self.remap_cache_ways, self.remap_cache_entries // scale
            ),
        )


#: Valid sanitizer levels, in increasing strictness/cost.
CHECK_LEVELS = ("off", "invariants", "full")


@dataclass(frozen=True)
class CheckConfig:
    """The simulation sanitizer (``repro.check``): what to verify at runtime.

    * ``off`` — no checking at all; the hot path is left untouched (no
      wrapper, no per-access callbacks).
    * ``invariants`` — structural invariant sweeps (PRT bijectivity, frame
      exclusivity, swap-buffer conservation, counter monotonicity, stats
      sanity) every ``interval_ops`` controller requests and once at the
      end of the run.
    * ``full`` — ``invariants`` plus the shadow functional reference
      model: a zero-timing oracle replays every swap event and every
      access is cross-checked against the physical page it must resolve
      to.
    """

    level: str = "off"
    #: Controller requests between two invariant sweeps.
    interval_ops: int = 256
    #: Raise on the first violation (False: collect, raise at finalize).
    fail_fast: bool = True

    def __post_init__(self) -> None:
        if self.level not in CHECK_LEVELS:
            raise ConfigError(
                f"unknown check level {self.level!r}; pick from {CHECK_LEVELS}"
            )
        if self.interval_ops <= 0:
            raise ConfigError("check interval_ops must be positive")

    @property
    def enabled(self) -> bool:
        return self.level != "off"

    @property
    def shadow_enabled(self) -> bool:
        return self.level == "full"


@dataclass(frozen=True)
class FaultConfig:
    """Deterministic fault injection (``repro.faults``): what breaks, and how
    the recovery machinery responds.

    All rates are per-event probabilities drawn from named
    :class:`repro.common.rng.DeterministicRng` streams seeded by
    ``fault_seed``, so a given (config, workload, seed) triple always
    injects the identical fault schedule.  With ``enabled`` False the
    injector is never constructed and the simulator's hot path is untouched.
    """

    enabled: bool = False
    #: Seed for every fault-schedule RNG stream (independent of the
    #: simulation seed so fault schedules can be varied per run).
    fault_seed: int = 0
    # -- device-layer fault rates -----------------------------------------
    #: Probability that a demand read of a (previously good) NVM page hits a
    #: fresh uncorrectable error.  Once a page goes bad it stays bad.
    nvm_uncorrectable_rate: float = 0.0
    #: Probability that any single device access faults transiently.
    transient_rate: float = 0.0
    #: Probability that a bulk page/segment transfer dies mid-flight.
    transfer_fault_rate: float = 0.0
    # -- recovery knobs -----------------------------------------------------
    #: Bounded retry budget for transient faults (per access / per swap).
    max_retries: int = 3
    #: Base backoff added to the retry issue time; doubles per attempt.
    retry_backoff_cycles: Cycles = 200
    #: Latency of a degraded service (ECC heroics / firmware-level rebuild)
    #: when retries are exhausted or a read is uncorrectable.
    recovery_read_cycles: Cycles = 2000
    # -- infrastructure-layer (sweep runner) fault rates --------------------
    #: Probability a sweep worker crashes before simulating its request.
    worker_crash_rate: float = 0.0
    #: Probability a sweep worker stalls for ``worker_stall_seconds``.
    worker_stall_rate: float = 0.0
    worker_stall_seconds: float = 0.0

    def __post_init__(self) -> None:
        for label, rate in (
            ("nvm_uncorrectable_rate", self.nvm_uncorrectable_rate),
            ("transient_rate", self.transient_rate),
            ("transfer_fault_rate", self.transfer_fault_rate),
            ("worker_crash_rate", self.worker_crash_rate),
            ("worker_stall_rate", self.worker_stall_rate),
        ):
            if not 0.0 <= rate <= 1.0:
                raise ConfigError(f"{label} must be within [0, 1], got {rate}")
        if self.max_retries < 0:
            raise ConfigError("max_retries must be non-negative")
        if self.retry_backoff_cycles <= 0:
            raise ConfigError("retry_backoff_cycles must be positive")
        if self.recovery_read_cycles <= 0:
            raise ConfigError("recovery_read_cycles must be positive")
        if self.worker_stall_seconds < 0:
            raise ConfigError("worker_stall_seconds must be non-negative")


@dataclass(frozen=True)
class SystemConfig:
    """Everything needed to build one simulated system."""

    cores: int = 4
    l1: CacheConfig = field(
        default_factory=lambda: CacheConfig("l1", 32 * KB, 8, 2)
    )
    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig("l2", 256 * KB, 8, 8)
    )
    l3: CacheConfig = field(
        default_factory=lambda: CacheConfig("l3", 8 * MB, 16, 32)
    )
    l1_tlb: TlbConfig = field(
        default_factory=lambda: TlbConfig("l1tlb", 64, 4, 1)
    )
    l2_tlb: TlbConfig = field(
        default_factory=lambda: TlbConfig("l2tlb", 1024, 4, 10)
    )
    #: Page-walk cache entries per level (PGD/PUD/PMD), per core.
    pwc_entries_per_level: int = 16
    pwc_latency_cycles: int = 2
    core: CoreConfig = field(default_factory=CoreConfig)
    memory: HybridMemoryConfig = field(
        default_factory=lambda: HybridMemoryConfig(
            dram=dram_timing_table1(), nvm=nvm_timing_table1()
        )
    )
    pageseer: PageSeerConfig = field(default_factory=PageSeerConfig)
    pom: PomConfig = field(default_factory=PomConfig)
    mempod: MemPodConfig = field(default_factory=MemPodConfig)
    #: When False, channel/bank contention is ignored (Section V-A mode).
    model_contention: bool = True
    seed: int = 0
    #: Runtime sanitizer configuration (``repro.check``).
    check: CheckConfig = field(default_factory=CheckConfig)
    #: Fault injection + recovery configuration (``repro.faults``).
    faults: FaultConfig = field(default_factory=FaultConfig)

    def __post_init__(self) -> None:
        if self.cores <= 0:
            raise ConfigError("need at least one core")

    def with_cores(self, cores: int) -> "SystemConfig":
        """Return a copy running *cores* cores (Table III varies this)."""
        return replace(self, cores=cores)

    def scaled(self, scale: int) -> "SystemConfig":
        """Return a coherently scaled-down copy (see module docstring).

        Memory capacities and hardware tables shrink by the full factor.
        Caches and TLBs shrink by *damped* factors: the quantities that
        drive the paper's results are ratios (footprint versus cache reach,
        footprint versus TLB reach), and those ratios are preserved well
        enough with milder cache scaling while keeping each level a
        sensible set-associative geometry.
        """
        if scale <= 0:
            raise ConfigError("scale must be positive")

        def shrink_cache(cache: CacheConfig, factor: int, floor: int) -> CacheConfig:
            size = max(floor, cache.size_bytes // factor)
            ways = cache.ways
            while size % (ways * cache.line_bytes) != 0 and ways > 1:
                ways //= 2
            return CacheConfig(cache.name, size, ways, cache.latency_cycles)

        def shrink_tlb(tlb: TlbConfig, factor: int, floor: int) -> TlbConfig:
            entries = max(floor, tlb.entries // factor)
            ways = tlb.ways
            while entries % ways != 0 and ways > 1:
                ways //= 2
            return TlbConfig(tlb.name, entries, ways, tlb.latency_cycles)

        tlb_scale = max(1, min(scale // 16, 16))
        return replace(
            self,
            memory=HybridMemoryConfig(
                dram=self.memory.dram.scaled(scale),
                nvm=self.memory.nvm.scaled(scale),
            ),
            l1=shrink_cache(self.l1, min(scale, 16), 2 * KB),
            l2=shrink_cache(self.l2, min(scale, 32), 8 * KB),
            l3=shrink_cache(self.l3, scale, 32 * KB),
            l1_tlb=shrink_tlb(self.l1_tlb, tlb_scale, 4),
            l2_tlb=shrink_tlb(self.l2_tlb, tlb_scale, 32),
            pwc_entries_per_level=max(2, self.pwc_entries_per_level // tlb_scale),
            pageseer=self.pageseer.scaled(scale),
            pom=self.pom.scaled(scale),
            mempod=self.mempod.scaled(scale),
        )


def default_system_config(
    scale: int = 64, cores: int = 4, seed: int = 0, model_contention: bool = True
) -> SystemConfig:
    """Return the Table I system, optionally scaled down by *scale*."""
    config = SystemConfig(cores=cores, seed=seed, model_contention=model_contention)
    if scale != 1:
        config = config.scaled(scale)
    return replace(config, seed=seed, model_contention=model_contention)
