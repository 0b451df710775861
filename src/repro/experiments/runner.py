"""Experiment execution with an on-disk result cache.

Figures 7, 8, 10, 13, and 14 all consume the same PoM / MemPod / PageSeer
runs over the 26 workloads; Figure 11 adds a no-bandwidth-heuristic
variant and Section V-C a no-correlation variant.  The runner executes
each distinct (scheme, workload, variant, sizing) combination once and
caches the resulting metrics as JSON keyed by every input that affects
the outcome, including a cache version bumped on model changes.

The sweep path degrades gracefully rather than abandoning work
(``docs/FAULTS.md``): cache writes are atomic, torn or stale cache files
are treated as misses, and a parallel sweep runs on the ``sweepd`` fleet
(:mod:`repro.sweepd.fleet`), which retries failed or hung workers with
backoff and caches every completed result even when the sweep as a
whole raises :class:`repro.common.errors.SweepError`.
"""

from __future__ import annotations

import dataclasses
import gc
import os
import tempfile
import warnings
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro import persist
from repro.common.config import FaultConfig, SystemConfig
from repro.common.errors import PersistError, SweepError
from repro.sim.metrics import RunMetrics
from repro.sim.system import build_system
from repro.workloads import all_workloads, workload_by_name

#: Bump when a simulator change invalidates cached results.
CACHE_VERSION = 3

DEFAULT_SCALE = 512
#: The warm-up must cover the longest workload's first full sweep
#: (fft: ~384 pages x 64 lines = ~25K ops/core) so the PCT has history
#: when measurement starts — mirroring the paper's 1.5B-instruction warm-up.
DEFAULT_MEASURE_OPS = 10_000
DEFAULT_WARMUP_OPS = 26_000


def _variant_default(config: SystemConfig) -> SystemConfig:
    return config


def _pageseer_variant(**changes) -> Callable[[SystemConfig], SystemConfig]:
    """A variant that changes PageSeer's Table II knobs by *changes*."""

    def mutate(config: SystemConfig) -> SystemConfig:
        return dataclasses.replace(
            config, pageseer=dataclasses.replace(config.pageseer, **changes)
        )

    return mutate


def _dram_capacity_variant(multiplier: int) -> Callable[[SystemConfig], SystemConfig]:
    """A variant with *multiplier* times the DRAM capacity (NVM fixed)."""

    def mutate(config: SystemConfig) -> SystemConfig:
        dram = dataclasses.replace(
            config.memory.dram,
            capacity_bytes=config.memory.dram.capacity_bytes * multiplier,
        )
        return dataclasses.replace(
            config, memory=dataclasses.replace(config.memory, dram=dram)
        )

    return mutate


#: Every named config variant, defined here so that each consumer — the
#: CLI's ``--variant`` choices, sweep jobs, the experiments — sees the same
#: table whatever it imported first.
VARIANTS: Dict[str, Callable[[SystemConfig], SystemConfig]] = {
    "default": _variant_default,
    # PageSeer-NoCorr (Section V-C): PCTc entries carry no follower info.
    "nocorr": _pageseer_variant(correlation_enabled=False),
    # PageSeer w/o BW-opt (Figure 11): Swap Driver heuristic disabled.
    "nobw": _pageseer_variant(bandwidth_heuristic_enabled=False),
    # PageSeer without the MMU signal (ablation benches).
    "nohints": _pageseer_variant(mmu_hints_enabled=False),
    # SILC-FM-style partial swaps, the Section VI extension
    # (experiments/ablation_partial.py).
    "partial": _pageseer_variant(partial_swaps_enabled=True),
    # Table II sensitivity sweep (experiments/sensitivity.py; the middle
    # value of each knob is the paper's).
    "sens_pct_prefetch_threshold_7": _pageseer_variant(pct_prefetch_threshold=7),
    "sens_pct_prefetch_threshold_14": _pageseer_variant(pct_prefetch_threshold=14),
    "sens_pct_prefetch_threshold_28": _pageseer_variant(pct_prefetch_threshold=28),
    "sens_hpt_swap_threshold_3": _pageseer_variant(hpt_swap_threshold=3),
    "sens_hpt_swap_threshold_6": _pageseer_variant(hpt_swap_threshold=6),
    "sens_hpt_swap_threshold_12": _pageseer_variant(hpt_swap_threshold=12),
    "sens_swap_engines_1": _pageseer_variant(swap_engines=1),
    "sens_swap_engines_3": _pageseer_variant(swap_engines=3),
    "sens_swap_engines_6": _pageseer_variant(swap_engines=6),
    "sens_prt_ways_2": _pageseer_variant(prt_ways=2),
    "sens_prt_ways_4": _pageseer_variant(prt_ways=4),
    "sens_prt_ways_8": _pageseer_variant(prt_ways=8),
    # DRAM-capacity crossover (experiments/dram_capacity.py).
    "dramcap_x1": _dram_capacity_variant(1),
    "dramcap_x2": _dram_capacity_variant(2),
    "dramcap_x4": _dram_capacity_variant(4),
    "dramcap_x8": _dram_capacity_variant(8),
}

#: RunMetrics fields persisted in the cache (``raw`` is dropped: it is
#: large and only useful interactively).
_METRIC_FIELDS = [
    field.name for field in dataclasses.fields(RunMetrics) if field.name != "raw"
]


class ExperimentRunner:
    """Runs (scheme, workload, variant) simulations with caching."""

    def __init__(
        self,
        scale: int = DEFAULT_SCALE,
        measure_ops: int = DEFAULT_MEASURE_OPS,
        warmup_ops: int = DEFAULT_WARMUP_OPS,
        seed: int = 0,
        cache_dir: Optional[Path] = None,
        verbose: bool = False,
        workloads: Optional[List[str]] = None,
        worker_check_level: str = "full",
        faults: Optional[FaultConfig] = None,
        max_attempts: int = 3,
    ):
        self.scale = scale
        self.measure_ops = measure_ops
        self.warmup_ops = warmup_ops
        self.seed = seed
        self.verbose = verbose
        #: Fault-injection configuration threaded into every simulation
        #: (device faults) and into the sweep workers themselves (crash /
        #: stall injection).  None or ``enabled=False`` costs nothing.
        self.faults = faults
        #: Total leases per request on the sweep fleet for *retryable*
        #: failures (injected worker faults, expired leases); genuine
        #: simulator bugs quarantine at once.
        self.max_attempts = max(1, max_attempts)
        #: Sanitizer level for sweep workers.  Sweep runs are where silent
        #: model corruption would quietly poison every figure, and the
        #: checking cost hides behind process-level parallelism — so the
        #: worker path checks at "full" by default.  The serial paths stay
        #: unchecked; the sanitizer is metrics-neutral, so cached results
        #: agree regardless of which path produced them.
        self.worker_check_level = worker_check_level
        self._workloads = list(workloads) if workloads is not None else None
        if cache_dir is None:
            env = os.environ.get("REPRO_CACHE_DIR")
            cache_dir = Path(env) if env else Path(".repro_cache")
        self.cache_dir = Path(cache_dir)
        self._memory: Dict[str, RunMetrics] = {}

    # -- cache plumbing ------------------------------------------------------
    def _sizing(self) -> Tuple[int, int, int, int, str]:
        return (
            self.scale, self.measure_ops, self.warmup_ops, self.seed,
            self.worker_check_level,
        )

    def _key(self, scheme: str, workload: str, variant: str) -> str:
        from repro.experiments.jobcore import cache_key

        return cache_key((scheme, workload, variant), self._sizing(), self.faults)

    def _cache_path(self, key: str) -> Path:
        return self.cache_dir / f"{key}.json"

    def _load(self, key: str) -> Optional[RunMetrics]:
        if key in self._memory:
            return self._memory[key]
        path = self._cache_path(key)
        if not path.exists():
            return None
        try:
            payload = persist.read_json(path, site="cache")
            metrics = RunMetrics(raw={}, **{k: payload[k] for k in _METRIC_FIELDS})
        except (PersistError, OSError, KeyError, TypeError) as exc:
            # A torn write from a killed process, a checksum failure
            # (bit-rot, a lying disk), a file from an older metrics
            # schema, or plain corruption: all are recoverable by
            # re-simulating, so warn and treat the entry as a miss.
            warnings.warn(
                f"unreadable cache entry {path.name} "
                f"({type(exc).__name__}: {exc}); treating as a cache miss",
                RuntimeWarning,
                stacklevel=2,
            )
            return None
        self._memory[key] = metrics
        return metrics

    def _store(self, key: str, metrics: RunMetrics) -> None:
        self._memory[key] = metrics
        payload = {name: getattr(metrics, name) for name in _METRIC_FIELDS}
        path = self._cache_path(key)
        try:
            # Atomic + checksummed: a crash mid-write can never leave a
            # torn JSON file behind, and a reader detects later bit-rot.
            persist.write_json(path, payload, site="cache")
        except PersistError as exc:
            # Losing one cache write costs a re-simulation on the next
            # run, never correctness — the in-memory copy above still
            # serves this process.
            warnings.warn(
                f"could not persist cache entry {path.name} ({exc}); "
                f"result kept in memory only",
                RuntimeWarning,
                stacklevel=2,
            )

    # -- execution --------------------------------------------------------------
    def run(
        self, scheme: str, workload_name: str, variant: str = "default"
    ) -> RunMetrics:
        """Run (or fetch from cache) one simulation and return its metrics."""
        key = self._key(scheme, workload_name, variant)
        cached = self._load(key)
        if cached is not None:
            return cached
        if self.verbose:
            print(f"[runner] simulating {scheme}/{workload_name}/{variant} ...")
        # A finished System is cyclic garbage (stats closures) that only a
        # full collection frees; free it before its successor allocates.
        gc.collect()
        system = build_system(
            scheme,
            workload_by_name(workload_name),
            scale=self.scale,
            seed=self.seed,
            config_mutator=VARIANTS[variant],
            faults=self.faults,
        )
        metrics = system.run(self.measure_ops, self.warmup_ops)
        self._store(key, metrics)
        return metrics

    def run_matrix(
        self,
        schemes: Iterable[str],
        workload_names: Optional[Iterable[str]] = None,
        variant: str = "default",
    ) -> Dict[str, Dict[str, RunMetrics]]:
        """Return ``{scheme: {workload: metrics}}`` over the workload list."""
        if workload_names is None:
            workload_names = self.workload_names()
        names = list(workload_names)
        return {
            scheme: {name: self.run(scheme, name, variant) for name in names}
            for scheme in schemes
        }

    def run_many(
        self,
        requests: Iterable[Tuple[str, str, str]],
        jobs: Optional[int] = None,
    ) -> Dict[Tuple[str, str, str], RunMetrics]:
        """Run many (scheme, workload, variant) triples, in parallel.

        Cached results are returned without spawning work.  ``jobs=1``
        runs the rest in order in this process (useful under debuggers;
        no worker faults are injected, as there is no worker to crash).
        Any other value runs them on a local ``sweepd`` fleet of ``jobs``
        workers (None: the CPU count) under a temporary service root —
        see :func:`repro.sweepd.fleet.run_distributed_sweep`: leases
        with deadlines, a SIGKILL for hung workers, resume from each
        job's checkpoint, backoff retries up to ``max_attempts``, and
        exactly-once aggregation into this runner's cache.

        Either way every completed result is cached before the closing
        :class:`repro.common.errors.SweepError` names each failed
        (scheme, workload, variant) and how many attempts it got.
        """
        requests = list(dict.fromkeys(requests))
        results: Dict[Tuple[str, str, str], RunMetrics] = {}
        pending = []
        for request in requests:
            cached = self._load(self._key(*request))
            if cached is not None:
                results[request] = cached
            else:
                pending.append(request)
        if not pending:
            return results
        if jobs == 1:
            failures: List[Tuple[Tuple[str, str, str], BaseException]] = []
            for request in pending:
                try:
                    results[request] = self.run(*request)
                except Exception as exc:
                    _annotate_failure(exc, request)
                    failures.append((request, exc))
            if failures:
                raise SweepError(failures)
            return results

        from repro.sweepd.fleet import run_distributed_sweep

        with tempfile.TemporaryDirectory(prefix="repro-sweep-") as root:
            swept, _ = run_distributed_sweep(
                self, pending, root, workers=jobs or os.cpu_count() or 1
            )
        results.update(swept)
        return results

    def prewarm(self, jobs: Optional[int] = None) -> None:
        """Populate the cache for every run ``report`` renders."""
        from repro.experiments.ablation_partial import WORKLOADS as PARTIAL_WORKLOADS

        requests: List[Tuple[str, str, str]] = []
        for name in self.workload_names():
            for scheme in ("pageseer", "pom", "mempod"):
                requests.append((scheme, name, "default"))
            requests.append(("pageseer", name, "nobw"))
            requests.append(("pageseer", name, "nocorr"))
            requests.append(("pageseer", name, "nohints"))
            if name in PARTIAL_WORKLOADS:
                requests.append(("pageseer", name, "partial"))
        self.run_many(requests, jobs=jobs)

    def workload_names(self) -> List[str]:
        """The workloads this runner covers (all 26 unless restricted)."""
        if self._workloads is not None:
            return list(self._workloads)
        return [spec.name for spec in all_workloads()]


def _annotate_failure(exc: BaseException, request: Tuple[str, str, str]) -> None:
    """Stamp the failing (scheme, workload, variant) onto the traceback.

    The note makes every rendered traceback of a serial sweep failure
    self-identifying.  ``add_note`` appeared in 3.11; older interpreters
    still get the names via SweepError's message.
    """
    note = f"while simulating {'/'.join(request)}"
    add_note = getattr(exc, "add_note", None)
    if add_note is not None:
        add_note(note)
