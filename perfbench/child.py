"""One benchmark pass, run in its own process by ``perfbench/run.py``.

Usage (the parent sets ``PYTHONPATH`` to the checkout's ``src``)::

    python3 perfbench/child.py --workload job_lbm --seed 0 --workdir DIR \
        [--trace] [--setup-only] [--sizing paper|tiny]

The pass imports the simulator, builds the workload's first ``System``
(set-up ends there), runs the workload's jobs into ``DIR/cache`` (which
must be empty) and writes ``DIR/record.json``.  All timestamps are
``time.monotonic()`` values, a clock shared with the parent process on
Linux, so the parent can time set-up from its own launch stamp.

The host-speed sampler (:mod:`hostspeed`) runs from the start of
``main`` to the end of the pass; its samples go into the record so the parent can
read every interval at the reference host speed.

Untraced passes hook exactly two points per job: entry to
``StatsRegistry.reset()`` (the warm-up/measure boundary) and entry to the
controller's ``finalize()`` (the end of the measured window).  Traced
passes additionally wrap each layer's public functions in spans (see
:mod:`tracer`).
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import re
import resource
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from hostspeed import Sampler
from tracer import SpanTracer, install_stamp
from workloads import SIZINGS, WORKLOADS

#: Cache file stem -> job id: ``v3_pageseer_lbmx4_default_s512_..._seed0``
#: becomes ``pageseer_lbmx4_default``.
_JOB_ID = re.compile(r"^v\d+_(?P<job>.+)_s\d+_m\d+_w\d+_seed\d+$")

#: Raw stats counters summed into the ``model.*`` metrics.
_RAW_SUMS = {
    "model.walks": "walk/walks",
    "model.l3_hits": "cache/l3_hits",
    "model.llc_misses": "cache/llc_misses",
    "model.hmc_requests_demand": "hmc/requests_demand",
    "model.hmc_requests_writeback": "hmc/requests_writeback",
    "model.hmc_requests_pte": "hmc/requests_pte",
}


def payload_digest(payload: Dict[str, Any]) -> str:
    """Digest of a persisted ``RunMetrics`` payload (stamp excluded)."""
    from repro import persist

    body = {k: v for k, v in payload.items() if k != persist.PERSIST_KEY}
    material = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(material.encode("utf-8")).hexdigest()[:16]


def model_summary(payloads: List[Dict[str, Any]], raws: List[Dict[str, float]]) -> Dict[str, float]:
    """Simulated quantities of one pass, summed or averaged over its jobs."""
    def total(field: str) -> float:
        return float(sum(p[field] for p in payloads))

    def mean(values: List[float]) -> float:
        return sum(values) / len(values) if values else 0.0

    serviced = total("serviced_dram") + total("serviced_nvm") + total("serviced_buffer")
    prefetches = total("prefetch_accurate") + total("prefetch_inaccurate")
    summary = {
        "model.ipc": mean([p["ipc"] for p in payloads]),
        "model.ammat_cycles": mean([p["ammat"] for p in payloads]),
        "model.tlb_misses": total("tlb_misses"),
        "model.remap_misses": total("remap_misses"),
        "model.remap_wait_cycles": total("remap_wait_cycles"),
        "model.swaps": total("swaps_total"),
        "model.swaps_mmu": total("swaps_mmu"),
        "model.swaps_pct": total("swaps_pct"),
        "model.prefetch_accuracy": total("prefetch_accurate") / prefetches if prefetches else 0.0,
        "model.dram_share": total("serviced_dram") / serviced if serviced else 0.0,
        "model.buffer_share": total("serviced_buffer") / serviced if serviced else 0.0,
        "model.mmu_driver_hit_rate": mean(
            [p["mmu_driver_hit_rate"] for p in payloads if p["scheme"] == "pageseer"]
        ),
    }
    for metric, key in _RAW_SUMS.items():
        summary[metric] = float(sum(raw.get(key, 0.0) for raw in raws))
    return dict(sorted(summary.items()))


def install_layer_spans(tracer: SpanTracer, on_persisted: Callable) -> None:
    """Wrap every layer's public functions at class level (before any build)."""
    from repro import persist
    from repro.cache.hierarchy import CacheHierarchy
    from repro.core.swap_driver import SwapDriver
    from repro.experiments import report
    from repro.experiments.runner import ExperimentRunner
    from repro.mem.device import MemoryDevice
    from repro.sim.cpu import Core
    from repro.sim.hmc_base import HmcBase
    from repro.sim.system import SCHEMES, System
    from repro.snapshot.stream import ReplayStream
    from repro.vm.mmu import Mmu
    from repro.vm.walker import PageWalker

    spans = [
        (System, "run", "sim.run", _count(tracer, "sim.ops", _ops_executed)),
        (Core, "execute", "sim.execute", None),
        (ReplayStream, "peek_chunk", "stream.peek", None),
        (ReplayStream, "advance", "stream.advance",
         _count(tracer, "stream.advanced_ops", lambda args: args[1])),
        (Mmu, "translate", "vm.translate", None),
        (PageWalker, "walk", "vm.walk", None),
        (CacheHierarchy, "access", "cache.access", None),
        (SwapDriver, "request_swap", "swap.request", None),
        (SwapDriver, "service_if_swapping", "swap.service", None),
        (SwapDriver, "rescue_swap", "swap.rescue", None),
        (MemoryDevice, "access_finish", "mem.access_finish", None),
        (MemoryDevice, "access", "mem.access", None),
        (MemoryDevice, "transfer_page", "mem.transfer", None),
        (ExperimentRunner, "run", "exec.run", None),
        (report, "generate_report", "exec.report", None),
        (persist, "write_json", "persist.write", on_persisted),
        (persist, "read_json", "persist.read", None),
    ]
    controllers = [HmcBase, *SCHEMES.values()]
    for attr, name in (
        ("handle_request", "hmc.request"),
        ("handle_pte_fetch", "hmc.pte_fetch"),
        ("mmu_hint", "hmc.mmu_hint"),
        ("finalize", "hmc.finalize"),
    ):
        # Only classes that define the method themselves: wrapping an
        # inherited one would time the same call twice.
        spans.extend(
            (cls, attr, name, None) for cls in dict.fromkeys(controllers)
            if attr in cls.__dict__
        )
    for owner, attr, name, observe in spans:
        tracer.install(owner, attr, name, observe)


def _ops_executed(args: tuple) -> int:
    """Ops a finished ``System.run`` executed, warm-up included."""
    return sum(core.ops_executed for core in args[0].cores)


def _count(tracer: SpanTracer, name: str, amount: Callable[[tuple], float]) -> Callable:
    """An observer adding ``amount(args)`` to ``tracer.counts[name]``."""
    counts = tracer.counts
    counts[name] = 0

    def observe(args: tuple, result: Any) -> None:
        counts[name] += amount(args)

    return observe


def run_pass(workload_name: str, seed: int, workdir: Path, *, traced: bool = False,
             setup_only: bool = False, sizing_name: str = "paper") -> Dict[str, Any]:
    """Run one pass and return its record (see the module docstring)."""
    workload = WORKLOADS[workload_name]
    sizing = SIZINGS[sizing_name]
    cache_dir = workdir / "cache"
    cache_dir.mkdir(parents=True, exist_ok=True)
    if any(cache_dir.iterdir()):
        raise RuntimeError(f"{cache_dir} is not empty: the pass would time cache reads")

    import repro  # noqa: F401  (numpy comes with it)
    for module in workload.imports:
        importlib.import_module(module)
    from repro.common.stats import StatsRegistry
    from repro.experiments.runner import VARIANTS
    from repro.sim.hmc_base import HmcBase
    from repro.sim.system import SCHEMES, build_system
    from repro.workloads import workload_by_name

    t_imported = time.monotonic()
    resets: List[float] = []
    finalizes: List[float] = []
    cores: List[int] = []
    registries: List[Any] = []

    def on_finalize(hmc: Any) -> None:
        finalizes.append(time.monotonic())
        cores.append(hmc.config.cores)
        registries.append(hmc.stats)

    undo = [install_stamp(StatsRegistry, "reset", lambda _: resets.append(time.monotonic()))]
    undo.extend(
        install_stamp(cls, "finalize", on_finalize)
        for cls in dict.fromkeys([HmcBase, *SCHEMES.values()])
        if "finalize" in cls.__dict__
    )
    tracer = None
    run_starts: List[float] = []
    persisted: List[float] = []
    if traced:
        from repro.sim.system import System

        undo.append(install_stamp(System, "run", lambda _: run_starts.append(time.monotonic())))
        tracer = SpanTracer()
        install_layer_spans(
            tracer, on_persisted=lambda args, result: persisted.append(time.monotonic())
        )
    try:
        scheme, probe_workload = workload.probe
        build_system(scheme, workload_by_name(probe_workload), scale=sizing["scale"],
                     seed=seed, config_mutator=VARIANTS["default"])
        t_built = time.monotonic()
        record: Dict[str, Any] = {"t_imported": t_imported, "t_built": t_built}
        if setup_only:
            return record
        workload.run_jobs(cache_dir, workdir, seed, sizing)
        t_end = time.monotonic()
    finally:
        if tracer is not None:
            tracer.uninstall()
        for restore in reversed(undo):
            restore()

    from repro import persist

    jobs: Dict[str, Dict[str, Any]] = {}
    payloads = []
    for path in sorted(cache_dir.glob("*.json")):
        match = _JOB_ID.match(path.stem)
        job = match.group("job") if match else path.stem
        payload = persist.read_json(path, site="cache")
        payloads.append(payload)
        jobs[job] = {
            "digest": payload_digest(payload),
            "instructions": payload["instructions"],
            "ipc": payload["ipc"],
            "cycles": payload["cycles"],
            "serviced": payload["serviced_dram"] + payload["serviced_nvm"]
            + payload["serviced_buffer"],
            "classified": payload["positive_accesses"] + payload["negative_accesses"]
            + payload["neutral_accesses"],
        }
    record.update({
        "t_end": t_end,
        "resets": resets,
        "finalizes": finalizes,
        "measured_ops": sum(cores) * sizing["measure_ops"],
        "jobs": jobs,
        "model": model_summary(payloads, [registry.as_dict() for registry in registries]),
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    if tracer is not None:
        record["trace"] = tracer.table()
        record["run_starts"] = run_starts
        record["persisted"] = persisted
    return record


def main(argv: Optional[List[str]] = None) -> int:
    sampler = Sampler()
    sampler.start()  # before the simulator's imports, which set-up times
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--sizing", choices=sorted(SIZINGS), default="paper")
    args = parser.parse_args(argv)
    record = run_pass(args.workload, args.seed, args.workdir, traced=args.trace,
                      setup_only=args.setup_only, sizing_name=args.sizing)
    sampler.stop()
    record["samples"] = sampler.samples
    (args.workdir / "record.json").write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
