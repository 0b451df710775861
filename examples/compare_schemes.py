#!/usr/bin/env python3
"""Compare PageSeer against PoM, MemPod, and a no-swap reference.

Usage::

    python examples/compare_schemes.py [--workloads lbmx4 milcx4] [--scale 512]

Reproduces the paper's headline comparison (Figure 14's shape) on a chosen
set of workloads: PageSeer should deliver the highest IPC and lowest AMMAT
of the three managed schemes, with the largest share of requests serviced
from DRAM or the swap buffers (``fast_share%``).  The sizing defaults to
the experiment runner's paper sizing.
"""

import argparse

from repro.analysis.compare import compare_schemes, comparison_table
from repro.experiments import DEFAULT_MEASURE_OPS, DEFAULT_SCALE, DEFAULT_WARMUP_OPS


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workloads", nargs="+", default=["lbmx4", "milcx4"])
    parser.add_argument("--scale", type=int, default=DEFAULT_SCALE)
    parser.add_argument("--measure-ops", type=int, default=DEFAULT_MEASURE_OPS)
    parser.add_argument("--warmup-ops", type=int, default=DEFAULT_WARMUP_OPS)
    args = parser.parse_args()

    rows = compare_schemes(
        args.workloads,
        scale=args.scale,
        measure_ops=args.measure_ops,
        warmup_ops=args.warmup_ops,
    )
    print(comparison_table(rows).render())


if __name__ == "__main__":
    main()
