#!/usr/bin/env python3
"""Per-layer micro-benchmark of the cache layer: `cache.replay` per policy.

    PYTHONPATH=src python3 scripts/bench_layers.py --label after

Replays one seeded 100,000-request Zipf trace (alpha 0.8 over a 2000-service
catalog, the `cache-churn` workload's catalog) through every policy at
capacity 50 and 1000, five times each, the cells interleaved so that
a drift in host speed spreads over all of them. Each cell reports the median
nanoseconds per request and its miss count; `checksum` is the SHA-256 of
every cell's miss count, so two runs whose checksums differ did not replay
the same work and their times do not compare.

The result is stored under `--label` in `--out` (default `BENCH_layers.json`
at the repository root); runs under other labels in that file are kept, so
one file can hold a before and an after run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from cdnsim import CacheConfig, replay
from cdnsim.cache import POLICIES

ROOT = Path(__file__).resolve().parent.parent
TRACE_SEED = 2020
TRACE_LENGTH = 100_000
CATALOG = 2000
ALPHA = 0.8
CAPACITIES = (50, 1000)
REPEATS = 5


def zipf_trace(seed: int, length: int, universe: int, alpha: float) -> list[str]:
    rng = np.random.default_rng(seed)
    pmf = np.arange(1, universe + 1, dtype=float) ** -alpha
    pmf /= pmf.sum()
    return [f"s{i:04d}" for i in rng.choice(universe, size=length, p=pmf).tolist()]


def measure(trace: list[str], repeats: int) -> dict:
    cells = [(policy, capacity) for policy in POLICIES for capacity in CAPACITIES]
    seconds: dict[tuple[str, int], list[float]] = {cell: [] for cell in cells}
    misses: dict[tuple[str, int], int] = {}
    for _ in range(repeats):
        for policy, capacity in cells:
            config = CacheConfig(capacity, policy)
            start = time.perf_counter()
            stats = replay(trace, config)
            seconds[policy, capacity].append(time.perf_counter() - start)
            if misses.setdefault((policy, capacity), stats.misses) != stats.misses:
                raise SystemExit(f"{policy} C={capacity}: miss count changed between repeats")
    digest = hashlib.sha256(
        "".join(f"{p}:{c}:{misses[p, c]}\n" for p, c in cells).encode()).hexdigest()
    return {
        "cells": [{"policy": p, "capacity": c,
                   "ns_per_request": round(statistics.median(seconds[p, c]) * 1e9 / len(trace), 1),
                   "misses": misses[p, c]}
                  for p, c in cells],
        "checksum": digest,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", default="current", help="key of this run in --out")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_layers.json")
    args = parser.parse_args(argv)

    trace = zipf_trace(TRACE_SEED, TRACE_LENGTH, CATALOG, ALPHA)
    run = measure(trace, REPEATS)
    run["host"] = {"machine": platform.machine(), "cpus": os.cpu_count(),
                   "python": platform.python_version(), "numpy": np.__version__}
    run["repeats"] = REPEATS
    document = {"trace": {"seed": TRACE_SEED, "requests": TRACE_LENGTH, "catalog": CATALOG,
                          "alpha": ALPHA},
                "runs": {}}
    if args.out.exists():
        document["runs"] = json.loads(args.out.read_text())["runs"]
    document["runs"][args.label] = run
    args.out.write_text(json.dumps(document, indent=2) + "\n")
    for cell in run["cells"]:
        print(f"{cell['policy']:>6} C={cell['capacity']:<5} {cell['ns_per_request']:>9.1f} ns/req"
              f"  misses={cell['misses']}")
    print(f"checksum {run['checksum']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
