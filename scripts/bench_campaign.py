#!/usr/bin/env python
"""Campaign cache economics: cold run vs warm ``--resume``.

Runs a fixed evaluation matrix twice in a scratch directory —

* ``cold``  — empty cache: every cell simulated in a worker process,
* ``warm``  — ``resume=True`` over the populated cache: every cell
  replayed from its verified entry, no workers launched,

— prints the wall-clock for each, the speedup, and the warm run's
cache-hit rate, and writes ``benchmarks/BENCH_campaign_cache.json``.
The warm figure is the cost of *verifying* the whole matrix (one
SHA-256-checked JSON read per cell, plus the ledger written at start
and end); it bounds what an interrupted week-long sweep pays to get
back to where it died.

The hit-rate gate doubles as a regression check: a warm resume of an
untouched cache must replay **every** cell (hit rate 1.0) — anything
less means fingerprints drifted between runs, which would silently
re-simulate completed work.  The script exits 1 in that case.

Usage::

    PYTHONPATH=src python scripts/bench_campaign.py [--jobs N] [--out PATH]
"""

import argparse
import json
import os
import sys
import tempfile
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.campaign import CampaignSpec, run_campaign   # noqa: E402

#: the measured matrix: 4 workloads + 4 attacks x 2 defenses x 2 periods
SPEC = dict(
    workloads=("stream", "pointer-chase", "sort", "crypto"),
    attacks=("meltdown", "spectre-pht", "flush-reload", "lvi"),
    defenses=("none", "fence-spectre"),
    periods=(100, 250),
    seeds=(0,),
    scale=2,
    max_cycles=40_000,
)


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="cold vs warm-cache campaign wall-clock")
    parser.add_argument("--jobs", type=int, default=None,
                        help="parallel cell workers (default: CPU count)")
    parser.add_argument("--out", default=os.path.join(
        os.path.dirname(__file__), "..", "benchmarks",
        "BENCH_campaign_cache.json"))
    args = parser.parse_args(argv)

    spec = CampaignSpec(**SPEC)
    cells = len(spec.expand())
    with tempfile.TemporaryDirectory(prefix="bench-campaign-") as tmp:
        directory = os.path.join(tmp, "camp")

        t0 = time.perf_counter()
        cold = run_campaign(spec, directory, processes=args.jobs)
        cold_s = time.perf_counter() - t0

        t0 = time.perf_counter()
        warm = run_campaign(spec, directory, processes=args.jobs,
                            resume=True)
        warm_s = time.perf_counter() - t0

    ok = (cold.exit_code == 0 and warm.exit_code == 0
          and warm.hit_rate == 1.0)
    report = {
        "schema": "repro.bench-campaign/1",
        "matrix": SPEC | {"cells": cells},
        "jobs": args.jobs or os.cpu_count(),
        "cold": {"seconds": round(cold_s, 3),
                 "completed": cold.completed,
                 "cache_hits": cold.cache_hits},
        "warm": {"seconds": round(warm_s, 3),
                 "completed": warm.completed,
                 "cache_hits": warm.cache_hits,
                 "hit_rate": warm.hit_rate},
        "speedup": round(cold_s / warm_s, 1) if warm_s else None,
        "ok": ok,
    }
    with open(args.out, "w") as f:
        json.dump(report, f, indent=2)
        f.write("\n")

    print(f"matrix: {cells} cells "
          f"({len(SPEC['workloads'])} workloads + "
          f"{len(SPEC['attacks'])} attacks x {len(SPEC['defenses'])} "
          f"defenses x {len(SPEC['periods'])} periods)")
    print(f"{'run':6s} {'wall-clock':>10s} {'cells/sec':>9s} "
          f"{'cache-hit rate':>14s}")
    print(f"{'cold':6s} {cold_s:9.2f}s {cells / cold_s:9.1f} "
          f"{cold.hit_rate:14.2f}")
    print(f"{'warm':6s} {warm_s:9.2f}s {cells / warm_s:9.1f} "
          f"{warm.hit_rate:14.2f}")
    print(f"speedup: {cold_s / warm_s:.1f}x; report: {args.out}")
    if not ok:
        print("FAIL: warm resume did not replay the full matrix from "
              "cache", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
