#!/usr/bin/env python
"""Simulator hot-loop benchmark + bit-exactness harness.

Two jobs, matching the hot-loop overhaul's acceptance contract:

1. **Bit-exactness** — run the optimized :class:`~repro.sim.cpu.O3Core`
   and the seed :class:`~repro.sim.reference.ReferenceO3Core` over the
   same programs and assert *identical* sampler delta streams, final
   counter snapshots, cycle counts, committed-instruction counts and halt
   reasons.  The matrix covers three benign workloads, two attacks, every
   fencing/InvisiSpec defense mode (on both an attack and a benign
   program) and the no-STL-speculation configuration.  A separate SMT
   matrix holds two-tenant runs to the same oracle.
2. **Throughput** — best-of-N wall-clock cycles/sec per workload
   (including ``Machine`` construction, same methodology as the frozen
   pre-overhaul baseline embedded below), plus SMT co-tenancy
   throughput, written to ``benchmarks/BENCH_sim_hotloop.json``.

Usage (repo root):

    PYTHONPATH=src python scripts/bench_sim.py                # full run
    PYTHONPATH=src python scripts/bench_sim.py --check-only   # CI smoke

``--check-only`` runs a reduced bit-exactness matrix on small budgets
(a few seconds) and skips the timing runs — wired into scripts/ci.sh.
The full run exits non-zero unless every configuration is bit-exact AND
the ``astar`` workload clears the >=3x speedup floor.
"""

import argparse
import json
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.attacks import ATTACKS_BY_NAME                  # noqa: E402
from repro.sim.config import DefenseMode, SimConfig        # noqa: E402
from repro.sim.cpu import O3Core                           # noqa: E402
from repro.sim.machine import Machine                      # noqa: E402
from repro.sim.multiprog import SMTMachine                 # noqa: E402
from repro.sim.reference import ReferenceO3Core            # noqa: E402
from repro.workloads import WORKLOAD_BUILDERS              # noqa: E402

OUT_PATH = REPO / "benchmarks" / "BENCH_sim_hotloop.json"

#: Pre-overhaul throughput (simulated cycles/sec) measured with this
#: script's own methodology (best of 3, scale=4 seed=0, sample_period
#: 1000, 400k-cycle budget, Machine construction included) at the seed
#: scheduler, commit e213cbf, CPython 3.11.  Frozen here so the JSON
#: always reports the speedup against the same reference point.
PRE_PR_BASELINE = {"astar": 18906, "stream": 7626, "pointer-chase": 53958}

THROUGHPUT_WORKLOADS = ("astar", "stream", "pointer-chase")
SPEEDUP_FLOOR = {"astar": 3.0}


def counter_stream(core_cls, program, config, sample_period, max_cycles):
    """Everything observable about a run that must not change."""
    m = Machine(program, config, sample_period=sample_period,
                core_cls=core_cls)
    m.run(max_cycles=max_cycles)
    deltas = tuple(tuple(s.deltas) for s in m.sampler.samples)
    return (deltas, tuple(m.counters.values), m.cpu.cycle,
            m.cpu.committed, m.cpu.halt_reason)


def smt_stream(core_cls, program_a, program_b, config, sample_period,
               max_cycles):
    """The SMT equivalent of :func:`counter_stream` (plus thread regs)."""
    smt = SMTMachine(program_a, program_b, config,
                     sample_period=sample_period, core_cls=core_cls)
    result = smt.run(max_cycles=max_cycles)
    deltas = tuple(tuple(s.deltas) for s in result.samples)
    return (deltas, tuple(smt.counters.values), result.cycles,
            result.committed, result.halt_reason,
            tuple(tuple(t.regs) for t in result.threads))


def bitexact_matrix(quick=False):
    """(name, program-builder, config) triples for the equivalence runs."""
    configs = []

    def workload(name, scale, seed):
        return WORKLOAD_BUILDERS[name](scale=scale, seed=seed)

    def attack(name):
        return ATTACKS_BY_NAME[name]().build()[0]

    if quick:
        configs.append(("workload:astar", workload("astar", 2, 1),
                        SimConfig()))
        configs.append(("attack:spectre-pht", attack("spectre-pht"),
                        SimConfig()))
        configs.append(("defense:INVISISPEC_SPECTRE:spectre",
                        attack("spectre-pht"),
                        SimConfig(defense=DefenseMode.INVISISPEC_SPECTRE)))
        return configs
    for w in ("astar", "stream", "pointer-chase"):
        configs.append((f"workload:{w}", workload(w, 2, 1), SimConfig()))
    for a in ("spectre-pht", "meltdown"):
        configs.append((f"attack:{a}", attack(a), SimConfig()))
    for d in (DefenseMode.NONE, DefenseMode.FENCE_SPECTRE,
              DefenseMode.FENCE_FUTURISTIC, DefenseMode.INVISISPEC_SPECTRE):
        configs.append((f"defense:{d.name}:spectre", attack("spectre-pht"),
                        SimConfig(defense=d)))
        configs.append((f"defense:{d.name}:astar", workload("astar", 2, 1),
                        SimConfig(defense=d)))
    configs.append(("stl_off:astar", workload("astar", 2, 1),
                    SimConfig(stl_speculation=False)))
    configs.append(("stl_off:spectre", attack("spectre-pht"),
                    SimConfig(stl_speculation=False)))
    return configs


def run_bitexact(quick=False):
    max_cycles = 60_000 if quick else 200_000
    results = {}
    ok = True
    for name, program, config in bitexact_matrix(quick):
        ref = counter_stream(ReferenceO3Core, program, config, 500,
                             max_cycles)
        fast = counter_stream(O3Core, program, config, 500, max_cycles)
        exact = ref == fast
        ok &= exact
        results[name] = {
            "bit_exact": exact,
            "windows": len(ref[0]),
            "cycles": ref[2],
            "committed": ref[3],
        }
        status = "OK " if exact else "MISMATCH"
        print(f"  {status} {name}: {ref[2]} cycles, "
              f"{len(ref[0])} sampler windows")
    return ok, results


def smt_bitexact_matrix(quick=False):
    """(name, program pair, config) triples for the SMT oracle runs."""
    def workload(name, scale, seed):
        return WORKLOAD_BUILDERS[name](scale=scale, seed=seed)

    def attack(name):
        return ATTACKS_BY_NAME[name]().build()[0]

    pairs = [("smt:astar+stream",
              (workload("astar", 2, 1), workload("stream", 2, 1)),
              SimConfig(smt_contexts=2))]
    if quick:
        return pairs
    pairs.append(("smt:spectre+astar",
                  (attack("spectre-pht"), workload("astar", 2, 1)),
                  SimConfig(smt_contexts=2)))
    pairs.append(("smt:FENCE_SPECTRE:spectre+pointer-chase",
                  (attack("spectre-pht"), workload("pointer-chase", 2, 1)),
                  SimConfig(smt_contexts=2,
                            defense=DefenseMode.FENCE_SPECTRE)))
    return pairs


def run_smt_bitexact(quick=False):
    max_cycles = 60_000 if quick else 200_000
    results = {}
    ok = True
    for name, (prog_a, prog_b), config in smt_bitexact_matrix(quick):
        ref = smt_stream(ReferenceO3Core, prog_a, prog_b, config, 500,
                         max_cycles)
        fast = smt_stream(O3Core, prog_a, prog_b, config, 500, max_cycles)
        exact = ref == fast
        ok &= exact
        results[name] = {
            "bit_exact": exact,
            "windows": len(ref[0]),
            "cycles": ref[2],
            "committed": ref[3],
        }
        status = "OK " if exact else "MISMATCH"
        print(f"  {status} {name}: {ref[2]} cycles, "
              f"{len(ref[0])} sampler windows")
    return ok, results


def measure_throughput(rounds=3):
    results = {}
    for name in THROUGHPUT_WORKLOADS:
        best = 0.0
        for _ in range(rounds):
            program = WORKLOAD_BUILDERS[name](scale=4, seed=0)
            t0 = time.perf_counter()
            m = Machine(program, SimConfig(), sample_period=1000)
            m.run(max_cycles=400_000)
            best = max(best, m.cpu.cycle / (time.perf_counter() - t0))
        baseline = PRE_PR_BASELINE[name]
        results[name] = {
            "baseline_cycles_per_sec": baseline,
            "cycles_per_sec": round(best),
            "speedup": round(best / baseline, 2),
        }
        print(f"  {name}: {best:,.0f} c/s  "
              f"({best / baseline:.2f}x over baseline {baseline:,})")
    return results


def measure_relative(rounds=3, max_cycles=100_000):
    """Same-process, interleaved fast-vs-reference speedup on astar.

    The absolute numbers above are at the mercy of host frequency and
    load (observed swings of +/-40% run to run on shared machines); the
    interleaved ratio cancels that out.  Note the reference core shares
    this PR's fetch/cache/TLB fast paths, so this UNDERSTATES the
    speedup over the true pre-PR seed — it is a floor, not the headline.
    """
    program = WORKLOAD_BUILDERS["astar"](scale=4, seed=0)
    best = {O3Core: 0.0, ReferenceO3Core: 0.0}
    for _ in range(rounds):
        for core_cls in (ReferenceO3Core, O3Core):
            t0 = time.perf_counter()
            m = Machine(program, SimConfig(), sample_period=1000,
                        core_cls=core_cls)
            m.run(max_cycles=max_cycles)
            best[core_cls] = max(best[core_cls],
                                 m.cpu.cycle / (time.perf_counter() - t0))
    ratio = best[O3Core] / best[ReferenceO3Core]
    print(f"  astar interleaved: optimized {best[O3Core]:,.0f} c/s vs "
          f"reference-scheduler {best[ReferenceO3Core]:,.0f} c/s "
          f"({ratio:.2f}x, noise-immune floor)")
    return {
        "workload": "astar",
        "optimized_cycles_per_sec": round(best[O3Core]),
        "reference_scheduler_cycles_per_sec": round(best[ReferenceO3Core]),
        "speedup_vs_reference_scheduler": round(ratio, 2),
    }


def measure_smt(rounds=3, max_cycles=400_000):
    """Best-of-N wall clock for a two-tenant SMT run."""
    best = 0.0
    committed = {}
    for _ in range(rounds):
        smt = SMTMachine(WORKLOAD_BUILDERS["astar"](scale=4, seed=0),
                         WORKLOAD_BUILDERS["stream"](scale=4, seed=0),
                         SimConfig(smt_contexts=2), sample_period=1000)
        t0 = time.perf_counter()
        result = smt.run(max_cycles=max_cycles)
        best = max(best, result.cycles / (time.perf_counter() - t0))
        committed = {t.program_name: t.committed for t in result.threads}
    print(f"  astar+stream SMT: {best:,.0f} c/s, per-thread committed "
          f"{committed}")
    return {
        "pair": "astar+stream",
        "cycles_per_sec": round(best),
        "per_thread_committed": committed,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check-only", action="store_true",
                        help="fast bit-exactness smoke only (CI); no "
                             "timing runs, no JSON output")
    parser.add_argument("--rounds", type=int, default=5,
                        help="throughput rounds per workload (best-of)")
    args = parser.parse_args()

    print("bit-exactness (optimized O3Core vs ReferenceO3Core):")
    exact_ok, exact_results = run_bitexact(quick=args.check_only)
    print("SMT bit-exactness (two hardware contexts, shared machine):")
    smt_ok, smt_exact_results = run_smt_bitexact(quick=args.check_only)
    if not (exact_ok and smt_ok):
        print("bench_sim: counter streams DIVERGED", file=sys.stderr)
        return 1
    if args.check_only:
        print("bench_sim: bit-exactness smoke passed (incl. SMT)")
        return 0

    print("throughput (best of {}, methodology as baseline):"
          .format(args.rounds))
    throughput = measure_throughput(rounds=args.rounds)
    relative = measure_relative(rounds=args.rounds)
    print("SMT co-tenancy throughput:")
    smt = measure_smt(rounds=args.rounds)

    failures = [
        f"{name}: {throughput[name]['speedup']}x < {floor}x"
        for name, floor in SPEEDUP_FLOOR.items()
        if throughput[name]["speedup"] < floor
    ]

    OUT_PATH.write_text(json.dumps({
        "methodology": {
            "throughput": "best-of-N wall clock incl. Machine "
                          "construction; scale=4 seed=0, sample_period "
                          "1000, max_cycles 400000",
            "baseline": "seed scan-based scheduler at commit e213cbf, "
                        "CPython 3.11, same methodology",
            "bit_exactness": "sampler delta streams + final counter "
                             "snapshot + cycle/committed/halt_reason, "
                             "optimized vs reference core, plus "
                             "SMT pairs",
            "smt": "two-tenant SMTMachine (astar+stream, scale=4), "
                   "best-of-N wall clock",
        },
        "throughput": throughput,
        "relative": relative,
        "smt": smt,
        "bit_exactness": exact_results,
        "smt_bit_exactness": smt_exact_results,
        "all_bit_exact": exact_ok and smt_ok,
    }, indent=2) + "\n")
    print(f"wrote {OUT_PATH.relative_to(REPO)}")

    if failures:
        print("bench_sim: speedup floor not met: " + "; ".join(failures),
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
