#!/usr/bin/env python3
"""The EVAX reproduction benchmark: one user flow per workload.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 20 \
        --trace 0

Workloads: ``pipeline``, ``campaign``, ``arena``, ``serve`` (see
``perfbench/README.md``).  The benchmark imports the program from
``src/`` of the same checkout, pins the BLAS pool to one thread, makes
the workload's inputs from ``--seed``, sets up several times, then runs
the flow in passes until ``--seconds`` is used (at least one pass) and
reports medians over passes.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes, reports every per-layer metric from the
traced ones plus the tracing overhead, and writes the spans to
``.perfbench/trace-<workload>-seed<seed>.jsonl``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Lines before it
stamp the host and print the simulated-statistics digest, the failure
and waste accounting and every correctness check.  The exit code is 0
when every check passed, 1 when one failed and 2 when the program's
source tree is missing.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")

#: set-ups per run; ``setup_s`` is their median
SETUP_REPEATS = 3

NOTES = (
    "the simulator is not validated against hardware, so no error "
    "figure is given; sim/reference.py is a scheduler oracle, not a "
    "measurement",
    "data caches start cold in every run: Machine pre-warms only the "
    "instruction path",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("pipeline", "campaign", "arena", "serve"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def pin_environment():
    """One BLAS thread, one CPU, temp files and imports inside the
    checkout; returns how many CPUs the process could use before.  Runs
    before numpy is imported, so OpenBLAS reads the thread count.

    The one CPU is shared with every fan-out worker.  With one worker,
    parent and worker never run at once: the runner launches the next
    task only after the parent has handled the last result.  On one CPU
    the parent's speed samples (:mod:`probe`) measure the CPU the worker
    runs on.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(allowed)})
    tmp = os.path.join(WORK, "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    os.environ["PYTHONPATH"] = SRC
    sys.path.insert(0, SRC)
    return len(allowed)


# -- host stamp ---------------------------------------------------------------

def _git_revision():
    # stop git's repository search at the checkout, never above it
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        top = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10, env=env)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or \
            os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def _source_sha256():
    """Digest of the program's source tree: identifies the code when the
    checkout is not a git repository."""
    digest = hashlib.sha256()
    for folder, dirs, files in os.walk(os.path.join(SRC, "repro")):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, SRC).encode() + b"\0")
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()


def _blas():
    """OpenBLAS version and the thread count actually in effect."""
    import ctypes
    import numpy
    info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps", encoding="utf-8") as maps:
        libraries = sorted({line.split()[-1] for line in maps
                            if "openblas" in line and ".so" in line})
    for path in libraries:
        library = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads",
                       "scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_"):
            getter = getattr(library, symbol, None)
            if getter is not None:
                getter.restype, getter.argtypes = ctypes.c_int, []
                threads = getter()
                break
    return info.get("version"), threads


def host_stamp(nproc):
    import numpy
    blas_version, blas_threads = _blas()
    return {
        "git_revision": _git_revision(),
        "source_sha256": _source_sha256(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "openblas": blas_version,
        "blas_threads": blas_threads,
        "nproc": nproc,
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }


# -- set-up -------------------------------------------------------------------

def set_up(flow, seed):
    """Set up :data:`SETUP_REPEATS` times; returns the last inputs and
    the median set-up time in reference seconds (a fresh interpreter
    importing the flow's modules, then making its inputs)."""
    from probe import Timed
    times, inputs = [], None
    code = "import " + ", ".join(flow.modules)
    for _ in range(SETUP_REPEATS):
        with Timed() as timed:
            subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                           check=True, timeout=120)
            inputs = flow.setup(seed)
        times.append(timed.seconds)
    return inputs, statistics.median(times)


# -- measurement --------------------------------------------------------------

def _pass(flow, inputs, run_dir, index, tracer=None):
    """One pass of ``flow`` in a fresh directory.  With a ``tracer`` the
    span wrappers are on only while the flow runs, so the checks that
    follow it add no spans."""
    from spans import Wrappers
    directory = os.path.join(run_dir, f"pass-{index}")
    os.makedirs(directory)
    try:
        traced = tracer is not None
        wrappers = Wrappers(tracer).install() if traced else None
        try:
            check = flow.run_pass(inputs, directory, traced)
        finally:
            if traced:
                wrappers.remove()
        return check()
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def measure(flow, inputs, seconds, run_dir):
    """Untraced passes until ``seconds`` is used (at least one); returns
    them and the peak RSS in MB of set-up and the first pass.

    The peak is taken after the first pass because a Python heap does
    not shrink between passes, so a later peak grows with the pass count.
    """
    passes, start = [], time.perf_counter()
    while True:
        began = time.perf_counter()
        passes.append(_pass(flow, inputs, run_dir, len(passes)))
        if len(passes) == 1:
            peak_mb = peak_rss_mb()
        took = time.perf_counter() - began
        if time.perf_counter() - start + took > seconds:
            return passes, peak_mb


def load_metric_units():
    """``(end-to-end, per-layer)`` name -> unit maps from
    ``BENCHMARK.json``, which defines what a run reports."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def measure_traced(flow, inputs, seconds, run_dir, names):
    """Alternate untraced and traced passes until ``seconds`` is used;
    returns ``(untraced, [(traced pass, tracer)])``.

    Installing the wrappers imports every layer, and forked workers
    inherit those imports.  They are installed once up front so that
    untraced and traced passes start from the same imports.
    """
    from layers import layer_metrics
    from spans import Tracer, Wrappers
    Wrappers(Tracer()).install().remove()
    untraced, traced, start = [], [], time.perf_counter()
    index = 0
    while True:
        began = time.perf_counter()
        untraced.append(_pass(flow, inputs, run_dir, index))
        tracer = Tracer()
        result = _pass(flow, inputs, run_dir, index + 1, tracer)
        result.layers = layer_metrics(tracer, result.registry,
                                      result.layers, names)
        traced.append((result, tracer))
        index += 2
        took = time.perf_counter() - began
        if time.perf_counter() - start + took > seconds:
            return untraced, traced


def peak_rss_mb():
    """Peak RSS so far of this process or its largest finished child, in
    MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _median(values):
    return statistics.median(values) if values else 0.0


# -- reporting ----------------------------------------------------------------

def report_lines(flow, passes, untraced, trace_path=None):
    """The human-readable lines printed before the result.  The flow's
    own metrics are medians over the ``untraced`` passes; checks and
    accounting cover every pass."""
    named = {"wall_s": {"value": _median([p.wall_s for p in untraced]),
                        "unit": "s"}}
    for name, (_, unit) in untraced[0].named.items():
        named[name] = {"value": _median([p.named[name][0]
                                         for p in untraced]),
                       "unit": unit}
    failed_checks = [(name, detail) for p in passes
                     for name, ok, detail in p.checks if not ok]
    checks = {name: ok for name, ok, _ in passes[-1].checks}
    for name, _ in failed_checks:
        checks[name] = False
    accounting = {"passes": len(passes),
                  "attempted": sum(p.attempted for p in passes),
                  "failed": sum(p.failed for p in passes),
                  "waste": passes[-1].waste}
    lines = [f"flow metrics ({flow.name}, median of {len(untraced)} "
             f"untraced passes): " + json.dumps(named, sort_keys=True),
             "digest (last pass): " + json.dumps(passes[-1].digest,
                                                 sort_keys=True),
             "accounting: " + json.dumps(accounting, sort_keys=True),
             "checks: " + json.dumps(checks, sort_keys=True)]
    lines += [f"FAILED check: {name}: {detail}"
              for name, detail in failed_checks]
    lines += [f"note: {note}" for note in NOTES]
    if trace_path:
        lines.append(f"spans: {trace_path}")
    return lines


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no program source tree at {SRC}", file=sys.stderr)
        return 2
    nproc = pin_environment()
    from flows import FLOWS
    end_to_end, per_layer = load_metric_units()

    flow = FLOWS[args.workload]
    run_dir = os.path.join(WORK, f"{flow.name}-seed{args.seed}-"
                                 f"{os.getpid()}")
    os.makedirs(run_dir)
    try:
        print("host: " + json.dumps(host_stamp(nproc), sort_keys=True))
        for module in flow.modules:
            __import__(module)
        inputs, setup_s = set_up(flow, args.seed)
        trace_path = None
        if args.trace:
            untraced, traced = measure_traced(flow, inputs, args.seconds,
                                              run_dir, per_layer)
            passes = untraced + [p for p, _ in traced]
            values = {name: _median([p.layers[name] for p, _ in traced])
                      for name in per_layer}
            values["obs.trace_overhead"] = \
                _median([p.flow_s for p, _ in traced]) / \
                _median([p.flow_s for p in untraced]) - 1.0
            units = per_layer
            trace_path = os.path.join(
                WORK, f"trace-{flow.name}-seed{args.seed}.jsonl")
            _dump_spans(traced, trace_path)
        else:
            passes, peak_mb = measure(flow, inputs, args.seconds, run_dir)
            untraced = passes
            values = {"setup_s": setup_s,
                      "peak_rss_mb": peak_mb,
                      "flow_s": _median([p.flow_s for p in passes]),
                      "rate_per_s": _median([p.rate_per_s for p in passes])}
            units = end_to_end
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    for line in report_lines(flow, passes, untraced, trace_path):
        print(line)
    correct = all(ok for p in passes for _, ok, _ in p.checks)
    result = {"correct": correct,
              "attempted": sum(p.attempted for p in passes),
              "failed": sum(p.failed for p in passes),
              "metrics": {name: {"value": values[name], "unit": unit}
                          for name, unit in units.items()}}
    print(json.dumps(result, sort_keys=True))
    return 0 if correct else 1


def _dump_spans(traced, path):
    with open(path, "w", encoding="utf-8") as f:
        for index, (_, tracer) in enumerate(traced):
            for span in tracer.spans:
                f.write(json.dumps(dict(span, traced_pass=index),
                                   sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.exit(main())
