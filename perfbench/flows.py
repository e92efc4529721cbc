"""The four user flows the benchmark measures, one per workload.

Each flow has a ``setup(seed)`` that makes its inputs and a
``run_pass(inputs, directory, traced)`` that runs the flow once in
``directory``.  ``run_pass`` returns a ``check`` function; calling it
gives the :class:`PassResult`: the timed numbers, the correctness
checks, the simulated-statistics digest and the failure and waste
counts.  Timing wraps only the flow itself.  ``check`` makes the calls
the benchmark adds (re-loading outputs, direct scoring, cache reads),
so a traced pass calls it only after the span wrappers are removed.

Every flow runs in this one process with one fan-out worker
(``--jobs 1`` / ``processes=1``).
"""

import contextlib
import functools
import hashlib
import io
import json
import os
import re
import time
from dataclasses import dataclass, field

import numpy as np

from probe import Timed
from spans import replace_everywhere, restore
from repro.obs import metrics

_NOW = time.perf_counter


@dataclass
class PassResult:
    """One run of a flow."""

    flow_s: float                  # the flow, in reference seconds
    rate_per_s: float              # its work per reference second
    wall_s: float                  # the flow's wall seconds
    named: dict                    # flow-named metrics: name -> (v, unit)
    attempted: int
    failed: int
    checks: list                   # (name, ok, detail)
    digest: dict
    waste: dict = field(default_factory=dict)
    registry: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)  # flow-specific per-layer


class Registry:
    """Sum of ``obs`` registry snapshots taken after each step.

    The CLI resets the process-global registry at the start of every
    command, so a multi-command flow must add up one snapshot per
    command.
    """

    def __init__(self):
        self.counters = {}
        self.timers = {}

    def add(self, snapshot):
        for name, value in snapshot["counters"].items():
            self.counters[name] = self.counters.get(name, 0) + value
        for name, summary in snapshot["timers"].items():
            row = self.timers.setdefault(name, {"count": 0, "total_s": 0.0})
            row["count"] += summary["count"]
            row["total_s"] += summary["total_s"]

    def as_dict(self):
        return {"counters": self.counters, "timers": self.timers}


def run_cli(argv):
    """``repro <argv>`` in this process; returns ``(exit code, stdout,
    :class:`Timed`, metrics snapshot)``."""
    from repro.cli import main
    out = io.StringIO()
    try:
        with Timed() as timed, contextlib.redirect_stdout(out):
            code = main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue(), timed, metrics().snapshot()


def timed_library_call(fn, *args, **kwargs):
    """Call ``fn`` on a freshly reset registry; returns ``(value,
    :class:`Timed`, metrics snapshot)``."""
    metrics().reset()
    with Timed() as timed:
        value = fn(*args, **kwargs)
    return value, timed, metrics().snapshot()


def deltas_sha256(rows, digest=None):
    """SHA-256 over counter-delta rows, hashed the way campaign cells
    hash theirs (compact JSON per row)."""
    digest = digest or hashlib.sha256()
    for row in rows:
        digest.update(json.dumps([int(d) for d in row],
                                 separators=(",", ":")).encode())
    return digest


class Taps:
    """Pass-through hooks on program calls, removed after the flow.
    They keep references to values a flow hands between layers, for
    checks and digests, or run benchmark code after a call."""

    def __init__(self):
        self._undo = []

    def capture_arguments(self, module, attr, sink):
        original = getattr(module, attr)

        def tap(*args, **kwargs):
            sink.append(args)
            return original(*args, **kwargs)
        replace_everywhere(original, tap, self._undo)

    def capture_results(self, module, attr, sink):
        original = getattr(module, attr)

        def tap(*args, **kwargs):
            value = original(*args, **kwargs)
            sink.append(value)
            return value
        replace_everywhere(original, tap, self._undo)

    def capture_outcomes(self, cls, sink):
        """Keep every successful ``TaskRunner.run`` outcome value."""
        original = cls.__dict__["run"]

        def run(self, tasks):
            for outcome in original(self, tasks):
                if outcome.ok:
                    sink.append(outcome.value)
                yield outcome
        self._undo.append((cls, "run", original))
        setattr(cls, "run", run)

    def call_after(self, cls, attr, hook):
        """Call ``hook(obj)`` after every ``obj.attr()`` of ``cls``."""
        original = cls.__dict__[attr]

        @functools.wraps(original)
        def method(obj, *args, **kwargs):
            value = original(obj, *args, **kwargs)
            hook(obj)
            return value
        self._undo.append((cls, attr, original))
        setattr(cls, attr, method)

    def remove(self):
        restore(self._undo)


# -- pipeline -----------------------------------------------------------------

#: train at a fixed size below the 1,200-iteration CLI default
TRAIN_ITERATIONS = 400
#: the vaccinated detector's accuracy on its own corpus must stay above this
ACCURACY_FLOOR = 0.95
#: sources at collect's CLI defaults: (22 attacks + 19 kernels) x 2 seeds
PIPELINE_SOURCES = 82
_ADAPTIVE_LINE = re.compile(
    r"^(?P<name>\S+)\s+flags=\s*(?P<flags>\d+) secure=\s*(?P<secure>\d+)% "
    r"leaked=(?P<leaked>True|False)(?P<latched> LATCHED)?$")


class Pipeline:
    """``collect -> train -> report -> adaptive --detector`` through the
    CLI at its defaults (``collect --jobs 1``, ``train --iterations
    400``).

    None of these commands takes the benchmark seed: collect has no
    seed flag and train's ``--seed`` stays at its default, because
    guard rollbacks make training work vary about 5x with it.
    """

    name = "pipeline"
    modules = ("repro.cli", "repro.data", "repro.core", "repro.analysis",
               "repro.attacks", "repro.workloads", "repro.ml.resilience")

    def setup(self, seed):
        return {"seed": seed}

    def run_pass(self, inputs, directory, traced=False):
        from repro.data import io as data_io
        corpus = os.path.join(directory, "corpus")
        detector = os.path.join(directory, "detector.json")
        report = os.path.join(directory, "report.md")
        steps = (
            ("collect", ["collect", corpus, "--jobs", "1"]),
            ("train", ["train", corpus, "--out", detector,
                       "--iterations", str(TRAIN_ITERATIONS)]),
            ("report", ["report", corpus, detector, "--out", report]),
            ("adaptive", ["adaptive", "--detector", detector]),
        )
        saved = []
        taps = Taps()
        taps.capture_arguments(data_io, "save_dataset", saved)
        registry, timed, codes, outputs, snapshots = Registry(), {}, {}, {}, {}
        try:
            for step, argv in steps:
                code, out, step_timed, snap = run_cli(argv)
                codes[step], outputs[step] = code, out
                timed[step], snapshots[step] = step_timed, snap["counters"]
                registry.add(snap)
        finally:
            taps.remove()

        def check():
            from repro.data import load_dataset
            pipeline_s = sum(t.seconds for t in timed.values())
            collect = snapshots["collect"]
            collect_rate = collect.get("sim.cycles", 0) / \
                timed["collect"].seconds
            checks = [(f"{step} exits 0", codes[step] == 0,
                       f"exit {codes[step]}") for step, _ in steps]
            loaded = load_dataset(corpus)
            checks += self._check_outputs(loaded, detector, saved,
                                          outputs["adaptive"])
            adaptive = snapshots["adaptive"]
            digest = {
                "cycles": collect.get("sim.cycles", 0)
                + adaptive.get("sim.cycles", 0),
                "committed": collect.get("sim.committed", 0)
                + adaptive.get("sim.committed", 0),
                "windows": collect.get("sim.sampler.windows", 0)
                + adaptive.get("sim.sampler.windows", 0),
                "counters_sha256": deltas_sha256(
                    r.deltas for r in loaded.records).hexdigest(),
                "adaptive": [line for line in outputs["adaptive"].splitlines()
                             if _ADAPTIVE_LINE.match(line)],
            }
            sources = collect.get("sim.runs", 0)
            counters = registry.counters
            batches = counters.get("ml.train.batches", 0)
            return PassResult(
                flow_s=pipeline_s, rate_per_s=collect_rate,
                wall_s=sum(t.wall for t in timed.values()),
                named={"pipeline_s": (pipeline_s, "s"),
                       "collect_cycles_per_s": (collect_rate, "cycles/s"),
                       "train_s": (timed["train"].seconds, "s")},
                attempted=PIPELINE_SOURCES + len(steps),
                failed=(PIPELINE_SOURCES - min(sources, PIPELINE_SOURCES))
                + sum(1 for code in codes.values() if code != 0),
                checks=checks, digest=digest,
                waste={"guard_trips": counters.get("guard.trips", 0),
                       "guard_rollbacks": counters.get("guard.rollbacks", 0),
                       "train_batches": batches},
                registry=registry.as_dict())
        return check

    @staticmethod
    def _check_outputs(loaded, detector_path, saved, adaptive_out):
        from repro.core.patching import load_detector
        checks = []
        in_memory = saved[0][0] if saved else None
        same = (in_memory is not None
                and in_memory.sample_period == loaded.sample_period
                and in_memory.records == loaded.records)
        checks.append(("corpus round-trips save/load unchanged", same,
                       f"{len(loaded)} windows"))
        detector = load_detector(detector_path)
        scores = detector.evaluate(loaded.raw_matrix(detector.schema),
                                   loaded.labels())
        checks.append((f"detector accuracy >= {ACCURACY_FLOOR}",
                       scores["accuracy"] >= ACCURACY_FLOOR,
                       f"accuracy {scores['accuracy']:.4f}"))
        lines = [m for m in map(_ADAPTIVE_LINE.match,
                                adaptive_out.splitlines()) if m]
        clean = len(lines) == 3 and all(
            m["leaked"] == "False" and not m["latched"] for m in lines)
        checks.append(("no gated attack leaks or latches under adaptive",
                       clean, "; ".join(m.group(0) for m in lines)))
        return checks


# -- campaign -----------------------------------------------------------------

CAMPAIGN_MATRIX = {
    "workloads": ("stream", "pointer-chase", "sort", "crypto"),
    "attacks": ("meltdown", "spectre-pht", "flush-reload", "lvi"),
    "defenses": ("none", "fence-spectre", "fence-futuristic",
                 "invisispec-spectre", "invisispec-futuristic"),
    "tenancies": ("single", "smt"),
    "periods": (100,),
    "scale": 2,
    "max_cycles": 40_000,
}


class Campaign:
    """A cold ``repro campaign --jobs 1`` over 80 cells, then a warm
    ``--resume``.  The benchmark seed is the cells' source seed."""

    name = "campaign"
    modules = ("repro.cli", "repro.campaign")

    def setup(self, seed):
        from repro.campaign import CampaignSpec
        m = CAMPAIGN_MATRIX
        spec = CampaignSpec(workloads=m["workloads"], attacks=m["attacks"],
                            defenses=m["defenses"], periods=m["periods"],
                            seeds=(seed,), tenancies=m["tenancies"],
                            scale=m["scale"], max_cycles=m["max_cycles"])
        argv = ["--workloads", *m["workloads"], "--attacks", *m["attacks"],
                "--defenses", *m["defenses"],
                "--tenancies", *m["tenancies"],
                "--periods", *map(str, m["periods"]),
                "--scale", str(m["scale"]),
                "--max-cycles", str(m["max_cycles"]),
                "--cell-seeds", str(seed), "--jobs", "1"]
        return {"spec": spec.validate(), "argv": argv}

    def run_pass(self, inputs, directory, traced=False):
        spec, argv = inputs["spec"], inputs["argv"]
        camp = os.path.join(directory, "campaign")
        cold = run_cli(["campaign", camp, *argv])
        cold_ledger, cold_aggregate = _campaign_outputs(camp)
        warm = run_cli(["campaign", camp, *argv, "--resume"])
        warm_ledger, warm_aggregate = _campaign_outputs(camp)
        cells = spec.expand()
        replay = _replay_cells_inprocess(cells) if traced else None

        def check():
            from repro.campaign.cache import CellCache
            cache = CellCache(os.path.join(camp, "cache"))
            results = [cache.get(cell.fingerprint) for cell in cells]
            ok_results = [r for r in results if r is not None]
            cycles = sum(r["cycles"] for r in ok_results)
            counts, warm_counts = cold_ledger["counts"], warm_ledger["counts"]
            checks = [
                ("cold campaign exits 0", cold[0] == 0, f"exit {cold[0]}"),
                ("cold campaign has no holes",
                 counts["holes"] == 0 and counts["completed"] == len(cells),
                 f"{counts['completed']}/{len(cells)} cells, "
                 f"{counts['holes']} holes"),
                ("warm resume exits 0", warm[0] == 0, f"exit {warm[0]}"),
                ("warm resume replays every cell",
                 warm_counts["cache_hits"] == len(cells),
                 f"{warm_counts['cache_hits']}/{len(cells)} from cache"),
                ("warm resume aggregate.md byte-identical",
                 cold_aggregate == warm_aggregate, ""),
            ]
            registry = Registry()
            registry.add(cold[3])
            retries = cold[3]["counters"].get("runner.tasks.retried", 0)
            layers = {
                "campaign.cells": len(cells),
                "campaign.holes": counts["holes"],
                "campaign.retries": retries,
                "campaign.resume_s": warm[2].wall,
                "campaign.resume_hit_ratio":
                    warm_counts["cache_hits"] / len(cells),
            }
            if replay is not None:
                inproc_s, replayed, snap = replay
                registry.add(snap)
                checks.append(("in-process replay matches worker cells",
                               replayed == results, ""))
                layers["campaign.inproc_s"] = inproc_s
                layers["runtime.fanout_ms_per_task"] = \
                    (cold[2].wall - inproc_s) / len(cells) * 1e3
            digest = hashlib.sha256()
            for cell, result in zip(cells, results):
                sha = result["counters_sha256"] if result else "missing"
                digest.update(f"{cell.key}:{sha}\n".encode())
            cold_s = cold[2].seconds
            rate = cycles / cold_s
            return PassResult(
                flow_s=cold_s, rate_per_s=rate, wall_s=cold[2].wall,
                named={"campaign_cycles_per_s": (rate, "cycles/s")},
                attempted=len(cells), failed=counts["holes"], checks=checks,
                digest={"cycles": cycles,
                        "committed": sum(r["committed"] for r in ok_results),
                        "windows": sum(r["windows"] for r in ok_results),
                        "counters_sha256": digest.hexdigest()},
                waste={"retries": retries},
                registry=registry.as_dict(), layers=layers)
        return check


def _campaign_outputs(directory):
    with open(os.path.join(directory, "campaign.json"), "rb") as f:
        ledger = json.loads(f.read().decode())
    with open(os.path.join(directory, "aggregate.md"), "rb") as f:
        aggregate = f.read()
    return ledger, aggregate


def _replay_cells_inprocess(cells):
    """Run the campaign's cells through ``run_cell`` in this process, to
    split the cold run's wall time into simulation and fan-out; returns
    ``(wall seconds, cell results, metrics snapshot)``."""
    from repro.campaign import orchestrator
    metrics().reset()
    start = _NOW()
    replayed = [orchestrator.run_cell((cell.config(), 0)) for cell in cells]
    wall = _NOW() - start
    return wall, replayed, metrics().snapshot()


# -- arena --------------------------------------------------------------------

#: the race from scripts/bench_arena.py (its seed too), run for six
#: generations
ARENA_SPEC = dict(
    generations=6, population=9, survivors=3,
    attacks=("meltdown", "flush-reload"), workloads=("stream", "sort"),
    sample_period=120, samples_per_class=8, gan_iterations=24,
    gan_hidden=(24, 24), epochs=8, fp_budget=0.15, fn_budget=0.10,
    seed=7,
)


class Arena:
    """``run_arena`` with one worker, then a ``--resume`` replay of the
    finished race.

    The race does not take the benchmark seed: evolution breeds
    different attacks for each race seed, and race cost varies about
    1.7x with it.
    """

    name = "arena"
    modules = ("repro.arena",)

    def setup(self, seed):
        from repro.arena import ArenaSpec
        return {"spec": ArenaSpec(**ARENA_SPEC).validate()}

    def run_pass(self, inputs, directory, traced=False):
        from repro.arena import run_arena
        from repro.data import dataset
        from repro.runtime.runner import TaskRunner
        spec = inputs["spec"]
        race_dir = os.path.join(directory, "race")
        evaluations, corpora = [], []
        taps = Taps()
        taps.capture_outcomes(TaskRunner, evaluations)
        taps.capture_results(dataset, "build_dataset", corpora)
        try:
            race, race_timed, snap = timed_library_call(
                run_arena, spec, race_dir, processes=1)
        finally:
            taps.remove()
        with open(os.path.join(race_dir, "arena.md"), "rb") as f:
            report = f.read()
        replay, replay_timed, replay_snap = timed_library_call(
            run_arena, spec, race_dir, processes=1, resume=True)
        with open(os.path.join(race_dir, "arena.md"), "rb") as f:
            replayed = f.read()

        def check():
            registry = Registry()
            registry.add(snap)
            registry.add(replay_snap)
            counters = snap["counters"]
            evaluated = counters.get("arena.genomes.evaluated", 0)
            leaked = counters.get("arena.genomes.leaked", 0)
            attempted = spec.population * spec.generations
            genome_holes = [h for h in race.holes
                            if h["kind"] in ("crash", "timeout", "divergent")]
            checks = [
                ("race completes (exit 0 or 1)", race.exit_code in (0, 1),
                 f"exit {race.exit_code}"),
                ("replay exit code matches the race",
                 replay.exit_code == race.exit_code,
                 f"exit {replay.exit_code}"),
                ("replay reproduces arena.md byte for byte",
                 report == replayed, ""),
            ]
            digest = hashlib.sha256()
            windows = 0
            for corpus in corpora:
                deltas_sha256((r.deltas for r in corpus.records), digest)
                windows += len(corpus.records)
            for evaluation in evaluations:
                deltas_sha256(evaluation["deltas"], digest)
                windows += evaluation["windows"]
            generations = max(len(race.trajectory) - 1, 1)
            race_s = race_timed.seconds
            rate = evaluated / race_s
            return PassResult(
                flow_s=race_s, rate_per_s=rate, wall_s=race_timed.wall,
                named={"arena_generation_s": (race_s / generations, "s")},
                attempted=attempted, failed=len(genome_holes), checks=checks,
                digest={"cycles": counters.get("sim.cycles", 0)
                        + sum(e["cycles"] for e in evaluations),
                        "committed": counters.get("sim.committed", 0),
                        "windows": windows,
                        "counters_sha256": digest.hexdigest()},
                waste={"non_leaking_genome_ratio":
                       1 - leaked / evaluated if evaluated else 0.0,
                       "gate_rollback_ratio": race.rollbacks / generations},
                registry=registry.as_dict(),
                layers={"arena.genomes": evaluated,
                        "arena.leak_ratio": leaked / evaluated
                        if evaluated else 0.0,
                        "arena.promotions": race.promotions,
                        "arena.rollbacks": race.rollbacks,
                        "arena.holes": len(race.holes) - race.rollbacks,
                        "arena.resume_s": replay_timed.wall})
        return check


# -- serve --------------------------------------------------------------------

SERVE_TENANTS = 64
SERVE_TICKS = 3072           # 196,608 windows: inside the latency reservoir
SERVE_PERIOD = 100           # the serve command's default period
SERVE_SCALE = 4              # collect's default benign kernel size
#: the serve detector is vaccinated at the sizes the arena race uses
SERVE_VACCINATION = {key: ARENA_SPEC[key] for key in (
    "samples_per_class", "gan_iterations", "gan_hidden", "epochs")}


class Serve:
    """``repro serve --corpus``: ``run_serve`` over 64 tenants that
    replay a simulated corpus through ``streams_from_dataset``, one
    window per tenant per tick, with the default 1,024-window batch.

    Set-up simulates the corpus ``collect`` makes at its defaults, for
    one seed (the benchmark's) instead of two, and vaccinates the
    detector on it.  Which windows flag, and when tenants enter and
    leave secure mode, is therefore the program's own.
    """

    name = "serve"
    modules = ("repro.serve", "repro.data", "repro.core", "repro.attacks",
               "repro.workloads")

    def setup(self, seed):
        from repro.attacks import ALL_ATTACKS
        from repro.core import vaccinate
        from repro.data import build_dataset
        from repro.workloads import all_workloads
        metrics().reset()
        corpus = build_dataset(
            [cls(seed=seed) for cls in ALL_ATTACKS],
            all_workloads(scale=SERVE_SCALE, seeds=(seed,)),
            sample_period=SERVE_PERIOD)
        simulated = metrics().snapshot()["counters"]
        detector = vaccinate(corpus, seed=seed, **SERVE_VACCINATION).detector
        return {"corpus": corpus, "detector": detector,
                "simulated": simulated}

    def run_pass(self, inputs, directory, traced=False):
        from repro.serve import ServeConfig, run_serve, streams_from_dataset
        from repro.serve.service import DetectionService
        corpus, detector = inputs["corpus"], inputs["detector"]
        streams = streams_from_dataset(corpus, SERVE_TENANTS,
                                       period=SERVE_PERIOD)
        config = ServeConfig(duration=SERVE_TICKS)
        # A calibration loop would add its stall to the latency of every
        # queued window.  So sample the host's speed only after a batch
        # that empties the queue, where no window waits.
        timed = Timed(interval=False)
        taps = Taps()
        taps.call_after(DetectionService, "process_batch",
                        lambda service: service.pending or timed.poll())
        metrics().reset()
        try:
            with timed:
                service, report = run_serve(detector, streams, config)
        finally:
            taps.remove()
        snap = metrics().snapshot()

        def check():
            expected = _direct_flags(inputs)
            windows = report["windows"]
            submitted = SERVE_TENANTS * SERVE_TICKS
            flags = sum(s.controller.flags
                        for s in service.fanout.slots.values())
            latched = report["latched"]
            checks = [
                ("scored + shed == submitted",
                 windows["scored"] + windows["shed"] == submitted
                 and windows["ingested"] == windows["scored"],
                 f"{windows['scored']} + {windows['shed']} of {submitted}"),
                ("no detector faults", report["detector_faults"] == 0,
                 f"{report['detector_faults']} faults"),
                ("no latched tenants", not latched, ", ".join(latched)),
                ("flags equal a direct score_batch", flags == expected,
                 f"{flags} vs {expected}"),
            ]
            latency = report["latency_ms"]
            latched_windows = sum(service.fanout.slots[t].windows
                                  for t in latched)
            counters = snap["counters"]
            simulated = inputs["simulated"]
            rate = windows["scored"] / timed.seconds
            return PassResult(
                flow_s=timed.seconds, rate_per_s=rate, wall_s=timed.wall,
                named={"serve_windows_per_s": (rate, "windows/s"),
                       "serve_p95_ms": (latency["p95"], "ms"),
                       "flag_ratio": (flags / submitted, "ratio"),
                       "secure_ratio": (
                           counters.get("adaptive.windows.secure", 0)
                           / submitted, "ratio"),
                       "secure_entries": (
                           counters.get("adaptive.secure.entries", 0),
                           "count"),
                       "secure_exits": (
                           counters.get("adaptive.secure.exits", 0),
                           "count")},
                attempted=submitted,
                failed=windows["shed"] + report["detector_faults"]
                + latched_windows,
                checks=checks,
                digest={"cycles": simulated.get("sim.cycles", 0),
                        "committed": simulated.get("sim.committed", 0),
                        "windows": len(corpus.records),
                        "counters_sha256": deltas_sha256(
                            r.deltas for r in corpus.records).hexdigest(),
                        "scored": windows["scored"], "flags": flags},
                registry={"counters": counters, "timers": snap["timers"]},
                layers={"serve.batches": report["batches"]["count"],
                        "serve.mean_batch_windows":
                            windows["scored"] / report["batches"]["count"],
                        "serve.queue_peak": report["queue"]["peak"],
                        "serve.shed": windows["shed"],
                        "serve.faults": report["detector_faults"],
                        "serve.p50_ms": latency["p50"],
                        "serve.p95_ms": latency["p95"],
                        "serve.p99_ms": latency["p99"],
                        "serve.p999_ms": service.latency.percentile_ms(99.9),
                        "serve.latency_samples": latency["samples"],
                        "defenses.latched": len(latched)})
        return check


def _direct_flags(inputs):
    """Flags a direct ``score_batch`` gives the windows one pass
    replays: fresh streams over the same corpus, read tick by tick."""
    if "direct_flags" not in inputs:
        from repro.serve import streams_from_dataset
        detector = inputs["detector"]
        total = 0
        for stream in streams_from_dataset(inputs["corpus"], SERVE_TENANTS,
                                           period=SERVE_PERIOD):
            windows = np.array([stream.next_window()[1]
                                for _ in range(SERVE_TICKS)])
            total += int((detector.score_batch(windows)
                          >= detector.threshold).sum())
        inputs["direct_flags"] = total
    return inputs["direct_flags"]


FLOWS = {flow.name: flow for flow in (Pipeline(), Campaign(), Arena(),
                                      Serve())}
