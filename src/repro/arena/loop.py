"""The closed-loop adversarial arms race.

:func:`run_arena` pits an evolving attack population against the current
detector, generation by generation:

1. **evaluate** — every new genome is simulated in an isolated worker
   (:mod:`repro.arena.workers`); an elite carried verbatim from the
   previous generation keeps that generation's evaluation instead,
   since an evaluation is a pure function of the genome.  The parent
   scores the windows against the *incumbent* detector.  Fitness is the
   evasion rate (fraction of windows the detector misses) — but only
   genomes whose channel actually **leaked** are eligible to survive,
   so evolution cannot "win" by breeding duds;
2. **re-vaccinate** — the survivors' windows are folded into the
   training corpus as an ``arena-evolved`` attack class and the full
   AM-GAN pipeline retrains a candidate detector under a
   :class:`~repro.ml.resilience.TrainingGuard`;
3. **gate** — the candidate must pass the held-out regression gate
   (:mod:`repro.arena.gate`) before promotion; a failing candidate is
   rolled back (the incumbent stays), the rollback is recorded as a
   ``gate_regression`` hole, and the survivor pool is re-drawn from the
   next-best ranked genomes;
4. **breed** — survivors are mutated under the arena RNG into the next
   generation's population.

Every generation is checkpointed through
:class:`~repro.runtime.CheckpointStore` (population, detector weights,
RNG state, trajectory, holes), so ``--resume`` after a SIGKILL replays
the interrupted generation **bit-identically** (a resumed race carries
no evaluation into its first generation, so it simulates every genome)
— the report (:data:`REPORT_NAME`) is a pure function of the
trajectory and diffs byte-equal against an uninterrupted run.
Per-genome crashes, diverged retrains and corrupted checkpoints degrade
to classified holes; only an unusable spec/directory or a failed
*initial* vaccination is fatal.

Exit-code contract (mirrors ``repro campaign``): 0 = clean, 1 =
completed with holes, 2 = fatal (raised as
:class:`~repro.runtime.errors.ArenaError` /
:class:`~repro.runtime.errors.CheckpointError` /
:class:`~repro.core.patching.ModelSchemaError` and mapped by the CLI).
"""

import contextlib
import json
import os
import time
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.arena.gate import _holdout_stats, regression_gate
from repro.arena.genome import (
    genome_key, mutate_genome, sample_genome, seed_population,
)
from repro.arena.workers import evaluate_genome, validate_evaluation
from repro.attacks import ATTACKS_BY_NAME
from repro.core.patching import (
    detector_from_dict, detector_to_dict, save_detector,
    verify_corpus_compatible,
)
from repro.core.vaccination import vaccinate
from repro.data.dataset import Dataset, SampleRecord, build_dataset
from repro.ml.resilience import TrainingDivergedError, TrainingGuard
from repro.obs import metrics, obs_event
from repro.obs.context import current_run_id, record_lineage
from repro.runtime import (
    CHECKPOINT_CORRUPT, GATE_REGRESSION, TRAINING_DIVERGED, ArenaError,
    CheckpointStore, Task, TaskRunner, atomic_write_bytes, fingerprint,
    hashed_fields,
)
from repro.workloads import WORKLOAD_BUILDERS, Workload

#: bumped when the arena ledger layout changes incompatibly
ARENA_SCHEMA = "repro.arena/1"

MANIFEST_NAME = "arena.json"
REPORT_NAME = "arena.md"
DETECTOR_NAME = "detector.json"
CHECKPOINT_DIR = "checkpoints"

#: category label for survivor windows folded into the training corpus
EVOLVED_CATEGORY = "arena-evolved"

_DEFAULT_ATTACKS = ("flush-reload", "meltdown")
_DEFAULT_WORKLOADS = ("stream", "sort")


@dataclass
class ArenaSpec:
    """Canonical description of one arms race (fingerprinted; the
    checkpoint context is bound to it, so ``--resume`` with a different
    spec is rejected instead of corrupting the lineage)."""

    generations: int = 3            # arms-race rounds after generation 0
    population: int = 9             # genomes per generation
    survivors: int = 3              # breeding pool size
    attacks: tuple = _DEFAULT_ATTACKS       # canonical-attack fold names
    workloads: tuple = _DEFAULT_WORKLOADS   # benign fold names
    scale: int = 1
    sample_period: int = 150
    train_seeds: tuple = (0,)
    eval_seeds: tuple = (1,)        # held-out: never trained on
    samples_per_class: int = 10
    gan_iterations: int = 40
    gan_hidden: tuple = (32, 32)
    epochs: int = 10
    detector_hidden: tuple = ()
    engineer_features: bool = False
    fp_budget: float = 0.02
    fn_budget: float = 0.05
    seed: int = 0

    def validate(self):
        if self.generations < 1:
            raise ArenaError("spec needs at least one generation")
        if not 1 <= self.survivors <= self.population:
            raise ArenaError(
                f"survivors ({self.survivors}) must be in "
                f"[1, population={self.population}]")
        if self.sample_period < 1:
            raise ArenaError("sample_period must be >= 1")
        for name in self.attacks:
            if name not in ATTACKS_BY_NAME:
                raise ArenaError(f"unknown attack {name!r}")
        for name in self.workloads:
            if name not in WORKLOAD_BUILDERS:
                raise ArenaError(f"unknown workload {name!r}")
        if set(self.train_seeds) & set(self.eval_seeds):
            raise ArenaError(
                "train_seeds and eval_seeds overlap: the regression "
                "gate needs a held-out corpus")
        return self

    def to_dict(self):
        return hashed_fields(self)

    @property
    def fingerprint(self):
        return fingerprint(self)


@dataclass
class ArenaResult:
    """Outcome of one arena run."""

    spec: ArenaSpec
    trajectory: List[dict] = field(default_factory=list)
    holes: List[dict] = field(default_factory=list)
    detector: object = None
    directory: Optional[str] = None
    elapsed: float = 0.0

    @property
    def exit_code(self):
        """0 clean / 1 completed-with-holes (2 = fatal, raised)."""
        return 0 if not self.holes else 1

    @property
    def promotions(self):
        return sum(1 for e in self.trajectory
                   if e["generation"] > 0 and e["promoted"])

    @property
    def rollbacks(self):
        return sum(1 for h in self.holes if h["kind"] == GATE_REGRESSION)

    def holes_by_kind(self):
        counts = {}
        for hole in self.holes:
            counts[hole["kind"]] = counts.get(hole["kind"], 0) + 1
        return counts

    def summary(self):
        last = self.trajectory[-1] if self.trajectory else {}
        lines = [f"arena: {len(self.trajectory) - 1}/{self.spec.generations}"
                 f" generations, {self.promotions} promotions, "
                 f"{self.rollbacks} rollbacks ({self.elapsed:.1f}s)"]
        if last:
            inc = last.get("incumbent", {})
            lines.append(
                f"incumbent: fp={inc.get('fp_rate', 0.0):.4f} "
                f"fn={inc.get('fn_rate', 0.0):.4f} "
                f"auc={inc.get('auc', 0.0):.4f}")
        if self.holes:
            kinds = ", ".join(f"{k}={v}" for k, v
                              in sorted(self.holes_by_kind().items()))
            lines.append(f"holes: {len(self.holes)} ({kinds})")
            for hole in self.holes:
                lines.append(f"  [{hole['kind']:16s}] gen {hole['generation']}"
                             f" {hole['key']}: {hole['message']}")
        return "\n".join(lines)


# -- deterministic report + durable ledger ------------------------------------

def render_arena_report(spec, trajectory, holes):
    """The arms-race report as deterministic markdown.

    A pure function of the spec fingerprint, trajectory and holes — no
    run ids, timestamps or wall-clock — so an uninterrupted run and a
    crash-then-resume run of the same spec render **byte-identical**
    files (the resume smoke diffs them directly).
    """
    lines = [
        "# Arena report",
        "",
        f"spec `{spec.fingerprint[:12]}` | generations "
        f"{len(trajectory) - 1 if trajectory else 0}/{spec.generations} "
        f"| holes {len(holes)}",
        "",
        "| gen | evaluated | leaked | evasion mean | evasion max "
        "| gate | fp | fn | auc |",
        "|----:|----------:|-------:|-------------:|------------:"
        "|------|---:|---:|----:|",
    ]
    for entry in trajectory:
        inc = entry.get("incumbent", {})
        if entry["generation"] == 0:
            gate = "seed"
        elif entry["promoted"]:
            gate = "promoted"
        else:
            gate = "ROLLBACK"
        lines.append(
            f"| {entry['generation']} | {entry.get('evaluated', '-')} "
            f"| {entry.get('leaked', '-')} "
            f"| {entry.get('evasion_mean', 0.0):.4f} "
            f"| {entry.get('evasion_max', 0.0):.4f} "
            f"| {gate} | {inc.get('fp_rate', 0.0):.4f} "
            f"| {inc.get('fn_rate', 0.0):.4f} "
            f"| {inc.get('auc', 0.0):.4f} |")
    if holes:
        lines += ["", "## Holes", ""]
        for hole in holes:
            lines.append(f"- gen {hole['generation']} `{hole['key']}` "
                         f"[{hole['kind']}] {hole['message']}")
    lines.append("")
    return "\n".join(lines)


class _Ledger:
    """``arena.json`` + ``arena.md``, rewritten atomically after every
    generation so a SIGKILL at any instant leaves a consistent,
    resumable prefix on disk.  The exit code is ``None`` while any
    generation remains: an interrupted race's ledger does not read as a
    finish."""

    def __init__(self, directory, spec, guard_policy, parent_run):
        self.directory = directory
        self.spec = spec
        self.guard_policy = guard_policy
        self.parent_run = parent_run
        self.started = time.monotonic()
        self.manifest_path = os.path.join(directory, MANIFEST_NAME)
        self.report_path = os.path.join(directory, REPORT_NAME)

    def flush(self, trajectory, holes):
        elapsed = time.monotonic() - self.started
        atomic_write_bytes(
            self.report_path,
            render_arena_report(self.spec, trajectory, holes)
            .encode("utf-8"))
        by_kind = {}
        for hole in holes:
            by_kind[hole["kind"]] = by_kind.get(hole["kind"], 0) + 1
        generations = max((e["generation"] for e in trajectory), default=0)
        manifest = {
            "schema": ARENA_SCHEMA,
            "run_id": current_run_id(),
            "parent_run": self.parent_run,
            "spec": self.spec.to_dict(),
            "spec_fingerprint": self.spec.fingerprint,
            "guard_policy": self.guard_policy,
            "counts": {
                "generations": generations,
                "evaluated": sum(e.get("evaluated", 0) for e in trajectory),
                "leaked": sum(e.get("leaked", 0) for e in trajectory),
                "promotions": sum(1 for e in trajectory
                                  if e["generation"] > 0 and e["promoted"]),
                "rollbacks": by_kind.get(GATE_REGRESSION, 0),
                "holes": len(holes),
                "holes_by_kind": by_kind,
            },
            "trajectory": trajectory,
            "holes": holes,
            "elapsed_s": round(elapsed, 3),
            "exit_code": (None if generations < self.spec.generations
                          else 1 if holes else 0),
        }
        atomic_write_bytes(self.manifest_path,
                           json.dumps(manifest, indent=1).encode("utf-8"))
        return elapsed


# -- corpora ------------------------------------------------------------------

def build_corpus(spec, seeds):
    """Deterministically rebuild a (train or held-out) labelled corpus
    from the spec: canonical attacks x seeds + benign kernels x seeds."""
    attacks = [ATTACKS_BY_NAME[name](seed=seed)
               for name in spec.attacks for seed in seeds]
    workloads = [Workload(name, WORKLOAD_BUILDERS[name],
                          scale=spec.scale, seed=seed)
                 for name in spec.workloads for seed in seeds]
    return build_dataset(attacks, workloads,
                         sample_period=spec.sample_period)


def _survivor_records(survivors, evaluations, sample_period):
    """Survivor windows as labelled records for the re-vaccination
    corpus (the ``arena-evolved`` attack class)."""
    records = []
    for index, genome in survivors:
        evaluation = evaluations[index]
        for i, deltas in enumerate(evaluation["deltas"]):
            records.append(SampleRecord(
                deltas=list(deltas),
                label=1,
                category=EVOLVED_CATEGORY,
                phase=0,
                source=f"arena:{evaluation['key']}",
                commit_index=i * sample_period,
            ))
    return records


def _evasion(incumbent, evaluation):
    """Fraction of a genome's windows the incumbent misses.  Non-finite
    scores count as *flagged* (fail-secure: a poisoned detector scores
    as catching everything, so evolution gets no reward for breaking
    the scorer)."""
    scores = incumbent.score_batch(
        np.asarray(evaluation["deltas"], dtype=float))
    flagged = np.count_nonzero(
        (scores >= incumbent.threshold) | ~np.isfinite(scores))
    return 1.0 - flagged / len(scores)


def _detector_fingerprint(detector):
    if detector is None:
        return ""
    return fingerprint(detector_to_dict(detector))


# -- the arms race ------------------------------------------------------------

def run_arena(spec, directory, *, processes=None, retries=1,
              task_timeout=None, resume=False, chaos=None,
              guard_policy="rollback", initial_detector=None,
              eval_corpus=None, progress=None):
    """Run (or resume) the arms race; returns :class:`ArenaResult`.

    Never raises for per-genome or per-generation failures — they
    become holes.  Raises only for fatal, whole-run problems:
    :class:`~repro.runtime.errors.ArenaError` (bad spec, failed initial
    vaccination), :class:`~repro.runtime.errors.CheckpointError`
    (resume context mismatch) and
    :class:`~repro.core.patching.ModelSchemaError` (detector envelope
    vs corpus layout mismatch).
    """
    spec.validate()
    os.makedirs(directory, exist_ok=True)
    reg = metrics()

    store = CheckpointStore(os.path.join(directory, CHECKPOINT_DIR))
    context = {
        "spec_fingerprint": spec.fingerprint,
        "guard_policy": guard_policy,
        "initial_detector": _detector_fingerprint(initial_detector),
    }
    store.open(context, resume=resume)

    obs_event("arena.started", generations=spec.generations,
              population=spec.population, resume=bool(resume),
              spec_fingerprint=spec.fingerprint[:12])

    # the latest valid generation checkpoint a resume restores from
    claimed, valid, restore_gen = {}, set(), None
    if resume:
        claimed = {g: f"gen-{g}" for g in range(spec.generations + 1)
                   if store.has(f"gen-{g}")}
        valid = set(store.valid_keys())
        restore_gen = max((g for g in claimed if claimed[g] in valid),
                          default=None)

    # generation 0 and every generation left to run read both corpora; a
    # finished race resumed builds neither
    train_ds, eval_ds = None, eval_corpus
    if restore_gen != spec.generations:
        train_ds = build_corpus(spec, spec.train_seeds)
        if eval_ds is None:
            eval_ds = build_corpus(spec, spec.eval_seeds)

    rng = np.random.default_rng(spec.seed)
    trajectory, holes = [], []
    population, incumbent = None, None
    start_gen, parent_run = 1, None

    # -- resume: restore the latest valid generation checkpoint ---------------
    if resume:
        for g in sorted(claimed):
            if claimed[g] in valid:
                continue
            reg.inc("arena.checkpoint.corrupt")
            if restore_gen is not None and g < restore_gen:
                continue         # superseded by the restore point
            # the shard is gone or fails its checksum: classify the hole
            # and re-run the generation (self-healing)
            holes.append({"generation": g, "kind": CHECKPOINT_CORRUPT,
                          "key": claimed[g],
                          "message": "generation checkpoint missing or "
                                     "corrupt; re-running"})
            reg.inc("arena.genomes.holes")
            obs_event("arena.hole", level="error", generation=g,
                      kind=CHECKPOINT_CORRUPT, key=claimed[g])
        if restore_gen is not None:
            payload = store.get(f"gen-{restore_gen}")
            population = payload["population"]
            incumbent = detector_from_dict(payload["detector"])
            rng.bit_generator.state = payload["rng_state"]
            trajectory = payload["trajectory"]
            holes = payload["holes"] + holes
            start_gen = restore_gen + 1
            parent_run = payload.get("run")
            if parent_run:
                record_lineage(parent_run=parent_run)
            obs_event("arena.resumed", generation=restore_gen,
                      parent_run=parent_run)

    ledger = _Ledger(directory, spec, guard_policy, parent_run)

    # -- generation 0: seed population + initial vaccination ------------------
    if incumbent is None:
        population = seed_population(spec.population, rng)
        if initial_detector is not None:
            incumbent = initial_detector
        else:
            try:
                incumbent = _revaccinate(spec, train_ds, [], spec.seed,
                                         guard_policy, None)
            except TrainingDivergedError as exc:
                raise ArenaError(
                    f"initial vaccination diverged ({exc.kind} at step "
                    f"{exc.step}); no incumbent detector to ratchet "
                    f"from") from exc
        verify_corpus_compatible(incumbent, eval_ds,
                                 detector_origin="arena incumbent",
                                 corpus_origin="held-out corpus")
        trajectory.append({
            "generation": 0,
            "promoted": True,
            "incumbent": _holdout_stats(incumbent, eval_ds),
        })
        _checkpoint(store, 0, population, incumbent, rng, trajectory,
                    holes, chaos)
    else:
        # the restored incumbent's schema is checked against the live
        # layout even when no held-out corpus was needed
        verify_corpus_compatible(
            incumbent, eval_ds if eval_ds is not None else Dataset(),
            detector_origin="arena incumbent",
            corpus_origin="held-out corpus")
    ledger.flush(trajectory, holes)

    # -- the arms race ---------------------------------------------------------
    # the previous generation's evaluations by genome fingerprint; a
    # resumed race starts without them and simulates every genome
    carried = {}
    for g in range(start_gen, spec.generations + 1):
        gen_started = time.monotonic()
        if chaos is not None:
            chaos.maybe_kill(g, "evaluate")
        gen_seed = (spec.seed * 1_000_003 + g) % (2 ** 31)

        evaluations, gen_holes, reused = _evaluate_population(
            spec, population, g, processes, retries, task_timeout,
            chaos, reg, carried)
        holes.extend(gen_holes)

        ranked = []
        for index, evaluation in sorted(evaluations.items()):
            if evaluation["leaked"]:
                evasion = _evasion(incumbent, evaluation)
                ranked.append((evasion, evaluation["key"], index))
        ranked.sort(key=lambda r: (-r[0], r[1]))
        reg.inc("arena.genomes.leaked", len(ranked))
        evasions = [r[0] for r in ranked]
        evasion_mean = float(np.mean(evasions)) if evasions else 0.0
        evasion_max = float(max(evasions)) if evasions else 0.0
        reg.set_gauge("arena.evasion.mean", round(evasion_mean, 4))
        reg.set_gauge("arena.evasion.max", round(evasion_max, 4))

        survivors = [(index, population[index])
                     for _, _, index in ranked[:spec.survivors]]

        # -- re-vaccinate against the survivors -------------------------------
        candidate, verdict, promoted = None, None, False
        try:
            candidate = _revaccinate(
                spec, train_ds,
                _survivor_records(survivors, evaluations,
                                  spec.sample_period),
                gen_seed, guard_policy,
                chaos.training_chaos(g) if chaos is not None else None)
        except TrainingDivergedError as exc:
            holes.append({"generation": g, "kind": TRAINING_DIVERGED,
                          "key": f"gen-{g}",
                          "message": f"re-vaccination diverged "
                                     f"({exc.kind} at step {exc.step}); "
                                     f"incumbent retained"})
            reg.inc("arena.genomes.holes")
            obs_event("arena.hole", level="error", generation=g,
                      kind=TRAINING_DIVERGED, message=str(exc))

        # -- regression gate ---------------------------------------------------
        if candidate is not None:
            if chaos is not None:
                chaos.sabotage_candidate(g, candidate)
            verdict = regression_gate(candidate, incumbent, eval_ds,
                                      fp_budget=spec.fp_budget,
                                      fn_budget=spec.fn_budget)
            obs_event("arena.gate", generation=g,
                      promoted=verdict.promoted,
                      reasons=list(verdict.reasons))
            if verdict.promoted:
                incumbent = candidate
                promoted = True
                reg.inc("arena.gate.promotions")
            else:
                reg.inc("arena.gate.rollbacks")
                holes.append({"generation": g, "kind": GATE_REGRESSION,
                              "key": f"gen-{g}",
                              "message": "; ".join(verdict.reasons)})
                obs_event("arena.hole", level="error", generation=g,
                          kind=GATE_REGRESSION,
                          message="; ".join(verdict.reasons))
                # re-draw the breeding pool: the survivors that drove
                # the regressing retrain are discarded for the
                # next-best ranked genomes
                redraw = ranked[spec.survivors:spec.survivors * 2]
                survivors = [(index, population[index])
                             for _, _, index in redraw]

        entry = {
            "generation": g,
            "evaluated": len(evaluations),
            "leaked": len(ranked),
            "holes": len(gen_holes),
            "evasion_mean": round(evasion_mean, 4),
            "evasion_max": round(evasion_max, 4),
            "promoted": promoted,
            "gate": verdict.to_dict() if verdict is not None else None,
            "incumbent": _holdout_stats(incumbent, eval_ds),
            "survivors": [genome_key(genome) for _, genome in survivors],
            "seconds": round(time.monotonic() - gen_started, 3),
        }
        trajectory.append(entry)
        reg.inc("arena.generations")
        reg.observe("arena.generation.seconds",
                    time.monotonic() - gen_started)
        obs_event("arena.generation", generation=g,
                  evaluated=entry["evaluated"], reused=reused,
                  leaked=entry["leaked"],
                  evasion_mean=entry["evasion_mean"],
                  promoted=promoted)

        # -- breed the next generation ----------------------------------------
        carried = {fingerprint(population[index]): evaluation
                   for index, evaluation in evaluations.items()}
        population = _breed([genome for _, genome in survivors],
                            spec.population, rng)
        _checkpoint(store, g, population, incumbent, rng, trajectory,
                    holes, chaos)
        ledger.flush(trajectory, holes)
        if progress is not None:
            progress(entry)

    save_detector(incumbent, os.path.join(directory, DETECTOR_NAME))
    elapsed = ledger.flush(trajectory, holes)
    result = ArenaResult(spec=spec, trajectory=trajectory, holes=holes,
                         detector=incumbent, directory=directory,
                         elapsed=elapsed)
    obs_event("arena.finished",
              level="error" if result.holes else "info",
              generations=len(trajectory) - 1,
              promotions=result.promotions, rollbacks=result.rollbacks,
              holes=len(holes), exit_code=result.exit_code)
    return result


# -- helpers ------------------------------------------------------------------

def _evaluate_population(spec, population, generation, processes, retries,
                         task_timeout, chaos, reg, carried):
    """One evaluation per genome index, plus the generation's holes and
    the number of evaluations reused.

    A genome whose fingerprint is in ``carried`` (the previous
    generation's evaluations) takes that evaluation: ``evaluate_genome``
    is a pure function of its payload, so a worker would return the same
    dict.  The rest, and any genome a chaos worker kill is aimed at, fan
    out over isolated workers; crashes, hangs and divergent traces
    become classified holes.
    """
    evaluations, tasks = {}, []
    for index, genome in enumerate(population):
        kill = chaos.kill_attempts(generation, index) \
            if chaos is not None else 0
        previous = carried.get(fingerprint(genome))
        if previous is not None and not kill:
            evaluations[index] = previous
            continue
        tasks.append(Task(
            key=f"g{generation}:{index}:{genome_key(genome)}",
            payload={"genome": genome,
                     "sample_period": spec.sample_period,
                     "kill_attempts": kill}))
    reused = len(evaluations)
    reg.inc("arena.genomes.reused", reused)
    reg.inc("arena.genomes.evaluated", reused)
    if processes is None:
        processes = max(1, min(len(tasks) or 1, (os.cpu_count() or 2)))
    runner = TaskRunner(evaluate_genome, processes=processes,
                        retries=retries, timeout=task_timeout,
                        validator=validate_evaluation)
    gen_holes = []
    with contextlib.closing(runner.run(tasks)) as outcomes:
        for outcome in outcomes:
            index = int(outcome.key.split(":")[1])
            if outcome.ok:
                evaluations[index] = outcome.value
                reg.inc("arena.genomes.evaluated")
            else:
                gen_holes.append({"generation": generation,
                                  "kind": outcome.kind, "key": outcome.key,
                                  "message": outcome.message})
                reg.inc("arena.genomes.holes")
                obs_event("arena.hole", level="error",
                          generation=generation, kind=outcome.kind,
                          key=outcome.key, message=outcome.message)
    return evaluations, gen_holes, reused


def _revaccinate(spec, train_ds, extra_records, seed, guard_policy, chaos):
    """One vaccination round over the base corpus plus the survivors'
    evolved windows, under a fresh :class:`TrainingGuard`."""
    corpus = Dataset(records=list(train_ds.records) + list(extra_records),
                     sample_period=train_ds.sample_period)
    guard = TrainingGuard(policy=guard_policy)
    result = vaccinate(
        corpus,
        samples_per_class=spec.samples_per_class,
        gan_iterations=spec.gan_iterations,
        gan_hidden=tuple(spec.gan_hidden),
        engineer_features=spec.engineer_features,
        detector_hidden=tuple(spec.detector_hidden),
        epochs=spec.epochs,
        seed=seed,
        guard=guard,
        chaos=chaos,
    )
    return result.detector


def _breed(survivor_genomes, count, rng):
    """Next generation: survivors kept verbatim (elitism), the rest
    mutated offspring — or fresh samples when nothing survived."""
    population = [dict(genome) for genome in survivor_genomes][:count]
    while len(population) < count:
        if survivor_genomes:
            parent = survivor_genomes[
                int(rng.integers(0, len(survivor_genomes)))]
            population.append(mutate_genome(parent, rng))
        else:
            population.append(sample_genome(rng))
    return population


def _checkpoint(store, generation, population, incumbent, rng, trajectory,
                holes, chaos):
    """Persist the full generation state (the resume fixed point):
    population, detector weights, RNG state, trajectory and holes."""
    store.put(f"gen-{generation}", {
        "generation": generation,
        "population": population,
        "detector": detector_to_dict(incumbent),
        "rng_state": rng.bit_generator.state,
        "trajectory": trajectory,
        "holes": holes,
        "run": current_run_id(),
    })
    if chaos is not None:
        chaos.mangle_checkpoint(generation, store.path(f"gen-{generation}"))
