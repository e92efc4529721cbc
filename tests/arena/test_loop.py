"""The arms-race loop: clean runs, the files a clean race replaces and
a finished race's resume writes, bit-identical crash-resume, hole
classification (worker kills, diverged retrains, corrupt checkpoints,
gate rollbacks), elites scored from their previous evaluation, and the
fatal-error contract."""

import json
import os
import shutil

import numpy as np
import pytest

from repro.arena import loop
from repro.arena.genome import genome_key, seed_population
from repro.arena.loop import (
    ArenaSpec, build_corpus, render_arena_report, run_arena,
)
from repro.arena.workers import evaluate_genome
from repro.core.patching import ModelSchemaError, detector_to_dict, \
    load_detector
from repro.data.dataset import Dataset
from repro.obs import metrics
from repro.runtime import atomic
from repro.runtime import (
    ARENA_CHECKPOINT_CORRUPT_FAULT, CHECKPOINT_CORRUPT, CRASH,
    GATE_REGRESS_FAULT, GATE_REGRESSION, GEN_KILL_FAULT, GENOME_KILL_FAULT,
    REVACCINATE_NAN_FAULT, TRAINING_DIVERGED, ArenaChaos, ArenaError,
    ArenaFault, ChaosKill, CheckpointError, CheckpointStore,
    corrupt_in_place, fingerprint,
)

#: the counters the reuse tests read before and after a race
COUNTERS = ("runner.tasks.started", "runner.workers.started",
            "arena.genomes.evaluated", "arena.genomes.reused",
            "arena.checkpoint.corrupt")

#: small enough to keep the module fast, big enough for real evolution
SPEC = {
    "generations": 2,
    "population": 4,
    "survivors": 2,
    "attacks": ("meltdown",),
    "workloads": ("stream",),
    "sample_period": 150,
    "samples_per_class": 6,
    "gan_iterations": 16,
    "gan_hidden": (16, 16),
    "epochs": 6,
    # tiny held-out folds: a few flipped windows move a rate by ~0.3,
    # so honest retrain jitter must not read as a regression here (the
    # sabotage drill forces fp_rate to 1.0, which still trips)
    "fp_budget": 0.4,
    "fn_budget": 0.4,
    "seed": 5,
}


def one_gen_spec(**overrides):
    return ArenaSpec(**{**SPEC, "generations": 1, **overrides})


def read(path):
    with open(path, "rb") as f:
        return f.read()


def counts():
    values = metrics().snapshot()["counters"]
    return {name: values.get(name, 0) for name in COUNTERS}


def counted_since(before):
    after = counts()
    return {name: after[name] - before[name] for name in COUNTERS}


@pytest.fixture(scope="module")
def clean(tmp_path_factory):
    directory = str(tmp_path_factory.mktemp("arena-clean"))
    spec = ArenaSpec(**SPEC)
    result = run_arena(spec, directory, processes=2, retries=1)
    return spec, directory, result


@pytest.fixture(scope="module")
def counted(tmp_path_factory):
    """A fresh clean race, the counter deltas it caused, and every
    ``(genome, evaluation)`` it scored from the previous generation
    instead of simulating the genome again."""
    spec = ArenaSpec(**SPEC)
    reused = []
    evaluate = loop._evaluate_population

    def spy(spec_, population, generation, *args):
        carried = args[-1]
        evaluations, holes, count = evaluate(spec_, population, generation,
                                             *args)
        for index, evaluation in evaluations.items():
            genome = population[index]
            if carried.get(fingerprint(genome)) is evaluation:
                reused.append((genome, evaluation))
        return evaluations, holes, count

    before = counts()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(loop, "_evaluate_population", spy)
        result = run_arena(spec, str(tmp_path_factory.mktemp("counted")),
                           processes=2, retries=1)
    return spec, result, counted_since(before), reused


class TestCleanRun:
    def test_exit_0_and_full_trajectory(self, clean):
        spec, _, result = clean
        assert result.exit_code == 0
        assert result.holes == []
        assert len(result.trajectory) == spec.generations + 1
        assert result.trajectory[0]["generation"] == 0
        assert result.trajectory[0]["promoted"] is True
        assert result.promotions + result.rollbacks == spec.generations

    def test_generations_evaluate_the_whole_population(self, clean):
        spec, _, result = clean
        for entry in result.trajectory[1:]:
            assert entry["evaluated"] == spec.population
            assert 0 <= entry["leaked"] <= entry["evaluated"]
            assert 0.0 <= entry["evasion_mean"] <= 1.0
            assert len(entry["survivors"]) <= spec.survivors
            assert entry["incumbent"]["finite"] is True

    def test_artifacts_on_disk(self, clean):
        spec, directory, _ = clean
        for name in ("arena.md", "arena.json", "detector.json"):
            assert os.path.exists(os.path.join(directory, name))
        store = CheckpointStore(os.path.join(directory, "checkpoints"))
        assert os.path.exists(os.path.join(store.directory, "manifest.json"))
        for g in range(spec.generations + 1):
            assert os.path.exists(store.path(f"gen-{g}"))

    def test_ledger_counts_match_trajectory(self, clean):
        spec, directory, result = clean
        ledger = json.loads(read(os.path.join(directory, "arena.json")))
        assert ledger["schema"] == "repro.arena/1"
        assert ledger["spec_fingerprint"] == spec.fingerprint
        assert ledger["exit_code"] == 0
        counts = ledger["counts"]
        assert counts["generations"] == spec.generations
        assert counts["evaluated"] == sum(
            e.get("evaluated", 0) for e in result.trajectory)
        assert counts["promotions"] == result.promotions
        assert counts["holes"] == 0

    def test_report_is_a_pure_function_of_the_trajectory(self, clean):
        spec, directory, result = clean
        rendered = render_arena_report(spec, result.trajectory,
                                       result.holes)
        assert rendered.encode() == read(os.path.join(directory,
                                                      "arena.md"))

    def test_final_detector_round_trips(self, clean):
        _, directory, result = clean
        loaded = load_detector(os.path.join(directory, "detector.json"))
        assert detector_to_dict(loaded) == detector_to_dict(result.detector)


class TestWrites:
    @pytest.mark.parametrize("generations", [1, 2])
    def test_a_clean_race_rewrites_only_its_final_ledger(
            self, tmp_path, monkeypatch, generations):
        """Replacing an existing file is the costly write on some hosts.
        A clean race writes every checkpoint, the store's manifest and
        the detector under new names, and replaces only the ledger's two
        files, once each, when it ends."""
        replaced = []
        real_replace = atomic.os.replace

        def recording_replace(src, dst):
            if os.path.exists(dst):
                replaced.append(os.path.basename(dst))
            real_replace(src, dst)
        monkeypatch.setattr(atomic.os, "replace", recording_replace)
        result = run_arena(ArenaSpec(**{**SPEC, "generations": generations}),
                           str(tmp_path / "race"), processes=1)
        assert result.exit_code == 0
        assert sorted(replaced) == ["arena.json", "arena.md"]

    def test_a_finished_race_resumed_writes_only_its_ledger(
            self, clean, tmp_path, monkeypatch):
        """A finished race has no generation left, so its resume writes
        no start ledger and reproduces ``arena.md`` and
        ``detector.json`` byte for byte: it leaves them alone and makes
        at most one write, ``arena.json`` (its run id and elapsed time
        can change).  A deleted ``detector.json`` is written again."""
        spec, clean_dir, _ = clean
        directory = str(tmp_path / "race")
        shutil.copytree(clean_dir, directory)
        written = []
        real_replace = atomic.os.replace

        def recording_replace(src, dst):
            written.append(os.path.basename(dst))
            real_replace(src, dst)
        monkeypatch.setattr(atomic.os, "replace", recording_replace)

        def writes():
            timers = metrics().snapshot()["timers"]
            return timers.get("runtime.atomic_write.seconds",
                              {}).get("count", 0)

        before = writes()
        assert run_arena(spec, directory, resume=True).exit_code == 0
        assert writes() - before <= 1
        assert set(written) <= {"arena.json"}

        os.remove(os.path.join(directory, "detector.json"))
        del written[:]
        before = writes()
        assert run_arena(spec, directory, resume=True).exit_code == 0
        assert writes() - before <= 2
        assert "detector.json" in written
        assert set(written) <= {"arena.json", "detector.json"}
        for name in ("arena.md", "detector.json"):
            assert read(os.path.join(directory, name)) \
                == read(os.path.join(clean_dir, name))


class TestResume:
    def test_sigkill_then_resume_is_bit_identical(self, clean, tmp_path):
        """The acceptance drill: kill at the top of the last generation,
        resume, and the report must match an uninterrupted run of the
        same spec in a different directory byte for byte."""
        spec, clean_dir, _ = clean
        directory = str(tmp_path / "race")
        chaos = ArenaChaos([ArenaFault(GEN_KILL_FAULT,
                                       generation=spec.generations)])
        with pytest.raises(ChaosKill):
            run_arena(spec, directory, processes=2, retries=1, chaos=chaos)
        # the ledger is the start ledger; the checkpoints are the record
        # of every generation finished before the kill
        partial = json.loads(read(os.path.join(directory, "arena.json")))
        assert partial["counts"]["generations"] == 0
        assert partial["exit_code"] is None
        store = CheckpointStore(os.path.join(directory, "checkpoints"))
        assert store.valid_keys() == [f"gen-{g}"
                                      for g in range(spec.generations)]

        resumed = run_arena(spec, directory, processes=2, retries=1,
                            resume=True)
        assert resumed.exit_code == 0
        assert read(os.path.join(directory, "arena.md")) \
            == read(os.path.join(clean_dir, "arena.md"))

    def test_an_interrupted_race_ledger_has_no_exit_code(self, tmp_path):
        """A race killed before its last generation leaves a ledger
        whose exit code is ``null``, not a clean 0."""
        spec = one_gen_spec()
        directory = str(tmp_path / "race")
        chaos = ArenaChaos([ArenaFault(GEN_KILL_FAULT, generation=1)])
        with pytest.raises(ChaosKill):
            run_arena(spec, directory, processes=1, chaos=chaos)
        partial = json.loads(read(os.path.join(directory, "arena.json")))
        assert partial["counts"]["generations"] == 0
        assert partial["holes"] == []
        assert partial["exit_code"] is None

    def test_resume_of_a_finished_run_replays_nothing(self, clean):
        spec, directory, _ = clean
        before = read(os.path.join(directory, "arena.md"))
        resumed = run_arena(spec, directory, resume=True)
        assert resumed.exit_code == 0
        assert len(resumed.trajectory) == spec.generations + 1
        assert read(os.path.join(directory, "arena.md")) == before

    def test_resume_of_a_finished_run_simulates_nothing(self, clean,
                                                        tmp_path):
        """A finished race has no generation left, so its resume builds
        neither corpus: no simulation runs, and the exit code, report
        and detector are the race's own."""
        spec, clean_dir, reference = clean
        directory = str(tmp_path / "race")
        shutil.copytree(clean_dir, directory)
        before = metrics().snapshot()["counters"].get("sim.runs", 0)
        resumed = run_arena(spec, directory, processes=2, retries=1,
                            resume=True)
        assert metrics().snapshot()["counters"].get("sim.runs", 0) == before
        assert resumed.exit_code == reference.exit_code
        for name in ("arena.md", "detector.json"):
            assert read(os.path.join(directory, name)) \
                == read(os.path.join(clean_dir, name))

    def test_resume_of_a_finished_run_still_checks_the_eval_corpus(
            self, clean, tmp_path):
        """A finished race's resume builds no corpus, but a held-out
        corpus handed to it is still checked against the incumbent."""
        spec, clean_dir, _ = clean
        directory = str(tmp_path / "race")
        shutil.copytree(clean_dir, directory)
        stale = Dataset(records=[], sample_period=spec.sample_period,
                        counters_sha256="0" * 64)
        with pytest.raises(ModelSchemaError, match="counter"):
            run_arena(spec, directory, resume=True, eval_corpus=stale)

    def test_resume_with_a_different_spec_is_fatal(self, clean):
        spec, directory, _ = clean
        other = ArenaSpec(**{**SPEC, "seed": SPEC["seed"] + 1})
        with pytest.raises(CheckpointError):
            run_arena(other, directory, resume=True)

    def test_corrupt_shard_older_than_the_restore_point_is_no_hole(
            self, clean, tmp_path):
        """A finished race whose ``gen-1`` shard rots resumes from the
        last generation and re-runs nothing: the bad shard is counted,
        but is no hole, and the report still matches the clean race."""
        spec, clean_dir, _ = clean
        directory = str(tmp_path / "race")
        shutil.copytree(clean_dir, directory)
        store = CheckpointStore(os.path.join(directory, "checkpoints"))
        corrupt_in_place(store.path("gen-1"))

        before = counts()
        resumed = run_arena(spec, directory, processes=2, retries=1,
                            resume=True)
        assert resumed.exit_code == 0
        assert resumed.holes == []
        assert counted_since(before)["arena.checkpoint.corrupt"] == 1
        assert read(os.path.join(directory, "arena.md")) \
            == read(os.path.join(clean_dir, "arena.md"))

    def test_corrupt_checkpoint_degrades_to_a_hole(self, clean, tmp_path):
        """A mangled generation shard is classified and its generation
        re-run — the race still finishes, bit-identical but for the
        hole."""
        spec, clean_dir, reference = clean
        directory = str(tmp_path / "race")
        chaos = ArenaChaos([ArenaFault(ARENA_CHECKPOINT_CORRUPT_FAULT,
                                       generation=spec.generations)])
        first = run_arena(spec, directory, processes=2, retries=1,
                          chaos=chaos)
        assert first.exit_code == 0      # corruption is on-disk only

        resumed = run_arena(spec, directory, processes=2, retries=1,
                            resume=True)
        assert resumed.exit_code == 1
        assert resumed.holes_by_kind() == {CHECKPOINT_CORRUPT: 1}
        # the re-run generation reproduces the clean run's trajectory
        for key in ("evaluated", "leaked", "evasion_mean", "evasion_max",
                    "promoted", "survivors", "incumbent"):
            assert resumed.trajectory[-1][key] \
                == reference.trajectory[-1][key]


class TestHoles:
    def test_worker_sigkill_is_a_crash_hole(self, tmp_path):
        spec = one_gen_spec()
        chaos = ArenaChaos([ArenaFault(GENOME_KILL_FAULT, generation=1,
                                       genome=0)])
        result = run_arena(spec, str(tmp_path / "race"), processes=2,
                           retries=0, chaos=chaos)
        assert result.exit_code == 1
        assert result.holes_by_kind() == {CRASH: 1}
        assert result.trajectory[-1]["evaluated"] == spec.population - 1

    def test_sabotaged_candidate_is_rolled_back(self, tmp_path):
        """The rollback contract: the gate refuses the wounded candidate
        and the shipped detector is the generation-0 incumbent."""
        spec = one_gen_spec()
        directory = str(tmp_path / "race")
        chaos = ArenaChaos([ArenaFault(GATE_REGRESS_FAULT, generation=1)])
        result = run_arena(spec, directory, processes=2, retries=1,
                           chaos=chaos)
        assert result.exit_code == 1
        assert result.rollbacks == 1
        assert result.promotions == 0
        assert result.holes_by_kind() == {GATE_REGRESSION: 1}
        entry = result.trajectory[-1]
        assert entry["promoted"] is False
        assert entry["gate"]["promoted"] is False
        assert any("fp_rate regression" in r
                   for r in entry["gate"]["reasons"])

        store = CheckpointStore(os.path.join(directory, "checkpoints"))
        store.open({"spec_fingerprint": spec.fingerprint,
                    "guard_policy": "rollback",
                    "initial_detector": ""}, resume=True)
        assert detector_to_dict(result.detector) \
            == store.get("gen-0")["detector"]

    def test_diverged_retrain_keeps_the_incumbent(self, tmp_path):
        spec = one_gen_spec()
        chaos = ArenaChaos([ArenaFault(REVACCINATE_NAN_FAULT,
                                       generation=1)])
        result = run_arena(spec, str(tmp_path / "race"), processes=2,
                           retries=1, chaos=chaos, guard_policy="raise")
        assert result.exit_code == 1
        assert result.holes_by_kind() == {TRAINING_DIVERGED: 1}
        entry = result.trajectory[-1]
        assert entry["promoted"] is False
        assert entry["gate"] is None     # never reached the gate
        # the incumbent survived untouched
        assert entry["incumbent"] == result.trajectory[0]["incumbent"]


class TestReuse:
    """Elites carried into the next generation are scored from their
    previous evaluation instead of being simulated again."""

    def test_carried_elites_start_no_task(self, counted):
        spec, result, delta, _ = counted
        assert result.exit_code == 0
        assert delta["arena.genomes.reused"] > 0
        assert delta["runner.tasks.started"] \
            + delta["arena.genomes.reused"] \
            == delta["arena.genomes.evaluated"] \
            == spec.population * spec.generations

    def test_a_reused_evaluation_equals_a_fresh_one(self, counted):
        spec, _, _, reused = counted
        assert reused
        for genome, evaluation in reused:
            fresh = evaluate_genome({"genome": genome,
                                     "sample_period": spec.sample_period,
                                     "kill_attempts": 0}, 1)
            assert fresh == evaluation

    def test_a_fully_carried_population_forks_no_worker(self):
        spec = one_gen_spec()
        population = seed_population(spec.population,
                                     np.random.default_rng(3))
        carried = {fingerprint(genome): {"key": genome_key(genome)}
                   for genome in population}
        before = counts()
        evaluations, holes, reused = loop._evaluate_population(
            spec, population, 1, 2, 1, None, None, metrics(), carried)
        delta = counted_since(before)
        assert delta["runner.tasks.started"] == 0
        assert delta["runner.workers.started"] == 0
        assert delta["arena.genomes.reused"] == spec.population
        assert holes == []
        assert reused == spec.population
        assert evaluations == {index: carried[fingerprint(genome)]
                               for index, genome in enumerate(population)}

    def test_a_worker_kill_aimed_at_a_carried_elite_still_crashes(
            self, tmp_path):
        spec = ArenaSpec(**SPEC)
        chaos = ArenaChaos([ArenaFault(GENOME_KILL_FAULT, generation=2,
                                       genome=0)])
        result = run_arena(spec, str(tmp_path / "race"), processes=2,
                           retries=0, chaos=chaos)
        assert result.exit_code == 1
        assert result.holes_by_kind() == {CRASH: 1}
        hole, = result.holes
        assert hole["generation"] == 2
        # genome 0 of generation 2 is generation 1's first survivor
        elite = result.trajectory[1]["survivors"][0]
        assert hole["key"] == f"g2:0:{elite}"
        assert result.trajectory[-1]["evaluated"] == spec.population - 1


class TestFatal:
    @pytest.mark.parametrize("overrides, message", [
        ({"generations": 0}, "at least one generation"),
        ({"survivors": 9}, "survivors"),
        ({"sample_period": 0}, "sample_period"),
        ({"attacks": ("nope",)}, "unknown attack"),
        ({"workloads": ("nope",)}, "unknown workload"),
        ({"eval_seeds": (0,)}, "held-out"),
    ])
    def test_bad_specs_raise_arena_error(self, tmp_path, overrides,
                                         message):
        spec = ArenaSpec(**{**SPEC, **overrides})
        with pytest.raises(ArenaError, match=message):
            run_arena(spec, str(tmp_path / "race"))

    def test_mismatched_eval_corpus_is_fatal(self, clean, tmp_path):
        """A held-out corpus collected under a different counter layout
        must be refused before any scoring happens."""
        _, _, result = clean
        spec = one_gen_spec()
        stale = Dataset(records=[], sample_period=spec.sample_period,
                        counters_sha256="0" * 64)
        with pytest.raises(ModelSchemaError, match="counter"):
            run_arena(spec, str(tmp_path / "race"),
                      initial_detector=result.detector, eval_corpus=stale)


def test_build_corpus_is_deterministic():
    spec = one_gen_spec()
    a = build_corpus(spec, spec.eval_seeds)
    b = build_corpus(spec, spec.eval_seeds)
    assert len(a.records) == len(b.records) > 0
    assert [r.deltas for r in a.records] == [r.deltas for r in b.records]
    assert {r.label for r in a.records} == {0, 1}
