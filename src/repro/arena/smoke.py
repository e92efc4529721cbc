"""The ``repro arena --smoke`` resumability + rollback check.

A self-contained proof of the arms race's whole degradation contract,
run by ``scripts/ci.sh`` on every push:

1. an **uninterrupted** 2-generation race completes clean (exit 0)
   and scores at least one elite carried into generation 2 from its
   generation-1 evaluation instead of simulating it again — its
   deterministic report (``arena.md``) is the reference;
2. the same spec is **SIGKILLed mid-generation** (a ``gen_kill`` chaos
   fault at the top of generation 2), then ``--resume``\\ d: the resumed
   run restores generation 1's checkpoint (population, detector
   weights, RNG state), replays generation 2, exits 0 and produces a
   **byte-identical report** — the bit-exact resume acceptance check.
   The resumed generation carries nothing over and simulates every
   genome, so this also checks that the reused evaluations equal
   re-simulated ones;
3. a 1-generation race is wounded twice — a genome's worker SIGKILLed
   (no retries) and the candidate detector **sabotaged ahead of the
   regression gate** — and must degrade, not abort: exit 1 with
   exactly ``{crash: 1, gate_regression: 1}`` classified holes, and
   the shipped detector **bit-identical to the generation-0
   incumbent** (the rollback actually rolled back).

Any deviation prints a one-line reason and fails (exit 1).
"""

import os
import tempfile

from repro.arena.loop import ArenaSpec, run_arena
from repro.core.patching import detector_to_dict
from repro.obs import metrics
from repro.runtime import (
    CRASH, GATE_REGRESS_FAULT, GATE_REGRESSION, GEN_KILL_FAULT,
    GENOME_KILL_FAULT, ArenaChaos, ArenaFault, ChaosKill, CheckpointStore,
)

#: the smoke race: small enough for CI, big enough that evolution has a
#: real survivor pool (population 6, 2 breeding survivors)
SMOKE_SPEC = {
    "generations": 2,
    "population": 6,
    "survivors": 2,
    "attacks": ("meltdown", "flush-reload"),
    "workloads": ("stream", "sort"),
    "sample_period": 120,
    "samples_per_class": 8,
    "gan_iterations": 24,
    "gan_hidden": (24, 24),
    "epochs": 8,
    # the held-out folds are tiny (tens of windows), so one flipped
    # window moves a rate by ~0.06 — budgets sit above that noise
    # floor; the sabotaged candidate (threshold 0 -> fp_rate 1.0)
    # still trips by a mile
    "fp_budget": 0.15,
    "fn_budget": 0.10,
    "seed": 7,
}

#: the generation the phase-2 SIGKILL lands in
KILLED_GENERATION = 2
#: the genome index the phase-3 worker kill targets
KILLED_GENOME = 0


def _read(path):
    with open(path, "rb") as f:
        return f.read()


def run_smoke(jobs=None, echo=print):
    """Run the three-phase arena check; returns 0 ok / 1 failed."""
    spec = ArenaSpec(**SMOKE_SPEC)

    with tempfile.TemporaryDirectory() as clean_dir, \
            tempfile.TemporaryDirectory() as chaos_dir, \
            tempfile.TemporaryDirectory() as gate_dir:
        # -- phase 1: uninterrupted reference ---------------------------------
        reused = metrics().counter("arena.genomes.reused")
        reused_before = reused.value
        clean = run_arena(spec, clean_dir, processes=jobs, retries=1)
        clean_reused = reused.value - reused_before
        if clean.exit_code != 0:
            echo(f"arena smoke FAILED: uninterrupted run had "
                 f"{len(clean.holes)} holes")
            return 1
        if clean.promotions + clean.rollbacks != spec.generations:
            echo(f"arena smoke FAILED: uninterrupted run gated "
                 f"{clean.promotions + clean.rollbacks} candidates, "
                 f"expected {spec.generations}")
            return 1
        if clean_reused < 1:
            echo("arena smoke FAILED: uninterrupted run reused no "
                 "evaluation of a carried elite")
            return 1
        reference = _read(os.path.join(clean_dir, "arena.md"))

        # -- phase 2: SIGKILL mid-generation, then bit-exact resume -----------
        chaos = ArenaChaos([
            ArenaFault(GEN_KILL_FAULT, generation=KILLED_GENERATION),
        ])
        try:
            run_arena(spec, chaos_dir, processes=jobs, retries=1,
                      chaos=chaos)
            echo("arena smoke FAILED: gen_kill fault did not fire")
            return 1
        except ChaosKill:
            pass
        resumed = run_arena(spec, chaos_dir, processes=jobs, retries=1,
                            resume=True)
        if resumed.exit_code != 0:
            echo(f"arena smoke FAILED: resume left "
                 f"{len(resumed.holes)} holes")
            return 1
        if _read(os.path.join(chaos_dir, "arena.md")) != reference:
            echo("arena smoke FAILED: resumed report is not "
                 "bit-identical to the uninterrupted run")
            return 1

        # -- phase 3: worker kill + sabotaged candidate must degrade ----------
        gate_spec = ArenaSpec(**{**SMOKE_SPEC, "generations": 1})
        chaos = ArenaChaos([
            ArenaFault(GENOME_KILL_FAULT, generation=1,
                       genome=KILLED_GENOME),
            ArenaFault(GATE_REGRESS_FAULT, generation=1),
        ])
        wounded = run_arena(gate_spec, gate_dir, processes=jobs,
                            retries=0, chaos=chaos)
        if wounded.exit_code != 1:
            echo(f"arena smoke FAILED: wounded run exited "
                 f"{wounded.exit_code}, expected 1 (holes)")
            return 1
        kinds = wounded.holes_by_kind()
        if kinds != {CRASH: 1, GATE_REGRESSION: 1}:
            echo(f"arena smoke FAILED: holes classified {kinds}, "
                 f"expected {{crash: 1, gate_regression: 1}}")
            return 1
        # rollback proof: the shipped detector is bit-identical to the
        # generation-0 incumbent persisted before the sabotaged retrain
        store = CheckpointStore(os.path.join(gate_dir, "checkpoints"))
        store.open({"spec_fingerprint": gate_spec.fingerprint,
                    "guard_policy": "rollback",
                    "initial_detector": ""}, resume=True)
        incumbent0 = store.get("gen-0")["detector"]
        if detector_to_dict(wounded.detector) != incumbent0:
            echo("arena smoke FAILED: rolled-back detector differs "
                 "from the generation-0 incumbent")
            return 1

    echo(f"arena smoke ok: {spec.generations} generations, "
         f"{clean_reused} evaluations reused; "
         f"kill at gen {KILLED_GENERATION} -> resume bit-identical; "
         f"worker kill + sabotaged candidate -> 2 classified holes, "
         f"gate rolled back, exit 1")
    return 0
