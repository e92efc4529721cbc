"""Forked-worker entry points for the arena's genome evaluation fan-out.

Each genome new to a generation is simulated in a forked
:class:`~repro.runtime.runner` worker process: the worker rebuilds the
attack from its genome dict, runs the full simulation, checks whether
the channel actually leaked, and ships the raw HPC windows back to the
parent.  Failures are isolated per attempt, and a worker may have
evaluated earlier genomes, so the result depends only on the payload.
That purity also lets the parent score an elite carried into the next
generation from its previous evaluation, without a worker.  Scoring
against the incumbent detector happens in the *parent* — the detector
never crosses the process boundary, so a candidate promotion
mid-campaign can never race a stale copy in a worker.

The function must be importable at module top level (workers are
forked and re-call it by reference), and chaos worker-kill faults are
honoured here via the same ``kill_attempts`` countdown the campaign
workers use.
"""

from repro.arena.genome import build_attack, genome_key
from repro.attacks.base import bits_balanced_accuracy
from repro.data.dataset import collect_source, validate_records
from repro.runtime.chaos import chaos_kill_self
from repro.sim.hpc import COUNTER_NAMES

#: leak threshold matching ``build_dataset(require_leak=True)``
LEAK_THRESHOLD = 0.75


def evaluate_genome(payload, attempt):
    """Simulate one genome; return its windows and leak verdict.

    ``payload`` is ``{"genome": dict, "sample_period": int,
    "kill_attempts": int}``.  When a chaos fault armed this genome,
    attempts up to ``kill_attempts`` die via SIGKILL — exercising the
    runner's crash-retry path exactly like a real worker loss.
    """
    if attempt <= payload.get("kill_attempts", 0):
        chaos_kill_self()
    genome = payload["genome"]
    attack = build_attack(genome)
    records, result, machine = collect_source(
        attack, label=1, sample_period=payload["sample_period"])
    validate_records(records)
    recovered = attack.recover(machine, result)
    score = bits_balanced_accuracy(attack.secret_bits, recovered)
    return {
        "key": genome_key(genome),
        "deltas": [[int(d) for d in r.deltas] for r in records],
        "windows": len(records),
        "cycles": int(result.cycles),
        "leaked": bool(score >= LEAK_THRESHOLD),
        "leak_score": float(round(score, 4)),
    }


def validate_evaluation(value):
    """Runner-side validator: a structurally bad result is classified as
    a ``divergent`` hole, not silently scored."""
    if not isinstance(value, dict):
        raise ValueError("evaluation result is not a dict")
    for field in ("key", "deltas", "windows", "cycles", "leaked"):
        if field not in value:
            raise ValueError(f"evaluation result missing {field!r}")
    deltas = value["deltas"]
    if not deltas or value["windows"] != len(deltas):
        raise ValueError("evaluation window count does not match matrix")
    width = len(COUNTER_NAMES)
    for row in deltas:
        if len(row) != width:
            raise ValueError(
                f"evaluation row has {len(row)} deltas, expected {width}")
        for d in row:
            if not isinstance(d, int) or isinstance(d, bool) or d < 0:
                raise ValueError(f"invalid counter delta {d!r}")
    return value
