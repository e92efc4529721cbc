"""Deterministic fault injection for the corpus pipeline *and* the
training loop.

Wrapping any attack/workload source in a :class:`ChaosSource` lets the
test suite (and operators rehearsing failure drills) inject the three
failure kinds the runner quarantines — worker crashes, hangs, and
divergent (garbage) traces — at exact, seeded points, so every
fault-tolerance behavior is exercised in CI rather than discovered in a
week-long corpus build.

Fault activation is keyed off the *attempt number* the runner passes
into the task function, so "fail twice then succeed" scenarios are
fully deterministic with no shared state between worker processes.

:class:`TrainingChaos` is the training-stage counterpart: passed into
``AMGAN.train``/``vaccinate`` it poisons gradients with NaN, scales
parameters to provoke a loss spike, or kills the process between
checkpoints (:class:`ChaosKill`), at exact iteration numbers.  Each
fault fires **once** — after the guard rolls back and replays the
iteration, the retry runs clean, exactly like a transient hardware or
numeric glitch.

:class:`CampaignChaos` is the campaign-stage fault set: it SIGKILLs a
worker mid-cell (the parent sees a silent child death and classifies
``crash``), corrupts a just-written cache entry in place, or truncates
it — exactly the disk/process failures a week-long evaluation matrix
meets in practice.  Cache faults fire once per cell, so a ``--resume``
run replays the campaign clean and the degradation contract
(quarantined holes, exit 1, bit-identical resumed aggregate) is
provable in CI.
"""

import os
import random
import time

import numpy as np

from repro.runtime.errors import RuntimeTaskError

#: injectable fault kinds
CRASH_FAULT = "crash"
HANG_FAULT = "hang"
GARBAGE_FAULT = "garbage"

#: injectable training-stage fault kinds
NAN_GRAD_FAULT = "nan_grad"
LOSS_SPIKE_FAULT = "loss_spike"
KILL_FAULT = "kill"

TRAINING_FAULT_KINDS = (NAN_GRAD_FAULT, LOSS_SPIKE_FAULT, KILL_FAULT)

#: injectable campaign-stage fault kinds
WORKER_KILL_FAULT = "worker_kill"
CACHE_CORRUPT_FAULT = "cache_corrupt_entry"
CACHE_TRUNCATE_FAULT = "cache_truncate_entry"

CAMPAIGN_FAULT_KINDS = (WORKER_KILL_FAULT, CACHE_CORRUPT_FAULT,
                        CACHE_TRUNCATE_FAULT)

#: injectable arena-stage fault kinds
GEN_KILL_FAULT = "gen_kill"
GENOME_KILL_FAULT = "genome_kill"
REVACCINATE_NAN_FAULT = "revaccinate_nan"
ARENA_CHECKPOINT_CORRUPT_FAULT = "gen_checkpoint_corrupt"
GATE_REGRESS_FAULT = "gate_regress"

ARENA_FAULT_KINDS = (GEN_KILL_FAULT, GENOME_KILL_FAULT,
                     REVACCINATE_NAN_FAULT,
                     ARENA_CHECKPOINT_CORRUPT_FAULT, GATE_REGRESS_FAULT)

#: injectable serving-stage fault kinds
SLOW_TENANT_FAULT = "slow_tenant"
BURST_ARRIVAL_FAULT = "burst_arrival"
NAN_WINDOW_FAULT = "nan_window"
DETECTOR_EXCEPTION_FAULT = "detector_exception"

SERVE_FAULT_KINDS = (SLOW_TENANT_FAULT, BURST_ARRIVAL_FAULT,
                     NAN_WINDOW_FAULT, DETECTOR_EXCEPTION_FAULT)

#: finite sentinel value a ``detector_exception`` fault plants in a
#: window's first counter: it passes every input-finiteness check, then
#: makes the chaos-wrapped detector raise mid-batch — a deterministic
#: stand-in for "the model blew up on this tenant's window"
DETECTOR_POISON_SENTINEL = -987654321.0


class ChaosCrash(RuntimeTaskError):
    """The exception a crash-fault raises inside the worker."""


class ChaosKill(RuntimeTaskError):
    """Raised by a ``kill`` training fault: simulates the process dying
    mid-training (between two checkpoints).  Tests catch it and then
    exercise the resume path."""


class FaultSpec:
    """What to inject and for how long.

    ``fail_attempts`` is the number of leading attempts that fault; an
    attempt beyond it runs clean.  The default (a huge number) makes the
    fault persistent, which is how quarantine paths are exercised.
    """

    def __init__(self, kind, fail_attempts=10 ** 9, hang_seconds=3600.0):
        if kind not in (CRASH_FAULT, HANG_FAULT, GARBAGE_FAULT):
            raise ValueError(f"unknown fault kind {kind!r}")
        self.kind = kind
        self.fail_attempts = fail_attempts
        self.hang_seconds = hang_seconds

    def active(self, attempt):
        return attempt <= self.fail_attempts


class ChaosSource:
    """A source wrapper that misbehaves on demand.

    Proxies the source interface (``build``, ``max_cycles``, ``name``,
    ``category``, ``seed``) so it is a drop-in replacement anywhere a
    real attack or workload is accepted, and exposes the two hooks the
    parallel collector honours:

    * ``chaos_inject(attempt)`` — runs *before* the simulation; raises
      (crash) or sleeps past any sane deadline (hang);
    * ``chaos_mutate(records, attempt)`` — runs *after* the simulation;
      corrupts the collected records (garbage / divergent trace).
    """

    def __init__(self, inner, fault, seed=0):
        self.inner = inner
        self.fault = fault
        self.chaos_seed = seed
        self.name = getattr(inner, "name", type(inner).__name__)
        self.category = getattr(inner, "category", "benign")
        self.seed = getattr(inner, "seed", 0)

    def build(self):
        return self.inner.build()

    def max_cycles(self):
        if hasattr(self.inner, "max_cycles"):
            return self.inner.max_cycles()
        return 400_000

    # -- hooks invoked by the collection worker -------------------------------

    def chaos_inject(self, attempt):
        if not self.fault.active(attempt):
            return
        if self.fault.kind == CRASH_FAULT:
            raise ChaosCrash(
                f"injected crash in {self.name} (attempt {attempt})")
        if self.fault.kind == HANG_FAULT:
            time.sleep(self.fault.hang_seconds)

    def chaos_mutate(self, records, attempt):
        if self.fault.kind != GARBAGE_FAULT or not self.fault.active(attempt):
            return records
        rng = random.Random((self.chaos_seed << 16) ^ attempt)
        corrupted = []
        for record in records:
            deltas = list(record.deltas)
            if deltas and rng.random() < 0.5:
                deltas = deltas[: max(1, len(deltas) // 2)]   # wrong width
            if deltas:
                deltas[rng.randrange(len(deltas))] = -rng.randrange(1, 99)
            record.deltas = deltas
            corrupted.append(record)
        return corrupted


class TrainingFault:
    """One training-stage fault: ``kind`` at iteration ``at``.

    ``nan_grad`` poisons one parameter of the target network with NaN
    right after the iteration's optimizer steps (indistinguishable from
    a NaN that propagated out of an exploded gradient); ``loss_spike``
    multiplies the parameters by ``scale`` so the next loss detaches
    from its EMA; ``kill`` raises :class:`ChaosKill` before the
    iteration runs.
    """

    def __init__(self, kind, at, scale=1e4):
        if kind not in TRAINING_FAULT_KINDS:
            raise ValueError(f"unknown training fault kind {kind!r}")
        self.kind = kind
        self.at = at
        self.scale = scale


class TrainingChaos:
    """Deterministic fault injector for guarded training loops.

    The training loop calls :meth:`maybe_kill` at the top of each
    iteration and :meth:`corrupt` after its optimizer steps.  Every
    fault fires exactly once (keyed by its position in ``faults``), so
    a guard rollback that replays the faulted iteration sees a clean
    retry — the deterministic analogue of a transient glitch.
    """

    def __init__(self, faults):
        self.faults = list(faults)
        self.fired = set()

    def _due(self, iteration, kinds):
        for i, fault in enumerate(self.faults):
            if i not in self.fired and fault.at == iteration \
                    and fault.kind in kinds:
                self.fired.add(i)
                return fault
        return None

    def maybe_kill(self, iteration):
        fault = self._due(iteration, (KILL_FAULT,))
        if fault is not None:
            raise ChaosKill(f"injected kill at iteration {iteration}")

    def corrupt(self, iteration, networks):
        """Apply any due nan_grad / loss_spike fault to ``networks``
        (a mapping of name -> MLP); returns the fault or ``None``."""
        fault = self._due(iteration, (NAN_GRAD_FAULT, LOSS_SPIKE_FAULT))
        if fault is None:
            return None
        net = next(iter(networks.values()))
        if fault.kind == NAN_GRAD_FAULT:
            params = net.parameters
            params[0].flat[0] = float("nan")
        else:
            for p in net.parameters:
                p *= fault.scale
        return fault


class CampaignFault:
    """One campaign-stage fault aimed at one matrix cell.

    ``cell`` is the cell's position in the expanded matrix (its
    ``index``).  ``worker_kill`` SIGKILLs the worker process mid-cell on
    the first ``fail_attempts`` attempts (the default makes it
    persistent, so the cell quarantines as a ``crash`` hole; set it
    below the runner's retry budget to rehearse recovery instead).
    ``cache_corrupt_entry`` flips a byte in the cell's just-written
    cache entry; ``cache_truncate_entry`` cuts the file short — both
    fail read-back verification and quarantine the cell
    ``cache_corrupt``.
    """

    def __init__(self, kind, cell, fail_attempts=10 ** 9):
        if kind not in CAMPAIGN_FAULT_KINDS:
            raise ValueError(f"unknown campaign fault kind {kind!r}")
        self.kind = kind
        self.cell = cell
        self.fail_attempts = fail_attempts


class CampaignChaos:
    """Deterministic fault injector for campaign runs.

    Worker kills are *shipped into* the cell payload (as a plain
    ``fail_attempts`` count) so the fault fires inside the isolated
    worker process with no shared state; cache faults run parent-side
    via :meth:`mangle_entry` right after the orchestrator persists a
    cell, and fire **once** per fault — a resumed campaign re-executes
    the quarantined cell clean, like a transient disk glitch.
    """

    def __init__(self, faults):
        self.faults = list(faults)
        self.fired = set()

    def kill_attempts(self, cell_index):
        """How many leading attempts of this cell the worker must die
        on (0 = no kill fault aimed here)."""
        return max((f.fail_attempts for f in self.faults
                    if f.kind == WORKER_KILL_FAULT and f.cell == cell_index),
                   default=0)

    def mangle_entry(self, cell_index, path):
        """Corrupt/truncate the cache entry at ``path`` if a due fault
        targets this cell; returns the fault or ``None``."""
        for i, fault in enumerate(self.faults):
            if i in self.fired or fault.cell != cell_index \
                    or fault.kind not in (CACHE_CORRUPT_FAULT,
                                          CACHE_TRUNCATE_FAULT):
                continue
            self.fired.add(i)
            corrupt_in_place(path,
                             truncate=fault.kind == CACHE_TRUNCATE_FAULT)
            return fault
        return None


class ArenaFault:
    """One arena-stage fault aimed at one generation of the arms race.

    * ``gen_kill`` — raise :class:`ChaosKill` when generation
      ``generation`` reaches phase ``phase`` (``evaluate`` /
      ``revaccinate`` / ``checkpoint``): the deterministic stand-in for
      a SIGKILL mid-generation, which tests catch before exercising
      ``--resume``;
    * ``genome_kill`` — the worker evaluating genome index ``genome``
      of that generation SIGKILLs itself on its first ``fail_attempts``
      attempts (persistent by default, so the genome quarantines as a
      ``crash`` hole);
    * ``revaccinate_nan`` — the generation's re-vaccination round gets a
      :class:`TrainingChaos` NaN-gradient fault at GAN iteration
      ``at_iteration`` (the guard must roll back and retry clean);
    * ``gen_checkpoint_corrupt`` — flips a byte in the generation's
      just-written checkpoint shard, so a later resume must drop it,
      fall back to the previous generation, and classify the hole;
    * ``gate_regress`` — sabotages the candidate detector *before* the
      regression gate (threshold forced to 0, so every benign window
      flags): the gate must trip, roll back to the incumbent, and
      re-draw the survivor pool.
    """

    def __init__(self, kind, generation, genome=None, at_iteration=1,
                 fail_attempts=10 ** 9, phase="evaluate"):
        if kind not in ARENA_FAULT_KINDS:
            raise ValueError(f"unknown arena fault kind {kind!r}")
        self.kind = kind
        self.generation = generation
        self.genome = genome
        self.at_iteration = at_iteration
        self.fail_attempts = fail_attempts
        self.phase = phase


class ArenaChaos:
    """Deterministic fault injector for arena (arms-race) runs.

    Genome kills are shipped into the worker payload as a plain
    ``fail_attempts`` count (no shared state crosses the process
    boundary); training faults are delegated to a per-generation
    :class:`TrainingChaos`; checkpoint corruption and gate sabotage run
    parent-side and fire **once** per fault, so a resumed arena replays
    the wounded generation clean.
    """

    def __init__(self, faults):
        self.faults = list(faults)
        self.fired = set()

    def maybe_kill(self, generation, phase):
        """Raise :class:`ChaosKill` when a due ``gen_kill`` fault targets
        this (generation, phase) boundary."""
        for i, fault in enumerate(self.faults):
            if i in self.fired or fault.kind != GEN_KILL_FAULT \
                    or fault.generation != generation \
                    or fault.phase != phase:
                continue
            self.fired.add(i)
            raise ChaosKill(f"injected kill in generation {generation} "
                            f"at phase {phase!r}")

    def kill_attempts(self, generation, genome_index):
        """How many leading attempts of this genome's evaluation the
        worker must die on (0 = no kill fault aimed here)."""
        return max((f.fail_attempts for f in self.faults
                    if f.kind == GENOME_KILL_FAULT
                    and f.generation == generation
                    and f.genome == genome_index), default=0)

    def training_chaos(self, generation):
        """A :class:`TrainingChaos` for this generation's re-vaccination
        round, or ``None`` when no training fault targets it."""
        faults = [TrainingFault(NAN_GRAD_FAULT, at=f.at_iteration)
                  for f in self.faults
                  if f.kind == REVACCINATE_NAN_FAULT
                  and f.generation == generation]
        return TrainingChaos(faults) if faults else None

    def sabotage_candidate(self, generation, detector):
        """Wreck a due generation's candidate detector ahead of the
        regression gate (threshold forced to 0.0: every window flags,
        so the FP budget must trip); returns the fault or ``None``."""
        for i, fault in enumerate(self.faults):
            if i in self.fired or fault.kind != GATE_REGRESS_FAULT \
                    or fault.generation != generation:
                continue
            self.fired.add(i)
            detector.threshold = 0.0
            return fault
        return None

    def mangle_checkpoint(self, generation, path):
        """Flip a byte in the generation's checkpoint shard at ``path``
        if a due fault targets it; returns the fault or ``None``."""
        for i, fault in enumerate(self.faults):
            if i in self.fired \
                    or fault.kind != ARENA_CHECKPOINT_CORRUPT_FAULT \
                    or fault.generation != generation:
                continue
            self.fired.add(i)
            corrupt_in_place(path)
            return fault
        return None


class ServeFault:
    """One serving-stage fault aimed at one tenant's stream.

    * ``slow_tenant`` — the tenant emits a window only every ``every``
      ticks (a straggler starving its own stream, not its siblings);
    * ``burst_arrival`` — at tick ``at_tick`` the tenant emits
      ``windows`` windows at once (an arrival spike that must drive
      queue-overflow shedding, never an unbounded queue);
    * ``nan_window`` — the tenant's window at ``at_tick`` is replaced
      with non-finite deltas (the malformed-feature fault the
      fail-secure watchdog must catch *per tenant* in the batched path);
    * ``detector_exception`` — the tenant's window at ``at_tick`` is
      planted with :data:`DETECTOR_POISON_SENTINEL`, and the
      chaos-wrapped detector raises whenever a batch contains it — the
      service must fall back to per-window attribution and latch only
      the offending tenant.
    """

    def __init__(self, kind, tenant, at_tick=None, every=2, windows=64):
        if kind not in SERVE_FAULT_KINDS:
            raise ValueError(f"unknown serve fault kind {kind!r}")
        if kind != SLOW_TENANT_FAULT and at_tick is None:
            raise ValueError(f"{kind} fault needs at_tick")
        self.kind = kind
        self.tenant = tenant
        self.at_tick = at_tick
        self.every = every
        self.windows = windows


class _ChaosDetector:
    """Detector proxy that raises on batches holding a poisoned window.

    Wraps anything with a ``score_batch``; every other attribute
    passes through, so it drops into the serving layer wherever a real
    detector is accepted.
    """

    def __init__(self, inner):
        self.inner = inner

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def score_batch(self, deltas):
        if np.any(deltas == DETECTOR_POISON_SENTINEL):
            raise RuntimeError("injected detector exception "
                               "(poisoned window in batch)")
        return self.inner.score_batch(deltas)


class ServeChaos:
    """Deterministic fault injector for streaming-inference runs.

    The serve driver consults :meth:`emit_count` for each (tenant,
    tick) arrival and :meth:`poison` for each emitted window; detector
    faults additionally require wrapping the detector with
    :meth:`wrap_detector` so the planted sentinel actually raises.
    All activations are pure functions of (tenant, tick), so a chaos
    run is exactly replayable.
    """

    def __init__(self, faults):
        self.faults = list(faults)

    def wrap_detector(self, detector):
        if any(f.kind == DETECTOR_EXCEPTION_FAULT for f in self.faults):
            return _ChaosDetector(detector)
        return detector

    def emit_count(self, tenant, tick):
        """How many windows this tenant emits this tick (default 1)."""
        count = 1
        for fault in self.faults:
            if fault.tenant != tenant:
                continue
            if fault.kind == SLOW_TENANT_FAULT and tick % fault.every:
                count = 0
            elif fault.kind == BURST_ARRIVAL_FAULT \
                    and tick == fault.at_tick:
                count = fault.windows
        return count

    def poison(self, tenant, tick, window):
        """Return the (possibly corrupted) window for this arrival."""
        for fault in self.faults:
            if fault.tenant != tenant or fault.at_tick != tick:
                continue
            if fault.kind == NAN_WINDOW_FAULT:
                window = np.array(window, dtype=float)
                window[0] = float("nan")
                return window
            if fault.kind == DETECTOR_EXCEPTION_FAULT:
                window = np.array(window, dtype=float)
                window[0] = DETECTOR_POISON_SENTINEL
                return window
        return window


def corrupt_in_place(path, truncate=False):
    """Flip the middle byte of the file at ``path`` (or, with
    ``truncate``, cut it to its first third) in place: the disk
    corruption a sealed file must refuse to open."""
    with open(path, "rb") as f:
        data = f.read()
    if truncate:
        data = data[: len(data) // 3]
    else:
        pos = len(data) // 2
        data = data[:pos] + bytes([(data[pos] + 1) % 256]) + data[pos + 1:]
    # deliberately torn in place: this *is* the corruption the verified
    # reader must catch, so it must not go through the atomic writer
    with open(path, "wb") as f:  # repro-lint: disable=atomic-io
        f.write(data)


def chaos_kill_self():
    """SIGKILL the calling process — the worker-side half of a
    ``worker_kill`` fault.  Dies without unwinding, so the parent sees
    a silent child death (exit ``-SIGKILL``), exactly like the OOM
    killer or a segfault."""
    os.kill(os.getpid(), 9)


def inject_faults(sources, plan, seed=0):
    """Wrap ``sources`` (a list) per ``plan``: a mapping of list index ->
    :class:`FaultSpec`.  Unlisted sources pass through untouched."""
    wrapped = []
    for i, source in enumerate(sources):
        if i in plan:
            wrapped.append(ChaosSource(source, plan[i], seed=seed + i))
        else:
            wrapped.append(source)
    return wrapped
