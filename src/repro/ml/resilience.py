"""Training resilience: guarded optimization, state snapshots, and
durable training checkpoints.

PR 1 made *corpus collection* fault-tolerant; this module does the same
for the other half of the EVAX loop — AM-GAN vaccination training and
detector fitting.  Three pieces, documented in
``docs/training_resilience.md``:

* :class:`TrainingGuard` — watches every optimization step for
  non-finite parameters, gradient spikes and loss divergence (windowed
  EMA threshold), classifies each anomaly into a taxonomy mirroring the
  runtime failure kinds, and reacts per policy: sanitize in place
  (``clip``), rewind to the last in-memory snapshot with a reseeded
  retry (``rollback``), or fail fast (``raise``).  Bounded retries; a
  training run that cannot be stabilised raises the typed
  :class:`TrainingDivergedError` instead of silently producing a
  garbage detector.
* state capture/restore helpers — bit-exact serialization of MLP
  parameters, optimizer state (Adam moments / SGD velocity) and numpy
  Generator state, JSON-able for durable checkpoints (each float64
  vector as base64 of its little-endian bytes).
* :class:`TrainingCheckpointer` — periodic atomic snapshots of every
  network + RNG in a training loop via
  :class:`repro.runtime.checkpoint.CheckpointStore`, so a killed
  ``repro train`` resumes bit-exact instead of restarting from scratch.
"""

import base64
import math

import numpy as np

from repro.obs import metrics, obs_event

#: training-failure taxonomy (mirrors ``repro.runtime.errors``:
#: crash / timeout / divergent for tasks, these three for optimization)
NAN = "nan"                            # non-finite loss or parameters
GRAD_SPIKE = "grad_spike"              # gradient magnitude explosion
LOSS_DIVERGENCE = "loss_divergence"    # loss detached from its EMA

TRAINING_FAILURE_KINDS = (NAN, GRAD_SPIKE, LOSS_DIVERGENCE)

#: floor (nats) under the loss EMA in the divergence test, so a
#: converged run trips only above ``loss_factor`` x 0.1 (2.5 nats at the
#: default factor).  A converged detector fit holds its EMA near 0.01,
#: where a batch with a misclassified window costs 0.15-0.68 nats --
#: below the 0.69 of a coin flip, yet over 25x the EMA.  The largest
#: batch loss of a healthy fit is about 0.8, so 2.5 leaves ~3x headroom;
#: NaNs, gradient spikes and runaway weights have checks of their own.
LOSS_EMA_FLOOR = 0.1

#: guard reaction policies
POLICY_ROLLBACK = "rollback"
POLICY_CLIP = "clip"
POLICY_RAISE = "raise"

POLICIES = (POLICY_ROLLBACK, POLICY_CLIP, POLICY_RAISE)


class TrainingDivergedError(RuntimeError):
    """Training could not be stabilised within the retry budget.

    Carries the failure ``kind`` (one of
    :data:`TRAINING_FAILURE_KINDS`), the ``step`` that tripped, and the
    ``stage`` name of the loop being guarded.
    """

    def __init__(self, message, kind=None, step=None, stage=None):
        super().__init__(message)
        self.kind = kind
        self.step = step
        self.stage = stage


# ---------------------------------------------------------------------------
# state capture / restore
# ---------------------------------------------------------------------------

def _pack(vector):
    """A float64 vector as base64 text of its little-endian bytes: every
    bit kept, NaN payloads and -0.0 included."""
    return base64.b64encode(
        np.asarray(vector, dtype="<f8").tobytes()).decode("ascii")


def _unpack(text):
    """The writable float64 vector :func:`_pack` encoded."""
    return np.frombuffer(base64.b64decode(text, validate=True),
                         dtype="<f8").astype(np.float64)


def optimizer_state(optimizer):
    """JSON-able state of an :class:`~repro.ml.optim.Adam` or
    :class:`~repro.ml.optim.SGD` optimizer (bit-exact round-trip)."""
    name = type(optimizer).__name__.lower()
    if hasattr(optimizer, "_m"):
        return {
            "kind": name,
            "t": optimizer._t,
            "m": {str(i): _pack(v) for i, v in optimizer._m.items()},
            "v": {str(i): _pack(v) for i, v in optimizer._v.items()},
        }
    return {
        "kind": name,
        "velocity": {str(i): _pack(v)
                     for i, v in getattr(optimizer, "_velocity", {}).items()},
    }


def set_optimizer_state(optimizer, state):
    """Restore an optimizer from :func:`optimizer_state` output."""
    if "t" in state:
        optimizer._t = state["t"]
        optimizer._m = {int(i): _unpack(v) for i, v in state["m"].items()}
        optimizer._v = {int(i): _unpack(v) for i, v in state["v"].items()}
    else:
        optimizer._velocity = {int(i): _unpack(v)
                               for i, v in state.get("velocity", {}).items()}


def mlp_state(mlp):
    """JSON-able snapshot of an :class:`~repro.ml.network.MLP`: its
    layers' weight shapes, its flat :attr:`~repro.ml.network.MLP.param_vector`
    and its optimizer state.  Every vector is stored as its exact bytes
    (:func:`_pack`), so restore is bit-exact."""
    return {
        "shapes": [list(layer.weights.shape) for layer in mlp.layers],
        "params": _pack(mlp.param_vector),
        "optimizer": optimizer_state(mlp.optimizer),
    }


def set_mlp_state(mlp, state):
    """Restore a network serialized by :func:`mlp_state` in place
    (layer count and weight shapes must match the live network)."""
    if len(state["shapes"]) != len(mlp.layers):
        raise ValueError("layer count mismatch in training snapshot")
    for layer, shape in zip(mlp.layers, state["shapes"]):
        if tuple(shape) != layer.weights.shape:
            raise ValueError("weight shape mismatch in training snapshot")
    params = _unpack(state["params"])
    if params.shape != mlp.param_vector.shape:
        raise ValueError("parameter count mismatch in training snapshot")
    np.copyto(mlp.param_vector, params)
    set_optimizer_state(mlp.optimizer, state["optimizer"])


def rng_state(rng):
    """JSON-able state of a ``numpy.random.Generator``."""
    return rng.bit_generator.state


def set_rng_state(rng, state):
    """Restore a Generator from :func:`rng_state` output."""
    rng.bit_generator.state = state


def _moments(optimizer):
    """The optimizer's per-parameter state dicts: Adam's ``m`` and ``v``,
    or SGD's velocity."""
    if hasattr(optimizer, "_m"):
        return (optimizer._m, optimizer._v)
    return (getattr(optimizer, "_velocity", {}),)


def _clone_optimizer_state(optimizer):
    return (getattr(optimizer, "_t", None),
            [{i: a.copy() for i, a in d.items()}
             for d in _moments(optimizer)])


def _restore_optimizer_state(optimizer, clone):
    t, saved = clone
    if t is not None:
        optimizer._t = t
    for live, arrays in zip(_moments(optimizer), saved):
        if not arrays:
            live.clear()          # the snapshot predates the first step
        for i, a in arrays.items():
            np.copyto(live[i], a)


# ---------------------------------------------------------------------------
# the guard
# ---------------------------------------------------------------------------

def _peaks(vector, starts):
    """Peak magnitude of each array laid out in ``vector`` from
    ``starts``; NaN wherever an array holds a NaN."""
    return np.maximum.reduceat(np.abs(vector), starts).tolist()


class TrainingGuard:
    """Divergence watchdog for an optimization loop.

    Usage (the shape :meth:`repro.core.amgan.AMGAN.train` follows)::

        guard.watch(stage="gan", generator=gan.generator, ...)
        guard.attach_rng(gan.rng)
        step = 0
        while step < n:
            guard.snapshot_if_due(step)
            ... one training step ...
            rewind = guard.inspect(step, loss=loss)
            if rewind is not None:
                step = rewind          # rolled back; retry from snapshot
                continue
            step += 1

    Parameters
    ----------
    policy:
        ``rollback`` (default) — restore the last in-memory snapshot
        (parameters, optimizer moments *and* RNG state), perturb the RNG
        by *k* draws for the *k*-th consecutive retry from that snapshot
        so every retry takes a different path, and rewind the loop;
        after ``max_rollbacks`` consecutive failures raise
        :class:`TrainingDivergedError`.
        ``clip`` — sanitize parameters in place (non-finite -> 0,
        magnitude clipped) and keep going.
        ``raise`` — fail fast on the first anomaly.
    loss_window / loss_factor:
        A loss is divergent when it exceeds ``loss_factor`` times the
        exponential moving average over the last ``loss_window`` steps,
        floored at :data:`LOSS_EMA_FLOOR` (and the EMA is established).
    grad_limit:
        Largest tolerated absolute gradient entry.
    param_limit:
        Largest tolerated absolute parameter entry — a runaway weight
        norm is divergence even while the loss still reads sane.
    snapshot_every:
        Steps between in-memory rollback snapshots.
    """

    def __init__(self, policy=POLICY_ROLLBACK, loss_window=32,
                 loss_factor=25.0, grad_limit=1e4, param_limit=1e6,
                 max_rollbacks=3, snapshot_every=25, clip_limit=1e3):
        if policy not in POLICIES:
            raise ValueError(f"unknown guard policy {policy!r}")
        self.policy = policy
        self.loss_window = loss_window
        self.loss_factor = loss_factor
        self.grad_limit = grad_limit
        self.param_limit = param_limit
        self.max_rollbacks = max_rollbacks
        self.snapshot_every = snapshot_every
        self.clip_limit = clip_limit
        self.stage = "train"
        self.trips = []                        # (step, kind, action)
        self._networks = {}
        self._rng = None
        self._snapshot = None
        self._snapshot_step = 0
        self._ema = None
        self._ema_steps = 0
        self._rollbacks_since_progress = 0

    # -- wiring ------------------------------------------------------------

    def watch(self, stage="train", **networks):
        """(Re)bind the guard to the networks of one training stage.
        Clears snapshots and loss history from any previous stage."""
        self.stage = stage
        self._networks = dict(networks)
        self._rng = None
        self._snapshot = None
        self._snapshot_step = 0
        self._ema = None
        self._ema_steps = 0
        self._rollbacks_since_progress = 0
        return self

    def attach_rng(self, rng):
        """Include a ``numpy.random.Generator`` in snapshots so a
        rollback rewinds the random sequence too."""
        self._rng = rng
        return self

    # -- snapshots ---------------------------------------------------------

    def snapshot_if_due(self, step):
        if self._snapshot is None or step - self._snapshot_step >= \
                self.snapshot_every:
            self.take_snapshot(step)

    def take_snapshot(self, step):
        """In-memory copy of every watched network + the RNG state."""
        self._snapshot = {
            name: (net.param_vector.copy(),
                   _clone_optimizer_state(net.optimizer))
            for name, net in self._networks.items()
        }
        if self._rng is not None:
            self._snapshot["__rng__"] = rng_state(self._rng)
        self._snapshot_step = step
        self._rollbacks_since_progress = 0

    def _restore_snapshot(self):
        for name, net in self._networks.items():
            params, opt_clone = self._snapshot[name]
            np.copyto(net.param_vector, params)
            _restore_optimizer_state(net.optimizer, opt_clone)
        if self._rng is not None and "__rng__" in self._snapshot:
            set_rng_state(self._rng, self._snapshot["__rng__"])

    # -- detection ---------------------------------------------------------

    def _classify(self, loss):
        """The first anomaly found, or ``None``.

        Per network, one ``reduceat`` over each flat vector gives every
        parameter and gradient array its peak magnitude.  ``maximum``
        propagates NaN and inf, so a non-finite peak is a non-finite
        array.  The peaks are walked in array order: NaN before magnitude
        within an array, parameters before gradients, networks in order.
        """
        if loss is not None and not np.isfinite(loss):
            return NAN, f"non-finite loss {loss!r}"
        for name, net in self._networks.items():
            for peak in _peaks(net.param_vector, net.segment_starts):
                if not math.isfinite(peak):
                    return NAN, f"non-finite parameters in {name}"
                if peak > self.param_limit:
                    return LOSS_DIVERGENCE, (
                        f"parameter magnitude {peak:.3g} in {name} "
                        f"(limit {self.param_limit:g})")
            for peak in _peaks(net.grad_vector, net.segment_starts):
                if not math.isfinite(peak) or peak > self.grad_limit:
                    return GRAD_SPIKE, (f"gradient peak {peak:.3g} in "
                                        f"{name} (limit {self.grad_limit:g})")
        if loss is not None and self._ema is not None and \
                self._ema_steps >= self.loss_window and \
                loss > self.loss_factor * max(self._ema, LOSS_EMA_FLOOR):
            return LOSS_DIVERGENCE, (f"loss {loss:.3g} vs EMA "
                                     f"{self._ema:.3g} "
                                     f"(factor {self.loss_factor:g})")
        return None, None

    def _update_ema(self, loss):
        if loss is None or not np.isfinite(loss):
            return
        alpha = 2.0 / (self.loss_window + 1.0)
        self._ema = loss if self._ema is None else \
            (1.0 - alpha) * self._ema + alpha * loss
        self._ema_steps += 1

    # -- reaction ----------------------------------------------------------

    def inspect(self, step, loss=None):
        """Check the just-completed step.  Returns ``None`` when healthy
        (or after an in-place ``clip`` repair), or the step to rewind to
        after a rollback.  Raises :class:`TrainingDivergedError` per
        policy / when the retry budget is exhausted."""
        kind, detail = self._classify(loss)
        if kind is None:
            self._update_ema(loss)
            return None
        return self._react(step, kind, detail)

    def _react(self, step, kind, detail):
        reg = metrics()
        reg.inc("guard.trips")
        reg.inc(f"guard.trips.{kind}")
        action = self.policy
        if action == POLICY_ROLLBACK and self._snapshot is None:
            action = POLICY_RAISE           # nothing to roll back to
        self.trips.append((step, kind, action))
        obs_event("guard.trip", level="warn", stage=self.stage, step=step,
                  kind=kind, action=action, detail=detail)
        if action == POLICY_RAISE:
            raise TrainingDivergedError(
                f"{self.stage} diverged at step {step}: {detail}",
                kind=kind, step=step, stage=self.stage)
        if action == POLICY_CLIP:
            self._sanitize()
            reg.inc("guard.clips")
            return None
        # rollback
        self._rollbacks_since_progress += 1
        if self._rollbacks_since_progress > self.max_rollbacks:
            raise TrainingDivergedError(
                f"{self.stage} diverged at step {step} and exhausted "
                f"{self.max_rollbacks} rollbacks: {detail}",
                kind=kind, step=step, stage=self.stage)
        self._restore_snapshot()
        if self._rng is not None:
            # the "reseeded step": the k-th consecutive retry from this
            # snapshot skips k draws, so it replays neither the
            # trajectory that diverged nor any earlier retry
            for _ in range(self._rollbacks_since_progress):
                self._rng.integers(0, 2 ** 31)
        reg.inc("guard.rollbacks")
        obs_event("guard.rollback", level="warn", stage=self.stage,
                  step=step, to_step=self._snapshot_step, kind=kind)
        return self._snapshot_step

    def _sanitize(self):
        """The ``clip`` repair: non-finite parameters -> 0 (±inf ->
        ±``clip_limit``), magnitudes clipped, and non-finite optimizer
        moments zeroed -- a NaN gradient has poisoned those too, and
        left alone they would make the parameters NaN again next step."""
        for net in self._networks.values():
            p = net.param_vector
            np.nan_to_num(p, copy=False, nan=0.0, posinf=self.clip_limit,
                          neginf=-self.clip_limit)
            np.clip(p, -self.clip_limit, self.clip_limit, out=p)
            for moments in _moments(net.optimizer):
                for a in moments.values():
                    np.nan_to_num(a, copy=False, nan=0.0, posinf=0.0,
                                  neginf=0.0)

    # -- accounting --------------------------------------------------------

    def failure_counts(self):
        """Trip counts by taxonomy kind (zero-filled)."""
        counts = {kind: 0 for kind in TRAINING_FAILURE_KINDS}
        for _, kind, _ in self.trips:
            counts[kind] += 1
        return counts


# ---------------------------------------------------------------------------
# durable checkpoints
# ---------------------------------------------------------------------------

#: layout of a stored training snapshot, kept in the checkpoint's context
#: so resuming one written in another layout is refused up front.  2: one
#: optimizer ``m``/``v`` (or velocity) list per network, not per array.
#: 3: each network's flat parameter vector and each optimizer moment as
#: base64 of its little-endian float64 bytes, not a JSON float list.
CHECKPOINT_FORMAT = "repro.train-ckpt/3"


class TrainingCheckpointer:
    """Periodic durable training snapshots over a
    :class:`~repro.runtime.checkpoint.CheckpointStore`.

    Each ``save`` persists, atomically, the full state needed for a
    bit-exact resume: every network's parameters + optimizer moments,
    every RNG's generator state, the iteration number, and free-form
    ``extra`` payload (style history, the writing run's id for lineage).
    ``resume=True`` validates the stored context against this build's
    (:class:`~repro.runtime.errors.CheckpointError` on mismatch — a
    checkpoint from a different configuration, or in another
    :data:`CHECKPOINT_FORMAT`, must not be resumed).
    """

    def __init__(self, directory, context, interval=100, resume=False):
        from repro.runtime.checkpoint import CheckpointStore
        self.interval = interval
        self.resume = resume
        self.store = CheckpointStore(directory)
        self.store.open(dict(context, format=CHECKPOINT_FORMAT),
                        resume=resume)

    def due(self, iteration):
        return self.interval > 0 and iteration > 0 and \
            iteration % self.interval == 0

    def save(self, stage, iteration, networks, rngs=None, extra=None):
        """Atomically persist one training snapshot under key ``stage``."""
        payload = {
            "iteration": int(iteration),
            "networks": {name: mlp_state(net)
                         for name, net in networks.items()},
            "rngs": {name: rng_state(rng)
                     for name, rng in (rngs or {}).items()},
            "extra": extra or {},
        }
        self.store.put(stage, payload)
        metrics().inc("guard.checkpoints.written")
        obs_event("guard.checkpoint", level="debug", stage=stage,
                  iteration=iteration)
        return payload

    def load(self, stage):
        """The stored snapshot for ``stage``, or ``None`` when absent or
        failing its checksum (only consulted on resume).  Reads the
        shard once."""
        from repro.runtime.errors import CheckpointError
        if not self.resume:
            return None
        try:
            return self.store.get(stage)
        except CheckpointError:
            return None

    def restore(self, stage, networks, rngs=None):
        """Restore live networks/RNGs from the stored ``stage`` snapshot;
        returns the payload (for ``iteration``/``extra``) or ``None``."""
        payload = self.load(stage)
        if payload is None:
            return None
        for name, net in networks.items():
            if name in payload["networks"]:
                set_mlp_state(net, payload["networks"][name])
        for name, rng in (rngs or {}).items():
            if name in payload["rngs"]:
                set_rng_state(rng, payload["rngs"][name])
        metrics().inc("guard.checkpoints.restored")
        obs_event("guard.restore", stage=stage,
                  iteration=payload["iteration"])
        return payload
