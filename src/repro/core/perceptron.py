"""Hardware attack detectors: the EVAX perceptron and the PerSpectron
baseline (paper Sections VI-A/B).

Both are single-layer models over HPC feature windows — fast enough to
classify within the transient window and cheap enough for hardware (the
paper estimates < 4,000 transistors for the serial dot-product).  They
differ in their feature schema: PerSpectron monitors 106 counters;
EVAX monitors 145 (133 counters + 12 engineered security HPCs) and is
trained on the AM-GAN-augmented corpus.
"""

import numpy as np

from repro.data.features import (
    BASE_FEATURES, ENGINEERED_FEATURES, FeatureSchema, MaxNormalizer,
)
from repro.ml import MLP, accuracy, auc, confusion_counts

#: counters only present in the EVAX feature set — the security-centric
#: additions (27 counters) that PerSpectron's 106-feature schema lacks.
_EVAX_ONLY_COUNTERS = (
    "lsq.assistForwards", "lsq.specLoadsHitWriteQueue", "lsq.unalignedStores",
    "lsq.ignoredResponses",
    "wrqueue.bytesRead", "wrqueue.occupancy", "wrqueue.drains",
    "dram.bytesReadWrQ", "dram.bytesPerActivate", "dram.selfRefreshEnergy",
    "dram.activations", "dram.precharges", "dram.rowHits", "dram.rowMisses",
    "dram.refreshes", "dram.bitflips",
    "rng.reads", "rng.underflows", "rng.refills", "rng.contentionCycles",
    "dcache.flushes", "dcache.flushHits", "l2.flushes",
    "membus.transDist_FlushReq",
    "specbuf.fills", "specbuf.hits", "specbuf.exposes",
)


def perspectron_schema():
    """PerSpectron's feature set: 106 counters, no engineered security
    HPCs, and none of the 27 security-centric counters EVAX adds."""
    excluded = set(_EVAX_ONLY_COUNTERS)
    base = tuple(n for n in BASE_FEATURES if n not in excluded)[:106]
    return FeatureSchema(engineered=(), base=base)


def evax_schema(engineered=ENGINEERED_FEATURES):
    """EVAX's 145-feature schema (133 counters + 12 engineered)."""
    return FeatureSchema(engineered=engineered)


class HardwareDetector:
    """A trained detector: schema + normalizer + single-layer model +
    decision threshold, deployable as a Machine ``detector_hook``."""

    def __init__(self, schema, hidden_layers=(), seed=0, threshold=0.5,
                 name="detector", learning_rate=0.005):
        self.schema = schema
        self.normalizer = MaxNormalizer()
        dims = [schema.dim] + list(hidden_layers) + [1]
        acts = ["relu"] * len(hidden_layers) + ["sigmoid"]
        from repro.ml.optim import Adam
        self.net = MLP(dims, acts, seed=seed, optimizer=Adam(lr=learning_rate))
        self.threshold = threshold
        self.name = name

    # -- training -----------------------------------------------------------------

    def fit(self, X_raw, y, epochs=40, batch_size=32, seed=0,
            normalizer=None):
        """Train on *raw* feature vectors; fits max-normalization unless an
        already-fitted normalizer is supplied."""
        X_raw = np.asarray(X_raw, dtype=float)
        if normalizer is not None:
            self.normalizer = normalizer
        else:
            self.normalizer.fit(X_raw)
        return self.fit_normalized(self.normalizer.transform(X_raw), y,
                                   epochs=epochs, batch_size=batch_size,
                                   seed=seed)

    def fit_normalized(self, X, y, epochs=40, batch_size=32, seed=0,
                       guard=None):
        """Train on already-normalized features (the normalizer must be
        set separately for deployment).

        With a :class:`~repro.ml.resilience.TrainingGuard`, every batch
        loss is inspected.  The guard snapshots once at the start of each
        epoch; a trip rewinds the epoch to that snapshot (parameters,
        optimizer moments and RNG) and replays it, so consecutive
        retries of one epoch share the guard's ``max_rollbacks`` budget.
        """
        y = np.asarray(y, dtype=float)
        rng = np.random.default_rng(seed)
        if guard is not None:
            guard.watch(stage="fit", detector=self.net)
            guard.attach_rng(rng)
        for epoch in range(epochs):
            if guard is not None:
                guard.take_snapshot(epoch)
            while not self._fit_epoch(X, y, rng, batch_size, epoch, guard):
                pass                          # rolled back: replay it
        return self

    def _fit_epoch(self, X, y, rng, batch_size, epoch, guard):
        """One shuffled pass over the batches; ``False`` when the guard
        rolled it back."""
        order = rng.permutation(len(y))
        for i in range(0, len(y), batch_size):
            batch = order[i:i + batch_size]
            loss = self.net.train_batch(X[batch], y[batch])
            if guard is not None and \
                    guard.inspect(epoch, loss=loss) is not None:
                return False
        return True

    # -- inference -----------------------------------------------------------------

    def scores_raw(self, X_raw):
        """Malicious-probability scores for raw feature vectors."""
        X = self.normalizer.transform(np.asarray(X_raw, dtype=float))
        return self.net.predict(X)[:, 0]

    def predict_raw(self, X_raw):
        return (self.scores_raw(X_raw) >= self.threshold).astype(int)

    def score_batch(self, deltas):
        """Vectorized scores for a ``(windows, counters)`` delta matrix.

        The serving fast path (`repro serve`): one gather into the
        feature schema, one in-place normalization, one matrix-matrix
        pass per layer — thousands of windows per ``dot``, no per-window
        Python.  Row *i* is **bit-identical** to scoring window *i*
        through :meth:`classify_window`'s path regardless of batch
        size or how the stream was chopped into batches (the whole
        pipeline is batch-size-invariant per row; see
        ``MLP.score_batch``).

        Returns the raw score array — non-finite scores are *returned*,
        not raised, so a batch caller can attribute a poisoned window to
        its tenant instead of failing the whole batch; per-window
        callers and the serving layer enforce the fail-secure contract
        on top (``classify_window``, ``repro.serve``).
        """
        raw = self.schema.raw_matrix(deltas)
        self.normalizer.transform_inplace(raw)
        return self.net.score_batch(raw)[:, 0]

    def score_window(self, deltas):
        """Score one counter-delta window via the batched pipeline.

        A one-row :meth:`score_batch`, so the per-window and batched
        paths are the same code — the equivalence the serving layer's
        tests pin down.
        """
        row = np.asarray(deltas, dtype=float)
        return float(self.score_batch(row[None, :])[0])

    def classify_window(self, deltas):
        """Classify one counter-delta window (the hardware fast path).

        A non-finite score is raised, never compared: ``NaN >= t`` is
        ``False``, so a silently degraded model would otherwise pass
        every attack.  The secure-mode controller's watchdog turns the
        raise into a fail-secure latch.
        """
        score = self.score_window(deltas)
        if not np.isfinite(score):
            raise ValueError(
                f"detector {self.name!r} produced non-finite score "
                f"{score!r}")
        return bool(score >= self.threshold)

    def as_hook(self):
        """A ``detector_hook`` for :class:`repro.sim.Machine`."""
        def hook(machine, sample):
            return self.classify_window(sample.deltas)
        return hook

    def detector_fn(self):
        """A ``detector_fn`` for :class:`SecureModeController`."""
        def fn(sample):
            return self.classify_window(sample.deltas)
        return fn

    def calibrate_threshold(self, X_raw_benign, quantile=0.999, margin=0.02,
                            floor=0.5, cap=0.9):
        """Tune the decision threshold on benign windows (the paper tunes
        the detector's output threshold on the ROC): set it just above the
        benign score distribution's upper quantile, bounded so attack
        sensitivity is preserved."""
        scores = self.scores_raw(X_raw_benign)
        level = float(np.quantile(scores, quantile)) + margin
        self.threshold = min(max(floor, level), cap)
        return self.threshold

    # -- evaluation ------------------------------------------------------------------

    def evaluate(self, X_raw, y):
        """Accuracy / AUC / FP / FN on raw feature vectors."""
        scores = self.scores_raw(X_raw)
        preds = (scores >= self.threshold).astype(int)
        tp, fp, tn, fn = confusion_counts(y, preds)
        return {
            "accuracy": accuracy(y, preds),
            "auc": auc(y, scores),
            "tp": tp, "fp": fp, "tn": tn, "fn": fn,
            "fp_rate": fp / (fp + tn) if fp + tn else 0.0,
            "fn_rate": fn / (fn + tp) if fn + tp else 0.0,
        }

    # -- hardware cost model (paper Section VI-B) ---------------------------------------

    def hardware_cost(self):
        """Estimate the hardware budget of the single-layer dot product."""
        weights = self.net.layers[0].weights[:, 0]
        n = weights.size
        # 9-bit quantized weights in [-2, 1] (paper: 435 distinct values)
        weight_bits = 9
        return {
            "features": n,
            "weight_storage_bits": n * weight_bits,
            "adders": 1,                       # serial accumulate
            "estimated_transistors": 4000,     # paper's bound
            "worst_case_latency_cycles": n + 10,
        }

    def quantized_weights(self, bits=9, low=-2.0, high=1.0):
        """The deployable integer weight vector."""
        w = np.clip(self.net.layers[0].weights[:, 0], low, high)
        scale = (2 ** bits - 1) / (high - low)
        return np.round((w - low) * scale).astype(int)
