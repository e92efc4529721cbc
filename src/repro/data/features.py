"""The 145-dimensional feature schema (paper Section VI-A).

The paper monitors 145 features: 133 selected hardware performance
counters plus 12 engineered security HPCs, each an AND-combination of raw
counters mined from the AM-GAN generator's hidden layer (Table I).  Raw
windows are per-window counter deltas; every feature is normalized over
the maximum value seen for that counter ("Statistics are normalized over
the maximum value of the counter", Section VII).
"""

import numpy as np

from repro.sim.hpc import COUNTER_NAMES, CounterBank

#: raw counters excluded from the base feature set: plain volume/capacity
#: totals that scale with any program and carry no security signal
_EXCLUDED = frozenset({
    "cpu.numCycles", "cpu.idleCycles", "fetch.cycles", "decode.insts",
    "rob.reads", "rob.writes", "iq.intInstQueueReads", "membus.pktCount",
    "dram.actRate", "icache.accesses", "dcache.accesses", "l2.accesses",
    "dtlb.rdAccesses",
})

#: the 133 base features, in COUNTER_NAMES order
BASE_FEATURES = tuple(n for n in COUNTER_NAMES if n not in _EXCLUDED)

#: the 12 engineered security HPCs: AND-combinations of raw counters.
#: Entries 1-7 are Table I of the paper verbatim (mapped to this
#: simulator's counter names); 8-12 complete the set of 12 the paper
#: reports, covering the MDS/LVI, Rowhammer/DRAMA, flush, trap and
#: contention channels.
ENGINEERED_FEATURES = (
    ("sec.squashedBytesReadWrQ", ("lsq.squashedLoads", "wrqueue.bytesRead")),
    ("sec.committedMapsUndone", ("rename.committedMaps", "rename.undoneMaps")),
    ("sec.memOrderDtlbMiss", ("iew.memOrderViolationEvents", "dtlb.rdMisses")),
    ("sec.squashedStoresForwLoads", ("lsq.squashedStores", "lsq.forwLoads")),
    ("sec.readSharedIgnoredResp", ("membus.transDist_ReadSharedReq",
                                   "lsq.ignoredResponses")),
    ("sec.squashedNonSpecLdMissLat", ("iq.squashedNonSpecLD",
                                      "dcache.ReadReq_mshr_miss_latency")),
    ("sec.serializingExecSquashed", ("rename.serializingInsts",
                                     "iew.execSquashedInsts")),
    ("sec.assistHitWrQ", ("lsq.assistForwards", "lsq.specLoadsHitWriteQueue")),
    ("sec.activationsBytesWrQ", ("dram.activations", "dram.bytesReadWrQ")),
    ("sec.flushHitIndirectMiss", ("dcache.flushHits",
                                  "branchPred.indirectMispredicted")),
    ("sec.trapsSquashedIssued", ("commit.traps", "iq.squashedInstsIssued")),
    ("sec.rngUnderflowPortConflict", ("rng.underflows",
                                      "iew.portContentionCycles")),
)


#: windows per block in :meth:`FeatureSchema.matrix`: only one block's
#: float copy of the counters is alive beside the result, so a
#: 5,403-window corpus peaks at 7.1 MB instead of 17.5 MB unblocked (and
#: 13.4 MB for a per-window loop), at no cost in speed.
_MATRIX_BLOCK = 512


class FeatureSchema:
    """Maps raw counter-delta windows to normalized feature vectors.

    Parameters
    ----------
    engineered:
        Sequence of ``(name, (counter_a, counter_b, ...))`` AND-features.
        Defaults to :data:`ENGINEERED_FEATURES`; the automatic feature
        engineering pipeline (Section VI-A) passes its mined combinations
        instead.
    base:
        Raw counter names to expose directly (defaults to the 133
        :data:`BASE_FEATURES`; the PerSpectron baseline passes its smaller
        106-counter set).
    """

    def __init__(self, engineered=ENGINEERED_FEATURES, base=BASE_FEATURES):
        self.base_features = tuple(base)
        self.engineered = tuple(engineered)
        self._base_idx = [CounterBank.index_of(n) for n in self.base_features]
        self._eng_idx = [tuple(CounterBank.index_of(c) for c in combo)
                         for _, combo in self.engineered]
        # preresolved index arrays for the vectorized batch path
        self._base_idx_arr = np.asarray(self._base_idx, dtype=np.intp)
        self._eng_idx_arrs = [np.asarray(combo, dtype=np.intp)
                              for combo in self._eng_idx]

    @property
    def names(self):
        return tuple(self.base_features) + tuple(n for n, _ in self.engineered)

    @property
    def dim(self):
        return len(self.base_features) + len(self.engineered)

    def raw_vector(self, deltas):
        """Un-normalized feature values for one window of counter deltas.

        Engineered AND-features take the minimum of their member counters
        (the continuous analogue of "both signals fired"; zero whenever
        any member is silent).
        """
        base = [deltas[i] for i in self._base_idx]
        eng = [min(deltas[i] for i in combo) for combo in self._eng_idx]
        return np.asarray(base + eng, dtype=float)

    def matrix(self, windows):
        """Raw feature vectors for a sequence of windows, one row each
        (:meth:`raw_matrix` over blocks of :data:`_MATRIX_BLOCK`)."""
        out = np.empty((len(windows), self.dim))
        for start in range(0, len(windows), _MATRIX_BLOCK):
            block = windows[start:start + _MATRIX_BLOCK]
            self.raw_matrix(block, out=out[start:start + len(block)])
        return out

    def raw_matrix(self, deltas, out=None):
        """Vectorized :meth:`raw_vector` over a ``(n, counters)`` array.

        One gather plus one ``np.minimum`` reduction per engineered
        feature — no per-window Python.  Every output row is bit-identical
        to ``raw_vector`` on the same window (gather and elementwise min
        are exact), which is what lets ``score_batch`` and the per-window
        serving path share one numerical contract; asserted by
        ``tests/serve/test_score_equivalence.py``.
        """
        deltas = np.asarray(deltas, dtype=float)
        if deltas.ndim != 2:
            raise ValueError(f"expected a (windows, counters) matrix, "
                             f"got shape {deltas.shape}")
        n_base = len(self._base_idx)
        if out is None:
            out = np.empty((deltas.shape[0], self.dim))
        np.take(deltas, self._base_idx_arr, axis=1, out=out[:, :n_base])
        for j, combo in enumerate(self._eng_idx_arrs):
            np.minimum.reduce([deltas[:, c] for c in combo],
                              out=out[:, n_base + j])
        return out


class MaxNormalizer:
    """Per-feature max normalization (paper Section VII)."""

    def __init__(self):
        self.max_values = None

    def fit(self, matrix):
        matrix = np.asarray(matrix, dtype=float)
        self.max_values = np.maximum(matrix.max(axis=0), 1e-9)
        return self

    def transform(self, matrix):
        if self.max_values is None:
            raise RuntimeError("fit() before transform()")
        return np.clip(np.asarray(matrix, dtype=float) / self.max_values,
                       0.0, 1.0)

    def transform_inplace(self, matrix):
        """Normalize a float matrix in place (no allocations).

        Elementwise divide + clip, bit-identical to :meth:`transform` on
        the same rows; the batched scoring path uses it to avoid two
        temporary ``(windows, features)`` copies per batch.
        """
        if self.max_values is None:
            raise RuntimeError("fit() before transform()")
        np.divide(matrix, self.max_values, out=matrix)
        np.clip(matrix, 0.0, 1.0, out=matrix)
        return matrix

    def fit_transform(self, matrix):
        return self.fit(matrix).transform(matrix)
