"""The guarded detector fit: one shared training loop, a retry budget
that binds, and guard neutrality on a healthy vaccination."""

import numpy as np
import pytest

from repro.core import HardwareDetector, vaccinate
from repro.core.vaccination import fit_on_normalized
from repro.data import FeatureSchema
from repro.data.features import BASE_FEATURES
from repro.ml.resilience import (
    GRAD_SPIKE, TrainingDivergedError, TrainingGuard,
)


def _toy(n=96, dim=6, seed=0):
    rng = np.random.default_rng(seed)
    return rng.random((n, dim)), rng.integers(0, 2, n)


def _detector(dim=6):
    schema = FeatureSchema(engineered=(), base=BASE_FEATURES[:dim])
    return HardwareDetector(schema, seed=0)


def _assert_same_weights(a, b):
    for pa, pb in zip(a.net.parameters, b.net.parameters):
        assert np.array_equal(pa, pb)


class _CappedGuard(TrainingGuard):
    """Fails the test instead of retrying forever when the rollback
    budget never binds."""

    cap = 10

    def inspect(self, step, loss=None):
        if len(self.trips) >= self.cap:
            raise AssertionError(f"{self.cap} trips and the rollback "
                                 f"budget never bound")
        return super().inspect(step, loss=loss)


def test_fit_retry_budget_binds():
    """Every batch trips, so the first epoch is retried max_rollbacks
    times from its one snapshot and the next trip exhausts the budget."""
    X, y = _toy()
    guard = _CappedGuard(grad_limit=1e-12, max_rollbacks=2)
    with pytest.raises(TrainingDivergedError) as err:
        fit_on_normalized(_detector(), X, y, epochs=3, guard=guard)
    assert "exhausted" in str(err.value)
    assert guard.trips == [(0, GRAD_SPIKE, "rollback")] * 3


@pytest.mark.parametrize("batch_size", [32, 64])
def test_fit_and_guarded_fit_normalized_share_one_loop(batch_size):
    """``fit`` is normalize-then-``fit_normalized``, and a guard that
    never trips leaves the trajectory bit-identical."""
    X, y = _toy(seed=3)
    raw = X * 40.0
    plain = _detector().fit(raw, y, epochs=4, batch_size=batch_size,
                            seed=5)
    guard = TrainingGuard()
    guarded = _detector()
    guarded.fit_normalized(plain.normalizer.transform(raw), y, epochs=4,
                           batch_size=batch_size, seed=5, guard=guard)
    assert guard.trips == []
    _assert_same_weights(plain, guarded)


@pytest.mark.slow
def test_guarded_vaccination_is_bit_identical(full_dataset, vaccinated):
    """A converged fit's routine high-loss batches are not divergence:
    guarding the shared vaccination run trips nowhere and changes
    nothing."""
    guard = TrainingGuard()
    guarded = vaccinate(full_dataset, gan_iterations=600, seed=0,
                        guard=guard)
    assert guard.trips == []
    _assert_same_weights(vaccinated.detector, guarded.detector)
    assert guarded.detector.threshold == vaccinated.detector.threshold
