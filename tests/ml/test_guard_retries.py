"""TrainingGuard: the loss-divergence floor and distinct consecutive
retries from one snapshot."""

import json

import numpy as np
import pytest

from repro.ml import MLP
from repro.ml.resilience import (
    LOSS_DIVERGENCE, TrainingDivergedError, TrainingGuard, rng_state,
)


def _net():
    return MLP([4, 6, 1], ["relu", "sigmoid"], seed=0)


def test_converged_loss_floor_ignores_one_bad_batch():
    """Against an EMA of 0.01 nats, a 0.4-nat batch (a misclassified
    window, still below a coin flip) is not divergence; 50 nats is."""
    guard = TrainingGuard(policy="raise").watch(net=_net())
    for step in range(64):
        assert guard.inspect(step, loss=0.01) is None
    assert guard.inspect(64, loss=0.4) is None
    with pytest.raises(TrainingDivergedError) as err:
        guard.inspect(65, loss=50.0)
    assert err.value.kind == LOSS_DIVERGENCE


def test_consecutive_rollbacks_take_distinct_retries():
    """The k-th consecutive rollback from one snapshot leaves the RNG k
    draws past the snapshot, so no retry repeats an earlier one."""
    net = _net()
    rng = np.random.default_rng(1)
    guard = TrainingGuard(snapshot_every=100).watch(net=net)
    guard.attach_rng(rng)
    guard.snapshot_if_due(0)
    states = []
    for _ in range(2):
        rng.normal(size=5)                    # the failed attempt's draws
        net.parameters[0].flat[0] = float("nan")
        assert guard.inspect(1, loss=0.5) == 0
        states.append(json.dumps(rng_state(rng)))
    assert states[0] != states[1]
    replay = np.random.default_rng(1)
    for state in states:
        replay.integers(0, 2 ** 31)
        assert json.dumps(rng_state(replay)) == state
