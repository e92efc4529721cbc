"""TrainingGuard: the first anomaly found, and the ``clip`` repair of a
NaN batch."""

import math

import numpy as np
import pytest

from repro.ml import MLP, Adam
from repro.ml.resilience import (
    GRAD_SPIKE, LOSS_DIVERGENCE, NAN, TrainingDivergedError, TrainingGuard,
)


def _net(seed=0):
    return MLP([4, 3, 2, 1], ["relu", "relu", "sigmoid"], seed=seed)


def _plant(net, which, index, value):
    arrays = net.parameters if which == "p" else net.gradients
    arrays[index].flat[0] = value


# (plants, kind, detail) -- parameters run W0 b0 W1 b1 W2 b2; each plant
# is (network, "p"arameter or "g"radient, array index, value)
CASES = {
    "magnitude-before-later-nan": (
        [(0, "p", 0, 500.0), (0, "p", 5, float("nan"))],
        LOSS_DIVERGENCE, "parameter magnitude 500 in a (limit 100)"),
    "inf-bias-is-nan": (
        [(0, "p", 3, float("inf"))],
        NAN, "non-finite parameters in a"),
    "first-gradient-peak": (
        [(0, "g", 0, 2e3), (0, "g", 4, -5e3)],
        GRAD_SPIKE, "gradient peak 2e+03 in a (limit 1000)"),
    "nan-gradient-before-later-peak": (
        [(0, "g", 2, float("nan")), (0, "g", 4, 9e3)],
        GRAD_SPIKE, "gradient peak nan in a (limit 1000)"),
    "networks-in-order": (
        [(1, "p", 0, float("nan")), (0, "g", 1, 3e3)],
        GRAD_SPIKE, "gradient peak 3e+03 in a (limit 1000)"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_guard_reports_the_first_anomaly_in_check_order(case):
    plants, kind, detail = CASES[case]
    nets = [_net(0), _net(1)]
    guard = TrainingGuard(policy="raise", param_limit=100, grad_limit=1e3)
    guard.watch(stage="t", a=nets[0], b=nets[1])
    for net, which, index, value in plants:
        _plant(nets[net], which, index, value)
    with pytest.raises(TrainingDivergedError) as err:
        guard.inspect(0, loss=0.5)
    assert err.value.kind == kind
    assert str(err.value) == f"t diverged at step 0: {detail}"


def test_clip_recovers_after_one_nan_batch():
    """A NaN batch poisons Adam's moments as well as the parameters; the
    repair zeroes both, so training trips once and then moves on."""
    net = MLP([4, 3, 1], ["relu", "sigmoid"], seed=0,
              optimizer=Adam(lr=0.01))
    guard = TrainingGuard(policy="clip").watch(net=net)
    x = np.random.default_rng(0).random((16, 4))
    y = np.ones(16)
    losses = []
    for step in range(6):
        batch = x.copy()
        if step == 1:
            batch[0, 0] = float("nan")
        losses.append(net.train_batch(batch, y))
        assert guard.inspect(step, loss=losses[-1]) is None
    assert [kind for _, kind, _ in guard.trips] == [NAN]
    assert np.isfinite(net.param_vector).all()
    assert abs(losses[-1] - math.log(2)) > 1e-3
