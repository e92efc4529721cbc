"""The flat parameter layout: after every path that builds or restores a
network, each layer's arrays are views into the network's two vectors."""

import json

import numpy as np
import pytest

from repro.core import evax_schema
from repro.core.patching import (
    detector_from_dict, detector_to_dict, load_detector, save_detector,
)
from repro.core.perceptron import HardwareDetector
from repro.ml import MLP
from repro.ml.resilience import TrainingGuard, mlp_state, set_mlp_state


def _net(seed=0):
    return MLP([5, 4, 3, 1], ["relu", "tanh", "sigmoid"], seed=seed)


def _fitted_detector():
    rng = np.random.default_rng(0)
    raw = rng.random((96, evax_schema().dim)) * 50.0
    y = (raw[:, 0] > 25.0).astype(float)
    return HardwareDetector(evax_schema(), seed=0).fit(raw, y, epochs=2)


def _constructed():
    return _net()


def _fit():
    return _fitted_detector().net


def _rolled_back():
    net = _net()
    guard = TrainingGuard().watch(net=net)
    guard.snapshot_if_due(0)
    x = np.random.default_rng(1).random((8, 5))
    net.train_batch(x, np.ones(8))
    net.parameters[2].flat[0] = float("nan")
    assert guard.inspect(1, loss=0.5) == 0
    return net


def _set_state():
    source = _net(seed=3)
    source.train_batch(np.ones((4, 5)), np.ones(4))
    net = _net()
    set_mlp_state(net, json.loads(json.dumps(mlp_state(source))))
    return net


def _from_dict():
    return detector_from_dict(detector_to_dict(_fitted_detector())).net


def _loaded(tmp_path):
    path = str(tmp_path / "det.json")
    save_detector(_fitted_detector(), path)
    return load_detector(path).net


def _cloned():
    return _net().clone_architecture(seed=5)


PATHS = [_constructed, _fit, _rolled_back, _set_state, _from_dict, _loaded,
         _cloned]


@pytest.mark.parametrize("build", PATHS, ids=[f.__name__[1:] for f in PATHS])
def test_layer_arrays_are_views_of_the_network_vectors(build, tmp_path):
    net = build(tmp_path) if build is _loaded else build()
    params, grads = net.param_vector, net.grad_vector
    for layer in net.layers:
        assert np.shares_memory(layer.weights, params)
        assert np.shares_memory(layer.bias, params)
        assert np.shares_memory(layer.grad_weights, grads)
        assert np.shares_memory(layer.grad_bias, grads)
    # the views tile each vector exactly, in parameters order
    saved = params.copy()
    params[:] = np.arange(params.size)
    grads[:] = np.arange(grads.size)
    assert np.array_equal(np.concatenate([p.ravel() for p in net.parameters]),
                          np.arange(params.size))
    assert np.array_equal(np.concatenate([g.ravel() for g in net.gradients]),
                          np.arange(grads.size))
    params[:] = saved
    # and one optimizer step on the vectors moves what forward reads
    x = np.random.default_rng(2).random((3, net.layers[0].in_dim))
    before = net.predict(x).copy()
    grads[:] = 1.0
    net.step()
    assert not np.array_equal(net.predict(x), before)
