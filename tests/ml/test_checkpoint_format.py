"""Training checkpoint format 3: every float64 vector is stored as its
exact bytes, so values a JSON float list cannot hold, or holds only
approximately (NaN payloads, ±inf, -0.0, subnormals), come back bit for
bit."""

import json
import struct

import numpy as np
import pytest

from repro.ml import MLP
from repro.ml.optim import SGD
from repro.ml.resilience import (
    CHECKPOINT_FORMAT, TrainingCheckpointer, mlp_state, set_mlp_state,
)

#: -0.0, the smallest subnormal, a large subnormal, ±inf, and a quiet
#: and a signalling-pattern NaN with payloads
_SPECIAL = np.frombuffer(struct.pack(
    "<7Q", 0x8000_0000_0000_0000, 0x0000_0000_0000_0001,
    0x000F_FFFF_FFFF_FFFF, 0x7FF0_0000_0000_0000, 0xFFF0_0000_0000_0000,
    0x7FF8_0000_DEAD_BEEF, 0xFFF4_0000_0000_0042), "<f8")


def _poisoned(optimizer):
    net = MLP([4, 6, 1], ["relu", "sigmoid"], seed=1, optimizer=optimizer)
    rng = np.random.default_rng(5)
    for _ in range(3):
        net.train_batch(rng.random((8, 4)), rng.integers(0, 2, 8))
    vectors = [net.param_vector]
    for name in ("_m", "_v", "_velocity"):
        vectors += list(getattr(net.optimizer, name, {}).values())
    for k, vector in enumerate(vectors):
        vector[k:k + len(_SPECIAL)] = _SPECIAL
    return net, vectors


def _fresh(optimizer):
    return MLP([4, 6, 1], ["relu", "sigmoid"], seed=9, optimizer=optimizer)


@pytest.mark.parametrize("make", [
    lambda: None, lambda: SGD(lr=0.05, momentum=0.9),
], ids=["adam", "sgd-momentum"])
def test_special_values_round_trip_bit_exactly(make):
    net, vectors = _poisoned(make())
    saved = json.loads(json.dumps(mlp_state(net)))
    twin = _fresh(make())
    set_mlp_state(twin, saved)
    restored = [twin.param_vector]
    for name in ("_m", "_v", "_velocity"):
        restored += list(getattr(twin.optimizer, name, {}).values())
    assert [v.tobytes() for v in restored] == [v.tobytes() for v in vectors]
    assert all(v.flags.writeable and v.dtype == np.float64
               for v in restored)
    for layer in twin.layers:          # still views into the vector
        assert np.shares_memory(layer.weights, twin.param_vector)


def test_special_values_survive_the_sealed_checkpoint(tmp_path):
    net, vectors = _poisoned(None)
    TrainingCheckpointer(str(tmp_path), {"cfg": 1}).save(
        "gan", 3, {"net": net})
    twin = _fresh(None)
    payload = TrainingCheckpointer(str(tmp_path), {"cfg": 1}, resume=True) \
        .restore("gan", {"net": twin})
    assert payload["iteration"] == 3
    assert twin.param_vector.tobytes() == vectors[0].tobytes()
    assert twin.optimizer._m[0].tobytes() == vectors[1].tobytes()
    assert twin.optimizer._v[0].tobytes() == vectors[2].tobytes()
    assert twin.optimizer._t == net.optimizer._t


def test_state_stores_strings_not_float_lists():
    state = mlp_state(_poisoned(None)[0])
    assert state["shapes"] == [[4, 6], [6, 1]]
    assert isinstance(state["params"], str)
    assert all(isinstance(text, str)
               for key in ("m", "v")
               for text in state["optimizer"][key].values())
    assert CHECKPOINT_FORMAT == "repro.train-ckpt/3"


def test_restore_rejects_a_vector_of_the_wrong_length():
    saved = mlp_state(_fresh(None))
    saved["params"] = mlp_state(MLP([4, 1], ["sigmoid"]))["params"]
    with pytest.raises(ValueError):
        set_mlp_state(_fresh(None), saved)
