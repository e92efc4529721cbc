"""In-place optimizers: bit-identical to the per-array arithmetic they
replaced, and no per-step allocation on a flat parameter vector."""

import tracemalloc

import numpy as np
import pytest

from repro.ml import MLP, SGD, Adam


class _PerArrayAdam:
    """Reference: Adam stepping each array separately with fresh
    temporaries, as this package did before the flat parameter vector."""

    def __init__(self, lr=0.001, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self._m = {}
        self._v = {}
        self._t = 0

    def step(self, params, grads):
        self._t += 1
        b1, b2 = self.beta1, self.beta2
        for i, (p, g) in enumerate(zip(params, grads)):
            m = self._m.get(i)
            if m is None:
                m = np.zeros_like(p)
                self._v[i] = np.zeros_like(p)
            v = self._v[i]
            m = b1 * m + (1.0 - b1) * g
            v = b2 * v + (1.0 - b2) * g * g
            self._m[i], self._v[i] = m, v
            m_hat = m / (1.0 - b1 ** self._t)
            v_hat = v / (1.0 - b2 ** self._t)
            p -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


class _PerArraySGD:
    """Reference: SGD with momentum, per array, fresh temporaries."""

    def __init__(self, lr=0.01, momentum=0.0):
        self.lr = lr
        self.momentum = momentum
        self._velocity = {}

    def step(self, params, grads):
        for i, (p, g) in enumerate(zip(params, grads)):
            if self.momentum:
                v = self._velocity.get(i)
                if v is None:
                    v = np.zeros_like(p)
                v = self.momentum * v - self.lr * g
                self._velocity[i] = v
                p += v
            else:
                p -= self.lr * g


def _gradient(rng, n):
    """Gradients spanning nine decades, with exact zeros and one -0.0."""
    g = rng.normal(size=n) * 10.0 ** rng.uniform(-6, 3, size=n)
    g[rng.random(n) < 0.15] = 0.0
    g[rng.integers(n)] = -0.0
    return g


def _split(vector, like):
    out, offset = [], 0
    for a in like:
        out.append(vector[offset:offset + a.size].reshape(a.shape).copy())
        offset += a.size
    return out


def _flat(arrays):
    return np.concatenate([a.ravel() for a in arrays])


@pytest.mark.parametrize("make", [
    lambda: (Adam(lr=0.01), _PerArrayAdam(lr=0.01), ("_m", "_v")),
    lambda: (SGD(lr=0.05, momentum=0.9), _PerArraySGD(lr=0.05, momentum=0.9),
             ("_velocity",)),
    lambda: (SGD(lr=0.05), _PerArraySGD(lr=0.05), ()),
], ids=["adam", "sgd-momentum", "sgd"])
def test_vector_step_is_bit_identical_to_per_array_reference(make):
    optimizer, reference, moments = make()
    net = MLP([6, 5, 4, 3], ["relu", "tanh", "sigmoid"], seed=0,
              optimizer=optimizer)
    ref_params = [p.copy() for p in net.parameters]
    rng = np.random.default_rng(7)
    for _ in range(50):
        g = _gradient(rng, net.num_parameters)
        net.grad_vector[:] = g
        net.step()
        reference.step(ref_params, _split(g, ref_params))
    assert net.param_vector.tobytes() == _flat(ref_params).tobytes()
    for name in moments:
        ours = getattr(optimizer, name)
        theirs = getattr(reference, name)
        assert list(ours) == [0]                  # one state per network
        assert ours[0].tobytes() == \
            _flat([theirs[i] for i in sorted(theirs)]).tobytes()


def test_adam_step_allocates_nothing_after_the_first():
    n = 46_693                        # the AM-GAN generator's parameters
    rng = np.random.default_rng(0)
    p, g = rng.normal(size=n), rng.normal(size=n)
    optimizer = Adam()
    optimizer.step([p], [g])          # allocates the moments and scratch
    tracemalloc.start()
    try:
        for _ in range(2, 21):
            optimizer.step([p], [g])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < p.nbytes / 4
