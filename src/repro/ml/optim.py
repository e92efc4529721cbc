"""Gradient-descent optimizers operating on (parameter, gradient) pairs.

Both update their state and the parameters in place through scratch
arrays kept per parameter, so a step allocates nothing once the first
one has run.  Each element goes through the same floating-point
operations in the same order as the textbook expressions in the
comments, which keeps training bit-identical whether the parameters
arrive as one flat vector (``MLP.step``) or as separate arrays.
"""

import numpy as np


def _scratch_arrays(store, i, p, count):
    """``count`` scratch arrays shaped like ``p``, reused across steps."""
    arrays = store.get(i)
    if arrays is None:
        arrays = store[i] = tuple(np.empty_like(p) for _ in range(count))
    return arrays


class SGD:
    """Stochastic gradient descent with optional classical momentum."""

    def __init__(self, lr=0.01, momentum=0.0):
        self.lr = lr
        self.momentum = momentum
        self._velocity = {}
        self._scratch = {}

    def step(self, params, grads):
        for i, (p, g) in enumerate(zip(params, grads)):
            (lr_g,) = _scratch_arrays(self._scratch, i, p, 1)
            np.multiply(g, self.lr, out=lr_g)
            if self.momentum:
                # v = momentum * v - lr * g;  p += v
                v = self._velocity.get(i)
                if v is None:
                    v = self._velocity[i] = np.zeros_like(p)
                v *= self.momentum
                v -= lr_g
                p += v
            else:
                p -= lr_g                      # p -= lr * g


class Adam:
    """Adam optimizer (Kingma & Ba, 2015)."""

    def __init__(self, lr=0.001, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self._m = {}
        self._v = {}
        self._t = 0
        self._scratch = {}

    def step(self, params, grads):
        self._t += 1
        b1, b2 = self.beta1, self.beta2
        c1 = 1.0 - b1 ** self._t
        c2 = 1.0 - b2 ** self._t
        for i, (p, g) in enumerate(zip(params, grads)):
            m = self._m.get(i)
            if m is None:
                m = self._m[i] = np.zeros_like(p)
                self._v[i] = np.zeros_like(p)
            v = self._v[i]
            a, b = _scratch_arrays(self._scratch, i, p, 2)
            # m = b1 * m + (1 - b1) * g
            np.multiply(g, 1.0 - b1, out=a)
            m *= b1
            m += a
            # v = b2 * v + ((1 - b2) * g) * g
            np.multiply(g, 1.0 - b2, out=a)
            a *= g
            v *= b2
            v += a
            # p -= (lr * (m / c1)) / (sqrt(v / c2) + eps)
            np.divide(m, c1, out=a)
            a *= self.lr
            np.divide(v, c2, out=b)
            np.sqrt(b, out=b)
            b += self.eps
            a /= b
            p -= a
