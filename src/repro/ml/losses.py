"""Loss functions with analytic gradients w.r.t. predictions.

Each class computes its value and its gradient together in
``value_and_gradient``, so a training step clips and differences
``pred`` once; ``value`` and ``gradient`` are its two halves.
"""

import numpy as np

_EPS = 1e-12


class _Loss:
    def value(self, pred, target):
        return self.value_and_gradient(pred, target)[0]

    def gradient(self, pred, target):
        return self.value_and_gradient(pred, target)[1]


class BinaryCrossEntropy(_Loss):
    """BCE over sigmoid outputs in (0, 1)."""

    def value_and_gradient(self, pred, target):
        p = np.clip(pred, _EPS, 1.0 - _EPS)
        q = 1.0 - p
        value = float(-np.mean(target * np.log(p) + (1.0 - target) * np.log(q)))
        return value, (p - target) / (p * q) / pred.shape[0]


class MeanSquaredError(_Loss):
    """Plain mean squared error."""

    def value_and_gradient(self, pred, target):
        diff = pred - target
        return float(np.mean(diff ** 2)), 2.0 * diff / pred.size


class CategoricalCrossEntropy(_Loss):
    """Cross-entropy over softmax outputs and one-hot targets.

    Must be used with a ``softmax`` output layer: its ``gradient`` is the
    *joint* softmax+CE gradient (pred - target), which the softmax layer
    passes through unchanged.
    """

    def value_and_gradient(self, pred, target):
        p = np.clip(pred, _EPS, 1.0)
        value = float(-np.mean(np.sum(target * np.log(p), axis=-1)))
        return value, (pred - target) / pred.shape[0]
