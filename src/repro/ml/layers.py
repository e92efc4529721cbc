"""Dense layers and activation functions with analytic gradients."""

import numpy as np

from repro.ml.initializers import he_init, xavier_init


def _relu(x):
    return np.maximum(x, 0.0)


def _relu_grad(x, y):
    del y
    return (x > 0.0).astype(x.dtype)


def _leaky_relu(x):
    return np.where(x > 0.0, x, 0.01 * x)


def _leaky_relu_grad(x, y):
    del y
    return np.where(x > 0.0, 1.0, 0.01)


def _sigmoid(x):
    # 1/(1+e^-x) for x >= 0 and e^x/(1+e^x) below, both from e = e^-|x|,
    # so neither branch can overflow
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, e / d)


def _sigmoid_grad(x, y):
    del x
    return y * (1.0 - y)


def _tanh(x):
    return np.tanh(x)


def _tanh_grad(x, y):
    del x
    return 1.0 - y * y


def _linear(x):
    return x


def _linear_grad(x, y):
    del y
    return np.ones_like(x)


def _softmax(x):
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _softmax_grad(x, y):
    # Placeholder: softmax must be paired with CategoricalCrossEntropy,
    # whose gradient is computed jointly (pred - target); the layer then
    # passes it through unchanged.
    del x
    return np.ones_like(y)


#: name -> (forward, gradient) pairs.  Gradients receive both the
#: pre-activation ``x`` and the activation output ``y`` so that each can use
#: whichever is cheaper.
ACTIVATIONS = {
    "relu": (_relu, _relu_grad),
    "leaky_relu": (_leaky_relu, _leaky_relu_grad),
    "sigmoid": (_sigmoid, _sigmoid_grad),
    "tanh": (_tanh, _tanh_grad),
    "linear": (_linear, _linear_grad),
    # softmax is only valid as the output layer under
    # CategoricalCrossEntropy (joint gradient)
    "softmax": (_softmax, _softmax_grad),
}


class Dense:
    """A fully-connected layer ``y = act(x @ W + b)``.

    Parameters
    ----------
    in_dim, out_dim:
        Input and output widths.
    activation:
        A key of :data:`ACTIVATIONS`.
    rng:
        ``numpy.random.Generator`` used for weight initialization.
    """

    def __init__(self, in_dim, out_dim, activation, rng):
        if activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {activation!r}")
        init = he_init if activation in ("relu", "leaky_relu") else xavier_init
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.activation = activation
        self.weights = init(rng, in_dim, out_dim)
        self.bias = np.zeros(out_dim)
        self._act, self._act_grad = ACTIVATIONS[activation]
        # caches populated by forward() and consumed by backward()
        self._x = None
        self._z = None
        self._y = None
        # gradients populated by backward()
        self.grad_weights = np.zeros_like(self.weights)
        self.grad_bias = np.zeros_like(self.bias)

    def forward(self, x, train=True):
        """Compute the layer output for a batch ``x`` of shape (n, in_dim)."""
        z = x @ self.weights + self.bias
        y = self._act(z)
        if train:
            self._x, self._z, self._y = x, z, y
        return y

    def infer(self, x):
        """Inference-only forward pass with **batch-size-invariant** rows.

        ``x @ W`` dispatches to BLAS gemm, whose blocking (and therefore
        accumulation order, and therefore last-ulp rounding) depends on
        the batch shape: row *i* of a 4096-row product is NOT guaranteed
        bit-identical to the same row pushed through alone.  The serving
        layer's contract — ``score_batch`` bit-identical to the
        per-window path, however the stream gets chopped into batches —
        needs each output row to be a pure function of that row alone,
        so this path uses ``np.einsum`` (fixed-order accumulation over
        the contraction axis, no batch-shape-dependent blocking).
        Caches nothing; never use for training.
        """
        z = np.einsum("nk,km->nm", x, self.weights)
        z += self.bias
        return self._act(z)

    def backward(self, grad_out):
        """Backpropagate ``dL/dy``; stores dL/dW, dL/db, returns dL/dx."""
        if self._x is None:
            raise RuntimeError("backward() called before forward(train=True)")
        dz = grad_out * self._act_grad(self._z, self._y)
        np.matmul(self._x.T, dz, out=self.grad_weights)
        dz.sum(axis=0, out=self.grad_bias)
        return dz @ self.weights.T

    def bind(self, params, grads, offset):
        """Re-home ``weights``, ``bias`` and their gradients as views into
        the flat ``params`` / ``grads`` vectors from ``offset`` on (the
        values must already be there); returns the offset past them."""
        shape = self.weights.shape
        mid = offset + self.weights.size
        end = mid + self.bias.size
        self.weights = params[offset:mid].reshape(shape)
        self.bias = params[mid:end]
        self.grad_weights = grads[offset:mid].reshape(shape)
        self.grad_bias = grads[mid:end]
        return end

    @property
    def parameters(self):
        return [self.weights, self.bias]

    @property
    def gradients(self):
        return [self.grad_weights, self.grad_bias]
