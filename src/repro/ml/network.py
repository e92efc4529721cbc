"""A multilayer perceptron built from :class:`repro.ml.layers.Dense`."""

import time

import numpy as np

from repro.ml.layers import Dense
from repro.ml.losses import BinaryCrossEntropy
from repro.ml.optim import Adam
from repro.obs import metrics

# cached instrument handles — train_batch runs in tight epoch loops, so
# the per-batch cost is two perf_counter reads and three attribute writes
_REG = metrics()
_OBS_BATCHES = _REG.counter("ml.train.batches")
_OBS_BATCH_SECONDS = _REG.timer("ml.train.batch.seconds")
_OBS_LOSS = _REG.gauge("ml.train.loss")


class MLP:
    """Sequential stack of dense layers.

    All parameters live in one contiguous float64 vector,
    :attr:`param_vector`, and all gradients in :attr:`grad_vector`; each
    layer's ``weights``, ``bias``, ``grad_weights`` and ``grad_bias`` are
    reshaped views into them, so one optimizer step or one guard check
    covers the whole network.  Code that restores parameters must write
    into those arrays in place, never rebind them (docs/ml.md,
    "Parameter layout").

    Parameters
    ----------
    layer_dims:
        List of widths, e.g. ``[145, 64, 1]``.
    activations:
        One activation name per layer (``len(layer_dims) - 1`` entries).
    seed:
        Seed for weight initialization.
    loss:
        Loss object with ``value_and_gradient`` (and its ``value`` /
        ``gradient`` halves, :mod:`repro.ml.losses`); defaults to BCE.
    optimizer:
        Optimizer with ``step(params, grads)``; defaults to Adam.
    """

    def __init__(self, layer_dims, activations, seed=0, loss=None, optimizer=None):
        if len(activations) != len(layer_dims) - 1:
            raise ValueError("need one activation per layer")
        rng = np.random.default_rng(seed)
        self.layers = [
            Dense(layer_dims[i], layer_dims[i + 1], activations[i], rng)
            for i in range(len(activations))
        ]
        sizes = [p.size for p in self.parameters]
        self.param_vector = np.concatenate(
            [p.ravel() for p in self.parameters])
        self.grad_vector = np.zeros_like(self.param_vector)
        #: where each array of :attr:`parameters` starts in the vectors
        self.segment_starts = np.cumsum([0] + sizes[:-1])
        offset = 0
        for layer in self.layers:
            offset = layer.bind(self.param_vector, self.grad_vector, offset)
        self.loss = loss if loss is not None else BinaryCrossEntropy()
        self.optimizer = optimizer if optimizer is not None else Adam()

    def forward(self, x, train=False):
        """Run a batch through all layers; returns the network output."""
        out = np.asarray(x, dtype=float)
        if out.ndim == 1:
            out = out[None, :]
        for layer in self.layers:
            out = layer.forward(out, train=train)
        return out

    def backward(self, grad_out):
        """Backpropagate an output gradient; returns the input gradient."""
        return self.layers[0].backward(self._backward_upper(grad_out))

    def _backward_params(self, grad_out):
        """:meth:`backward` for a caller that drops the input gradient:
        the first layer stores its parameter gradients and skips its
        ``dz @ W.T``, a batch x input-width product (3,349 wide for the
        AM-GAN discriminator)."""
        self.layers[0]._param_grads(self._backward_upper(grad_out))

    def _backward_upper(self, grad_out):
        """Backpropagate through every layer but the first; returns the
        first layer's output gradient."""
        grad = grad_out
        for layer in reversed(self.layers[1:]):
            grad = layer.backward(grad)
        return grad

    def step(self):
        """Apply the optimizer to the gradients of the last
        :meth:`backward`: one update of the whole parameter vector."""
        self.optimizer.step([self.param_vector], [self.grad_vector])

    def train_batch(self, x, target):
        """One optimizer step on a batch; returns the pre-step loss value."""
        start = time.perf_counter()
        target = np.asarray(target, dtype=float)
        if target.ndim == 1:
            target = target[:, None]
        pred = self.forward(x, train=True)
        loss_value, grad_out = self.loss.value_and_gradient(pred, target)
        self._backward_params(grad_out)
        self.step()
        _OBS_BATCHES.inc()
        _OBS_LOSS.set(loss_value)
        _OBS_BATCH_SECONDS.observe(time.perf_counter() - start)
        return loss_value

    def train_batch_with_grad(self, x, grad_out):
        """One optimizer step driven by an externally supplied output
        gradient (used for the GAN generator, whose loss is evaluated
        through the discriminator).  Returns the input gradient."""
        start = time.perf_counter()
        self.forward(x, train=True)
        grad_in = self.backward(grad_out)
        self.step()
        _OBS_BATCHES.inc()
        _OBS_BATCH_SECONDS.observe(time.perf_counter() - start)
        return grad_in

    def predict(self, x):
        """Forward pass without caching; returns the raw outputs."""
        return self.forward(x, train=False)

    def score_batch(self, x):
        """Batch-size-invariant inference over a ``(n, in_dim)`` matrix.

        Row *i* of the result is bit-identical whether ``x`` holds one
        window or thousands (see :meth:`Dense.infer`), so detector scores
        do not depend on how a stream was coalesced into batches.  This
        is the matrix-matrix serving path behind
        ``HardwareDetector.score_batch`` / ``repro serve``; training and
        evaluation keep the BLAS-backed :meth:`predict`.
        """
        out = np.asarray(x, dtype=float)
        if out.ndim == 1:
            out = out[None, :]
        for layer in self.layers:
            out = layer.infer(out)
        return out

    def predict_label(self, x, threshold=0.5):
        """Binary labels from the first output column."""
        return (self.predict(x)[:, 0] >= threshold).astype(int)

    @property
    def parameters(self):
        return [p for layer in self.layers for p in layer.parameters]

    @property
    def gradients(self):
        return [g for layer in self.layers for g in layer.gradients]

    @property
    def num_parameters(self):
        return self.param_vector.size

    def clone_architecture(self, seed=0):
        """A freshly initialized network with the same shape."""
        dims = [self.layers[0].in_dim] + [l.out_dim for l in self.layers]
        acts = [l.activation for l in self.layers]
        return MLP(dims, acts, seed=seed, loss=type(self.loss)(), optimizer=type(self.optimizer)())
