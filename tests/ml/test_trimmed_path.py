"""The trimmed training path is the old path, bit for bit.

``train_batch`` clips its prediction once (``value_and_gradient``) and
skips the first layer's input gradient, and the AM-GAN builds each
feature-matching condition once.  Each is checked against a reference
written here that does the work the old way: a clip for the loss value
and another for its gradient, a full backward that returns the input
gradient, and a condition matrix rebuilt on every call.
"""

import numpy as np
import pytest

from repro.core import AMGAN
from repro.ml import MLP
from repro.ml.optim import Adam
from repro.ml.resilience import TrainingGuard
from repro.runtime import NAN_GRAD_FAULT, TrainingChaos, TrainingFault

_EPS = 1e-12


def _reference_value(pred, target):
    p = np.clip(pred, _EPS, 1.0 - _EPS)
    return float(-np.mean(target * np.log(p)
                          + (1.0 - target) * np.log(1.0 - p)))


def _reference_gradient(pred, target):
    p = np.clip(pred, _EPS, 1.0 - _EPS)
    return (p - target) / (p * (1.0 - p)) / pred.shape[0]


def _reference_train_batch(net, x, target):
    """One step as ``MLP.train_batch`` took it before the trim."""
    target = np.asarray(target, dtype=float)
    if target.ndim == 1:
        target = target[:, None]
    pred = net.forward(x, train=True)
    value = _reference_value(pred, target)
    grad_in = net.backward(_reference_gradient(pred, target))
    assert grad_in.shape == np.shape(x)
    net.step()
    return value


def _state_bytes(net):
    opt = net.optimizer
    return (net.param_vector.tobytes(), net.grad_vector.tobytes(),
            opt._t, opt._m[0].tobytes(), opt._v[0].tobytes())


@pytest.mark.parametrize("dims, acts", [
    ([145, 1], ["sigmoid"]),                               # the detector
    ([157, 96, 96, 96, 133], ["relu"] * 3 + ["sigmoid"]),  # the generator
    ([3349, 1], ["sigmoid"]),                              # discriminator
], ids=["detector", "generator", "discriminator"])
def test_train_batch_matches_the_full_backward_reference(dims, acts):
    trimmed = MLP(dims, acts, seed=3, optimizer=Adam(lr=0.002))
    reference = MLP(dims, acts, seed=3, optimizer=Adam(lr=0.002))
    rng = np.random.default_rng(11)
    for step in range(12):
        # wide inputs saturate some sigmoids, so the clip bites; a batch
        # of 27 makes the division by the batch size round
        n = 27 if step % 4 == 1 else 32
        x = rng.normal(size=(n, dims[0])) * (1.0 if step % 3 else 40.0)
        target = (rng.random((n, dims[-1])) > 0.5).astype(float)
        if dims[-1] == 1 and step % 2:
            target = target[:, 0]                  # the 1-D target path
        pred = trimmed.forward(x, train=False)
        t2 = np.asarray(target, dtype=float).reshape(pred.shape)
        value, gradient = trimmed.loss.value_and_gradient(pred, t2)
        assert value == _reference_value(pred, t2)
        assert gradient.tobytes() == _reference_gradient(pred, t2).tobytes()
        assert trimmed.loss.value(pred, t2) == value
        assert trimmed.loss.gradient(pred, t2).tobytes() == \
            gradient.tobytes()
        got = trimmed.train_batch(x, target)
        want = _reference_train_batch(reference, x, target)
        assert got == want
        assert _state_bytes(trimmed) == _state_bytes(reference)


# -- the AM-GAN ------------------------------------------------------------------

class _ReferenceAMGAN(AMGAN):
    """The AM-GAN's generator updates as they were before the trim:
    the feature-matching condition rebuilt from ``condition()`` rows on
    every call, every backward returning its input gradient, and the
    discriminator stepped by :func:`_reference_train_batch`."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        disc = self.discriminator
        disc.train_batch = lambda x, t: _reference_train_batch(disc, x, t)

    def _train_generator(self, cond):
        noise = self.rng.normal(0.0, 1.0, size=(len(cond), self.noise_dim))
        fake = self.generator.forward(np.hstack([noise, cond]), train=True)
        pred = self.discriminator.forward(self._disc_input(fake, cond),
                                          train=True)
        grad_d_in = self.discriminator.backward(
            _reference_gradient(pred, np.ones_like(pred)))
        d, c = self.feature_dim, self.cond_dim
        grad_fake = grad_d_in[:, :d].copy()
        grad_interact = grad_d_in[:, d + c:].reshape(len(fake), d, c)
        grad_fake += (grad_interact * cond[:, None, :]).sum(axis=2)
        self.generator.backward(grad_fake)
        self.generator.step()

    def _feature_match_step(self, category, target, real_mean,
                            real_second_moment=None, batch=16, weight=4.0):
        cond = np.vstack([self.condition(category, target)] * batch)
        noise = self.rng.normal(0.0, 1.0, size=(batch, self.noise_dim))
        fake = self.generator.forward(np.hstack([noise, cond]), train=True)
        grad = np.tile(weight * 2.0 * (fake.mean(axis=0) - real_mean) / batch,
                       (batch, 1))
        if real_second_moment is not None:
            m2_err = (fake ** 2).mean(axis=0) - real_second_moment
            grad = grad + weight * 4.0 * fake * m2_err[None, :] / batch
        self.generator.backward(grad)
        self.generator.step()


def _toy_problem(seed=7, n=48):
    rng = np.random.default_rng(seed)
    X = rng.random((n, 6))
    cats = np.array(["atk", "benign", "probe"] * (n // 3))
    y = np.array([1.0, 0.0, 1.0] * (n // 3))
    return X, cats, y


def _gan_bytes(gan):
    nets = (gan.generator, gan.discriminator)
    return ([_state_bytes(net) for net in nets],
            gan.rng.bit_generator.state, gan.style_history)


@pytest.mark.parametrize("guard, faults", [
    (lambda: TrainingGuard(), ()),
    (lambda: TrainingGuard(snapshot_every=10), (12,)),
    (lambda: TrainingGuard(policy="clip"), (12, 21)),
], ids=["guard", "nan-rollback", "nan-clip"])
def test_amgan_train_matches_the_rebuilding_reference(guard, faults):
    X, cats, y = _toy_problem()
    runs = []
    for cls in (AMGAN, _ReferenceAMGAN):
        gan = cls(6, ["atk", "benign", "probe"], generator_hidden=(8, 8),
                  seed=2)
        g = guard()
        chaos = TrainingChaos([TrainingFault(NAN_GRAD_FAULT, at=at)
                               for at in faults])
        gan.train(X, cats, y, iterations=30, guard=g, chaos=chaos,
                  style_reference={"atk": X[cats == "atk"]}, style_every=7)
        runs.append((_gan_bytes(gan), g.trips))
    assert runs[0] == runs[1]
    assert len(runs[0][1]) == len(faults)          # every fault tripped


def test_feature_match_conditions_are_kept_per_target():
    """One class under both targets gets two condition matrices."""
    X = _toy_problem()[0]
    gans = [cls(6, ["atk", "benign", "probe"], generator_hidden=(8,),
                seed=4) for cls in (AMGAN, _ReferenceAMGAN)]
    for gan in gans:
        for target in (1.0, 0.0, 1.0):
            gan._feature_match_step("atk", target, X.mean(axis=0))
    assert _state_bytes(gans[0].generator) == _state_bytes(gans[1].generator)
