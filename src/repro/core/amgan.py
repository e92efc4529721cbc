"""AM-GAN: the Asymmetric-Model conditional GAN (paper Section V).

The Generator is a deep network mapping (noise, class condition, target)
to a synthetic HPC feature window; the Discriminator has the *detector's*
architecture (a single layer) — the asymmetry the paper names the model
after.  Training follows the paper's algorithm (Figure 4): the
discriminator learns to accept real matching (sample, label) pairs and
reject generated or mismatched pairs; the generator is updated through
the discriminator's gradient to maximize its error.

Generated samples are feature vectors of counter values — per the paper's
ethics discussion, they train detectors but cannot be reverse-engineered
into attack code.
"""

import numpy as np

from repro.core.gram import style_loss
from repro.ml import MLP
from repro.ml.optim import Adam
from repro.obs import metrics, obs_event, time_block


class AMGAN:
    """Conditional GAN over normalized HPC feature windows.

    Parameters
    ----------
    feature_dim:
        Width of a feature window (145 in the paper).
    categories:
        Ordered class labels (attack types plus "benign").
    generator_hidden:
        Hidden widths of the deep generator.
    noise_dim:
        Noise vector width (the paper uses 145).
    """

    def __init__(self, feature_dim, categories, generator_hidden=(96, 96, 96),
                 noise_dim=None, seed=0):
        self.feature_dim = feature_dim
        self.categories = list(categories)
        self.noise_dim = noise_dim if noise_dim is not None else feature_dim
        self.cond_dim = len(self.categories) + 1      # one-hot + target bit
        self.rng = np.random.default_rng(seed)
        gen_dims = ([self.noise_dim + self.cond_dim]
                    + list(generator_hidden) + [feature_dim])
        gen_acts = ["relu"] * len(generator_hidden) + ["sigmoid"]
        self.generator = MLP(gen_dims, gen_acts, seed=seed,
                             optimizer=Adam(lr=0.002))
        # Asymmetric: the discriminator mirrors the hardware detector — a
        # single layer.  A purely linear function cannot express whether a
        # sample *matches* its condition, so (exactly as the paper widens
        # the perceptron's input space instead of deepening the model) the
        # discriminator sees explicit sample-by-condition interaction
        # features alongside the raw inputs.
        disc_in = feature_dim + self.cond_dim + feature_dim * self.cond_dim
        self.discriminator = MLP([disc_in, 1], ["sigmoid"], seed=seed + 1,
                                 optimizer=Adam(lr=0.002))
        self.style_history = []

    def _disc_input(self, x, cond):
        """[x, cond, x (x) cond]: the widened single-layer input."""
        (n, d), c = x.shape, cond.shape[1]
        out = np.empty((n, d + c + d * c))
        out[:, :d] = x
        out[:, d:d + c] = cond
        np.multiply(x[:, :, None], cond[:, None, :],
                    out=out[:, d + c:].reshape(n, d, c))
        return out

    # -- conditioning -----------------------------------------------------------------

    def condition(self, category, target):
        """One-hot class + malicious/safe target bit."""
        vec = np.zeros(self.cond_dim)
        vec[self.categories.index(category)] = 1.0
        vec[-1] = float(target)
        return vec

    def _conditions(self, categories, targets):
        """One :meth:`condition` row per (category, target) pair."""
        cond = np.zeros((len(targets), self.cond_dim))
        cond[np.arange(len(targets)),
             [self.categories.index(c) for c in categories]] = 1.0
        cond[:, -1] = targets
        return cond

    # -- training ----------------------------------------------------------------------

    def train(self, X, categories, targets, iterations=400, batch_size=32,
              style_reference=None, style_every=25, guard=None,
              checkpointer=None, checkpoint_stage="gan", chaos=None,
              start_iteration=0):
        """Adversarial training on normalized windows ``X``.

        ``style_reference`` may map a category name to its real windows;
        when given, the mean per-category style loss of freshly generated
        batches is recorded in :attr:`style_history` every ``style_every``
        iterations (Figure 7's quality curve).

        Resilience hooks (all optional, no-ops when absent):

        * ``guard`` — a :class:`repro.ml.resilience.TrainingGuard`
          inspecting every iteration; on an anomaly it may rewind the
          loop to its last in-memory snapshot.
        * ``checkpointer`` — a
          :class:`repro.ml.resilience.TrainingCheckpointer`; every
          ``checkpointer.interval`` completed iterations (and once at
          the end) the generator/discriminator parameters, optimizer
          moments, RNG state and style history are persisted atomically
          under ``checkpoint_stage``, so a killed run resumes bit-exact
          via ``start_iteration``.
        * ``chaos`` — a :class:`repro.runtime.chaos.TrainingChaos`
          fault injector (tests only).
        """
        X = np.asarray(X, dtype=float)
        categories = np.asarray(categories)
        targets = np.asarray(targets, dtype=float)
        n = len(X)
        if n < 2:
            raise ValueError("need at least two training samples")
        # per-class real feature means for the feature-matching term: the
        # adversarial signal alone underweights sparse counters (traps,
        # RAS mispredicts...) that are exactly the class signatures
        class_means = {}
        class_second_moments = {}
        for cat in sorted(set(categories.tolist())):
            mask = categories == cat
            key = (cat, float(targets[mask][0]))
            class_means[key] = X[mask].mean(axis=0)
            class_second_moments[key] = (X[mask] ** 2).mean(axis=0)
        class_keys = sorted(class_means)
        reg = metrics()
        loss_real = reg.gauge("amgan.loss.disc_real")
        loss_mismatch = reg.gauge("amgan.loss.disc_mismatch")
        loss_fake = reg.gauge("amgan.loss.disc_fake")
        networks = {"generator": self.generator,
                    "discriminator": self.discriminator}
        if guard is not None:
            guard.watch(stage="gan", **networks)
            guard.attach_rng(self.rng)
        with time_block("amgan.train.seconds"):
            iteration = start_iteration
            while iteration < iterations:
                if chaos is not None:
                    chaos.maybe_kill(iteration)
                if guard is not None:
                    guard.snapshot_if_due(iteration)
                idx = self.rng.integers(0, n, size=batch_size)
                real_x = X[idx]
                real_c = self._conditions(categories[idx], targets[idx])
                # --- discriminator: real matching pairs -> 1
                loss_real.set(self.discriminator.train_batch(
                    self._disc_input(real_x, real_c),
                    np.ones((batch_size, 1))))
                # --- discriminator: mismatched pairs -> 0
                shuffled = self.rng.permutation(batch_size)
                mismatched_c = real_c[shuffled]
                changed = np.any(mismatched_c != real_c, axis=1,
                                 keepdims=True)
                loss_mismatch.set(self.discriminator.train_batch(
                    self._disc_input(real_x, mismatched_c),
                    1.0 - changed.astype(float)))
                # --- discriminator: generated pairs -> 0
                fake_x, fake_c = self._generate_batch(categories[idx],
                                                      targets[idx])
                loss_fake.set(self.discriminator.train_batch(
                    self._disc_input(fake_x, fake_c),
                    np.zeros((batch_size, 1))))
                # --- generator: fool the discriminator (target 1)
                self._train_generator(categories[idx], targets[idx])
                # --- generator: per-class feature matching (a few classes
                # per iteration, round-robin)
                for k in range(3):
                    key = class_keys[(3 * iteration + k) % len(class_keys)]
                    self._feature_match_step(key[0], key[1],
                                             class_means[key],
                                             class_second_moments[key])
                if chaos is not None:
                    chaos.corrupt(iteration, networks)
                if guard is not None:
                    rewind = guard.inspect(
                        iteration, loss=loss_real.value
                        + loss_mismatch.value + loss_fake.value)
                    if rewind is not None:
                        iteration = rewind
                        continue
                reg.inc("amgan.iterations")
                if style_reference and iteration % style_every == 0:
                    probe = self._mean_style_loss(style_reference)
                    self.style_history.append((iteration, probe))
                    reg.set_gauge("amgan.style_loss", probe)
                    obs_event("amgan.round", iteration=iteration,
                              style_loss=round(probe, 6),
                              disc_real=round(loss_real.value, 6),
                              disc_fake=round(loss_fake.value, 6))
                iteration += 1
                if checkpointer is not None and \
                        (checkpointer.due(iteration)
                         or iteration == iterations):
                    self._save_checkpoint(checkpointer, checkpoint_stage,
                                          iteration)
        return self

    def _save_checkpoint(self, checkpointer, stage, iteration):
        from repro.obs.context import current_run_id
        checkpointer.save(
            stage, iteration,
            networks={"generator": self.generator,
                      "discriminator": self.discriminator},
            rngs={"gan": self.rng},
            extra={"style_history": [list(e) for e in self.style_history],
                   "run": current_run_id()})

    def restore_checkpoint(self, checkpointer, stage="gan"):
        """Restore generator/discriminator/RNG/style history from a
        durable checkpoint; returns the completed-iteration count (0
        when there is nothing to resume)."""
        payload = checkpointer.restore(
            stage,
            networks={"generator": self.generator,
                      "discriminator": self.discriminator},
            rngs={"gan": self.rng})
        if payload is None:
            return 0, None
        self.style_history = [tuple(e) for e in
                              payload["extra"].get("style_history", [])]
        return payload["iteration"], payload

    def _generate_batch(self, categories, targets):
        cond = self._conditions(categories, targets)
        noise = self.rng.normal(0.0, 1.0, size=(len(cond), self.noise_dim))
        fake = self.generator.predict(np.hstack([noise, cond]))
        return fake, cond

    def _train_generator(self, categories, targets):
        cond = self._conditions(categories, targets)
        noise = self.rng.normal(0.0, 1.0, size=(len(cond), self.noise_dim))
        gen_in = np.hstack([noise, cond])
        fake = self.generator.forward(gen_in, train=True)
        d_in = self._disc_input(fake, cond)
        pred = self.discriminator.forward(d_in, train=True)
        # non-saturating generator loss: maximize log D(G(z))
        target = np.ones_like(pred)
        grad_out = self.discriminator.loss.gradient(pred, target)
        grad_d_in = self.discriminator.backward(grad_out)
        # dL/dx flows through both the raw block and the interaction block
        d, c = self.feature_dim, self.cond_dim
        grad_fake = grad_d_in[:, :d].copy()
        grad_interact = grad_d_in[:, d + c:].reshape(len(fake), d, c)
        grad_fake += (grad_interact * cond[:, None, :]).sum(axis=2)
        self.generator.backward(grad_fake)
        self.generator.step()

    def _feature_match_step(self, category, target, real_mean,
                            real_second_moment=None, batch=16, weight=4.0):
        """One feature-matching update: pull the generated batch's first
        (and optionally second) per-feature moments for (category, target)
        toward the real class moments — this keeps sparse class-signature
        counters (traps, RAS mispredicts, ...) alive in the output and
        matches the Gram diagonal the style metric scores."""
        cond = np.vstack([self.condition(category, target)] * batch)
        noise = self.rng.normal(0.0, 1.0, size=(batch, self.noise_dim))
        gen_in = np.hstack([noise, cond])
        fake = self.generator.forward(gen_in, train=True)
        grad = np.tile(weight * 2.0 * (fake.mean(axis=0) - real_mean) / batch,
                       (batch, 1))
        if real_second_moment is not None:
            m2_err = (fake ** 2).mean(axis=0) - real_second_moment
            grad = grad + weight * 4.0 * fake * m2_err[None, :] / batch
        self.generator.backward(grad)
        self.generator.step()

    def _mean_style_loss(self, style_reference):
        losses = []
        for category, real in style_reference.items():
            generated = self.generate(category, 1, max(8, len(real) // 2))
            losses.append(style_loss(real, generated))
        return float(np.mean(losses))

    # -- generation (AUTOMATIC ATTACK GENERATION in the paper) ---------------------------

    def generate(self, category, target, count):
        """Synthesize ``count`` windows conditioned on (category, target)."""
        cond = np.vstack([self.condition(category, target)] * count)
        noise = self.rng.normal(0.0, 1.0, size=(count, self.noise_dim))
        return self.generator.predict(np.hstack([noise, cond]))

    def discriminator_score(self, X, category, target):
        """Discriminator belief that windows are real matching samples."""
        cond = np.vstack([self.condition(category, target)] * len(X))
        return self.discriminator.predict(self._disc_input(np.asarray(X, dtype=float), cond))[:, 0]
