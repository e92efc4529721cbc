"""The EVAX vaccination pipeline (paper Figure 4,
``VaccinateHardwareDetector``): train the AM-GAN on real HPC windows,
harvest generated samples per attack class once their style loss is low,
mine engineered security HPCs from the generator, and retrain the
hardware detector on the augmented corpus with the widened feature set.
"""

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.core.amgan import AMGAN
from repro.core.feature_engineering import mine_security_hpcs
from repro.core.perceptron import HardwareDetector, perspectron_schema
from repro.data.features import BASE_FEATURES, FeatureSchema, MaxNormalizer
from repro.obs import obs_event, time_block

BENIGN = "benign"


@dataclass
class VaccinationResult:
    """Everything the pipeline produces."""

    detector: HardwareDetector
    gan: AMGAN
    schema: FeatureSchema
    engineered: list
    style_history: list
    generated_counts: Dict[str, int]


def train_detector(dataset, schema, hidden_layers=(), epochs=40, seed=0,
                   threshold=0.5, name="detector", record_filter=None):
    """Train a plain (non-vaccinated) detector on a dataset — the
    PerSpectron baseline and every 'traditional training' comparison."""
    ds = dataset if record_filter is None else dataset.subset(record_filter)
    raw = ds.raw_matrix(schema)
    y = ds.labels()
    detector = HardwareDetector(schema, hidden_layers=hidden_layers,
                                seed=seed, threshold=threshold, name=name)
    detector.fit(raw, y, epochs=epochs, seed=seed)
    return detector


def train_perspectron(dataset, epochs=40, seed=0, threshold=0.5):
    """The PerSpectron baseline: 106 counters, classical training."""
    return train_detector(dataset, perspectron_schema(), epochs=epochs,
                          seed=seed, threshold=threshold, name="perspectron")


def _extend_generated(generated_base, schema):
    """Lift generated base-feature windows into the full schema by
    computing each engineered AND-column as the minimum of its member
    base columns (in normalized space)."""
    col = {name: i for i, name in enumerate(schema.base_features)}
    eng = []
    for _, counters in schema.engineered:
        member_cols = [col[c] for c in counters if c in col]
        if member_cols:
            eng.append(generated_base[:, member_cols].min(axis=1))
        else:
            eng.append(np.zeros(len(generated_base)))
    if not eng:
        return generated_base
    return np.hstack([generated_base, np.column_stack(eng)])


def build_augmented_training_set(gan, dataset, schema, samples_per_class=40):
    """Combine the real corpus with GAN-generated samples of every class.

    Returns ``(X_aug, y_aug, normalizer, generated_counts)`` — normalized
    feature matrices ready for detector training, plus the fitted
    normalizer for deployment.
    """
    raw_full = dataset.raw_matrix(schema)
    norm_full = MaxNormalizer().fit(raw_full)
    X_real = norm_full.transform(raw_full)
    y = dataset.labels()
    categories = sorted(set(dataset.groups().tolist()) | {BENIGN})
    gen_X, gen_y, generated_counts = [], [], {}
    for cat in categories:
        target = 0 if cat == BENIGN else 1
        count = samples_per_class * (2 if cat == BENIGN else 1)
        generated_counts[cat] = count
        if count <= 0:
            continue
        g = gan.generate(cat, target, count)
        gen_X.append(_extend_generated(g, schema))
        gen_y.append(np.full(count, target))
    X_aug = np.vstack([X_real] + gen_X)
    y_aug = np.concatenate([y] + gen_y)
    return X_aug, y_aug, norm_full, generated_counts


def fit_on_normalized(detector, X, y, epochs=40, seed=0, guard=None):
    """Train a detector directly on already-normalized features (its
    normalizer must be set separately for deployment)."""
    return detector.fit_normalized(X, y, epochs=epochs, seed=seed,
                                   guard=guard)


def vaccinate(dataset, samples_per_class=40, gan_iterations=400,
              gan_hidden=(96, 96, 96), engineer_features=True, top_hpcs=12,
              detector_hidden=(), epochs=40, seed=0, threshold=0.5,
              style_tracking=True, adversarial_hardening=True,
              guard=None, checkpointer=None, chaos=None):
    """Run the full EVAX pipeline on a labelled dataset.

    Returns a :class:`VaccinationResult` whose ``detector`` classifies raw
    counter-delta windows through the widened 145-feature schema.

    Resilience hooks (see ``docs/training_resilience.md``):

    * ``guard`` — a :class:`repro.ml.resilience.TrainingGuard` watching
      both the AM-GAN loop and the detector fit for NaN parameters,
      gradient spikes and loss divergence;
    * ``checkpointer`` — a
      :class:`repro.ml.resilience.TrainingCheckpointer`; the GAN stage
      (the long one) is periodically persisted and, when the
      checkpointer was opened with ``resume=True``, training continues
      from the stored iteration — bit-exact versus an uninterrupted
      run, because parameters, optimizer moments *and* RNG states are
      restored;
    * ``chaos`` — a :class:`repro.runtime.chaos.TrainingChaos` fault
      injector (tests only).
    """
    base_schema = FeatureSchema(engineered=(), base=BASE_FEATURES)
    raw_base = dataset.raw_matrix(base_schema)
    norm_base = MaxNormalizer().fit(raw_base)
    Xb = norm_base.transform(raw_base)
    y = dataset.labels()
    cats = dataset.groups()
    categories = sorted(set(cats.tolist()) | {BENIGN})

    # --- 1. adversarial training of the AM-GAN -------------------------------
    obs_event("vaccinate.stage", stage="gan", windows=len(Xb))
    gan = AMGAN(base_schema.dim, categories, generator_hidden=gan_hidden,
                seed=seed)
    start_iteration = 0
    if checkpointer is not None:
        start_iteration, payload = gan.restore_checkpoint(checkpointer, "gan")
        if payload is not None:
            from repro.obs.context import record_lineage
            record_lineage(parent_run=payload["extra"].get("run"),
                           checkpoint_iteration=start_iteration)
            obs_event("vaccinate.resumed", stage="gan",
                      iteration=start_iteration,
                      parent_run=payload["extra"].get("run"))
    style_ref = None
    if style_tracking:
        style_ref = {}
        for cat in categories:
            mask = cats == cat
            if mask.sum() >= 4:
                style_ref[cat] = Xb[mask][:64]
    with time_block("vaccinate.gan.seconds"):
        gan.train(Xb, cats, y, iterations=gan_iterations,
                  style_reference=style_ref, guard=guard,
                  checkpointer=checkpointer, chaos=chaos,
                  start_iteration=start_iteration)

    # --- 2. engineer security HPCs from the generator ------------------------
    obs_event("vaccinate.stage", stage="engineer")
    with time_block("vaccinate.engineer.seconds"):
        if engineer_features:
            engineered = mine_security_hpcs(
                gan, base_schema, top_nodes=top_hpcs,
                attack_windows=raw_base[y == 1],
                benign_windows=raw_base[y == 0])
        else:
            engineered = []
    schema = FeatureSchema(engineered=tuple(engineered))

    # --- 3. harvest generated samples per class, plus adversarial-
    # direction interpolations that push the boundary to the edge of the
    # feasible evasion space (Figure 2)
    obs_event("vaccinate.stage", stage="augment")
    with time_block("vaccinate.augment.seconds"):
        X_aug, y_aug, norm_full, generated_counts = \
            build_augmented_training_set(
                gan, dataset, schema, samples_per_class=samples_per_class)
        if adversarial_hardening:
            from repro.core.adversarial import adversarial_augmentation
            benign_mean = X_aug[y_aug == 0].mean(axis=0)
            adv = adversarial_augmentation(X_aug[y_aug == 1], benign_mean,
                                           schema, seed=seed)
            X_aug = np.vstack([X_aug, adv])
            y_aug = np.concatenate([y_aug, np.ones(len(adv))])

    # --- 4. retrain the hardware detector on the vaccinated corpus ------------
    obs_event("vaccinate.stage", stage="fit", samples=len(X_aug))
    detector = HardwareDetector(schema, hidden_layers=detector_hidden,
                                seed=seed, threshold=threshold, name="evax")
    detector.normalizer = norm_full
    with time_block("vaccinate.fit.seconds"):
        detector.fit_normalized(X_aug, y_aug, epochs=epochs, seed=seed,
                                guard=guard)
    # --- 5. tune the operating point on the real benign windows ----------------
    obs_event("vaccinate.stage", stage="calibrate")
    with time_block("vaccinate.calibrate.seconds"):
        raw_benign = dataset.raw_matrix(schema)[y == 0]
        if len(raw_benign):
            detector.calibrate_threshold(raw_benign)

    return VaccinationResult(
        detector=detector,
        gan=gan,
        schema=schema,
        engineered=list(engineered) if engineer_features else [],
        style_history=list(gan.style_history),
        generated_counts=generated_counts,
    )
