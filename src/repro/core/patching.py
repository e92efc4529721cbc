"""Detector serialization and vendor-style security patches.

The paper's deployment story (Section VI-B, "Weight & Feature Updates"):
the detector's weights are static in silicon but updatable "via a vendor
distributed patch ... a process similar to microcode updates", including
additions to the monitored feature set as new attacks emerge.

* :func:`detector_to_dict` / :func:`detector_from_dict` — full round-trip
  serialization of a trained detector (schema, normalizer, weights);
* :func:`save_detector` / :func:`load_detector` — the durable artifact:
  a sealed file (:mod:`repro.runtime.digest`: atomic, SHA-256 over the
  whole payload, schema-tagged), so a kill mid-write or a bit-rotted
  file can never produce a loadable-but-wrong model — loading either
  verifies everything (checksum, format, layer dimensions, weight
  finiteness) or raises a typed :class:`ModelError`;
* :class:`DetectorPatch` — the diff between a deployed detector and a
  retrained one: new engineered features, weight updates, a version tag —
  applied in place to a deployed detector.
"""

import json

import numpy as np

from repro.core.perceptron import HardwareDetector
from repro.data.features import FeatureSchema, MaxNormalizer
from repro.runtime.digest import (
    CHECKSUM, SCHEMA, SealedFileError, read_sealed, write_sealed,
)

#: sealed-file schema of a saved detector; bump on incompatible layout
#: changes.  3: the sealed file, whose payload digest replaces /2's
#: feature-schema fingerprint and feature count.
MODEL_FORMAT = "repro.detector/3"


class ModelError(ValueError):
    """Base class for model-artifact failures (a ``ValueError`` so
    legacy callers that caught that still work)."""


class ModelMissingError(ModelError):
    """The model file does not exist."""


class ModelCorruptError(ModelError):
    """The model file exists but cannot be parsed."""


class ModelChecksumError(ModelError):
    """The payload does not match its embedded SHA-256 (torn write,
    bit rot, tampering)."""


class ModelSchemaError(ModelError):
    """The artifact parses but is internally inconsistent (dimension
    mismatch, non-finite weights, another format)."""


def detector_to_dict(detector):
    """Serialize a detector to plain JSON-compatible data."""
    return {
        "name": detector.name,
        "threshold": detector.threshold,
        "schema": {
            "base": list(detector.schema.base_features),
            "engineered": [[name, list(counters)]
                           for name, counters in detector.schema.engineered],
        },
        "normalizer_max": detector.normalizer.max_values.tolist()
        if detector.normalizer.max_values is not None else None,
        "layers": [
            {
                "weights": layer.weights.tolist(),
                "bias": layer.bias.tolist(),
                "activation": layer.activation,
            }
            for layer in detector.net.layers
        ],
    }


def detector_from_dict(data):
    """Reconstruct a detector serialized by :func:`detector_to_dict`.

    A schema that names a counter this build's counter layout does not
    know (a stale envelope from an older/newer simulator) raises a typed
    :class:`ModelSchemaError` instead of a bare ``KeyError`` mid-gather.
    """
    try:
        schema = FeatureSchema(
            engineered=tuple(
                (name, tuple(counters))
                for name, counters in data["schema"]["engineered"]),
            base=tuple(data["schema"]["base"]),
        )
    except KeyError as exc:
        raise ModelSchemaError(
            f"detector schema references a counter this build does not "
            f"have: {exc} — stale envelope vs the live counter layout"
        ) from exc
    hidden = [len(layer["bias"]) for layer in data["layers"][:-1]]
    detector = HardwareDetector(schema, hidden_layers=tuple(hidden),
                                threshold=data["threshold"],
                                name=data["name"])
    for layer, saved in zip(detector.net.layers, data["layers"]):
        layer.weights[:] = np.array(saved["weights"])
        layer.bias[:] = np.array(saved["bias"])
        if layer.activation != saved["activation"]:
            raise ValueError("activation mismatch in serialized detector")
    if data["normalizer_max"] is not None:
        detector.normalizer = MaxNormalizer()
        detector.normalizer.max_values = np.array(data["normalizer_max"])
    return detector


def _validate_payload(payload, origin):
    """Structural validation of a ``detector_to_dict`` payload: layer
    dimensions must chain from the schema width down to one output, and
    every number must be finite — a model that passes cannot silently
    misclassify because of a torn or hand-edited file."""
    try:
        schema_dims = (len(payload["schema"]["base"])
                       + len(payload["schema"]["engineered"]))
        layers = payload["layers"]
        threshold = payload["threshold"]
        normalizer = payload["normalizer_max"]
    except (KeyError, TypeError) as exc:
        raise ModelSchemaError(
            f"model artifact {origin} missing field: {exc}") from exc
    if not layers:
        raise ModelSchemaError(f"model artifact {origin} has no layers")
    expected_in = schema_dims
    for i, layer in enumerate(layers):
        weights = np.asarray(layer.get("weights", []), dtype=float)
        bias = np.asarray(layer.get("bias", []), dtype=float)
        if weights.ndim != 2 or weights.shape[0] != expected_in or \
                weights.shape[1] != bias.shape[0]:
            raise ModelSchemaError(
                f"model artifact {origin}: layer {i} dimensions "
                f"{weights.shape} do not chain from input width "
                f"{expected_in}")
        if not np.isfinite(weights).all() or not np.isfinite(bias).all():
            raise ModelSchemaError(
                f"model artifact {origin}: non-finite weights in layer {i}")
        expected_in = weights.shape[1]
    if expected_in != 1:
        raise ModelSchemaError(
            f"model artifact {origin}: final layer width {expected_in}, "
            f"expected 1")
    if not isinstance(threshold, (int, float)) \
            or not np.isfinite(threshold) or not 0.0 <= threshold <= 1.0:
        raise ModelSchemaError(
            f"model artifact {origin}: threshold {threshold!r} outside "
            f"[0, 1]")
    if normalizer is not None:
        norm = np.asarray(normalizer, dtype=float)
        if norm.shape != (schema_dims,) or not np.isfinite(norm).all():
            raise ModelSchemaError(
                f"model artifact {origin}: normalizer length "
                f"{norm.shape} does not match feature width {schema_dims}")


def save_detector(detector, path):
    """Atomically write a detector's full deployable state: a sealed
    ``detector_to_dict`` payload — a kill at any instant leaves the
    previous artifact or none, never a torn one."""
    write_sealed(path, MODEL_FORMAT, detector_to_dict(detector))


def load_detector(path):
    """Load and fully verify a detector written by :func:`save_detector`.

    Raises a typed :class:`ModelError` subclass on a missing file,
    unparseable JSON, another format, checksum mismatch or structural
    inconsistency.
    """
    try:
        payload = read_sealed(path, MODEL_FORMAT)
    except FileNotFoundError:
        raise ModelMissingError(f"model file not found: {path}") from None
    except SealedFileError as exc:
        error = {CHECKSUM: ModelChecksumError,
                 SCHEMA: ModelSchemaError}.get(exc.reason, ModelCorruptError)
        raise error(str(exc)) from exc
    if not isinstance(payload, dict):
        raise ModelSchemaError(f"model file {path} has no detector payload")
    _validate_payload(payload, path)
    return detector_from_dict(payload)


def verify_corpus_compatible(detector, dataset, detector_origin="detector",
                             corpus_origin="corpus"):
    """Assert a loaded detector can legally score ``dataset``'s windows.

    A detector envelope and an evaluation corpus can each be internally
    consistent yet mutually wrong: the corpus may carry delta vectors of
    a different counter-layout width, or the detector's schema may name
    counters the corpus's layout never measured.  Scoring through such a
    pair silently gathers the wrong columns — every verdict is garbage
    with no error.  This check turns the mismatch into a typed
    :class:`ModelSchemaError` (the arena/adaptive CLI paths surface it
    as a one-line exit-2 error).
    """
    from repro.data.io import counter_layout_sha256
    from repro.sim.hpc import COUNTER_NAMES
    known = set(COUNTER_NAMES)
    stale = [n for n in detector.schema.base_features if n not in known]
    stale += [c for _, counters in detector.schema.engineered
              for c in counters if c not in known]
    if stale:
        raise ModelSchemaError(
            f"{detector_origin} schema references counters absent from "
            f"the live layout: {sorted(set(stale))[:4]}")
    recorded = getattr(dataset, "counters_sha256", None)
    if recorded is not None and recorded != counter_layout_sha256():
        raise ModelSchemaError(
            f"{corpus_origin} was collected under a different counter "
            f"layout (sidecar fingerprint {recorded[:12]}... vs live "
            f"{counter_layout_sha256()[:12]}...); scoring it with "
            f"{detector_origin} would gather the wrong columns")
    width = len(COUNTER_NAMES)
    for record in dataset.records[:1]:
        if len(record.deltas) != width:
            raise ModelSchemaError(
                f"{corpus_origin} windows carry {len(record.deltas)} "
                f"counter deltas but the live layout (and "
                f"{detector_origin}'s schema) expects {width} — the "
                f"corpus was collected under a different counter layout")
    return detector


def classifier_to_dict(classifier):
    """Serialize an :class:`repro.core.classifier.AttackClassifier`."""
    return {
        "families": list(classifier.families),
        "schema": {
            "base": list(classifier.schema.base_features),
            "engineered": [[name, list(counters)]
                           for name, counters
                           in classifier.schema.engineered],
        },
        "normalizer_max": classifier.normalizer.max_values.tolist()
        if classifier.normalizer.max_values is not None else None,
        "layers": [
            {
                "weights": layer.weights.tolist(),
                "bias": layer.bias.tolist(),
                "activation": layer.activation,
            }
            for layer in classifier.net.layers
        ],
    }


def classifier_from_dict(data):
    """Reconstruct a serialized attack-family classifier."""
    from repro.core.classifier import AttackClassifier

    schema = FeatureSchema(
        engineered=tuple((name, tuple(counters))
                         for name, counters in data["schema"]["engineered"]),
        base=tuple(data["schema"]["base"]),
    )
    hidden = tuple(len(layer["bias"]) for layer in data["layers"][:-1])
    classifier = AttackClassifier(schema, hidden=hidden)
    if tuple(data["families"]) != tuple(classifier.families):
        raise ValueError("family vocabulary mismatch")
    for layer, saved in zip(classifier.net.layers, data["layers"]):
        layer.weights[:] = np.array(saved["weights"])
        layer.bias[:] = np.array(saved["bias"])
    if data["normalizer_max"] is not None:
        classifier.normalizer = MaxNormalizer()
        classifier.normalizer.max_values = np.array(data["normalizer_max"])
    return classifier


class DetectorPatch:
    """A vendor patch: the delta from a deployed detector to an updated
    one, distributable as JSON and applied in place."""

    def __init__(self, version, payload):
        self.version = version
        self.payload = payload

    @classmethod
    def from_retrained(cls, updated_detector, version):
        """Build a patch carrying the updated detector's deployable state
        (weights, normalizer, widened feature set)."""
        return cls(version, detector_to_dict(updated_detector))

    def apply(self):
        """Instantiate the patched detector (the microcode-update step)."""
        detector = detector_from_dict(self.payload)
        detector.name = f"{detector.name}@{self.version}"
        return detector

    def new_features_vs(self, deployed_detector):
        """Engineered features this patch adds over a deployed detector."""
        old = {name for name, _ in deployed_detector.schema.engineered}
        return [name for name, _ in
                (tuple(e) for e in self.payload["schema"]["engineered"])
                if name not in old]

    def to_json(self):
        return json.dumps({"version": self.version, "payload": self.payload})

    @classmethod
    def from_json(cls, text):
        data = json.loads(text)
        return cls(data["version"], data["payload"])
