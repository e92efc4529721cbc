"""EVAX core: the paper's contribution.

* :mod:`perceptron` — the hardware detector (EVAX) and PerSpectron baseline
* :mod:`dnn` — deep detectors (Figure 20)
* :mod:`amgan` — the asymmetric conditional GAN (Section V)
* :mod:`gram` — Gram-matrix style loss / interpretability (Section V-D)
* :mod:`feature_engineering` — automatic security-HPC mining (Section VI-A)
* :mod:`vaccination` — the end-to-end training pipeline (Figure 4)
* :mod:`crossval` — leave-one-attack-out zero-day evaluation
* :mod:`adaptive` — the detector-gated adaptive architecture (Section VIII)
"""

from repro.core.perceptron import (
    HardwareDetector, evax_schema, perspectron_schema,
)
from repro.core.dnn import DeepDetector
from repro.core.amgan import AMGAN
from repro.core.gram import feature_correlation, gram_matrix, style_loss
from repro.core.feature_engineering import combo_fire_rates, mine_security_hpcs
from repro.core.vaccination import (
    BENIGN, VaccinationResult, train_detector, train_perspectron, vaccinate,
)
from repro.core.crossval import (
    FoldResult, leave_one_attack_out, mean_generalization_error,
)
from repro.core.adaptive import AdaptiveArchitecture, AdaptiveRun
from repro.core.adversarial import (
    ESSENTIAL_COUNTERS, MAX_FEASIBLE_STRENGTH, adversarial_augmentation,
    dilute_toward_benign, essential_columns,
)
from repro.core.interpret import (
    attack_signature, explain_window, gram_heatmap, weight_report,
)
from repro.core.patching import (
    MODEL_FORMAT, DetectorPatch, ModelChecksumError, ModelCorruptError,
    ModelError, ModelMissingError, ModelSchemaError, detector_from_dict,
    detector_to_dict, load_detector, save_detector,
)
from repro.core.classifier import (
    AttackClassifier, CATEGORY_FAMILIES, FAMILIES, FAMILY_RESPONSES,
    TargetedAdaptiveArchitecture, TargetedController,
)

__all__ = [
    "HardwareDetector", "DeepDetector", "AMGAN",
    "evax_schema", "perspectron_schema",
    "gram_matrix", "style_loss", "feature_correlation",
    "mine_security_hpcs", "combo_fire_rates",
    "BENIGN", "VaccinationResult", "train_detector", "train_perspectron",
    "vaccinate",
    "FoldResult", "leave_one_attack_out", "mean_generalization_error",
    "AdaptiveArchitecture", "AdaptiveRun",
    "ESSENTIAL_COUNTERS", "MAX_FEASIBLE_STRENGTH",
    "adversarial_augmentation", "dilute_toward_benign", "essential_columns",
    "attack_signature", "explain_window", "gram_heatmap", "weight_report",
    "DetectorPatch", "detector_to_dict", "detector_from_dict",
    "save_detector", "load_detector",
    "MODEL_FORMAT", "ModelError", "ModelMissingError", "ModelCorruptError",
    "ModelChecksumError", "ModelSchemaError",
    "AttackClassifier", "CATEGORY_FAMILIES", "FAMILIES", "FAMILY_RESPONSES",
    "TargetedAdaptiveArchitecture", "TargetedController",
]
