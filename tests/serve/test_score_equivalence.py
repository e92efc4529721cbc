"""The serving layer's numerical bedrock: batch == single, bit for bit.

``score_batch`` row *i* must equal scoring window *i* alone — exactly,
not approximately — for any batch size and any chopping of the stream
into batches.  Everything above (tenant isolation, chaos replays, the
verified equivalence in the smoke check) rests on this, so it is pinned
here for both detector depths, including non-finite inputs.
"""

import numpy as np
import pytest

from repro.data.features import BASE_FEATURES, FeatureSchema, MaxNormalizer
from repro.serve.bench import synthetic_windows
from repro.sim.hpc import CounterBank

#: a raw-counter column the schema actually maps into a feature —
#: a poison must land on one of these to reach the score at all (the
#: serving layer additionally finite-checks the *raw* window, so
#: excluded columns are still caught there)
IN_SCHEMA = CounterBank.index_of(BASE_FEATURES[0])


def _both(request):
    return request.getfixturevalue(request.param)


@pytest.fixture(params=["detector", "deep_detector"])
def any_detector(request):
    return _both(request)


def test_batch_matches_single_bit_identical(any_detector):
    X = synthetic_windows(257, seed=1)
    batch = any_detector.score_batch(X)
    singles = np.array([any_detector.score_window(X[i])
                        for i in range(len(X))])
    assert np.array_equal(batch, singles)


def test_batch_is_chunking_invariant(any_detector):
    """However the stream is chopped into batches, every window's score
    is the same — so batch composition can never change a verdict."""
    X = synthetic_windows(100, seed=2)
    full = any_detector.score_batch(X)
    for chunk in (1, 7, 33, 100):
        parts = [any_detector.score_batch(X[i:i + chunk])
                 for i in range(0, len(X), chunk)]
        assert np.array_equal(np.concatenate(parts), full)


def test_classify_window_agrees_with_batch_threshold(detector):
    X = synthetic_windows(64, seed=3)
    scores = detector.score_batch(X)
    for i in range(len(X)):
        assert detector.classify_window(X[i]) == \
            bool(scores[i] >= detector.threshold)


def test_nan_window_poisons_only_its_row(any_detector):
    """A non-finite input makes *that row's* score non-finite; sibling
    rows in the same batch stay bit-identical to a clean batch."""
    X = synthetic_windows(32, seed=4)
    clean = any_detector.score_batch(X)
    poisoned = X.copy()
    poisoned[11, IN_SCHEMA] = float("nan")
    scores = any_detector.score_batch(poisoned)
    assert not np.isfinite(scores[11])
    mask = np.arange(len(X)) != 11
    assert np.array_equal(scores[mask], clean[mask])


def test_infinite_window_poisons_only_its_row(detector):
    X = synthetic_windows(16, seed=5)
    clean = detector.score_batch(X)
    poisoned = X.copy()
    poisoned[3, IN_SCHEMA] = float("inf")
    scores = detector.score_batch(poisoned)
    assert not np.isfinite(scores[3]) or scores[3] != clean[3]
    mask = np.arange(len(X)) != 3
    assert np.array_equal(scores[mask], clean[mask])


def test_classify_window_raises_on_non_finite_score(detector):
    window = synthetic_windows(1, seed=6)[0].copy()
    window[IN_SCHEMA] = float("nan")
    with pytest.raises(ValueError, match="non-finite"):
        detector.classify_window(window)


def test_raw_matrix_matches_raw_vector():
    schema = FeatureSchema()
    X = synthetic_windows(40, seed=7)
    matrix = schema.raw_matrix(X)
    for i in range(len(X)):
        assert np.array_equal(matrix[i], schema.raw_vector(X[i]))
    # the Dataset path: windows as lists of integer deltas
    windows = X.astype(int).tolist()
    assert np.array_equal(schema.matrix(windows), np.vstack(
        [schema.raw_vector(w) for w in windows]))


def test_raw_matrix_rejects_vectors():
    with pytest.raises(ValueError, match="matrix"):
        FeatureSchema().raw_matrix(synthetic_windows(1, seed=8)[0])


def test_transform_inplace_matches_transform():
    schema = FeatureSchema()
    X = schema.raw_matrix(synthetic_windows(50, seed=9))
    norm = MaxNormalizer().fit(X[:25])
    expected = norm.transform(X)
    got = norm.transform_inplace(X.copy())
    assert np.array_equal(got, expected)
