"""Feature schema, normalization, dataset assembly."""

import numpy as np
import pytest

from repro.attacks import Meltdown, SpectrePHT
from repro.data import (
    BASE_FEATURES, Dataset, ENGINEERED_FEATURES, FeatureSchema,
    MaxNormalizer, SampleRecord, build_dataset, collect_source,
)
from repro.sim.hpc import COUNTER_NAMES, CounterBank
from repro.workloads import all_workloads


class TestSchema:
    def test_paper_dimensions(self):
        schema = FeatureSchema()
        assert len(BASE_FEATURES) == 133
        assert len(ENGINEERED_FEATURES) == 12
        assert schema.dim == 145

    def test_names_unique_and_complete(self):
        schema = FeatureSchema()
        assert len(schema.names) == len(set(schema.names)) == schema.dim

    def test_engineered_members_are_real_counters(self):
        for _, counters in ENGINEERED_FEATURES:
            for c in counters:
                assert CounterBank.has(c), c

    def test_raw_vector_base_passthrough(self):
        schema = FeatureSchema()
        deltas = [0] * len(COUNTER_NAMES)
        deltas[CounterBank.index_of("dcache.hits")] = 7
        vec = schema.raw_vector(deltas)
        idx = schema.names.index("dcache.hits")
        assert vec[idx] == 7

    def test_engineered_is_and_semantics(self):
        """AND feature is zero unless every member fired; otherwise the
        min of the members."""
        schema = FeatureSchema(engineered=(
            ("sec.test", ("dcache.hits", "dcache.misses")),), )
        deltas = [0] * len(COUNTER_NAMES)
        deltas[CounterBank.index_of("dcache.hits")] = 5
        assert schema.raw_vector(deltas)[-1] == 0
        deltas[CounterBank.index_of("dcache.misses")] = 3
        assert schema.raw_vector(deltas)[-1] == 3

    def test_custom_base_subset(self):
        schema = FeatureSchema(engineered=(), base=BASE_FEATURES[:50])
        assert schema.dim == 50

    def test_matrix_stacks_windows(self):
        schema = FeatureSchema()
        deltas = [0] * len(COUNTER_NAMES)
        m = schema.matrix([deltas, deltas])
        assert m.shape == (2, 145)

    def test_empty_matrix(self):
        schema = FeatureSchema()
        assert schema.matrix([]).shape == (0, 145)

    @pytest.mark.parametrize("base", ["default", "perspectron", "reversed",
                                      "scattered"])
    def test_raw_matrix_matches_raw_vector_for_any_layout(self, base):
        """``raw_matrix`` copies the base block in runs of consecutive
        counters and chains ``np.minimum`` over each AND-feature's
        members: whatever the runs and member counts, each finite row
        must equal the per-window ``raw_vector``, and the whole matrix,
        NaN and -0.0 included, a gather plus ``np.minimum.reduce``."""
        from repro.core.perceptron import perspectron_schema

        bases = {
            "default": BASE_FEATURES,
            "perspectron": perspectron_schema().base_features,
            "reversed": BASE_FEATURES[::-1],
            "scattered": BASE_FEATURES[::3] + BASE_FEATURES[1::7],
        }
        engineered = (
            ("sec.one", ("dcache.hits",)),
            ("sec.two", ("dcache.hits", "dcache.misses")),
            ("sec.three", ("commit.traps", "dcache.misses",
                           "rename.undoneMaps")),
        )
        schema = FeatureSchema(engineered=engineered, base=bases[base])
        rng = np.random.default_rng(3)
        X = rng.integers(0, 50, size=(40, len(COUNTER_NAMES))).astype(float)
        X[5, CounterBank.index_of("dcache.misses")] = float("nan")
        X[6, CounterBank.index_of("dcache.hits")] = -0.0
        matrix = schema.raw_matrix(X)
        assert matrix.shape == (40, schema.dim)
        for i in range(len(X)):
            if i != 5:   # Python's min drops a NaN that is not first
                np.testing.assert_array_equal(matrix[i],
                                              schema.raw_vector(X[i]))
        base = [CounterBank.index_of(n) for n in schema.base_features]
        reference = np.hstack([np.take(X, base, axis=1)] + [
            np.minimum.reduce([X[:, CounterBank.index_of(c)]
                               for c in combo])[:, None]
            for _, combo in engineered])
        np.testing.assert_array_equal(matrix, reference)
        assert np.isnan(matrix[5]).any()
        assert np.array_equal(np.signbit(matrix), np.signbit(reference))

    def test_raw_matrix_rejects_windows_too_narrow(self):
        schema = FeatureSchema()
        with pytest.raises(IndexError, match="counter"):
            schema.raw_matrix(np.zeros((2, len(COUNTER_NAMES) - 1)))


class TestNormalizer:
    def test_scales_to_unit_max(self):
        X = np.array([[1.0, 10.0], [4.0, 5.0]])
        n = MaxNormalizer().fit(X)
        out = n.transform(X)
        assert out.max(axis=0) == pytest.approx([1.0, 1.0])

    def test_zero_column_safe(self):
        X = np.zeros((3, 2))
        out = MaxNormalizer().fit_transform(X)
        assert np.isfinite(out).all()

    def test_clips_unseen_larger_values(self):
        n = MaxNormalizer().fit(np.array([[2.0]]))
        assert n.transform(np.array([[10.0]]))[0, 0] == 1.0

    def test_transform_before_fit_rejected(self):
        with pytest.raises(RuntimeError):
            MaxNormalizer().transform(np.zeros((1, 2)))


class TestDataset:
    def test_collect_attack_labels_malicious(self):
        records, result, machine = collect_source(SpectrePHT(seed=1),
                                                  label=1, sample_period=250)
        assert records
        assert all(r.label == 1 for r in records)
        assert all(r.category == "spectre-pht" for r in records)
        assert any(r.phase != 0 for r in records)

    def test_collect_workload_labels_benign(self):
        w = all_workloads(scale=2)[0]
        records, _, _ = collect_source(w, label=0, sample_period=250)
        assert records
        assert all(r.label == 0 for r in records)
        assert all(r.category == "benign" for r in records)

    def test_build_dataset_mixed(self):
        ds = build_dataset([Meltdown(seed=1)], all_workloads(scale=2)[:3],
                           sample_period=250)
        attack, benign = ds.balance_counts()
        assert attack > 0 and benign > 0
        assert "meltdown" in ds.categories
        assert "benign" in ds.categories

    def test_features_normalized(self):
        ds = build_dataset([Meltdown(seed=1)], all_workloads(scale=2)[:2],
                           sample_period=250)
        X, y, schema, norm = ds.features()
        assert X.shape == (len(ds), schema.dim)
        assert X.min() >= 0 and X.max() <= 1.0
        assert set(np.unique(y)) <= {0, 1}

    def test_subset_filters(self):
        ds = build_dataset([Meltdown(seed=1)], all_workloads(scale=2)[:2],
                           sample_period=250)
        attacks_only = ds.subset(lambda r: r.label == 1)
        assert len(attacks_only) > 0
        assert all(r.label == 1 for r in attacks_only.records)

    def test_require_leak_drops_broken_attacks(self):
        class BrokenAttack(Meltdown):
            def recover(self, machine, result):
                return [1 - b for b in self.secret_bits]   # always wrong
        ds = build_dataset([BrokenAttack(seed=1)], [], sample_period=250,
                           require_leak=True)
        assert len(ds) == 0

    def test_groups_and_phases_align(self):
        ds = build_dataset([Meltdown(seed=1)], [], sample_period=250)
        assert len(ds.groups()) == len(ds) == len(ds.phases())
