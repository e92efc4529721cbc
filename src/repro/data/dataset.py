"""Trace collection and the labelled HPC-window dataset.

Mirrors the paper's methodology: run every attack and benign workload on
the simulator, sample all event counters every N committed instructions,
label windows by their source (attack vs benign) and attack phase (the
recovery/transmission phase is check-pointed so the cross-validation
setting can exclude it from test folds), and normalize per-counter over
the maximum seen value.
"""

import copy
from dataclasses import dataclass, field
from typing import List

import numpy as np

from repro.data.features import FeatureSchema, MaxNormalizer
from repro.runtime.errors import DivergentTraceError
from repro.sim import Machine, SimConfig
from repro.sim.hpc import COUNTER_NAMES


@dataclass
class SampleRecord:
    """One labelled HPC sampling window."""

    deltas: list             # raw counter deltas, COUNTER_NAMES order
    label: int               # 1 = attack window, 0 = benign
    category: str            # attack category or "benign"
    phase: int               # attack phase active in this window
    source: str              # program name
    commit_index: int


@dataclass
class Dataset:
    """A labelled collection of sampling windows."""

    records: List[SampleRecord] = field(default_factory=list)
    sample_period: int = 1000
    #: SHA-256 of the counter layout the corpus was collected under
    #: (set by ``load_dataset`` when the sidecar carries it; ``None``
    #: for in-process datasets and legacy corpora)
    counters_sha256: str = None
    #: digest of the sealed sidecar the corpus was loaded from, which
    #: covers the matrix's digest and every record: what the corpus is,
    #: wherever its files lie (set by ``load_dataset``)
    content_sha256: str = field(default=None, init=False)

    def __len__(self):
        return len(self.records)

    def extend(self, records):
        self.records.extend(records)

    @property
    def categories(self):
        return sorted({r.category for r in self.records})

    def labels(self):
        return np.array([r.label for r in self.records])

    def groups(self):
        """Per-record category labels (for leave-one-attack-out folds)."""
        return np.array([r.category for r in self.records])

    def phases(self):
        return np.array([r.phase for r in self.records])

    def raw_matrix(self, schema):
        return schema.matrix([r.deltas for r in self.records])

    def features(self, schema=None, normalizer=None):
        """Return ``(X, y, schema, normalizer)`` with max-normalization
        fitted on this dataset unless one is supplied."""
        schema = schema if schema is not None else FeatureSchema()
        raw = self.raw_matrix(schema)
        if normalizer is None:
            normalizer = MaxNormalizer().fit(raw)
        return normalizer.transform(raw), self.labels(), schema, normalizer

    def subset(self, predicate):
        out = Dataset(sample_period=self.sample_period)
        out.records = [r for r in self.records if predicate(r)]
        return out

    def balance_counts(self):
        y = self.labels()
        return int((y == 1).sum()), int((y == 0).sum())


def validate_records(records):
    """Structural sanity check on one source's collected records.

    Raises :class:`~repro.runtime.errors.DivergentTraceError` when the
    trace is unusable: no samples, a delta vector of the wrong width,
    or non-integer / negative counter deltas.  The resilient collector
    runs this on every completed source so a divergent trace is
    quarantined instead of silently skewing the corpus.
    """
    if not records:
        raise DivergentTraceError("source produced no samples")
    width = len(COUNTER_NAMES)
    for i, record in enumerate(records):
        deltas = record.deltas
        if len(deltas) != width:
            raise DivergentTraceError(
                f"record {i} from {record.source!r} has {len(deltas)} "
                f"deltas, expected {width}")
        for value in deltas:
            if not isinstance(value, (int, np.integer)) \
                    or isinstance(value, bool) or value < 0:
                raise DivergentTraceError(
                    f"record {i} from {record.source!r} has invalid "
                    f"counter delta {value!r}")
        if record.label not in (0, 1):
            raise DivergentTraceError(
                f"record {i} from {record.source!r} has invalid label "
                f"{record.label!r}")
    return records


def _smt_co_tenant():
    """The deterministic sibling program for SMT collection.

    A fixed, seeded pointer-chase: memory-intensive enough to contend on
    every shared structure (L1/L2, DTLB, DRAM banks) without being an
    attack itself, and identical across collections so the noise axis is
    reproducible cell-to-cell.
    """
    from repro.workloads import WORKLOAD_BUILDERS
    return WORKLOAD_BUILDERS["pointer-chase"](scale=2, seed=97)


def collect_source(source, label, config=None, sample_period=250,
                   max_cycles=None, tenancy="single", co_program=None):
    """Run one attack or workload and convert its windows to records.

    ``tenancy="smt"`` runs the source as SMT thread 0 with a
    deterministic co-tenant program on thread 1 (``co_program``
    overrides it), so every window carries genuine cross-tenant
    interference noise; labels/phases still describe the source.
    """
    if tenancy not in ("single", "smt"):
        raise ValueError(f"unknown tenancy {tenancy!r}")
    program, actors = source.build()
    sim_config = copy.deepcopy(config) if config is not None else SimConfig()
    if max_cycles is None:
        max_cycles = source.max_cycles() if hasattr(source, "max_cycles") \
            else 400_000
    if tenancy == "smt":
        from repro.sim import SMTMachine
        sim_config.smt_contexts = 2
        sibling = co_program if co_program is not None else _smt_co_tenant()
        smt = SMTMachine(program, sibling, sim_config,
                         sample_period=sample_period, actors=actors)
        machine = smt.machine
        result = smt.run(max_cycles=max_cycles)
    else:
        machine = Machine(program, sim_config,
                          sample_period=sample_period, actors=actors)
        result = machine.run(max_cycles=max_cycles)
    records = []
    for sample in result.samples:
        records.append(SampleRecord(
            deltas=sample.deltas,
            label=label,
            category=getattr(source, "category", "benign"),
            phase=sample.phase,
            source=program.name,
            commit_index=sample.commit_index,
        ))
    return records, result, machine


def build_dataset(attacks, workloads, config=None, sample_period=250,
                  require_leak=False, tenancy="single"):
    """Collect a full labelled dataset from attack and workload instances.

    ``require_leak=True`` re-checks each attack's channel and drops runs
    that failed to leak (useful when fuzzed variants produce duds).
    ``tenancy="smt"`` collects every source under SMT co-tenancy noise
    (see :func:`collect_source`).
    """
    dataset = Dataset(sample_period=sample_period)
    for attack in attacks:
        records, result, machine = collect_source(
            attack, label=1, config=config, sample_period=sample_period,
            tenancy=tenancy)
        if require_leak:
            from repro.attacks.base import bits_balanced_accuracy
            recovered = attack.recover(machine, result)
            if bits_balanced_accuracy(attack.secret_bits, recovered) < 0.75:
                continue
        dataset.extend(records)
    for workload in workloads:
        records, _, _ = collect_source(workload, label=0, config=config,
                                       sample_period=sample_period,
                                       tenancy=tenancy)
        dataset.extend(records)
    return dataset
