"""Chaos harness end-to-end: the ISSUE's acceptance scenario.

Seeded faults are injected into 3 of 10 sources (one crash, one hang,
one divergent trace).  The resilient build must complete, quarantine
exactly those 3 in the FailureReport, and a subsequent ``resume`` run
must re-simulate only the quarantined sources.
"""

import multiprocessing

import pytest

from repro.data import build_dataset
from repro.data.parallel import (
    build_dataset_resilient, source_key,
)
from repro.runtime import (
    CRASH, DIVERGENT, TIMEOUT, CoverageError, FaultSpec, inject_faults,
)
from repro.runtime.chaos import (
    CRASH_FAULT, GARBAGE_FAULT, HANG_FAULT, ChaosSource,
)
from repro.workloads import all_workloads

#: indices of the faulty sources in the 10-source suite
CRASH_AT, HANG_AT, GARBAGE_AT = 1, 4, 7


def _sources():
    return all_workloads(scale=1)[:10]


def _chaotic_sources():
    plan = {
        CRASH_AT: FaultSpec(CRASH_FAULT),
        HANG_AT: FaultSpec(HANG_FAULT, hang_seconds=3600),
        GARBAGE_AT: FaultSpec(GARBAGE_FAULT),
    }
    return inject_faults(_sources(), plan, seed=7)


def test_chaos_build_quarantines_exactly_the_faulty_sources(tmp_path):
    shard_dir = str(tmp_path / "shards")
    dataset, report = build_dataset_resilient(
        [], _chaotic_sources(), sample_period=250, processes=4,
        retries=1, task_timeout=2.5, checkpoint_dir=shard_dir,
        min_coverage=0.5, backoff_base=0.0)

    # exactly the three injected sources quarantined, correctly typed
    assert report.total == 10
    assert report.completed == 7
    assert len(report.failures) == 3
    kinds = {f.index: f.kind for f in report.failures}
    assert kinds == {CRASH_AT: CRASH, HANG_AT: TIMEOUT,
                     GARBAGE_AT: DIVERGENT}
    assert all(f.attempts == 2 for f in report.failures)   # retried once
    assert report.coverage == pytest.approx(0.7)

    # surviving corpus contains only the 7 healthy sources
    healthy = {w.name for i, w in enumerate(_sources())
               if i not in (CRASH_AT, HANG_AT, GARBAGE_AT)}
    assert {r.source for r in dataset.records} == healthy

    # -- resume re-simulates only the quarantined sources --------------------
    dataset2, report2 = build_dataset_resilient(
        [], _sources(), sample_period=250, processes=4,
        retries=1, task_timeout=30, checkpoint_dir=shard_dir,
        resume=True, min_coverage=1.0, backoff_base=0.0)
    assert report2.skipped == 7
    assert report2.completed == 3      # only the quarantined trio re-ran
    assert not report2.failures
    assert report2.coverage == 1.0

    # the resumed corpus is byte-identical to a clean sequential build
    reference = build_dataset([], _sources(), sample_period=250)
    assert len(dataset2) == len(reference)
    for a, b in zip(dataset2.records, reference.records):
        assert a.deltas == list(b.deltas)
        assert a.source == b.source


def test_flaky_source_recovers_via_retry(tmp_path):
    sources = _sources()[:3]
    sources[1] = ChaosSource(sources[1],
                             FaultSpec(CRASH_FAULT, fail_attempts=1))
    dataset, report = build_dataset_resilient(
        [], sources, sample_period=250, processes=3,
        retries=2, backoff_base=0.0)
    assert report.completed == 3 and not report.failures
    assert {r.source for r in dataset.records} == \
        {w.name for w in _sources()[:3]}


def test_min_coverage_gate_is_a_hard_failure():
    sources = inject_faults(_sources()[:4], {0: FaultSpec(CRASH_FAULT)})
    with pytest.raises(CoverageError) as excinfo:
        build_dataset_resilient([], sources, sample_period=250,
                                processes=4, retries=0,
                                min_coverage=1.0, backoff_base=0.0)
    err = excinfo.value
    assert err.report is not None and len(err.report.failures) == 1
    # the partial corpus survives on the exception for inspection
    assert err.partial is not None and len(err.partial) > 0


def test_a_consumer_that_stops_early_leaves_no_live_worker():
    """The build consumes the runner under ``closing``: a progress
    callback that raises stops every worker before the error escapes,
    though the traceback still holds the build's frame."""
    def abort(outcome):
        raise RuntimeError("operator abort")

    with pytest.raises(RuntimeError, match="operator abort") as excinfo:
        build_dataset_resilient([], _sources()[:4], sample_period=250,
                                processes=2, progress=abort)
    assert excinfo.traceback
    assert [p for p in multiprocessing.active_children()
            if p.name == "repro-task-worker"] == []


def test_failure_report_summary_reads_well():
    sources = inject_faults(_sources()[:4], {2: FaultSpec(CRASH_FAULT)})
    _, report = build_dataset_resilient(
        [], sources, sample_period=250, processes=4, retries=0,
        min_coverage=0.5, backoff_base=0.0)
    text = report.summary()
    assert "3/4 sources" in text
    assert "crash=1" in text
    assert source_key(2, _sources()[2], 0) in text


def test_source_keys_are_stable_and_unique():
    sources = _sources()
    keys = [source_key(i, s, 0) for i, s in enumerate(sources)]
    assert len(set(keys)) == len(keys)
    assert keys == [source_key(i, s, 0)
                    for i, s in enumerate(_chaotic_sources())]
