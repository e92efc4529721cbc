"""Resilient parallel trace collection.

Corpus construction runs one independent simulation per attack/workload
instance, which parallelizes perfectly across processes.  A full corpus
(22 attacks x seeds + the benign suite) drops from tens of seconds to a
few on a multicore host.

This used to be a bare ``multiprocessing.Pool.map`` — one crashed or
wedged worker destroyed the whole build and the full result list was
buffered in memory before any record reached the dataset.  It is now
built on :class:`repro.runtime.TaskRunner`:

* each source runs in a forked worker with a timeout and bounded,
  deterministically-jittered retries; failures are isolated per
  attempt (a failed worker is retired, so a retry starts in a fresh
  fork), and a worker that succeeded runs the next source;
* results stream back in submission order and are flushed into the
  dataset (and, when checkpointing, to per-source shard files plus a
  manifest) incrementally, so peak memory stays bounded and an
  interrupted build can ``resume``;
* sources that exhaust their retries are quarantined into a
  :class:`repro.runtime.FailureReport` (crash / timeout / divergent
  taxonomy) and the build completes with the surviving corpus — unless
  coverage falls below ``min_coverage``, which is a hard failure.

Record order still matches the sequential builder (all attacks in
order, then all workloads), so the resulting dataset is interchangeable.
"""

import contextlib
import os
import time

from repro.data.dataset import Dataset, collect_source, validate_records
from repro.data.io import record_from_dict, record_to_dict
from repro.obs import metrics, time_block
from repro.runtime import CheckpointStore, FailureReport, Task, TaskRunner


def _collect_one(task, attempt=1):
    """Worker entry: simulate one source (honouring chaos hooks)."""
    source, label, config, sample_period, tenancy = task
    inject = getattr(source, "chaos_inject", None)
    if inject is not None:
        inject(attempt)
    records, _, _ = collect_source(source, label=label, config=config,
                                   sample_period=sample_period,
                                   tenancy=tenancy)
    mutate = getattr(source, "chaos_mutate", None)
    if mutate is not None:
        records = mutate(records, attempt)
    return records


def source_key(index, source, label):
    """Stable per-source checkpoint/manifest key.

    The position index keeps keys unique and order-stable; the name and
    seed make manifests and failure reports human-readable.
    """
    name = getattr(source, "name", None) or \
        getattr(source, "category", type(source).__name__)
    seed = getattr(source, "seed", 0)
    kind = "atk" if label else "wl"
    return f"{index:03d}-{kind}-{name}-s{seed}"


def build_dataset_resilient(attacks, workloads, config=None,
                            sample_period=100, processes=None, retries=2,
                            task_timeout=None, checkpoint_dir=None,
                            resume=False, min_coverage=1.0,
                            backoff_base=0.05, progress=None,
                            tenancy="single"):
    """Fault-tolerant parallel corpus build.

    Returns ``(dataset, report)`` where ``report`` is a
    :class:`~repro.runtime.FailureReport` accounting for every source.
    Raises :class:`~repro.runtime.CoverageError` (carrying the report
    and the partial dataset) when coverage drops below ``min_coverage``.

    With ``checkpoint_dir`` set, each completed source is flushed to an
    atomic shard + manifest; ``resume=True`` skips sources whose shard
    verifies and re-simulates only the rest.
    """
    sources = [(a, 1) for a in attacks] + [(w, 0) for w in workloads]
    tasks = [Task(key=source_key(i, s, label),
                  payload=(s, label, config, sample_period, tenancy))
             for i, (s, label) in enumerate(sources)]
    if processes is None:
        processes = max(1, min(len(tasks) or 1, (os.cpu_count() or 2)))

    store = None
    done = set()
    if checkpoint_dir is not None:
        store = CheckpointStore(checkpoint_dir)
        store.open(context={"sample_period": sample_period,
                            "tenancy": tenancy,
                            "keys": [t.key for t in tasks]},
                   resume=resume)
        done = set(store.valid_keys()) & {t.key for t in tasks}

    dataset = Dataset(sample_period=sample_period)
    report = FailureReport(total=len(tasks), skipped=len(done))
    runner = TaskRunner(_collect_one, processes=processes, retries=retries,
                        timeout=task_timeout, backoff_base=backoff_base,
                        validator=validate_records)
    reg = metrics()
    started = time.monotonic()
    with time_block("data.build.seconds"), contextlib.closing(runner.run(
            [t for t in tasks if t.key not in done])) as results:
        for task in tasks:
            if task.key in done:
                payload = store.get(task.key)
                restored = [record_from_dict(r)
                            for r in payload["records"]]
                dataset.extend(restored)
                reg.inc("data.sources.restored")
                reg.inc("data.records", len(restored))
                continue
            outcome = next(results)
            if outcome.ok:
                if store is not None:
                    store.put(task.key, {"records": [record_to_dict(r)
                                                     for r in outcome.value]})
                dataset.extend(outcome.value)
                report.completed += 1
                reg.inc("data.sources.completed")
                reg.inc("data.records", len(outcome.value))
            else:
                report.failures.append(outcome)
            if progress is not None:
                progress(outcome)
    report.elapsed = time.monotonic() - started
    reg.set_gauge("data.coverage", report.coverage)
    report.require_coverage(min_coverage, partial=dataset)
    return dataset, report


def build_dataset_parallel(attacks, workloads, config=None,
                           sample_period=100, processes=None, **kwargs):
    """Parallel equivalent of :func:`repro.data.build_dataset`.

    Record order matches the sequential builder (all attacks in order,
    then all workloads), so the resulting dataset is interchangeable.
    Thin wrapper over :func:`build_dataset_resilient` that keeps the
    historical return type; by default any permanently-failed source is
    a hard error (``min_coverage=1.0``), matching the old fail-loud
    behavior but with retries and isolation underneath.
    """
    dataset, _ = build_dataset_resilient(
        attacks, workloads, config=config, sample_period=sample_period,
        processes=processes, **kwargs)
    return dataset
