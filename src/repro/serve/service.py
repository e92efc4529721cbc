"""The streaming detection service: batch, score, decide, observe.

:class:`DetectionService` owns the bounded ingest queue, the batched
scoring path and the per-tenant controller fan-out;
:func:`run_serve` is the deterministic tick-loop driver the CLI and
tests share.

Design rules, in order:

1. **Batch the math, not the decision.**  Scoring is one
   ``score_batch`` call over every queued window (thousands of rows per
   matrix-matrix pass); the flag/secure-window/latch decision then runs
   per window through each tenant's own fail-secure
   :class:`~repro.defenses.controller.SecureModeController`.
2. **Faults land on their tenant.**  A non-finite input window, a
   non-finite score, or a detector exception is attributed to the
   offending window's tenant and latches *that* controller; a
   batch-level detector exception triggers a per-window re-score so
   sibling windows in the same batch still get their (bit-identical)
   scores.
3. **Backpressure fails secure.**  The queue is bounded
   (``queue_limit``); a window that cannot be queued is *shed* —
   counted, surfaced as a ``serve.shed`` event, and fed to its tenant's
   controller as a positive flag, so overload degrades to mitigated
   execution, never to unmonitored execution.
4. **Determinism where it matters.**  Arrivals, batching, scores,
   verdicts and shed decisions are pure functions of the streams,
   config and chaos plan; wall-clock enters only the latency/throughput
   *observability* (timers, percentile gauges), never the control flow.
"""

import time
from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.defenses.controller import contain
from repro.defenses.fanout import ControllerFanout
from repro.obs import metrics, obs_event
from repro.sim.config import DefenseMode


@dataclass
class ServeConfig:
    """Service knobs (CLI flags map 1:1; see ``docs/serving.md``)."""

    duration: int = 200          # ticks to drive (one window/tenant/tick)
    batch_window: int = 1024     # max windows coalesced per score_batch
    queue_limit: int = 8192      # bounded ingest queue; overflow sheds
    secure_mode: DefenseMode = DefenseMode.FENCE_FUTURISTIC
    secure_window: int = 10_000  # controller re-arm window (instructions)

    def as_dict(self):
        return {
            "duration": self.duration,
            "batch_window": self.batch_window,
            "queue_limit": self.queue_limit,
            "secure_mode": self.secure_mode.value,
            "secure_window": self.secure_window,
        }


class LatencyReservoir:
    """Enqueue-to-verdict latencies with nearest-rank percentiles.

    Bounded (``cap`` samples) so a long-running service cannot grow
    memory without limit; overflow is counted, not silently dropped.
    The samples are sorted once per read-out, not once per percentile.
    """

    def __init__(self, cap=200_000):
        self.cap = cap
        self.samples = []
        self.overflow = 0
        self._ordered = None

    def observe(self, seconds):
        """Record one latency, or a batch of them as an array."""
        values = np.atleast_1d(seconds)
        room = max(0, self.cap - len(self.samples))
        self.samples.extend(values[:room].tolist())
        self.overflow += max(0, len(values) - room)
        self._ordered = None

    def percentile_ms(self, p):
        """Nearest-rank percentile, in milliseconds (0.0 when empty)."""
        if not self.samples:
            return 0.0
        if self._ordered is None:
            self._ordered = sorted(self.samples)
        ordered = self._ordered
        rank = max(1, int(np.ceil(p / 100.0 * len(ordered))))
        return ordered[rank - 1] * 1000.0


class DetectionService:
    """Bounded-queue batched scoring with per-tenant fail-secure fan-out.

    ``record=True`` additionally keeps per-tenant ``(commit_index,
    score, flagged)`` tuples — the isolation tests compare these streams
    bit-for-bit across chaos scenarios.
    """

    def __init__(self, detector, config=None, chaos=None, record=False):
        self.config = config if config is not None else ServeConfig()
        self.chaos = chaos
        self.detector = chaos.wrap_detector(detector) if chaos else detector
        self.threshold = detector.threshold
        self.fanout = ControllerFanout(secure_mode=self.config.secure_mode,
                                       secure_window=self.config.secure_window)
        self.latency = LatencyReservoir()
        self.batch_sizes = {}
        self.queue_peak = 0
        self.record = {} if record else None
        self._queue = deque()
        self._latched_reported = set()
        # per-service totals: the global registry accumulates across
        # every service in the process, the report must not
        self.n_ingested = 0
        self.n_scored = 0
        self.n_shed = 0
        self.n_batches = 0
        self.n_faults = 0
        reg = metrics()
        self._m_ingested = reg.counter("serve.windows.ingested")
        self._m_scored = reg.counter("serve.windows.scored")
        self._m_shed = reg.counter("serve.windows.shed")
        self._m_batches = reg.counter("serve.batches")
        self._m_batch_s = reg.timer("serve.batch.seconds")
        self._m_faults = reg.counter("serve.detector.faults")
        self._m_depth = reg.gauge("serve.queue.depth")
        self._m_peak = reg.gauge("serve.queue.peak")

    # -- ingest ------------------------------------------------------------

    @property
    def pending(self):
        return len(self._queue)

    def submit(self, tenant, commit_index, window):
        """Queue one window, or shed it into secure mode on overflow."""
        queue = self._queue
        depth = len(queue)
        if depth >= self.config.queue_limit:
            self.n_shed += 1
            self._m_shed.inc()
            slot = self.fanout.slot(tenant)
            slot.shed_window(commit_index)
            obs_event("serve.shed", level="warn", tenant=tenant,
                      commit_index=commit_index, depth=depth)
            self._note_latch(slot)
            return False
        queue.append((tenant, commit_index, window, time.perf_counter()))
        self.n_ingested += 1
        self._m_ingested.inc()
        if depth >= self.queue_peak:
            self.queue_peak = depth + 1
        return True

    # -- scoring -----------------------------------------------------------

    def _score(self, X):
        """Score a batch; on a batch-level detector exception, fall back
        to per-window scoring so the fault is attributed to the row that
        caused it (rows are bit-identical either way — the scoring
        pipeline is batch-size-invariant per row).  Returns the scores
        and a ``{row: exception}`` dict of the rows that raised.  Both
        calls go through :func:`~repro.defenses.controller.contain`, so
        every fault reaches its tenant's controller as a value."""
        scores, fault = contain(self.detector.score_batch, X)
        if fault is None:
            return scores, {}

        def score_row(i):
            return float(self.detector.score_batch(X[i:i + 1])[0])

        scores, faults = np.empty(len(X)), {}
        for i in range(len(X)):
            score, fault = contain(score_row, i)
            if fault is None:
                scores[i] = score
            else:
                scores[i] = float("nan")
                faults[i] = fault
        return scores, faults

    @staticmethod
    def _window_faults(X, scores, raised):
        """``{row: fault}`` for every window that cannot be decided on
        its score.  A row's detector exception takes precedence, then a
        non-finite input, then a non-finite score; the finite checks run
        vectorized over the whole batch."""
        finite_in = np.isfinite(X).all(axis=1)
        faults = dict(raised)
        suspect = np.flatnonzero(~(finite_in & np.isfinite(scores)))
        for i in suspect.tolist():
            if i in faults:
                continue
            if not finite_in[i]:
                faults[i] = ValueError(
                    "non-finite counter delta in sampling window")
            else:
                faults[i] = ValueError(
                    f"non-finite detector score {scores[i]!r}")
        return faults

    def _note_latch(self, slot):
        if slot.latched and slot.tenant not in self._latched_reported:
            self._latched_reported.add(slot.tenant)
            metrics().inc("serve.tenants.latched")
            obs_event("serve.tenant_latched", level="error",
                      tenant=slot.tenant,
                      reason=slot.controller.latch_reason)

    def process_batch(self):
        """Coalesce up to ``batch_window`` queued windows into one
        matrix-matrix scoring pass and apply per-tenant decisions."""
        queue = self._queue
        take = min(len(queue), self.config.batch_window)
        if not take:
            return 0
        tenants, commits, windows, enqueued = zip(
            *[queue.popleft() for _ in range(take)])
        X = np.array(windows)
        with self._m_batch_s.time():
            scores, raised = self._score(X)
        now = time.perf_counter()
        faults = self._window_faults(X, scores, raised)
        flags = (scores >= self.threshold).tolist()
        record = self.record
        if record is not None:
            score_values = scores.tolist()
        slot_of = self.fanout.slot
        for i, tenant in enumerate(tenants):
            slot = slot_of(tenant)
            fault = faults.get(i)
            flagged = slot.apply(commits[i], flags[i], fault)
            if fault is not None:
                self.n_faults += 1
                self._m_faults.inc()
                obs_event("serve.detector_fault", level="error",
                          tenant=tenant, kind=type(fault).__name__)
                self._note_latch(slot)
            if record is not None:
                record.setdefault(tenant, []).append(
                    (commits[i], score_values[i], flagged))
        self.latency.observe(now - np.array(enqueued))
        self.n_scored += take
        self._m_scored.inc(take)
        self.n_batches += 1
        self._m_batches.inc()
        self.batch_sizes[take] = self.batch_sizes.get(take, 0) + 1
        self._m_depth.set(len(queue))
        self._m_peak.set(self.queue_peak)
        return take

    def drain(self):
        """Score everything still queued (end of stream)."""
        while self._queue:
            self.process_batch()

    # -- reporting ---------------------------------------------------------

    def report(self, elapsed_s=None):
        """Deterministically-ordered plain-dict run report (JSON-safe,
        modulo the wall-clock latency/throughput fields)."""
        reg = metrics()
        scored = self.n_scored
        p50 = self.latency.percentile_ms(50)
        p95 = self.latency.percentile_ms(95)
        p99 = self.latency.percentile_ms(99)
        reg.set_gauge("serve.latency.p50_ms", p50)
        reg.set_gauge("serve.latency.p95_ms", p95)
        reg.set_gauge("serve.latency.p99_ms", p99)
        reg.set_gauge("serve.tenants", len(self.fanout.slots))
        max_batch = max(self.batch_sizes, default=0)
        reg.set_gauge("serve.batch.max_windows", max_batch)
        report = {
            "schema": "repro.serve-report/1",
            "config": self.config.as_dict(),
            "windows": {
                "ingested": self.n_ingested,
                "scored": scored,
                "shed": self.n_shed,
            },
            "batches": {
                "count": self.n_batches,
                "max_windows": max_batch,
                "histogram": {str(size): self.batch_sizes[size]
                              for size in sorted(self.batch_sizes)},
            },
            "queue": {
                "peak": self.queue_peak,
                "limit": self.config.queue_limit,
            },
            "latency_ms": {
                "p50": p50, "p95": p95, "p99": p99,
                "samples": len(self.latency.samples),
                "overflow": self.latency.overflow,
            },
            "detector_faults": self.n_faults,
            "tenants": self.fanout.summary(),
            "latched": self.fanout.latched_tenants(),
        }
        if elapsed_s is not None:
            report["throughput"] = {
                "elapsed_s": elapsed_s,
                "windows_per_sec": scored / elapsed_s if elapsed_s else 0.0,
            }
        return report


def run_serve(detector, streams, config=None, chaos=None, record=False):
    """Drive ``streams`` through a :class:`DetectionService` for
    ``config.duration`` ticks; returns ``(service, report)``.

    Each tick, every stream emits its due windows (one by default;
    a chaos plan may stretch or burst arrivals), then full batches are
    scored as soon as they form; the final partial batch drains at end
    of stream.
    """
    config = config if config is not None else ServeConfig()
    service = DetectionService(detector, config, chaos=chaos, record=record)
    obs_event("serve.started", tenants=len(streams),
              duration=config.duration, batch_window=config.batch_window,
              queue_limit=config.queue_limit)
    start = time.perf_counter()
    for tick in range(config.duration):
        for stream in streams:
            emits = chaos.emit_count(stream.tenant, tick) if chaos else 1
            for _ in range(emits):
                commit_index, window = stream.next_window()
                if chaos:
                    window = chaos.poison(stream.tenant, tick, window)
                service.submit(stream.tenant, commit_index, window)
        while service.pending >= config.batch_window:
            service.process_batch()
    service.drain()
    elapsed = time.perf_counter() - start
    report = service.report(elapsed_s=elapsed)
    obs_event("serve.finished",
              ingested=report["windows"]["ingested"],
              scored=report["windows"]["scored"],
              shed=report["windows"]["shed"],
              latched=report["latched"])
    return service, report
