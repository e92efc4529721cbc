"""DetectionService semantics: batching, backpressure, reporting."""

import json

import numpy as np
import pytest

from repro.serve import (
    DetectionService, ServeConfig, run_serve, synthetic_streams,
)
from repro.serve.bench import synthetic_windows


def test_every_window_scored_once(detector):
    config = ServeConfig(duration=50, batch_window=64)
    service, report = run_serve(detector, synthetic_streams(4, seed=0),
                                config)
    assert report["windows"]["ingested"] == 200
    assert report["windows"]["scored"] == 200
    assert report["windows"]["shed"] == 0
    assert sum(s["windows"] for s in report["tenants"].values()) == 200
    assert service.pending == 0


def test_batches_bounded_by_batch_window(detector):
    config = ServeConfig(duration=40, batch_window=32)
    _, report = run_serve(detector, synthetic_streams(8, seed=1), config)
    sizes = {int(k): v for k, v in
             report["batches"]["histogram"].items()}
    assert max(sizes) <= 32
    assert report["batches"]["max_windows"] <= 32
    assert sum(size * count for size, count in sizes.items()) == \
        report["windows"]["scored"]


def test_backpressure_sheds_into_secure_mode(detector):
    """Overflowed windows are dropped from scoring but *flagged*: the
    tenant runs mitigated through the overload, never unmonitored."""
    config = ServeConfig(duration=10, batch_window=512, queue_limit=16)
    service, report = run_serve(detector, synthetic_streams(8, seed=2),
                                config)
    assert report["windows"]["shed"] > 0
    assert report["windows"]["ingested"] + report["windows"]["shed"] == 80
    assert report["queue"]["peak"] <= 16
    shed_tenants = [t for t, s in report["tenants"].items() if s["shed"]]
    assert shed_tenants
    for tenant in shed_tenants:
        slot = service.fanout.slot(tenant)
        # every shed window was fed to the controller as a positive flag
        assert slot.controller.flags >= report["tenants"][tenant]["shed"]
        assert not slot.latched


def test_queue_never_exceeds_limit(detector):
    config = ServeConfig(duration=20, batch_window=1024, queue_limit=32)
    service = DetectionService(detector, config)
    for tick in range(64):
        service.submit("t0", (tick + 1) * 100, synthetic_windows(1, tick)[0])
    assert service.pending <= 32
    assert service.queue_peak <= 32
    service.drain()
    assert service.pending == 0


def test_report_is_json_serializable_and_complete(detector):
    config = ServeConfig(duration=16, batch_window=16)
    _, report = run_serve(detector, synthetic_streams(2, seed=3), config)
    payload = json.loads(json.dumps(report))
    assert payload["schema"] == "repro.serve-report/1"
    for key in ("config", "windows", "batches", "queue", "latency_ms",
                "tenants", "latched", "throughput"):
        assert key in payload, key
    lat = payload["latency_ms"]
    assert 0.0 <= lat["p50"] <= lat["p95"] <= lat["p99"]
    assert payload["throughput"]["windows_per_sec"] > 0


def test_recorded_streams_are_deterministic(detector):
    """Two identical runs produce identical (commit_index, score,
    verdict) streams — wall clock only touches the timers."""
    config = ServeConfig(duration=32, batch_window=32)
    a, _ = run_serve(detector, synthetic_streams(3, seed=4), config,
                     record=True)
    b, _ = run_serve(detector, synthetic_streams(3, seed=4), config,
                     record=True)
    assert a.record == b.record


#: a finite first counter value the stub detector answers with NaN
_NAN_SCORE_MARK = -12345.0


class _NanScoreDetector:
    """Scores like ``inner`` but returns NaN for rows carrying the
    mark: a non-finite score on a finite input window."""

    def __init__(self, inner):
        self.inner = inner
        self.threshold = inner.threshold

    def score_batch(self, X):
        scores = self.inner.score_batch(X)
        scores[X[:, 0] == _NAN_SCORE_MARK] = float("nan")
        return scores


def _fault_fixture(kind, detector):
    """``(detector, chaos, poison, reason)`` for one fault kind:
    ``poison`` corrupts t1's window at tick 3, ``reason`` is what its
    latch reason must name."""
    from repro.runtime import (
        DETECTOR_EXCEPTION_FAULT, ServeChaos, ServeFault,
    )

    if kind == "input":
        def poison(window):
            window[0] = float("nan")
            return window
        return detector, None, poison, "non-finite counter delta"
    if kind == "score":
        def poison(window):
            window[0] = _NAN_SCORE_MARK
            return window
        return (_NanScoreDetector(detector), None, poison,
                "non-finite detector score")
    chaos = ServeChaos([ServeFault(DETECTOR_EXCEPTION_FAULT, "t1",
                                   at_tick=3)])
    return (detector, chaos, lambda window: chaos.poison("t1", 3, window),
            "RuntimeError")


@pytest.mark.parametrize("record", [True, False])
@pytest.mark.parametrize("kind", ["input", "score", "exception"])
def test_non_finite_window_latches_only_its_tenant(detector, kind, record):
    """The batched path's fail-secure contract without the run_serve
    driver: submit one faulty window directly — a non-finite input, a
    non-finite score, or a detector exception — and only that tenant
    latches, with or without stream recording."""
    from repro.obs import metrics

    scorer, chaos, poison, reason = _fault_fixture(kind, detector)
    faults = metrics().counter("serve.detector.faults")
    before = faults.value
    config = ServeConfig(duration=8, batch_window=64)
    service = DetectionService(scorer, config, chaos=chaos, record=record)
    for tick in range(8):
        for tenant in ("t0", "t1", "t2"):
            window = synthetic_windows(1, seed=100 + tick)[0].copy()
            if tenant == "t1" and tick == 3:
                window = poison(window)
            service.submit(tenant, (tick + 1) * 100, window)
    service.drain()
    assert service.fanout.latched_tenants() == ["t1"]
    slot = service.fanout.slot("t1")
    assert reason in slot.controller.latch_reason
    assert service.n_faults == 1
    assert faults.value - before == 1
    assert (service.record is not None) == record


def test_registry_lookups_are_per_batch_not_per_window(detector,
                                                        monkeypatch):
    """Hot-path instrumentation uses cached handles: registry name
    lookups scale with batches, never with windows.  Counts calls, not
    time, so it cannot flake."""
    from repro.obs.metrics import MetricsRegistry

    lookups = [0]
    lookup = MetricsRegistry._get

    def counting(self, *args):
        lookups[0] += 1
        return lookup(self, *args)

    monkeypatch.setattr(MetricsRegistry, "_get", counting)
    service, _ = run_serve(detector, synthetic_streams(64, seed=7),
                           ServeConfig(duration=64, batch_window=256))
    assert service.n_scored == 64 * 64
    assert service.n_batches == 16
    assert lookups[0] <= 4 * service.n_batches, \
        f"{lookups[0]} registry lookups for {service.n_scored} windows"


def test_serve_emits_cataloged_metrics_only(detector):
    from repro.obs import metrics
    from repro.obs.names import is_known_metric

    reg = metrics()
    reg.reset()
    run_serve(detector, synthetic_streams(2, seed=6),
              ServeConfig(duration=8, batch_window=8))
    emitted = {n for n in reg.names() if n.startswith("serve.")}
    assert {"serve.windows.ingested", "serve.windows.scored",
            "serve.batches", "serve.batch.seconds",
            "serve.queue.depth", "serve.latency.p99_ms",
            "serve.tenants"} <= emitted
    rogue = {n for n in emitted if not is_known_metric(n)}
    assert not rogue, f"uncataloged serve metrics: {rogue}"


def test_latency_reservoir_percentiles():
    from repro.serve.service import LatencyReservoir

    res = LatencyReservoir(cap=10)
    for ms in range(1, 11):
        res.observe(ms / 1000.0)
    assert res.percentile_ms(50) == pytest.approx(5.0)
    assert res.percentile_ms(99) == pytest.approx(10.0)
    res.observe(99.0)
    assert res.overflow == 1
    assert len(res.samples) == 10


def test_latency_reservoir_batch_straddles_cap():
    """A batch that crosses ``cap`` keeps exactly the room left and
    counts the rest as overflow; percentiles match scalar feeding."""
    from repro.serve.service import LatencyReservoir

    batched, scalar = LatencyReservoir(cap=10), LatencyReservoir(cap=10)
    first, second = np.arange(1, 8) / 1000.0, np.arange(8, 13) / 1000.0
    batched.observe(first)
    assert batched.percentile_ms(100) == pytest.approx(7.0)
    batched.observe(second)          # room for 3 of these 5
    for seconds in np.concatenate([first, second]).tolist():
        scalar.observe(seconds)
    assert len(batched.samples) == 10
    assert batched.overflow == 2
    assert batched.samples == scalar.samples
    for p in (0.1, 50, 95, 99, 99.9, 100):
        assert batched.percentile_ms(p) == scalar.percentile_ms(p)
    assert batched.percentile_ms(100) == pytest.approx(10.0)
    batched.observe(np.array([0.5, 0.6]))
    batched.observe(0.7)
    assert batched.overflow == 5
    assert len(batched.samples) == 10


def test_empty_service_report(detector):
    service = DetectionService(detector, ServeConfig())
    report = service.report()
    assert report["windows"] == {"ingested": 0, "scored": 0, "shed": 0}
    assert report["latency_ms"]["p50"] == 0.0
    assert report["tenants"] == {}
    assert np.isfinite(report["latency_ms"]["p99"])
