"""The service's books: registry totals and latency percentiles.

The serving path adds its per-window counts to the metrics registry
once per batch (and any remainder at ``report()``), and keeps its
latencies in one float64 buffer.  Both are bookkeeping shortcuts, so
both are held here to the per-window truth: the tenants' controllers,
the service's own counts, the event log, and a plain ``sorted()`` list.
"""

import math

import numpy as np

from repro.obs import get_log, metrics, read_events
from repro.runtime import BURST_ARRIVAL_FAULT, ServeFault
from repro.serve import DetectionService, ServeConfig, run_serve
from repro.serve.bench import synthetic_windows
from repro.serve.service import LatencyReservoir
from repro.serve.streams import synthetic_streams
from tests.serve.test_service import _fault_fixture


def _assert_registry_matches(service, events):
    """The registry equals the per-window truth: the sums over the
    tenants' controllers, the service's counts and the events."""
    counters = metrics().snapshot()["counters"]
    controllers = [slot.controller
                   for slot in service.fanout.slots.values()]
    names = [event["event"] for event in events]
    truth = {
        "adaptive.windows.total": sum(c.windows_total for c in controllers),
        "adaptive.windows.secure": sum(c.windows_secure
                                       for c in controllers),
        "adaptive.flags": sum(c.flags for c in controllers),
        "adaptive.secure.entries": names.count("adaptive.secure_enter"),
        "adaptive.secure.exits": names.count("adaptive.secure_exit"),
        "serve.windows.ingested": service.n_ingested,
        "serve.windows.scored": service.n_scored,
        "serve.windows.shed": service.n_shed,
    }
    assert {name: counters.get(name, 0) for name in truth} == truth
    assert all(truth.values()), truth       # the run exercised each one
    # every window was decided exactly once: scored or shed
    assert truth["adaptive.windows.total"] == \
        service.n_scored + service.n_shed == \
        sum(slot.windows for slot in service.fanout.slots.values())


def test_registry_totals_equal_per_window_truth(detector, tmp_path):
    """A run that sheds (an arrival burst into a small queue) and
    latches one tenant (a detector exception), then sheds again after
    its last batch: the registry must equal the per-window truth after
    the run, and again after ``report()`` publishes the shed tail."""
    _, chaos, _, _ = _fault_fixture("exception", detector)   # t1, tick 3
    chaos.faults.append(ServeFault(BURST_ARRIVAL_FAULT, "t2", at_tick=5,
                                   windows=120))
    config = ServeConfig(duration=40, batch_window=32, queue_limit=48,
                         secure_window=300)
    log_path = tmp_path / "events.jsonl"
    metrics().reset()
    get_log().configure(path=str(log_path), level="debug")
    try:
        service, report = run_serve(detector, synthetic_streams(4, seed=5),
                                    config, chaos=chaos)
        assert report["latched"] == ["t1"]
        assert report["windows"]["shed"] > 0
        assert report["tenants"]["t1"]["windows"] > 1
        _assert_registry_matches(service, read_events(str(log_path)))

        # fill the queue past its limit with no batch to follow: only
        # report() can publish these decisions and ingests
        shed_before = service.n_shed
        for tick in range(config.queue_limit + 9):
            window = synthetic_windows(1, seed=200 + tick)[0]
            service.submit("t3", (1000 + tick) * 100, window)
        assert service.n_shed - shed_before == 9
        assert service.pending == config.queue_limit
        report = service.report()
        assert report["windows"]["ingested"] == \
            report["windows"]["scored"] + config.queue_limit
    finally:
        get_log().close()
    _assert_registry_matches(service, read_events(str(log_path)))


def _nearest_rank_ms(ordered, p):
    """The nearest-rank percentile of a sorted list, in milliseconds."""
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1] * 1000.0


def test_latency_buffer_percentiles_equal_a_sorted_list():
    """10,000 latencies in uneven batches, one of them straddling
    ``cap``: the kept samples, the overflow and every nearest-rank
    percentile from p0.1 to p100 equal a ``sorted()`` list's."""
    rng = np.random.default_rng(29)
    latencies = rng.lognormal(mean=-6.0, sigma=1.2, size=10_000)
    cap = 8_500
    reservoir = LatencyReservoir(cap=cap)
    start, straddled = 0, False
    while start < len(latencies):
        end = min(len(latencies), start + int(rng.integers(1, 900)))
        straddled |= start < cap < end
        reservoir.observe(latencies[start:end])
        start = end
    assert straddled
    kept = latencies[:cap].tolist()
    assert reservoir.samples == kept
    assert reservoir.count == cap
    assert reservoir.overflow == len(latencies) - cap
    ordered = sorted(kept)
    for tenth in range(1, 1001):
        p = tenth / 10
        assert reservoir.percentile_ms(p) == _nearest_rank_ms(ordered, p), p


def test_report_samples_is_the_latency_count(detector):
    config = ServeConfig(duration=8, batch_window=16)
    service, report = run_serve(detector, synthetic_streams(3, seed=8),
                                config)
    assert report["latency_ms"]["samples"] == service.latency.count == \
        len(service.latency.samples) == service.n_scored == 24
    empty = DetectionService(detector, config).report()
    assert empty["latency_ms"]["samples"] == 0
