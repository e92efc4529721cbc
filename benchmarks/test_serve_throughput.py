"""Serving-throughput floors: batched scoring must stay batched.

Not a paper figure — these pin the serving layer's own performance so a
regression in the batched inference path (e.g. a return to per-window
Python loops, or an accidental copy in batch assembly) fails loudly.
``scripts/bench_serve.py`` measures and reports the full numbers; these
tests carry defensive fractions of the same floors for the benchmark
tier.
"""

from repro.serve import (
    ServeConfig, demo_detector, measure_scoring_throughput, run_serve,
    synthetic_streams,
)


def test_batched_scoring_speedup():
    """Batched matrix-matrix scoring vs the per-window loop on the
    headline (perceptron) detector.  Measured 50-80x / ~1M windows/s
    on a dev host; 20x / 150k keep headroom for slow CI hosts while
    making a fall back to row-at-a-time scoring fail loudly (that
    regression measures ~1x)."""
    result = measure_scoring_throughput(demo_detector(seed=0),
                                        windows=8192, repeats=3)
    print(f"\nperceptron: batched {result['batch_windows_per_sec']:,.0f} "
          f"w/s, single {result['single_windows_per_sec']:,.0f} w/s, "
          f"speedup {result['speedup']:.1f}x")
    assert result["speedup"] > 20.0
    assert result["batch_windows_per_sec"] > 150_000


def test_deep_detector_still_batches():
    """The deep 16x32 variant is the worst case the service carries;
    measured ~13-16x / ~100k w/s batched.  The floors catch the batch
    path silently degrading to per-window dispatch for deep models."""
    result = measure_scoring_throughput(
        demo_detector(seed=0, depth=16, width=32), windows=4096, repeats=3)
    print(f"\ndnn-16x32: batched {result['batch_windows_per_sec']:,.0f} "
          f"w/s, speedup {result['speedup']:.1f}x")
    assert result["speedup"] > 4.0
    assert result["batch_windows_per_sec"] > 20_000


def test_end_to_end_service_throughput():
    """The full service — queueing, batch assembly, per-tenant
    controllers, latency bookkeeping — around the batched kernel.
    Measured ~85-105k windows/s on one pinned CPU of a 2-core x86_64
    host; the 5k floor is ~10x the throughput the unbatched seed path
    managed end to end."""
    streams = synthetic_streams(8, seed=0)
    config = ServeConfig(duration=512, batch_window=1024, queue_limit=8192)
    service, report = run_serve(demo_detector(seed=0), streams,
                                config=config)
    wps = report["throughput"]["windows_per_sec"]
    print(f"\nservice: {wps:,.0f} windows/s end to end "
          f"({service.n_scored} scored, {service.n_batches} batches)")
    assert service.n_scored == 8 * 512
    assert service.n_shed == 0
    assert wps > 5_000
