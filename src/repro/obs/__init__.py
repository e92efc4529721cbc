"""``repro.obs`` — dependency-free observability for the EVAX pipeline.

Three pillars, documented in ``docs/observability.md``:

* **structured logs** (:mod:`~repro.obs.log`) — JSONL events with a
  level threshold and per-run context (run id, seed, config
  fingerprint); disabled until a sink is configured, so hot paths pay
  a single ``None`` check.
* **metrics** (:mod:`~repro.obs.metrics`) — a process-global registry
  of counters / gauges / timers with a ``time_block`` context manager;
  the canonical name catalog lives in :mod:`~repro.obs.names`.
* **run manifests** (:mod:`~repro.obs.manifest`,
  :mod:`~repro.obs.context`) — one atomic JSON summary per CLI command
  (stage wall-clock, metric snapshot, failure taxonomy), written on
  success *and* failure.
"""

from repro.obs.log import EventLog, get_log, obs_event, read_events
from repro.obs.manifest import (
    MANIFEST_SCHEMA, build_manifest, default_manifest_path, read_manifest,
    write_manifest,
)
from repro.obs.metrics import (
    Counter, Gauge, MetricsRegistry, Timer, metrics, time_block,
)
from repro.obs.names import ALL_METRICS, CATALOG, EVENTS, is_known_metric

__all__ = [
    "EventLog", "get_log", "obs_event", "read_events",
    "MANIFEST_SCHEMA", "build_manifest", "default_manifest_path",
    "read_manifest", "write_manifest",
    "Counter", "Gauge", "MetricsRegistry", "Timer", "metrics",
    "time_block",
    "ALL_METRICS", "CATALOG", "EVENTS", "is_known_metric",
]
