"""Resilient task-execution layer for corpus construction.

``repro.runtime`` is the fault-tolerance substrate under the data
pipeline: forked worker processes with failures isolated per attempt,
timeouts and deterministic-backoff retries (:mod:`~repro.runtime.runner`),
atomic checkpoint shards with a manifest for resumable builds
(:mod:`~repro.runtime.checkpoint`), explicit failure accounting and
coverage gating (:mod:`~repro.runtime.report`), and a seeded
fault-injection harness (:mod:`~repro.runtime.chaos`) that makes all of
the above testable in CI.
"""

from repro.runtime.atomic import (
    atomic_write_bytes, fsync_directory, sha256_bytes, sha256_file,
)
from repro.runtime.chaos import (
    ARENA_CHECKPOINT_CORRUPT_FAULT, ARENA_FAULT_KINDS, BURST_ARRIVAL_FAULT,
    CACHE_CORRUPT_FAULT, CACHE_TRUNCATE_FAULT, CAMPAIGN_FAULT_KINDS,
    CRASH_FAULT, DETECTOR_EXCEPTION_FAULT, DETECTOR_POISON_SENTINEL,
    GARBAGE_FAULT, GATE_REGRESS_FAULT, GEN_KILL_FAULT, GENOME_KILL_FAULT,
    HANG_FAULT, KILL_FAULT, LOSS_SPIKE_FAULT, NAN_GRAD_FAULT,
    NAN_WINDOW_FAULT, REVACCINATE_NAN_FAULT, SERVE_FAULT_KINDS,
    SLOW_TENANT_FAULT, TRAINING_FAULT_KINDS, WORKER_KILL_FAULT,
    ArenaChaos, ArenaFault, CampaignChaos, CampaignFault, ChaosCrash,
    ChaosKill, ChaosSource, FaultSpec, ServeChaos, ServeFault,
    TrainingChaos, TrainingFault, chaos_kill_self, inject_faults,
)
from repro.runtime.checkpoint import CheckpointStore
from repro.runtime.errors import (
    ARENA_FAILURE_KINDS, CACHE_CORRUPT, CAMPAIGN_FAILURE_KINDS,
    CHECKPOINT_CORRUPT, CRASH, DIVERGENT, FAILURE_KINDS, GATE_REGRESSION,
    TIMEOUT, TRAINING_DIVERGED, ArenaError, CampaignError,
    CellCorruptError, CheckpointError, CoverageError, DivergentTraceError,
    RuntimeTaskError,
)
from repro.runtime.report import FailureReport
from repro.runtime.runner import (
    Task, TaskFailure, TaskResult, TaskRunner, backoff_delay,
)

__all__ = [
    "atomic_write_bytes", "fsync_directory", "sha256_bytes", "sha256_file",
    "ARENA_CHECKPOINT_CORRUPT_FAULT", "ARENA_FAULT_KINDS",
    "BURST_ARRIVAL_FAULT", "CACHE_CORRUPT_FAULT", "CACHE_TRUNCATE_FAULT",
    "CAMPAIGN_FAULT_KINDS", "CRASH_FAULT", "DETECTOR_EXCEPTION_FAULT",
    "DETECTOR_POISON_SENTINEL", "GARBAGE_FAULT", "GATE_REGRESS_FAULT",
    "GEN_KILL_FAULT", "GENOME_KILL_FAULT", "HANG_FAULT", "KILL_FAULT",
    "LOSS_SPIKE_FAULT", "NAN_GRAD_FAULT", "NAN_WINDOW_FAULT",
    "REVACCINATE_NAN_FAULT", "SERVE_FAULT_KINDS", "SLOW_TENANT_FAULT",
    "TRAINING_FAULT_KINDS", "WORKER_KILL_FAULT",
    "ArenaChaos", "ArenaFault", "CampaignChaos", "CampaignFault",
    "ChaosCrash", "ChaosKill", "ChaosSource", "FaultSpec",
    "ServeChaos", "ServeFault", "TrainingChaos", "TrainingFault",
    "chaos_kill_self", "inject_faults",
    "CheckpointStore",
    "ARENA_FAILURE_KINDS", "CACHE_CORRUPT", "CAMPAIGN_FAILURE_KINDS",
    "CHECKPOINT_CORRUPT", "CRASH", "DIVERGENT", "FAILURE_KINDS",
    "GATE_REGRESSION", "TIMEOUT", "TRAINING_DIVERGED", "ArenaError",
    "CampaignError", "CellCorruptError", "CheckpointError",
    "CoverageError", "DivergentTraceError", "RuntimeTaskError",
    "FailureReport",
    "Task", "TaskFailure", "TaskResult", "TaskRunner", "backoff_delay",
]
