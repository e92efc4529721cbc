"""Run manifests: one atomic JSON summary per CLI command.

A manifest is the durable, machine-readable record of what a run did —
wall-clock per stage, metric snapshots, and how it ended (including the
failure taxonomy when sources were quarantined), joined to the JSONL
event log by run id.  Future performance PRs cite these as before/after
evidence; ``docs/observability.md`` documents the format and a worked
"find the slow stage" example.

Manifests are written with the same temp-file + ``os.replace`` discipline
as every other durable artifact (:mod:`repro.runtime.atomic`), and are
written on *failure paths too* — a run that died still leaves a manifest
saying how far it got and why it stopped.
"""

import json
import platform
import sys

#: bumped when the manifest layout changes incompatibly
MANIFEST_SCHEMA = "repro.run-manifest/1"

#: per-command anchors for the default manifest path: the first of these
#: argparse attributes that is set names the artifact the manifest sits
#: next to, as ``<anchor>.<command>-manifest.json``
_MANIFEST_ANCHORS = {
    "arena": ("dir",),
    "collect": ("out",),
    "train": ("out", "corpus"),
    "report": ("out", "corpus"),
    "explain": ("detector",),
    "campaign": ("dir",),
    "serve": ("out",),
}


def default_manifest_path(command, args):
    """Where a command's manifest lands when ``--manifest-out`` is unset.

    Anchored next to the command's primary artifact so scratch runs in
    temp directories keep their manifests with them; commands with no
    file artifact (``attack``, ``workloads``, ...) default to no
    manifest.
    """
    for attr in _MANIFEST_ANCHORS.get(command, ()):
        anchor = getattr(args, attr, None)
        if anchor:
            return f"{anchor}.{command}-manifest.json"
    return None


def _stage_timings(snapshot):
    """Extract ``stage.*`` timers into a flat stage -> seconds view."""
    stages = {}
    for name, summary in snapshot.get("timers", {}).items():
        if name.startswith("stage."):
            stages[name[len("stage."):]] = {
                "seconds": round(summary["total_s"], 6),
                "count": summary["count"],
            }
    return stages


def _failure_taxonomy(snapshot):
    """Quarantine counts by kind, from the runner's failure counters,
    plus the training-guard trip taxonomy when any trips occurred."""
    counters = snapshot.get("counters", {})
    prefix = "runner.failures."
    taxonomy = {name[len(prefix):]: value
                for name, value in counters.items()
                if name.startswith(prefix) and value}
    taxonomy["quarantined"] = counters.get("runner.tasks.quarantined", 0)
    guard_prefix = "guard.trips."
    training = {name[len(guard_prefix):]: value
                for name, value in counters.items()
                if name.startswith(guard_prefix) and value}
    if training:
        training["rollbacks"] = counters.get("guard.rollbacks", 0)
        taxonomy["training"] = training
    holes = counters.get("campaign.cells.holes", 0)
    corrupt = counters.get("campaign.cache.corrupt", 0)
    if holes or corrupt:
        taxonomy["campaign"] = {"holes": holes, "cache_corrupt": corrupt}
    arena_holes = counters.get("arena.genomes.holes", 0)
    arena_rollbacks = counters.get("arena.gate.rollbacks", 0)
    arena_corrupt = counters.get("arena.checkpoint.corrupt", 0)
    if arena_holes or arena_rollbacks or arena_corrupt:
        taxonomy["arena"] = {
            "holes": arena_holes,
            "gate_rollbacks": arena_rollbacks,
            "checkpoint_corrupt": arena_corrupt,
        }
    return taxonomy


def build_manifest(*, command, argv, run_id, started, finished, exit_code,
                   error=None, options=None, snapshot=None, lineage=None):
    """Assemble the manifest dict (see ``docs/observability.md``).

    ``lineage`` is ``None`` for a fresh run, or ``{"parent_run": ...,
    "resumed_from_iteration": ...}`` when training resumed from a
    checkpoint written by an earlier run.
    """
    # imported lazily: repro.runtime instruments itself through repro.obs,
    # so obs must not need runtime at import time
    from repro.runtime.digest import fingerprint
    snapshot = snapshot if snapshot is not None else {}
    options = dict(options or {})
    return {
        "schema": MANIFEST_SCHEMA,
        "run": {
            "id": run_id,
            "command": command,
            "argv": list(argv) if argv is not None else None,
            "started": round(started, 6),
            "finished": round(finished, 6),
            "duration_s": round(finished - started, 6),
            "python": platform.python_version(),
            "platform": sys.platform,
        },
        "config": {
            "options": options,
            "fingerprint": fingerprint(options),
        },
        "status": {
            "ok": exit_code == 0 and error is None,
            "exit_code": exit_code,
            "error": error,
        },
        "lineage": lineage,
        "stages": _stage_timings(snapshot),
        "failures": _failure_taxonomy(snapshot),
        "metrics": snapshot,
    }


def write_manifest(path, manifest):
    """Atomically persist ``manifest`` as pretty-printed JSON."""
    # imported lazily: repro.runtime instruments itself through repro.obs,
    # so obs must not need runtime at import time
    from repro.runtime.atomic import atomic_write_bytes
    blob = json.dumps(manifest, indent=2, sort_keys=False, default=str)
    atomic_write_bytes(path, blob.encode("utf-8"))
    return path


def read_manifest(path):
    """Load a manifest back; raises ``ValueError`` on schema mismatch."""
    with open(path, "r", encoding="utf-8") as f:
        manifest = json.load(f)
    if manifest.get("schema") != MANIFEST_SCHEMA:
        raise ValueError(f"not a run manifest (schema="
                         f"{manifest.get('schema')!r}): {path}")
    return manifest
