"""Fault-isolated campaign execution.

:func:`run_campaign` fans the expanded matrix out over
:class:`repro.runtime.TaskRunner` — forked worker processes with
failures isolated per attempt, timeouts and deterministic-backoff
retries — and degrades gracefully by construction.  A worker runs cell
after cell until an attempt fails, so :func:`run_cell` must be, and is,
a pure function of its payload and attempt:

* a crashed / hung / divergent cell is quarantined into the failure
  taxonomy (plus the campaign-specific ``cache_corrupt`` kind) and
  reported as an explicit **hole**; sibling cells are never aborted;
* every completed cell is persisted to the content-addressed
  :class:`~repro.campaign.cache.CellCache` and **verified by
  read-back** before it counts — a write the disk mangled becomes a
  quarantined ``cache_corrupt`` hole, not a silently wrong aggregate;
* the aggregate table and the campaign manifest (the *ledger*) are
  written atomically before the fan-out and after it, not per cell:
  the verified cache is the per-cell record, so a SIGKILL at any
  instant leaves the start ledger (with the spec fingerprint the
  resume guard reads) plus every verified entry, all ``resume=True``
  needs;
* ``resume=True`` replays verified cache entries (corrupt ones are
  quarantined and re-executed — self-healing) and re-runs only the
  rest; a fully-resolved resumed run produces a **byte-identical
  aggregate** to an uninterrupted one, because the aggregate is a pure
  function of per-cell results.

Exit-code contract: 0 = every cell resolved (clean), 1 = completed
with holes, 2 = fatal (bad spec / unusable campaign directory — raised
as :class:`~repro.runtime.errors.CampaignError` and mapped by the CLI).
"""

import contextlib
import json
import os
import time
from dataclasses import dataclass, field
from typing import List, Optional

from repro.attacks import ATTACKS_BY_NAME
from repro.campaign.cache import CellCache
from repro.campaign.spec import ATTACK, CampaignSpec
from repro.data.dataset import collect_source
from repro.obs import metrics, obs_event
from repro.obs.context import current_run_id, record_lineage
from repro.runtime import (
    CACHE_CORRUPT, CampaignError, CellCorruptError, DivergentTraceError,
    Task, TaskRunner, atomic_write_bytes, canonical, chaos_kill_self,
    sha256_bytes,
)
from repro.sim import SimConfig
from repro.sim.config import DefenseMode
from repro.workloads import WORKLOAD_BUILDERS, Workload

#: bumped when the campaign manifest layout changes incompatibly.  2:
#: cells are fingerprinted by field and cached as sealed files, so a
#: directory written in the /1 layout has no entry this build can read
CAMPAIGN_SCHEMA = "repro.campaign/2"

MANIFEST_NAME = "campaign.json"
AGGREGATE_NAME = "aggregate.md"
CACHE_DIR = "cache"

#: cell resolution states
OK = "ok"
HOLE = "hole"
PENDING = "pending"


# -- the worker ---------------------------------------------------------------

def run_cell(payload, attempt=1):
    """Execute one matrix cell in a forked worker process.

    ``payload`` is ``(config, kill_attempts)`` where ``config`` is the
    cell's canonical config dict; returns the cell's small, canonical
    result payload (counters digest included, so bit-identity between
    runs is checkable from the cache alone).  Everything it runs is
    imported at module top, so a worker forked from the campaign
    process inherits those modules instead of importing them per cell.
    """
    config, kill_attempts = payload
    if attempt <= kill_attempts:
        chaos_kill_self()
    if config["kind"] == ATTACK:
        source = ATTACKS_BY_NAME[config["name"]](seed=config["seed"])
        label = 1
    else:
        source = Workload(config["name"],
                          WORKLOAD_BUILDERS[config["name"]],
                          scale=config["scale"], seed=config["seed"])
        label = 0
    sim_config = SimConfig(defense=DefenseMode(config["defense"]))
    records, result, _ = collect_source(
        source, label=label, config=sim_config,
        sample_period=config["period"], max_cycles=config["max_cycles"],
        tenancy=config.get("tenancy", "single"))
    deltas = "".join(canonical(record.deltas) for record in records)
    return {
        "cycles": result.cycles,
        "committed": result.committed,
        "ipc": round(result.ipc, 4),
        "windows": len(records),
        "counters_sha256": sha256_bytes(deltas.encode()),
    }


def validate_cell_result(value):
    """Structural check run in the parent on every completed cell; a
    rejection classifies the attempt ``divergent``."""
    if not isinstance(value, dict):
        raise DivergentTraceError(
            f"cell returned {type(value).__name__}, expected dict")
    for name in ("cycles", "committed", "windows"):
        v = value.get(name)
        if not isinstance(v, int) or isinstance(v, bool) or v < 0:
            raise DivergentTraceError(
                f"cell result field {name}={v!r} is not a "
                f"non-negative int")
    if not isinstance(value.get("ipc"), float) or value["ipc"] < 0:
        raise DivergentTraceError(
            f"cell result ipc={value.get('ipc')!r} is invalid")
    digest = value.get("counters_sha256")
    if not (isinstance(digest, str) and len(digest) == 64
            and all(c in "0123456789abcdef" for c in digest)):
        raise DivergentTraceError(
            f"cell result counters_sha256={digest!r} is not a "
            f"SHA-256 hex digest")
    if value["windows"] == 0:
        raise DivergentTraceError("cell produced no sampling windows")


# -- per-cell accounting ------------------------------------------------------

@dataclass
class CellStatus:
    """Resolution of one matrix cell."""

    cell: object                       # CampaignCell
    state: str = PENDING               # OK | HOLE | PENDING
    kind: Optional[str] = None         # failure kind for holes
    message: str = ""
    cache_hit: bool = False
    attempts: int = 0
    result: Optional[dict] = None

    @property
    def ok(self):
        return self.state == OK


@dataclass
class CampaignResult:
    """Outcome of one campaign run."""

    spec: CampaignSpec
    statuses: List[CellStatus] = field(default_factory=list)
    elapsed: float = 0.0
    aggregate_path: Optional[str] = None
    manifest_path: Optional[str] = None

    @property
    def total(self):
        return len(self.statuses)

    @property
    def completed(self):
        return sum(1 for s in self.statuses if s.ok)

    @property
    def cache_hits(self):
        return sum(1 for s in self.statuses if s.cache_hit)

    @property
    def holes(self):
        return [s for s in self.statuses if s.state == HOLE]

    @property
    def hit_rate(self):
        """Fraction of the matrix served from verified cache entries."""
        return self.cache_hits / self.total if self.total else 0.0

    def holes_by_kind(self):
        counts = {}
        for status in self.holes:
            counts[status.kind] = counts.get(status.kind, 0) + 1
        return counts

    @property
    def exit_code(self):
        """0 clean / 1 partial-with-holes (2 = fatal, raised instead)."""
        return 0 if not self.holes else 1

    def summary(self):
        """One-paragraph human-readable outcome."""
        lines = [f"campaign: {self.completed}/{self.total} cells "
                 f"({self.cache_hits} from cache, "
                 f"{self.elapsed:.1f}s)"]
        if self.holes:
            kinds = ", ".join(f"{k}={v}" for k, v
                              in sorted(self.holes_by_kind().items()))
            lines.append(f"holes: {len(self.holes)} cells ({kinds})")
            for status in self.holes:
                lines.append(f"  [{status.kind:13s}] {status.cell.key} "
                             f"after {status.attempts} attempt(s): "
                             f"{status.message}")
        return "\n".join(lines)


# -- aggregate + manifest rendering ------------------------------------------

def render_aggregate(spec, statuses):
    """The campaign aggregate as deterministic markdown.

    A pure function of the spec and per-cell results — no timestamps,
    no cache provenance — so an uninterrupted run and a
    crash-then-resume run of the same matrix render byte-identical
    files (the resume acceptance check diffs them directly).
    """
    done = sum(1 for s in statuses if s.ok)
    holes = [s for s in statuses if s.state == HOLE]
    lines = [
        "# Campaign aggregate",
        "",
        f"spec `{spec.fingerprint[:12]}` | cells {len(statuses)} "
        f"| completed {done} | holes {len(holes)}",
        "",
        "| cell | status | ipc | cycles | committed | windows "
        "| counters |",
        "|------|--------|----:|-------:|----------:|--------:"
        "|----------|",
    ]
    for status in statuses:
        cell = status.cell
        if status.ok:
            r = status.result
            lines.append(
                f"| {cell.key} | ok | {r['ipc']:.4f} | {r['cycles']} "
                f"| {r['committed']} | {r['windows']} "
                f"| {r['counters_sha256'][:12]} |")
        elif status.state == HOLE:
            lines.append(f"| {cell.key} | HOLE:{status.kind} | - | - "
                         f"| - | - | - |")
        else:
            lines.append(f"| {cell.key} | pending | - | - | - | - "
                         f"| - |")
    if holes:
        lines += ["", "## Holes", ""]
        for status in holes:
            lines.append(f"- `{status.cell.key}` [{status.kind}] "
                         f"{status.message}")
    lines.append("")
    return "\n".join(lines)


def build_campaign_manifest(spec, statuses, run_id=None,
                            parent_run=None, elapsed=0.0):
    """The campaign's durable ledger (written atomically when the run
    starts and when it ends): spec + per-cell provenance + counts + exit
    code.  The exit code is ``None`` while any cell is pending: a killed
    run's ledger does not read as a finish."""
    holes = [s for s in statuses if s.state == HOLE]
    pending = sum(1 for s in statuses if s.state == PENDING)
    hits = sum(1 for s in statuses if s.cache_hit)
    by_kind = {}
    for status in holes:
        by_kind[status.kind] = by_kind.get(status.kind, 0) + 1
    return {
        "schema": CAMPAIGN_SCHEMA,
        "run_id": run_id,
        "parent_run": parent_run,
        "spec": spec.to_dict(),
        "spec_fingerprint": spec.fingerprint,
        "counts": {
            "total": len(statuses),
            "completed": sum(1 for s in statuses if s.ok),
            "pending": pending,
            "holes": len(holes),
            "holes_by_kind": by_kind,
            "cache_hits": hits,
        },
        "elapsed_s": round(elapsed, 3),
        "exit_code": None if pending else 1 if holes else 0,
        "cells": [
            {
                "key": s.cell.key,
                "fingerprint": s.cell.fingerprint,
                "state": s.state,
                "kind": s.kind,
                "cache_hit": s.cache_hit,
                "attempts": s.attempts,
                "message": s.message or None,
            }
            for s in statuses
        ],
    }


def read_campaign_manifest(path):
    """Load a campaign manifest; :class:`CampaignError` when unusable."""
    try:
        with open(path, "rb") as f:
            manifest = json.loads(f.read().decode())
    except (OSError, ValueError) as exc:
        raise CampaignError(
            f"unreadable campaign manifest {path}: {exc}") from exc
    if manifest.get("schema") != CAMPAIGN_SCHEMA:
        raise CampaignError(
            f"unsupported campaign manifest schema "
            f"{manifest.get('schema')!r} at {path} (this build reads "
            f"{CAMPAIGN_SCHEMA!r}); re-run without --resume to rebuild it")
    return manifest


# -- the orchestrator ---------------------------------------------------------

class _Ledger:
    """Aggregate + manifest, written atomically before the fan-out and
    after it.  Between the two the verified cache entries are the
    durable record, so a SIGKILL leaves the start ledger and every
    completed cell: a resumable state."""

    def __init__(self, directory, spec, statuses, parent_run):
        self.directory = directory
        self.spec = spec
        self.statuses = statuses
        self.parent_run = parent_run
        self.started = time.monotonic()
        self.aggregate_path = os.path.join(directory, AGGREGATE_NAME)
        self.manifest_path = os.path.join(directory, MANIFEST_NAME)

    def flush(self):
        elapsed = time.monotonic() - self.started
        atomic_write_bytes(
            self.aggregate_path,
            render_aggregate(self.spec, self.statuses).encode("utf-8"))
        manifest = build_campaign_manifest(
            self.spec, self.statuses, run_id=current_run_id(),
            parent_run=self.parent_run, elapsed=elapsed)
        atomic_write_bytes(
            self.manifest_path,
            json.dumps(manifest, indent=1).encode("utf-8"))
        return elapsed


def _check_resume_spec(directory, spec, resume):
    """Resume guard: a campaign directory belongs to one matrix.

    Returns the previous run's id (resume lineage) or ``None``.
    Resuming a *different* spec into the same directory would mix
    fingerprints from two matrices in one ledger — fatal, like
    :class:`~repro.runtime.errors.CheckpointError` for checkpoints.
    """
    if not resume:
        return None                      # fresh run: ledger is rewritten
    path = os.path.join(directory, MANIFEST_NAME)
    if not os.path.exists(path):
        return None                      # cold resume: nothing to replay
    manifest = read_campaign_manifest(path)
    if manifest.get("spec_fingerprint") != spec.fingerprint:
        raise CampaignError(
            f"campaign at {directory} was built from a different spec "
            f"({manifest.get('spec_fingerprint', '?')[:12]} != "
            f"{spec.fingerprint[:12]}); re-run without --resume to "
            f"rebuild it")
    return manifest.get("run_id")


def run_campaign(spec, directory, *, processes=None, retries=1,
                 task_timeout=None, resume=False, chaos=None,
                 progress=None):
    """Execute (or resume) a campaign matrix; returns
    :class:`CampaignResult`.

    Never raises for per-cell failures — they become holes.  Raises
    :class:`~repro.runtime.errors.CampaignError` only for fatal,
    whole-campaign problems (spec/directory mismatch on resume).
    """
    cells = spec.expand()
    os.makedirs(directory, exist_ok=True)
    cache = CellCache(os.path.join(directory, CACHE_DIR))
    parent_run = _check_resume_spec(directory, spec, resume)
    if resume and parent_run is not None:
        record_lineage(parent_run=parent_run)

    reg = metrics()
    reg.set_gauge("campaign.cells.total", len(cells))
    obs_event("campaign.started", cells=len(cells), resume=bool(resume),
              spec_fingerprint=spec.fingerprint[:12])

    statuses = [CellStatus(cell=cell) for cell in cells]
    ledger = _Ledger(directory, spec, statuses, parent_run)

    # -- replay verified cache entries (resume) ------------------------------
    to_run = []
    for status in statuses:
        cell = status.cell
        if not resume:
            to_run.append(status)
            continue
        try:
            cached = cache.get(cell.fingerprint)
        except CellCorruptError as exc:
            # self-healing: quarantine the bad entry and re-execute
            cache.quarantine(cell.fingerprint, reason=exc.reason)
            reg.inc("campaign.cache.corrupt")
            obs_event("campaign.cache.quarantined", level="warn",
                      key=cell.key, fingerprint=cell.fingerprint[:12],
                      reason=exc.reason)
            cached = None
        if cached is None:
            to_run.append(status)
            continue
        status.state = OK
        status.cache_hit = True
        status.result = cached
        reg.inc("campaign.cells.cache_hits")
        obs_event("campaign.cell", level="debug", key=cell.key,
                  state=OK, cache_hit=True)
    ledger.flush()

    # -- fan the rest out over isolated workers ------------------------------
    by_key = {s.cell.key: s for s in to_run}
    tasks = [Task(key=s.cell.key,
                  payload=(s.cell.config(),
                           chaos.kill_attempts(s.cell.index)
                           if chaos is not None else 0))
             for s in to_run]
    if processes is None:
        processes = max(1, min(len(tasks) or 1, (os.cpu_count() or 2)))
    runner = TaskRunner(run_cell, processes=processes, retries=retries,
                        timeout=task_timeout,
                        validator=validate_cell_result)
    with contextlib.closing(runner.run(tasks)) as outcomes:
        for outcome in outcomes:
            status = by_key[outcome.key]
            status.attempts = outcome.attempts
            if outcome.ok:
                _persist_cell(cache, status, outcome.value, chaos, reg)
            else:
                status.state = HOLE
                status.kind = outcome.kind
                status.message = outcome.message
                reg.inc("campaign.cells.holes")
                obs_event("campaign.hole", level="error",
                          key=status.cell.key, kind=outcome.kind,
                          message=outcome.message)
            reg.observe("campaign.cell.seconds", outcome.elapsed)
            if progress is not None:
                progress(status)

    elapsed = ledger.flush()
    result = CampaignResult(spec=spec, statuses=statuses, elapsed=elapsed,
                            aggregate_path=ledger.aggregate_path,
                            manifest_path=ledger.manifest_path)
    obs_event("campaign.finished",
              level="error" if result.holes else "info",
              completed=result.completed, holes=len(result.holes),
              cache_hits=result.cache_hits, exit_code=result.exit_code)
    return result


def _persist_cell(cache, status, value, chaos, reg):
    """Durably cache a completed cell and verify by read-back; a
    mangled write quarantines the cell as a ``cache_corrupt`` hole."""
    cell = status.cell
    path = cache.put(cell, value)
    if chaos is not None:
        chaos.mangle_entry(cell.index, path)
    try:
        verified = cache.get(cell.fingerprint)
        if verified is None:
            raise CellCorruptError(
                f"cache entry vanished after write: {path}",
                reason="missing")
    except CellCorruptError as exc:
        cache.quarantine(cell.fingerprint, reason=exc.reason)
        status.state = HOLE
        status.kind = CACHE_CORRUPT
        status.message = str(exc)
        reg.inc("campaign.cache.corrupt")
        reg.inc("campaign.cells.holes")
        obs_event("campaign.cache.quarantined", level="warn",
                  key=cell.key, fingerprint=cell.fingerprint[:12],
                  reason=exc.reason)
        obs_event("campaign.hole", level="error", key=cell.key,
                  kind=CACHE_CORRUPT, message=str(exc))
        return
    status.state = OK
    status.result = verified
    reg.inc("campaign.cells.completed")
    obs_event("campaign.cell", level="debug", key=cell.key, state=OK,
              cache_hit=False)
