"""run_campaign: graceful degradation, crash-resume, bit-identical
aggregates, exit-code contract."""

import json
import os
import time

import pytest

from repro.campaign import (
    CampaignError, CampaignResult, CampaignSpec, CellCache,
    build_campaign_manifest, read_campaign_manifest, render_aggregate,
    run_campaign, validate_cell_result,
)
from repro.campaign import orchestrator
from repro.campaign.orchestrator import (
    AGGREGATE_NAME, CACHE_DIR, HOLE, MANIFEST_NAME, OK, PENDING, CellStatus,
)
from repro.runtime import CACHE_CORRUPT, DivergentTraceError
from repro.runtime.chaos import (
    CACHE_CORRUPT_FAULT, CACHE_TRUNCATE_FAULT, WORKER_KILL_FAULT,
    CampaignChaos, CampaignFault,
)
from tests.test_crash_consistency import _run_child


def _spec(**overrides):
    base = {"workloads": ("stream",), "defenses": ("none",),
            "periods": (100,), "seeds": (0, 1, 2), "scale": 1,
            "max_cycles": 2000}
    base.update(overrides)
    return CampaignSpec(**base)


def _read(path):
    with open(path, "rb") as f:
        return f.read()


# -- clean runs ---------------------------------------------------------------

def test_clean_run_exit_zero(tmp_path):
    directory = str(tmp_path / "camp")
    result = run_campaign(_spec(), directory, processes=2)
    assert result.exit_code == 0
    assert result.total == 3 and result.completed == 3
    assert result.holes == [] and result.cache_hits == 0
    assert all(s.ok and s.result["windows"] > 0 for s in result.statuses)

    manifest = read_campaign_manifest(os.path.join(directory, MANIFEST_NAME))
    assert manifest["exit_code"] == 0
    assert manifest["counts"] == {"total": 3, "completed": 3, "pending": 0,
                                  "holes": 0, "holes_by_kind": {},
                                  "cache_hits": 0}
    assert manifest["spec_fingerprint"] == _spec().fingerprint
    assert all(c["state"] == OK for c in manifest["cells"])

    aggregate = _read(os.path.join(directory, AGGREGATE_NAME)).decode()
    assert "| wl-stream-none-p100-s0 | ok |" in aggregate
    assert "HOLE" not in aggregate


def test_results_are_deterministic_across_runs(tmp_path):
    a = run_campaign(_spec(), str(tmp_path / "a"), processes=2)
    b = run_campaign(_spec(), str(tmp_path / "b"), processes=1)
    assert _read(a.aggregate_path) == _read(b.aggregate_path)
    for sa, sb in zip(a.statuses, b.statuses):
        assert sa.result == sb.result


# -- resume -------------------------------------------------------------------

def test_resume_replays_everything_from_cache(tmp_path):
    directory = str(tmp_path / "camp")
    first = run_campaign(_spec(), directory, processes=2)
    reference = _read(first.aggregate_path)

    resumed = run_campaign(_spec(), directory, processes=2, resume=True)
    assert resumed.exit_code == 0
    assert resumed.cache_hits == resumed.total == 3
    assert resumed.hit_rate == 1.0
    assert _read(resumed.aggregate_path) == reference


def test_resume_into_empty_directory_is_a_cold_start(tmp_path):
    result = run_campaign(_spec(), str(tmp_path / "camp"), processes=2,
                          resume=True)
    assert result.exit_code == 0 and result.cache_hits == 0


def test_resume_with_a_different_spec_is_fatal(tmp_path):
    directory = str(tmp_path / "camp")
    run_campaign(_spec(), directory, processes=2)
    with pytest.raises(CampaignError, match="different spec"):
        run_campaign(_spec(seeds=(7,)), directory, resume=True)
    # without --resume the directory is legitimately rebuilt
    rebuilt = run_campaign(_spec(seeds=(7,)), directory, processes=1)
    assert rebuilt.exit_code == 0 and rebuilt.total == 1


def test_resume_quarantines_corrupt_entries_and_reruns(tmp_path):
    """Self-healing: a corrupt cache entry found on resume is moved to
    quarantine and the cell re-executed live, not served."""
    directory = str(tmp_path / "camp")
    first = run_campaign(_spec(), directory, processes=2)
    reference = _read(first.aggregate_path)

    cache = CellCache(os.path.join(directory, CACHE_DIR))
    victim = first.statuses[1].cell
    path = cache.entry_path(victim.fingerprint)
    data = _read(path)
    with open(path, "wb") as f:
        f.write(data[: len(data) // 3])

    resumed = run_campaign(_spec(), directory, processes=2, resume=True)
    assert resumed.exit_code == 0
    assert resumed.cache_hits == 2 and resumed.completed == 3
    assert not resumed.statuses[1].cache_hit
    assert cache.quarantined()           # forensic copy kept
    assert _read(resumed.aggregate_path) == reference


# -- graceful degradation under chaos ----------------------------------------

def test_worker_kill_becomes_a_crash_hole_not_an_abort(tmp_path):
    directory = str(tmp_path / "camp")
    chaos = CampaignChaos([CampaignFault(WORKER_KILL_FAULT, cell=1)])
    result = run_campaign(_spec(), directory, processes=2, retries=0,
                          chaos=chaos)
    assert result.exit_code == 1
    assert result.completed == 2                 # siblings untouched
    assert result.holes_by_kind() == {"crash": 1}
    hole = result.holes[0]
    assert hole.cell.index == 1 and hole.state == HOLE

    aggregate = _read(result.aggregate_path).decode()
    assert "HOLE:crash" in aggregate and "## Holes" in aggregate
    manifest = read_campaign_manifest(result.manifest_path)
    assert manifest["exit_code"] == 1
    assert manifest["counts"]["holes_by_kind"] == {"crash": 1}


def test_transient_kill_is_retried_to_success(tmp_path):
    chaos = CampaignChaos([CampaignFault(WORKER_KILL_FAULT, cell=0,
                                         fail_attempts=1)])
    result = run_campaign(_spec(), str(tmp_path / "camp"), processes=2,
                          retries=1, chaos=chaos)
    assert result.exit_code == 0
    assert result.statuses[0].attempts == 2


@pytest.mark.parametrize("fault_kind", [CACHE_CORRUPT_FAULT,
                                        CACHE_TRUNCATE_FAULT])
def test_mangled_cache_write_is_a_cache_corrupt_hole(tmp_path, fault_kind):
    directory = str(tmp_path / "camp")
    chaos = CampaignChaos([CampaignFault(fault_kind, cell=2)])
    result = run_campaign(_spec(), directory, processes=2, chaos=chaos)
    assert result.exit_code == 1
    assert result.holes_by_kind() == {CACHE_CORRUPT: 1}
    assert result.completed == 2

    cache = CellCache(os.path.join(directory, CACHE_DIR))
    assert cache.quarantined()                   # mangled bytes preserved
    victim = result.statuses[2].cell
    assert cache.get(victim.fingerprint) is None  # never served corrupt

    # the fault fired once: resume re-executes the hole clean
    healed = run_campaign(_spec(), directory, processes=2, resume=True,
                          chaos=chaos)
    assert healed.exit_code == 0
    assert healed.cache_hits == 2 and healed.completed == 3


def test_chaos_run_then_resume_is_bit_identical_to_clean(tmp_path):
    """The acceptance scenario end to end: chaos leaves classified
    holes + exit 1; resume heals to exit 0 with an aggregate
    byte-identical to an uninterrupted run's."""
    clean = run_campaign(_spec(), str(tmp_path / "clean"), processes=2)
    reference = _read(clean.aggregate_path)

    directory = str(tmp_path / "camp")
    chaos = CampaignChaos([
        CampaignFault(WORKER_KILL_FAULT, cell=0),
        CampaignFault(CACHE_CORRUPT_FAULT, cell=2),
    ])
    broken = run_campaign(_spec(), directory, processes=2, retries=0,
                          chaos=chaos)
    assert broken.exit_code == 1
    assert broken.holes_by_kind() == {"crash": 1, CACHE_CORRUPT: 1}

    healed = run_campaign(_spec(), directory, processes=2, retries=1,
                          resume=True)
    assert healed.exit_code == 0
    assert healed.cache_hits == 1                # the one surviving cell
    assert _read(healed.aggregate_path) == reference


def test_ledger_is_written_even_when_everything_holes(tmp_path):
    directory = str(tmp_path / "camp")
    chaos = CampaignChaos([CampaignFault(WORKER_KILL_FAULT, cell=i)
                           for i in range(3)])
    result = run_campaign(_spec(), directory, processes=2, retries=0,
                          chaos=chaos)
    assert result.exit_code == 1 and result.completed == 0
    manifest = read_campaign_manifest(result.manifest_path)
    assert manifest["counts"]["holes"] == 3


# -- the ledger is written when a run starts and when it ends -----------------

def _count_ledger_writes(monkeypatch):
    """Count the orchestrator's atomic writes per file name."""
    writes = {}
    real = orchestrator.atomic_write_bytes

    def counting(path, data, *args, **kwargs):
        name = os.path.basename(path)
        writes[name] = writes.get(name, 0) + 1
        return real(path, data, *args, **kwargs)

    monkeypatch.setattr(orchestrator, "atomic_write_bytes", counting)
    return writes


@pytest.mark.parametrize("seeds", [(0, 1, 2), (0, 1, 2, 3, 4, 5)])
def test_ledger_writes_do_not_grow_with_the_matrix(tmp_path, monkeypatch,
                                                   seeds):
    writes = _count_ledger_writes(monkeypatch)
    result = run_campaign(_spec(seeds=seeds), str(tmp_path / "camp"),
                          processes=1)
    assert result.exit_code == 0 and result.completed == len(seeds)
    assert writes == {AGGREGATE_NAME: 2, MANIFEST_NAME: 2}


def test_an_all_holes_run_writes_the_ledger_twice(tmp_path, monkeypatch):
    writes = _count_ledger_writes(monkeypatch)
    chaos = CampaignChaos([CampaignFault(WORKER_KILL_FAULT, cell=i)
                           for i in range(3)])
    result = run_campaign(_spec(), str(tmp_path / "camp"), processes=2,
                          retries=0, chaos=chaos)
    assert result.exit_code == 1 and result.completed == 0
    assert writes == {AGGREGATE_NAME: 2, MANIFEST_NAME: 2}
    manifest = read_campaign_manifest(result.manifest_path)
    assert manifest["counts"]["holes"] == 3 and manifest["exit_code"] == 1


def test_a_ledger_with_a_pending_cell_has_no_exit_code():
    spec = _spec()
    statuses = [CellStatus(cell=c) for c in spec.expand()]
    statuses[0].state = OK
    statuses[1].state = HOLE
    statuses[1].kind = "crash"
    assert statuses[2].state == PENDING
    assert build_campaign_manifest(spec, statuses)["exit_code"] is None
    statuses[2].state = OK
    assert build_campaign_manifest(spec, statuses)["exit_code"] == 1


#: dies in the parent after three of six cells, as SIGKILL would: the
#: progress hook runs after a cell is cached and verified, while the one
#: worker waits for its next task
PARENT_DIES_AFTER_THREE = """
    import json, multiprocessing, os
    from repro.campaign import CampaignSpec, run_campaign

    resolved = []
    def die_after_three(status):
        resolved.append(status.cell.key)
        if len(resolved) == 3:
            pids = [p.pid for p in multiprocessing.active_children()]
            print(json.dumps(pids), flush=True)
            os._exit(9)

    run_campaign(CampaignSpec(**{spec!r}), {directory!r}, processes=1,
                 progress=die_after_three)
"""


def _is_gone(pid):
    """Whether ``pid`` has exited (a zombie waiting to be reaped counts)."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] == "Z"
    except OSError:
        return True


def test_a_campaign_whose_parent_dies_resumes_from_the_cache(tmp_path):
    spec = _spec(seeds=(0, 1, 2, 3, 4, 5))
    directory = str(tmp_path / "camp")
    proc = _run_child(PARENT_DIES_AFTER_THREE.format(spec=spec.to_dict(),
                                                     directory=directory))
    assert proc.returncode == 9, proc.stderr
    workers = json.loads(proc.stdout.splitlines()[-1])
    assert workers, "no worker was alive when the parent died"
    # an idle worker reads EOF from its pipe and exits
    deadline = time.monotonic() + 10
    while not all(map(_is_gone, workers)) and time.monotonic() < deadline:
        time.sleep(0.1)
    assert all(map(_is_gone, workers)), workers

    cache = os.path.join(directory, CACHE_DIR)
    entries = [name for name in os.listdir(cache)
               if name.endswith(".cell.json")]
    assert len(entries) == 3
    ledger = read_campaign_manifest(os.path.join(directory, MANIFEST_NAME))
    assert ledger["spec_fingerprint"] == spec.fingerprint
    assert ledger["exit_code"] is None

    with pytest.raises(CampaignError, match="different spec"):
        run_campaign(_spec(seeds=(7,)), directory, resume=True)
    resumed = run_campaign(spec, directory, processes=1, resume=True)
    assert resumed.exit_code == 0 and resumed.cache_hits == 3
    clean = run_campaign(spec, str(tmp_path / "clean"), processes=1)
    assert _read(resumed.aggregate_path) == _read(clean.aggregate_path)


# -- pieces -------------------------------------------------------------------

def test_validate_cell_result_taxonomy():
    good = {"cycles": 10, "committed": 5, "ipc": 0.5, "windows": 1,
            "counters_sha256": "ab" * 32}
    validate_cell_result(good)
    for bad in [
        "not a dict",
        {**good, "cycles": -1},
        {**good, "committed": True},
        {**good, "ipc": "fast"},
        {**good, "ipc": -0.1},
        {**good, "counters_sha256": "xyz"},
        {**good, "windows": 0},
    ]:
        with pytest.raises(DivergentTraceError):
            validate_cell_result(bad)


def test_render_aggregate_marks_pending_cells():
    spec = _spec()
    statuses = [CellStatus(cell=c) for c in spec.expand()]
    statuses[0].state = OK
    statuses[0].result = {"cycles": 10, "committed": 5, "ipc": 0.5,
                          "windows": 1, "counters_sha256": "ab" * 32}
    text = render_aggregate(spec, statuses)
    assert "| pending |" in text
    assert statuses[1].state == PENDING
    # deterministic: same inputs, same bytes
    assert text == render_aggregate(spec, statuses)


def test_read_campaign_manifest_rejects_garbage(tmp_path):
    path = tmp_path / "campaign.json"
    with pytest.raises(CampaignError, match="unreadable"):
        read_campaign_manifest(str(path))
    path.write_text("{torn")
    with pytest.raises(CampaignError, match="unreadable"):
        read_campaign_manifest(str(path))
    path.write_text(json.dumps({"schema": "other/1"}))
    with pytest.raises(CampaignError, match="unsupported"):
        read_campaign_manifest(str(path))


def test_campaign_result_summary_lists_holes():
    spec = _spec()
    statuses = [CellStatus(cell=c) for c in spec.expand()]
    statuses[0].state = OK
    statuses[1].state = HOLE
    statuses[1].kind = "timeout"
    statuses[1].message = "exceeded 5s"
    statuses[1].attempts = 2
    result = CampaignResult(spec=spec, statuses=statuses)
    text = result.summary()
    assert "1/3 cells" in text
    assert "timeout=1" in text and "exceeded 5s" in text
    assert result.exit_code == 1


def test_cell_workers_inherit_every_import():
    """``repro campaign`` forks its cell workers from a process that has
    imported ``repro.cli`` and ``repro.campaign``.  A module the worker
    still had to import would be imported again in every forked cell."""
    configs = [cell.config() for cell in _spec(
        workloads=(), attacks=("meltdown",), defenses=("fence-spectre",),
        seeds=(0,), tenancies=("single", "smt")).expand()]
    proc = _run_child(f"""
        import json, sys
        import repro.cli
        import repro.campaign
        before = set(sys.modules)
        for config in json.loads({json.dumps(configs)!r}):
            repro.campaign.run_cell((config, 0))
        print(json.dumps(sorted(set(sys.modules) - before)))
    """)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []
