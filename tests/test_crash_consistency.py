"""SIGKILL-mid-write crash consistency for CheckpointStore and CellCache.

The durable-write contract (``docs/runtime.md``): a kill at *any*
instant leaves either the old state or the new state under every final
name — never a torn file — and a resumed run self-heals around any
debris (stray temp files, unsealed orphan shards).

Two attack styles:

* **surgical** — a child process dies (``os._exit``, the unwindless
  analogue of SIGKILL) at the exact worst instants: between temp-write
  and rename, and right after a shard's rename, the instant its source
  becomes durable;
* **real** — a child is SIGKILLed from outside at an arbitrary point in
  a write loop, and the survivor must find only verifiable state.
"""

import json
import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from repro.campaign import CampaignSpec, CellCache
from repro.runtime import CheckpointStore

REPO = Path(__file__).resolve().parents[1]


def _run_child(code, **env_extra):
    """Run ``code`` in a child interpreter with repro importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(env_extra)
    return subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                          env=env, capture_output=True, text=True,
                          timeout=60)


def _a_cell():
    spec = CampaignSpec(workloads=("stream",), defenses=("none",),
                        periods=(100,), seeds=(0,), scale=1,
                        max_cycles=2000)
    return spec.expand()[0]


# ---------------------------------------------------------------------------
# surgical kills: die at the exact worst instant


KILL_BETWEEN_TMP_AND_RENAME = """
    import os
    import repro.runtime.atomic as atomic

    real_replace = os.replace
    def killed_replace(src, dst):
        os._exit(9)          # SIGKILL analogue: no unwinding, no cleanup
    atomic.os.replace = killed_replace

    from repro.runtime import CheckpointStore
    store = CheckpointStore({ckdir!r})
    atomic.os.replace = real_replace
    store.open(context={{"build": 1}})          # manifest must still work
    atomic.os.replace = killed_replace
    store.put("src-a", {{"records": [1, 2, 3]}})
"""


def test_checkpoint_kill_between_tmp_write_and_rename(tmp_path):
    ckdir = str(tmp_path / "shards")
    proc = _run_child(KILL_BETWEEN_TMP_AND_RENAME.format(ckdir=ckdir))
    assert proc.returncode == 9, proc.stderr

    # the kill hit after the temp file was written but before the
    # rename: debris may exist, but nothing may sit under a final name
    names = os.listdir(ckdir)
    assert not [n for n in names if n.endswith(".shard.json")], names
    assert [n for n in names if ".tmp." in n], \
        "expected the orphan temp file the kill left behind"

    # resume sees a consistent (empty) build and completes it cleanly
    store = CheckpointStore(ckdir)
    store.open(context={"build": 1}, resume=True)
    assert store.valid_keys() == []
    store.put("src-a", {"records": [1, 2, 3]})
    assert store.get("src-a") == {"records": [1, 2, 3]}


KILL_RIGHT_AFTER_SHARD_RENAME = """
    import os
    import repro.runtime.atomic as atomic

    from repro.runtime import CheckpointStore
    store = CheckpointStore({ckdir!r})
    store.open(context={{"build": 1}})
    store.put("src-a", {{"records": [1]}})

    real_replace = os.replace
    def kill_on_shard(src, dst):
        real_replace(src, dst)
        if dst == store.path("src-b"):
            os._exit(9)
    atomic.os.replace = kill_on_shard
    store.put("src-b", {{"records": [2]}})      # dies as its shard lands
"""


def test_checkpoint_kill_right_after_shard_rename(tmp_path):
    ckdir = str(tmp_path / "shards")
    proc = _run_child(KILL_RIGHT_AFTER_SHARD_RENAME.format(ckdir=ckdir))
    assert proc.returncode == 9, proc.stderr

    # the shard's rename is the commit point: src-b landed, so it is as
    # valid as src-a, and both verify on resume
    store = CheckpointStore(ckdir)
    store.open(context={"build": 1}, resume=True)
    assert store.valid_keys() == ["src-a", "src-b"]
    assert store.get("src-a") == {"records": [1]}
    assert store.get("src-b") == {"records": [2]}
    # and the interrupted source can still be re-put
    store.put("src-b", {"records": [2]})
    assert store.get("src-b") == {"records": [2]}


CELL_KILL = """
    import os
    import repro.runtime.atomic as atomic

    def killed_replace(src, dst):
        os._exit(9)
    atomic.os.replace = killed_replace

    from repro.campaign import CampaignSpec, CellCache
    spec = CampaignSpec(workloads=("stream",), defenses=("none",),
                        periods=(100,), seeds=(0,), scale=1,
                        max_cycles=2000)
    cell = spec.expand()[0]
    CellCache({cachedir!r}).put(cell, {{"cycles": 1, "committed": 1,
                                        "ipc": 1.0, "windows": 1,
                                        "counters_sha256": "ab" * 32}})
"""


def test_cell_cache_kill_between_tmp_write_and_rename(tmp_path):
    cachedir = str(tmp_path / "cache")
    proc = _run_child(CELL_KILL.format(cachedir=cachedir))
    assert proc.returncode == 9, proc.stderr

    cell = _a_cell()
    names = os.listdir(cachedir)
    assert not [n for n in names if n.endswith(".cell.json")], names
    assert [n for n in names if ".tmp." in n], \
        "expected the orphan temp file the kill left behind"

    # the half-written cell is simply absent — a resumed campaign
    # re-executes it; debris never masquerades as a cache entry
    cache = CellCache(cachedir)
    assert cache.get(cell.fingerprint) is None
    result = {"cycles": 7, "committed": 5, "ipc": 0.71, "windows": 2,
              "counters_sha256": "cd" * 32}
    cache.put(cell, result)
    assert cache.get(cell.fingerprint) == result


# ---------------------------------------------------------------------------
# real SIGKILL at an arbitrary instant


WRITE_LOOP = """
    import sys
    from repro.runtime import CheckpointStore
    store = CheckpointStore({ckdir!r})
    store.open(context={{"build": 1}})
    print("ready", flush=True)
    for i in range(10_000):
        store.put(f"src-{{i:05d}}", {{"records": list(range(i % 7))}})
"""


@pytest.mark.slow
def test_checkpoint_survives_external_sigkill(tmp_path):
    ckdir = str(tmp_path / "shards")
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.Popen(
        [sys.executable, "-c", textwrap.dedent(WRITE_LOOP.format(
            ckdir=ckdir))],
        env=env, stdout=subprocess.PIPE, text=True)
    try:
        assert proc.stdout.readline().strip() == "ready"
        time.sleep(0.35)                 # let an arbitrary prefix land
        os.kill(proc.pid, signal.SIGKILL)
        proc.wait(timeout=30)
    finally:
        if proc.poll() is None:          # pragma: no cover
            proc.kill()
            proc.wait(timeout=30)
    assert proc.returncode == -signal.SIGKILL

    store = CheckpointStore(ckdir)
    store.open(context={"build": 1}, resume=True)
    valid = store.valid_keys()
    assert valid, "kill landed before any shard became durable"
    for key in valid:
        payload = store.get(key)         # every surviving entry verifies
        assert payload["records"] == list(range(int(key[4:]) % 7))
    # and the build completes from where it stopped
    store.put("src-resumed", {"records": [1, 2]})
    assert store.get("src-resumed") == {"records": [1, 2]}


def test_manifest_is_never_torn_by_debris(tmp_path):
    """Stray temp files and unsealed orphan shards are invisible to a
    resumed store (a sealed shard that landed is its key's record)."""
    ckdir = tmp_path / "shards"
    store = CheckpointStore(str(ckdir))
    store.open(context={"build": 1})
    store.put("src-a", {"records": [1]})

    (ckdir / "manifest.json.tmp.debris").write_bytes(b'{"version":')
    (ckdir / "orphan.shard.json").write_bytes(
        json.dumps({"records": [9]}).encode())

    resumed = CheckpointStore(str(ckdir))
    resumed.open(context={"build": 1}, resume=True)
    assert resumed.valid_keys() == ["src-a"]
    assert resumed.get("src-a") == {"records": [1]}
