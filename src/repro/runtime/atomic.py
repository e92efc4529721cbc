"""Atomic file IO primitives.

All durable artifacts of the corpus pipeline (dataset ``.npz`` bundles,
metadata sidecars, checkpoint shards, manifests, campaign cache cells)
are written with write-to-temp + ``os.replace`` so a crash or kill
mid-write can never leave a half-written file under the final name.
Detecting a stale or tampered file at load time is the sealed file's
job (:mod:`repro.runtime.digest`), which writes through here.

Renames alone only order *metadata* within the page cache: after a
power-loss-style kill the directory entry may point at the new file
while neither the data nor the rename has reached the disk.  So the
write protocol also fsyncs the temp file *and* the parent directory on
both sides of the rename — data first, then the directory entry that
names it — which is the full crash-consistency recipe checkpoints and
campaign caches rely on (exercised by ``tests/test_crash_consistency``).

Every completed write is timed into the ``runtime.atomic_write.seconds``
timer (count = writes, total and max = seconds).  On some filesystems
replacing an existing file costs tens of milliseconds, because its old
blocks are freed, while writing a new name costs microseconds; the timer
is where that shows.
"""

import os
import tempfile
import time

from repro.obs import metrics


def fsync_directory(directory):
    """Flush a directory's entry table to stable storage.

    A no-op on platforms (or filesystems) where directories cannot be
    opened or fsynced — durability degrades to plain rename atomicity
    there, which is still crash-safe within a running kernel.
    """
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def atomic_write_bytes(path, data, fsync=True):
    """Write ``data`` to ``path`` atomically (temp file + ``os.replace``).

    The temp file lives in the same directory as the target so the
    replace is a same-filesystem rename.  With ``fsync`` (the default)
    the temp file's data and the parent directory are flushed before
    *and* after the rename, so the artifact survives power-loss-style
    kills, not just process death.
    """
    started = time.perf_counter()
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp_path = tempfile.mkstemp(dir=directory,
                                    prefix=os.path.basename(path) + ".tmp.")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(data)
            f.flush()
            if fsync:
                os.fsync(f.fileno())
        if fsync:
            fsync_directory(directory)
        os.replace(tmp_path, path)
        if fsync:
            fsync_directory(directory)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
    metrics().observe("runtime.atomic_write.seconds",
                      time.perf_counter() - started)


def atomic_write_changed(path, data):
    """:func:`atomic_write_bytes`, unless ``path`` already holds exactly
    ``data``; returns whether it wrote.

    For a run that may reproduce a file it wrote before (a resume with
    nothing left to do): leaving an identical file alone skips the
    replace, the costly write on some hosts.
    """
    try:
        with open(path, "rb") as f:
            if f.read() == data:
                return False
    except FileNotFoundError:
        pass
    atomic_write_bytes(path, data)
    return True
