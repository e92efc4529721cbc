"""Checkpoint/resume for long corpus builds.

Completed sources are flushed to one sealed shard per source
(:mod:`repro.runtime.digest`: each shard carries its own digest and its
key, so it verifies itself) plus a sealed ``manifest.json`` holding the
build's *context* (sample period, task keys...) and the key ->
shard-file map.  Everything is written atomically (temp +
``os.replace``), so a kill at any instant leaves either the old or the
new state — never a torn one — and a resumed run can trust the
manifest: it re-simulates only sources whose shard is missing or fails
to verify.

The store is payload-agnostic (it persists JSON documents keyed by task
key); the data layer owns the record <-> JSON mapping.
"""

import os
import re

from repro.runtime.digest import SealedFileError, read_sealed, write_sealed
from repro.runtime.errors import CheckpointError

MANIFEST_NAME = "manifest.json"
MANIFEST_SCHEMA = "repro.checkpoint-manifest/2"
SHARD_SCHEMA = "repro.checkpoint-shard/2"


def _slug(key):
    return re.sub(r"[^A-Za-z0-9._-]+", "_", key)


class CheckpointStore:
    """A directory of per-source shards plus an atomic manifest."""

    def __init__(self, directory):
        self.directory = directory
        self._context, self._shards = {}, {}

    # -- lifecycle ------------------------------------------------------------

    def open(self, context, resume=False):
        """Initialise the store for a build with the given context.

        ``resume=True`` loads an existing manifest (and insists its
        context matches, else :class:`CheckpointError` — resuming a
        *different* build into these shards would corrupt the corpus).
        Otherwise any previous state is cleared.
        """
        os.makedirs(self.directory, exist_ok=True)
        if resume and os.path.exists(self._manifest_path()):
            self._read_manifest()
            if self._context != context:
                raise CheckpointError(
                    f"checkpoint at {self.directory} was built with "
                    f"different settings; re-run without --resume to "
                    f"rebuild it")
        else:
            self.reset()
            self._context = dict(context)
            self._write_manifest()
        return self

    def reset(self):
        """Delete all shards and the manifest."""
        if os.path.isdir(self.directory):
            for name in os.listdir(self.directory):
                if name == MANIFEST_NAME or name.endswith(".shard.json"):
                    try:
                        os.unlink(os.path.join(self.directory, name))
                    except OSError:
                        pass
        self._context, self._shards = {}, {}

    # -- shard access ---------------------------------------------------------

    def path(self, key):
        """Where the shard for ``key`` lives."""
        return os.path.join(self.directory, _slug(key) + ".shard.json")

    def put(self, key, payload):
        """Persist one completed source atomically and register it."""
        path = self.path(key)
        write_sealed(path, SHARD_SCHEMA, {"key": key, "data": payload})
        self._shards[key] = os.path.basename(path)
        self._write_manifest()

    def get(self, key):
        """Load and verify one shard; raises :class:`CheckpointError`
        when the shard is unknown, missing or fails to verify."""
        name = self._shards.get(key)
        if name is None:
            raise CheckpointError(f"no checkpoint shard for {key!r}")
        path = os.path.join(self.directory, name)
        try:
            shard = read_sealed(path, SHARD_SCHEMA)
        except FileNotFoundError:
            raise CheckpointError(
                f"checkpoint shard missing: {path}") from None
        except SealedFileError as exc:
            raise CheckpointError(
                f"checkpoint shard corrupt: {exc}") from exc
        if not isinstance(shard, dict) or shard.get("key") != key:
            raise CheckpointError(
                f"checkpoint shard {path} holds another key's data")
        return shard["data"]

    def valid_keys(self):
        """Keys whose shard exists on disk and verifies.

        Invalid entries are dropped from the in-memory manifest so the
        build re-simulates them (graceful self-healing on resume).
        """
        good = []
        for key in list(self._shards):
            try:
                self.get(key)
            except CheckpointError:
                del self._shards[key]
            else:
                good.append(key)
        return good

    def has(self, key):
        return key in self._shards

    # -- manifest -------------------------------------------------------------

    def _manifest_path(self):
        return os.path.join(self.directory, MANIFEST_NAME)

    def _read_manifest(self):
        path = self._manifest_path()
        try:
            manifest = read_sealed(path, MANIFEST_SCHEMA)
            self._context = manifest["context"]
            self._shards = dict(manifest["shards"])
        except (OSError, SealedFileError) as exc:
            raise CheckpointError(
                f"unusable checkpoint manifest: {exc}; re-run without "
                f"--resume to rebuild it") from exc
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(
                f"malformed checkpoint manifest {path}: {exc}") from exc

    def _write_manifest(self):
        write_sealed(self._manifest_path(), MANIFEST_SCHEMA,
                     {"context": self._context, "shards": self._shards})
