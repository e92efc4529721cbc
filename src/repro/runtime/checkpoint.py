"""Checkpoint/resume for long corpus builds.

Each completed source is flushed to one sealed shard
(:mod:`repro.runtime.digest`) that carries its own digest and key, so
it verifies itself and is the source's record.  The sealed
``manifest.json`` holds only the build's *context* (sample period, task
keys...) and is written once, by a fresh build after it has deleted
every shard, so any shard on disk belongs to the build the manifest
names.  Everything is written atomically (temp + ``os.replace``), so a
kill at any instant leaves either the old or the new state — never a
torn one — and a resumed run re-simulates only sources whose shard is
missing or fails to verify.

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
    """Self-verifying per-source shards plus their build's manifest."""

    def __init__(self, directory):
        self.directory = directory

    # -- lifecycle ------------------------------------------------------------

    def open(self, context, resume=False):
        """Initialise the store for a build with the given context.

        ``resume=True`` loads an existing manifest (and insists its
        context matches, else :class:`CheckpointError` — resuming a
        *different* build into these shards would corrupt the corpus).
        Otherwise any previous state is cleared and the manifest written.
        """
        os.makedirs(self.directory, exist_ok=True)
        if resume and os.path.exists(self._manifest_path()):
            if self._read_context() != context:
                raise CheckpointError(
                    f"checkpoint at {self.directory} was built with "
                    f"different settings; re-run without --resume to "
                    f"rebuild it")
        else:
            self.reset()
            write_sealed(self._manifest_path(), MANIFEST_SCHEMA,
                         {"context": dict(context)})
        return self

    def reset(self):
        """Delete all shards and the manifest.  A file that cannot be
        deleted raises :class:`CheckpointError`: a shard left behind
        would pass for the next build's."""
        if os.path.isdir(self.directory):
            for name in os.listdir(self.directory):
                if name == MANIFEST_NAME or name.endswith(".shard.json"):
                    try:
                        os.unlink(os.path.join(self.directory, name))
                    except FileNotFoundError:
                        pass
                    except OSError as exc:
                        raise CheckpointError(
                            f"cannot clear checkpoint {self.directory}: "
                            f"{exc}") from exc

    # -- shard access ---------------------------------------------------------

    def path(self, key):
        """Where the shard for ``key`` lives."""
        return os.path.join(self.directory, _slug(key) + ".shard.json")

    def put(self, key, payload):
        """Persist one completed source atomically: the shard is its record."""
        write_sealed(self.path(key), SHARD_SCHEMA,
                     {"key": key, "data": payload})

    def get(self, key):
        """Load and verify one shard; raises :class:`CheckpointError`
        when the shard is missing, fails to verify or holds another
        key."""
        found, data = self._read(self.path(key))
        if found != key:                # two keys with one slug
            raise CheckpointError(
                f"checkpoint shard for {key!r} holds another key's data")
        return data

    def valid_keys(self):
        """Sorted keys of the shards on disk that verify and sit at
        their own key's path (the store re-simulates the rest)."""
        return sorted(key for key, _ in self.verified())

    def verified(self):
        """Yield ``(key, data)`` for each shard :meth:`valid_keys`
        names, in file-name order, reading each shard once: a resume
        takes its restored data from here instead of a second
        :meth:`get`."""
        for name in sorted(os.listdir(self.directory)):
            if name.endswith(".shard.json"):
                try:
                    yield self._read(os.path.join(self.directory, name))
                except CheckpointError:
                    pass

    def has(self, key):
        """Whether a shard claims ``key``, verified or not."""
        return os.path.exists(self.path(key))

    def _read(self, path):
        """``(key, data)`` of the verified shard at ``path``."""
        try:
            shard = read_sealed(path, SHARD_SCHEMA)
        except (FileNotFoundError, SealedFileError) as exc:
            raise CheckpointError(
                f"unusable checkpoint shard: {exc}") from exc
        key = shard.get("key") if isinstance(shard, dict) else None
        if not isinstance(key, str) or self.path(key) != path:
            raise CheckpointError(
                f"checkpoint shard {path} holds another key's data")
        return key, shard["data"]

    # -- manifest -------------------------------------------------------------

    def _manifest_path(self):
        return os.path.join(self.directory, MANIFEST_NAME)

    def _read_context(self):
        path = self._manifest_path()
        try:
            return read_sealed(path, MANIFEST_SCHEMA)["context"]
        except (OSError, SealedFileError) as exc:
            raise CheckpointError(
                f"unusable checkpoint manifest: {exc}; re-run without "
                f"--resume to rebuild it") from exc
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(
                f"malformed checkpoint manifest {path}: {exc}") from exc
