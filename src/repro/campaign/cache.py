"""Content-addressed, SHA-256-verified cell cache.

One sealed entry per completed matrix cell (:mod:`repro.runtime.digest`),
named by the cell's fingerprint — so the cache is *inherently* resumable
and shareable: re-running any campaign whose spec covers a cached cell
hits the same entry, regardless of which run produced it.  Entries are
written atomically + durably and every read is verified end to end:

* the file must parse, carry the expected schema and match its digest;
* the embedded config must re-hash to the entry's file name (a
  renamed/misfiled entry cannot masquerade as another cell).

Any violation raises :class:`~repro.runtime.errors.CellCorruptError`
and :meth:`CellCache.quarantine` moves the offender into a
``quarantine/`` subdirectory — preserved for forensics, invisible to
future lookups — so a flipped bit degrades one cell, never the run.
"""

import os

from repro.runtime.digest import (
    QUARANTINE_DIR, SealedFileError, fingerprint, quarantine, read_sealed,
    write_sealed,
)
from repro.runtime.errors import CellCorruptError

#: bumped when the entry layout changes incompatibly
CELL_SCHEMA = "repro.campaign-cell/2"


class CellCache:
    """A directory of fingerprint-named, sealed cell entries."""

    def __init__(self, directory):
        self.directory = directory

    def entry_path(self, fp):
        return os.path.join(self.directory, f"{fp}.cell.json")

    # -- writes ---------------------------------------------------------------

    def put(self, cell, result):
        """Persist one completed cell atomically; returns the path."""
        path = self.entry_path(cell.fingerprint)
        write_sealed(path, CELL_SCHEMA, {
            "fingerprint": cell.fingerprint,
            "key": cell.key,
            "config": cell.config(),
            "result": result,
        })
        return path

    # -- verified reads -------------------------------------------------------

    def get(self, fp):
        """Load and verify the entry for fingerprint ``fp``.

        Returns the result payload, ``None`` when no entry exists, and
        raises :class:`CellCorruptError` when an entry exists but fails
        any verification step.
        """
        path = self.entry_path(fp)
        try:
            entry = read_sealed(path, CELL_SCHEMA)
        except FileNotFoundError:
            return None
        except SealedFileError as exc:
            raise CellCorruptError(f"cache entry {exc}",
                                   reason=exc.reason) from exc
        if not isinstance(entry, dict) or entry.get("fingerprint") != fp \
                or fingerprint(entry.get("config")) != fp:
            raise CellCorruptError(
                f"cache entry {path} fingerprint mismatch "
                f"(misfiled or tampered config)", reason="fingerprint")
        return entry.get("result")

    def has_valid(self, fp):
        """Whether a verified entry exists (corrupt counts as absent)."""
        try:
            return self.get(fp) is not None
        except CellCorruptError:
            return False

    # -- quarantine -----------------------------------------------------------

    def quarantine(self, fp, reason="corrupt"):
        """Move a bad entry out of the lookup namespace, preserving it
        under ``quarantine/`` for forensics.  Returns the new path, or
        ``None`` when the entry had already vanished."""
        return quarantine(self.entry_path(fp), reason)

    def quarantined(self):
        """File names currently held in quarantine (sorted)."""
        qdir = os.path.join(self.directory, QUARANTINE_DIR)
        if not os.path.isdir(qdir):
            return []
        return sorted(os.listdir(qdir))
