"""The one digest primitive and the one sealed-file format.

Every fingerprint and every checksum in the package comes from here; no
other module under ``src/repro`` imports ``hashlib`` (the static gate's
``digest-module`` check enforces it).

* :func:`canonical` — compact, sorted-key JSON.  A dataclass serialises
  as the mapping of its fingerprinted fields and an enum as its value;
  any other non-JSON type raises ``TypeError`` rather than being
  stringified into something that merely looks stable.
* :func:`fingerprint` — the SHA-256 of :func:`canonical`.  A dataclass
  contributes every field unless the field opts out with
  ``field(metadata={"fingerprint": False, "why": "..."})``, so a field
  added later is covered by construction.
* :func:`write_sealed` / :func:`read_sealed` — one self-verifying file:
  ``{"schema", "sha256", "payload"}``, the digest taken over
  ``canonical(payload)``, written through
  :func:`~repro.runtime.atomic.atomic_write_bytes`.  A read returns the
  payload (:func:`open_sealed`: the payload and its verified digest) or
  raises :class:`SealedFileError` whose ``reason`` is ``unreadable``,
  ``unparseable``, ``schema`` or ``checksum``; a missing file raises
  ``FileNotFoundError``, because absence is not corruption.
* :func:`quarantine` — move a file that failed verification aside,
  preserved for forensics and out of every lookup.
"""

import dataclasses
import enum
import functools
import hashlib
import json
import os

from repro.runtime.atomic import atomic_write_bytes
from repro.runtime.errors import RuntimeTaskError

#: subdirectory (next to the offending file) that quarantined files move to
QUARANTINE_DIR = "quarantine"

#: the reasons a sealed file can fail to open
UNREADABLE = "unreadable"
UNPARSEABLE = "unparseable"
SCHEMA = "schema"
CHECKSUM = "checksum"


class SealedFileError(RuntimeTaskError):
    """A sealed file exists but cannot be trusted.  ``reason`` is one of
    ``unreadable``, ``unparseable``, ``schema`` or ``checksum``."""

    def __init__(self, message, reason):
        super().__init__(message)
        self.reason = reason


# -- digests ------------------------------------------------------------------

@functools.cache
def _hashed_names(cls):
    """Names of ``cls``'s fingerprinted fields, in declaration order."""
    names = []
    for f in dataclasses.fields(cls):
        if f.metadata.get("fingerprint", True):
            names.append(f.name)
        elif not f.metadata.get("why"):
            raise TypeError(
                f"{cls.__name__}.{f.name} opts out of the fingerprint "
                f"without saying why")
    return tuple(names)


def hashed_fields(obj):
    """A dataclass instance's fingerprinted fields as a dict, in
    declaration order and with tuples as lists: what :func:`canonical`
    serialises it as."""
    out = {}
    for name in _hashed_names(type(obj)):
        value = getattr(obj, name)
        out[name] = list(value) if isinstance(value, tuple) else value
    return out


def _encode(obj):
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return hashed_fields(obj)
    if isinstance(obj, enum.Enum):
        return obj.value
    raise TypeError(f"{type(obj).__name__} has no canonical JSON form")


def canonical(obj):
    """Compact, sorted-key JSON text of ``obj``."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      default=_encode)


def sha256_bytes(data):
    """Hex SHA-256 of raw bytes (files kept outside a sealed payload)."""
    return hashlib.sha256(data).hexdigest()


def fingerprint(obj):
    """Hex SHA-256 of :func:`canonical` ``(obj)``."""
    return sha256_bytes(canonical(obj).encode())


# -- the sealed file ----------------------------------------------------------

def write_sealed(path, schema, payload):
    """Atomically write ``payload`` to ``path`` as a sealed file.

    The payload is serialised once: its canonical text is both what the
    digest covers and what the file embeds.
    """
    body = canonical(payload)
    head = json.dumps({"schema": schema, "sha256": sha256_bytes(
        body.encode())}, separators=(",", ":"))
    atomic_write_bytes(path, f'{head[:-1]},"payload":{body}}}'.encode())


def read_sealed(path, schema):
    """The payload of the sealed file at ``path``, verified.

    Raises ``FileNotFoundError`` when there is no file and
    :class:`SealedFileError` when there is one that cannot be trusted.
    """
    return open_sealed(path, schema)[0]


def open_sealed(path, schema):
    """``(payload, digest)`` of the sealed file at ``path``: the digest
    the payload was just verified against, i.e. the content address of
    the file's payload.  Raises as :func:`read_sealed` does."""
    try:
        with open(path, "rb") as f:
            raw = f.read()
    except FileNotFoundError:
        raise
    except OSError as exc:
        raise SealedFileError(f"unreadable file {path}: {exc}",
                              UNREADABLE) from exc
    try:
        sealed = json.loads(raw.decode())
    except (ValueError, UnicodeDecodeError) as exc:
        raise SealedFileError(f"unparseable file {path}: {exc}",
                              UNPARSEABLE) from exc
    if not isinstance(sealed, dict):
        raise SealedFileError(f"unparseable file {path}: not a JSON object",
                              UNPARSEABLE)
    found = sealed.get("schema")
    if found != schema:
        raise SealedFileError(
            f"{path} is not a sealed {schema!r} file (schema {found!r}); "
            f"a file written before the {schema!r} format must be "
            f"regenerated", SCHEMA)
    payload = sealed.get("payload")
    digest = fingerprint(payload)
    if digest != sealed.get("sha256"):
        raise SealedFileError(
            f"checksum mismatch for {path}: the payload does not match "
            f"its embedded digest (torn write, bit rot or tampering)",
            CHECKSUM)
    return payload, digest


def quarantine(path, reason):
    """Move ``path`` into the ``quarantine/`` directory beside it, its
    ``reason`` spliced into the name after the first dot-component
    (``<fp>.cell.json`` -> ``<fp>.checksum.cell.json``).  Returns the new
    path, or ``None`` when the file had already vanished."""
    if not os.path.exists(path):
        return None
    qdir = os.path.join(os.path.dirname(path), QUARANTINE_DIR)
    os.makedirs(qdir, exist_ok=True)
    stem, dot, rest = os.path.basename(path).partition(".")
    dst = os.path.join(qdir, f"{stem}.{reason}{dot}{rest}")
    n = 0
    while os.path.exists(dst):
        n += 1
        dst = os.path.join(qdir, f"{stem}.{reason}.{n}{dot}{rest}")
    os.replace(path, dst)
    return dst
