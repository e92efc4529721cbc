"""Dataset persistence: trace corpora are expensive to collect (they are
full simulations), so they can be saved and reloaded as ``.npz`` bundles
with a JSON sidecar of labels and metadata.

Writes are atomic and verified end to end: both files land via
temp-file + ``os.replace``, the sidecar is a sealed file
(:mod:`repro.runtime.digest`) whose digest covers every label,
category, phase and source, and it embeds the SHA-256 of the raw
``.npz`` payload — so an interrupted or tampered ``save_dataset`` can
never leave a corpus that loads but is silently wrong:
:func:`load_dataset` either verifies the pair or raises a typed
:class:`DatasetError`.

The sidecar is written *first*: a kill between the two replaces leaves
new metadata pointing at the old matrix, which the checksum rejects
loudly, instead of an old sidecar that might coincidentally match a new
matrix.
"""

import io
import zipfile

import numpy as np

from repro.data.dataset import Dataset, SampleRecord
from repro.runtime.atomic import atomic_write_bytes
from repro.runtime.digest import (
    CHECKSUM, SCHEMA, SealedFileError, open_sealed, sha256_bytes,
    write_sealed,
)

#: sealed-sidecar schema; bumped on incompatible layout changes
META_SCHEMA = "repro.corpus/3"


def counter_layout_sha256():
    """SHA-256 over the live counter layout (``COUNTER_NAMES`` in
    order).  Stored in every corpus sidecar so a corpus collected under
    a different layout is detectable by one string comparison instead
    of silently mis-gathering columns."""
    from repro.sim.hpc import COUNTER_NAMES
    return sha256_bytes("\n".join(COUNTER_NAMES).encode())


class DatasetError(ValueError):
    """Base class for corpus load/save failures (a ``ValueError`` so
    legacy callers that caught that still work)."""


class DatasetMissingError(DatasetError):
    """The corpus file or its metadata sidecar does not exist."""


class DatasetCorruptError(DatasetError):
    """A corpus file exists but cannot be parsed (truncated ``.npz``,
    malformed JSON)."""


class DatasetChecksumError(DatasetError):
    """The sidecar or the ``.npz`` payload does not match its digest
    (torn write, stale pair, tampering)."""


class DatasetSchemaError(DatasetError):
    """The pair parses but is internally inconsistent (row-count
    mismatch, missing fields) or the sidecar is in another format."""


def record_to_dict(record, with_deltas=True):
    """JSON-serializable form of one :class:`SampleRecord`."""
    out = {
        "label": record.label,
        "category": record.category,
        "phase": record.phase,
        "source": record.source,
        "commit_index": record.commit_index,
    }
    if with_deltas:
        out["deltas"] = [int(d) for d in record.deltas]
    return out


def record_from_dict(data, deltas=None):
    """Inverse of :func:`record_to_dict` (``deltas`` overrides the
    embedded list when the matrix is stored separately)."""
    if deltas is None:
        deltas = data["deltas"]
    return SampleRecord(
        deltas=list(deltas),
        label=data["label"],
        category=data["category"],
        phase=data["phase"],
        source=data["source"],
        commit_index=data["commit_index"],
    )


def save_dataset(dataset, path):
    """Atomically write a dataset to ``path`` (.npz) plus
    ``path + '.meta.json'`` with embedded checksums."""
    deltas = np.array([r.deltas for r in dataset.records], dtype=np.int64)
    buffer = io.BytesIO()
    np.savez_compressed(buffer, deltas=deltas)
    npz_bytes = buffer.getvalue()
    write_sealed(_meta_path(path), META_SCHEMA, {
        "sample_period": dataset.sample_period,
        "npz_sha256": sha256_bytes(npz_bytes),
        "counters_sha256": counter_layout_sha256(),
        "records": [record_to_dict(r, with_deltas=False)
                    for r in dataset.records],
    })
    atomic_write_bytes(_npz_path(path), npz_bytes)


def load_dataset(path):
    """Load and verify a dataset written by :func:`save_dataset`.

    Raises a typed :class:`DatasetError` subclass on any missing,
    truncated, mismatched or checksum-failing input.
    """
    npz_path, meta_path = _npz_path(path), _meta_path(path)
    meta, digest = _read_meta(meta_path)
    deltas = _read_matrix(npz_path, meta)
    try:
        records = meta["records"]
        sample_period = meta["sample_period"]
    except (KeyError, TypeError) as exc:
        raise DatasetSchemaError(
            f"metadata sidecar {meta_path} missing field: {exc}") from exc
    if len(records) != len(deltas):
        raise DatasetSchemaError(
            f"metadata and matrix row counts differ in {npz_path} "
            f"({len(records)} vs {len(deltas)})")
    dataset = Dataset(sample_period=sample_period)
    dataset.counters_sha256 = meta.get("counters_sha256")
    dataset.content_sha256 = digest
    try:
        for row, rec in zip(deltas, records):
            dataset.records.append(record_from_dict(rec, deltas=row.tolist()))
    except (KeyError, TypeError) as exc:
        raise DatasetSchemaError(
            f"malformed record entry in {meta_path}: {exc}") from exc
    return dataset


def _read_meta(meta_path):
    """The verified sidecar and its digest."""
    try:
        meta, digest = open_sealed(meta_path, META_SCHEMA)
    except FileNotFoundError:
        raise DatasetMissingError(
            f"metadata sidecar not found: {meta_path}") from None
    except SealedFileError as exc:
        error = {CHECKSUM: DatasetChecksumError,
                 SCHEMA: DatasetSchemaError}.get(exc.reason,
                                                 DatasetCorruptError)
        raise error(f"metadata sidecar {exc}") from exc
    if not isinstance(meta, dict):
        raise DatasetSchemaError(
            f"metadata sidecar {meta_path} is not a JSON object")
    return meta, digest


def _read_matrix(npz_path, meta):
    try:
        with open(npz_path, "rb") as f:
            npz_bytes = f.read()
    except FileNotFoundError:
        raise DatasetMissingError(
            f"corpus matrix not found: {npz_path}") from None
    if sha256_bytes(npz_bytes) != meta.get("npz_sha256"):
        raise DatasetChecksumError(
            f"checksum mismatch for {npz_path}: the matrix does not "
            f"match its metadata sidecar (torn write or stale pair)")
    try:
        with np.load(io.BytesIO(npz_bytes)) as data:
            return data["deltas"]
    except KeyError as exc:
        raise DatasetSchemaError(
            f"{npz_path} has no 'deltas' array") from exc
    except (zipfile.BadZipFile, OSError, ValueError, EOFError) as exc:
        raise DatasetCorruptError(
            f"unreadable corpus matrix {npz_path}: {exc}") from exc


def _npz_path(path):
    return path if path.endswith(".npz") else path + ".npz"


def _meta_path(path):
    base = path[:-4] if path.endswith(".npz") else path
    return base + ".meta.json"
