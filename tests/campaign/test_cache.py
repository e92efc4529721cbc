"""CellCache: verified reads, corruption taxonomy, quarantine."""

import json
import os

import pytest

from repro.campaign import CampaignSpec, CellCache, CellCorruptError
from repro.campaign.cache import CELL_SCHEMA
from repro.runtime.digest import read_sealed, write_sealed

RESULT = {"cycles": 420, "committed": 300, "ipc": 0.7143, "windows": 3,
          "counters_sha256": "ab" * 32}


@pytest.fixture()
def cell():
    spec = CampaignSpec(workloads=("stream",), defenses=("none",),
                        periods=(100,), seeds=(0,), scale=1,
                        max_cycles=2000)
    return spec.expand()[0]


@pytest.fixture()
def cache(tmp_path):
    return CellCache(str(tmp_path / "cache"))


def test_put_get_round_trip(cache, cell):
    assert cache.get(cell.fingerprint) is None
    assert not cache.has_valid(cell.fingerprint)
    path = cache.put(cell, RESULT)
    assert path == cache.entry_path(cell.fingerprint)
    assert cache.get(cell.fingerprint) == RESULT
    assert cache.has_valid(cell.fingerprint)


def test_entry_is_keyed_by_fingerprint_not_campaign(cache, cell):
    """Content addressing: any campaign covering this cell hits the
    same entry; a fresh CellCache object sees it immediately."""
    cache.put(cell, RESULT)
    other = CellCache(cache.directory)
    assert other.get(cell.fingerprint) == RESULT


def _mangle(cache, cell, fn):
    path = cache.entry_path(cell.fingerprint)
    data = path and open(path, "rb").read()
    with open(path, "wb") as f:
        f.write(fn(data))


def test_unparseable_entry(cache, cell):
    cache.put(cell, RESULT)
    _mangle(cache, cell, lambda d: d[: len(d) // 3])        # truncated
    with pytest.raises(CellCorruptError) as exc:
        cache.get(cell.fingerprint)
    assert exc.value.reason == "unparseable"
    assert not cache.has_valid(cell.fingerprint)


def test_wrong_schema_entry(cache, cell):
    cache.put(cell, RESULT)
    entry = json.loads(open(cache.entry_path(cell.fingerprint)).read())
    entry["schema"] = "repro.campaign-cell/999"
    _mangle(cache, cell, lambda d: json.dumps(entry).encode())
    with pytest.raises(CellCorruptError) as exc:
        cache.get(cell.fingerprint)
    assert exc.value.reason == "schema"


def test_misfiled_entry_fails_fingerprint_check(cache, cell):
    """An entry renamed to another cell's fingerprint cannot masquerade
    as that cell."""
    cache.put(cell, RESULT)
    bogus = "0" * 64
    os.rename(cache.entry_path(cell.fingerprint), cache.entry_path(bogus))
    with pytest.raises(CellCorruptError) as exc:
        cache.get(bogus)
    assert exc.value.reason == "fingerprint"


def test_tampered_config_fails_fingerprint_check(cache, cell):
    """A config edited and resealed passes the checksum, but no longer
    hashes to the entry's name."""
    cache.put(cell, RESULT)
    path = cache.entry_path(cell.fingerprint)
    entry = read_sealed(path, CELL_SCHEMA)
    entry["config"]["seed"] = 999
    write_sealed(path, CELL_SCHEMA, entry)
    with pytest.raises(CellCorruptError) as exc:
        cache.get(cell.fingerprint)
    assert exc.value.reason == "fingerprint"


def test_tampered_result_fails_checksum(cache, cell):
    cache.put(cell, RESULT)
    entry = json.loads(open(cache.entry_path(cell.fingerprint)).read())
    entry["payload"]["result"]["ipc"] = 9.99        # silent result flip
    _mangle(cache, cell, lambda d: json.dumps(entry).encode())
    with pytest.raises(CellCorruptError) as exc:
        cache.get(cell.fingerprint)
    assert exc.value.reason == "checksum"


def test_single_flipped_byte_is_caught(cache, cell):
    cache.put(cell, RESULT)

    def flip(data):
        pos = len(data) // 2
        return data[:pos] + bytes([(data[pos] + 1) % 256]) + data[pos + 1:]

    _mangle(cache, cell, flip)
    with pytest.raises(CellCorruptError):
        cache.get(cell.fingerprint)


def test_quarantine_preserves_and_hides(cache, cell):
    cache.put(cell, RESULT)
    dst = cache.quarantine(cell.fingerprint, reason="checksum")
    assert os.path.exists(dst)
    assert "quarantine" in dst and "checksum" in dst
    # hidden from lookups, but preserved for forensics
    assert cache.get(cell.fingerprint) is None
    assert cache.quarantined() == [os.path.basename(dst)]
    # quarantining a vanished entry is a no-op, not an error
    assert cache.quarantine(cell.fingerprint, reason="checksum") is None


def test_quarantine_name_collisions_get_a_counter(cache, cell):
    names = set()
    for _ in range(3):
        cache.put(cell, RESULT)
        names.add(os.path.basename(
            cache.quarantine(cell.fingerprint, reason="checksum")))
    assert len(names) == 3
    assert sorted(names) == cache.quarantined()
