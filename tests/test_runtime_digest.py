"""The digest module: canonical JSON, fingerprints that cover every
dataclass field by construction, and the one sealed-file format under
every single-byte flip and every truncation."""

import dataclasses
import enum
import json
import os

import numpy as np
import pytest

from repro.arena import ArenaSpec
from repro.arena.genome import genome_key
from repro.arena.loop import _detector_fingerprint
from repro.campaign import CampaignSpec, CellCache
from repro.campaign.orchestrator import run_cell
from repro.campaign.spec import CampaignCell
from repro.core.perceptron import HardwareDetector, evax_schema
from repro.runtime.digest import (
    SealedFileError, canonical, fingerprint, open_sealed, quarantine,
    read_sealed, write_sealed,
)

# ---------------------------------------------------------------------------
# canonical form


def test_canonical_is_compact_and_sorted():
    assert canonical({"b": 1, "a": [1, (2, 3)], "c": None}) == \
        '{"a":[1,[2,3]],"b":1,"c":null}'


def test_canonical_serialises_dataclasses_by_field_and_enums_by_value():
    class Mode(enum.Enum):
        FAST = "fast"

    @dataclasses.dataclass
    class Knobs:
        mode: Mode
        sizes: tuple

    assert canonical(Knobs(Mode.FAST, (1, 2))) == \
        '{"mode":"fast","sizes":[1,2]}'


@pytest.mark.parametrize("value", [object(), {1, 2}, np.int64(3), b"raw"])
def test_canonical_refuses_other_types(value):
    with pytest.raises(TypeError):
        canonical({"value": value})


# ---------------------------------------------------------------------------
# fingerprints by construction


def _perturbed(value):
    """A different value of the same shape."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value + 1
    if isinstance(value, str):
        return value + "-x"
    if isinstance(value, tuple):
        return value + (value[:1] or (1,))
    assert value is None
    return 1


def _cell():
    return CampaignCell(index=3, kind="wl", name="stream", defense="none",
                        period=100, seed=0, scale=1, max_cycles=None)


SPECS = {
    "CampaignCell": _cell,
    "CampaignSpec": lambda: CampaignSpec(
        workloads=("stream",), attacks=("meltdown",), defenses=("none",),
        periods=(100,), seeds=(0,), tenancies=("single",), scale=1),
    "ArenaSpec": ArenaSpec,
}


@pytest.mark.parametrize("name", sorted(SPECS))
def test_every_field_moves_the_fingerprint_unless_it_opts_out(name):
    base = SPECS[name]()
    for f in dataclasses.fields(base):
        changed = dataclasses.replace(
            base, **{f.name: _perturbed(getattr(base, f.name))})
        moved = changed.fingerprint != base.fingerprint
        assert moved == f.metadata.get("fingerprint", True), f.name


def test_the_only_opt_out_is_the_cell_index():
    opt_outs = {(cls.__name__, f.name)
                for cls in (CampaignCell, CampaignSpec, ArenaSpec)
                for f in dataclasses.fields(cls)
                if not f.metadata.get("fingerprint", True)}
    assert opt_outs == {("CampaignCell", "index")}
    index = next(f for f in dataclasses.fields(CampaignCell)
                 if f.name == "index")
    assert index.metadata["why"]


def test_an_opt_out_without_a_why_raises():
    @dataclasses.dataclass
    class Unexplained:
        kept: int
        dropped: int = dataclasses.field(default=0,
                                         metadata={"fingerprint": False})

    with pytest.raises(TypeError, match="without saying why"):
        fingerprint(Unexplained(1))


def test_cell_config_hashes_to_the_cell_fingerprint(tmp_path):
    """``config()`` is what the cache stores and re-hashes on read."""
    spec = CampaignSpec(workloads=("stream", "sort"), attacks=("lvi",),
                        defenses=("none", "fence-spectre"),
                        tenancies=("single", "smt"))
    cache = CellCache(str(tmp_path))
    for cell in spec.expand():
        assert "index" not in cell.config()
        assert fingerprint(cell.config()) == cell.fingerprint
        cache.put(cell, {"cycles": cell.index})
        assert cache.get(cell.fingerprint) == {"cycles": cell.index}


def test_to_dict_round_trips_through_from_dict():
    spec = SPECS["CampaignSpec"]()
    assert CampaignSpec.from_dict(spec.to_dict()).fingerprint == \
        spec.fingerprint
    assert ArenaSpec(**ArenaSpec().to_dict()).fingerprint == \
        ArenaSpec().fingerprint


# perfbench's arena and campaign digests and the arena's ranking
# tie-break depend on these values: they must not move
def test_pinned_fingerprints_are_unchanged():
    assert ArenaSpec().fingerprint == \
        "08e664444b981118c292b106c6818a79913e056bedb7c7ffd0f70fab030612e5"
    genome = {"tool": "osiris", "seed": 40966, "nop_rate": 0.4486,
              "prefetch_rate": 0.1939, "camouflage_actors": 2,
              "family": "FlushFlush", "secret_n": 3}
    assert genome_key(genome) == "1ed0aafe8d0c"
    detector = HardwareDetector(evax_schema(), seed=3, threshold=0.7)
    assert _detector_fingerprint(detector) == \
        "8b12b10db8e2eaffbe842e13b1c51ad08da1bd7a2f894d6464d2583ee2dece6a"


def test_pinned_cell_counters_digest_is_unchanged():
    cell = dataclasses.replace(_cell(), max_cycles=2000)
    assert run_cell((cell.config(), 0))["counters_sha256"] == \
        "d4238e6de5cc0b07a1e84b8f37fa18eed16cb11f70fdf12330e82e643ecefe3b"


# ---------------------------------------------------------------------------
# the sealed file

SCHEMA = "repro.test/1"
PAYLOAD = {"name": "café", "values": [1, 2.5, -3, 1e-05],
           "flag": True, "none": None, "nested": {"b": [], "a": "x\ny"}}


@pytest.fixture()
def sealed(tmp_path):
    path = str(tmp_path / "sealed.json")
    write_sealed(path, SCHEMA, PAYLOAD)
    return path


def test_round_trip_and_layout(sealed):
    assert read_sealed(sealed, SCHEMA) == PAYLOAD
    raw = open(sealed, "rb").read()
    assert raw.startswith(b'{"schema":"repro.test/1","sha256":"')
    data = json.loads(raw)
    assert sorted(data) == ["payload", "schema", "sha256"]
    assert data["sha256"] == fingerprint(PAYLOAD)


def test_open_sealed_returns_the_payload_and_the_digest_it_verified(sealed):
    payload, digest = open_sealed(sealed, SCHEMA)
    assert payload == PAYLOAD
    assert digest == fingerprint(PAYLOAD) \
        == json.loads(open(sealed, "rb").read())["sha256"]


def test_open_sealed_refuses_what_read_sealed_refuses(sealed, tmp_path):
    data = json.loads(open(sealed, "rb").read())
    data["payload"]["flag"] = False
    with open(sealed, "w") as f:
        json.dump(data, f)
    for read in (read_sealed, open_sealed):
        with pytest.raises(SealedFileError) as exc:
            read(sealed, SCHEMA)
        assert exc.value.reason == "checksum"
        with pytest.raises(FileNotFoundError):
            read(str(tmp_path / "absent.json"), SCHEMA)


def _expected_reason(raw):
    """The reason a reader must give for ``raw``, by an independent
    parse."""
    try:
        data = json.loads(raw.decode())
    except (ValueError, UnicodeDecodeError):
        return "unparseable"
    if not isinstance(data, dict):
        return "unparseable"
    return "schema" if data.get("schema") != SCHEMA else "checksum"


def _reason(path, raw):
    with open(path, "wb") as f:
        f.write(raw)
    with pytest.raises(SealedFileError) as exc:
        read_sealed(path, SCHEMA)
    return exc.value.reason


def test_every_single_byte_flip_is_rejected(sealed):
    good = open(sealed, "rb").read()
    seen = set()
    for pos in range(len(good)):
        for byte in ((good[pos] + 1) % 256, good[pos] ^ 0x01):
            raw = good[:pos] + bytes([byte]) + good[pos + 1:]
            reason = _reason(sealed, raw)
            assert reason == _expected_reason(raw), (pos, raw)
            seen.add(reason)
    assert seen == {"unparseable", "schema", "checksum"}


def test_every_truncation_is_rejected(sealed):
    good = open(sealed, "rb").read()
    for cut in range(len(good)):
        assert _reason(sealed, good[:cut]) == "unparseable", cut


def test_wrong_schema_missing_and_unreadable(sealed, tmp_path):
    with pytest.raises(SealedFileError) as exc:
        read_sealed(sealed, "repro.test/2")
    assert exc.value.reason == "schema"
    assert "repro.test/2" in str(exc.value)
    with pytest.raises(FileNotFoundError):
        read_sealed(str(tmp_path / "absent.json"), SCHEMA)
    with pytest.raises(SealedFileError) as exc:
        read_sealed(str(tmp_path), SCHEMA)          # a directory
    assert exc.value.reason == "unreadable"


def test_quarantine_splices_the_reason_and_counts_collisions(tmp_path):
    paths = []
    for _ in range(2):
        path = str(tmp_path / "abc.cell.json")
        write_sealed(path, SCHEMA, PAYLOAD)
        paths.append(quarantine(path, "checksum"))
    assert [os.path.basename(p) for p in paths] == [
        "abc.checksum.cell.json", "abc.checksum.1.cell.json"]
    assert all(os.path.dirname(p) == str(tmp_path / "quarantine")
               for p in paths)
    assert quarantine(str(tmp_path / "abc.cell.json"), "checksum") is None
