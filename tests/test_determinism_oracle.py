"""The determinism oracle: every persisting CLI flow, run twice, writes
the same bytes.

The reproduced figures mean something only if every persisted trace,
checkpoint, cache entry and ledger is a pure function of (workload,
seed): nondeterministic traces are the validity threat FortuneTeller
(Gulmezoglu et al.) names for HPC detectors.  The per-file determinism
checks ban the sources in the layers that compute; this oracle checks
what is persisted, directly.  It drives the four flows that persist
state through the CLI, with ``--no-manifest`` and absolute paths:

* ``collect --jobs 2`` — the corpus and its checkpoint shards;
* ``train --checkpoint-every`` — the detector and training checkpoints;
* ``campaign`` over two defenses — the cell cache and the ledger;
* ``arena`` over two generations — generation checkpoints, genome keys.

Each flow runs twice, each run in its own directory.  The second run
changes every input a result must not depend on: ``PYTHONHASHSEED``
(set iteration), the working directory and every output path (embedded
paths), and one unrelated environment variable (``os.environ`` reads);
and it is a fresh interpreter started later (wall clock, unseeded RNG,
``id()``).  Both runs must write the same relative file names (cache
entries are named by fingerprint); every non-JSON file must be
byte-identical, and every JSON file, plain or sealed, equal as a parsed
value once the lineage and wall-time keys in :data:`VOLATILE_KEYS` are
removed.

Run as a script, it prints one verdict per file written::

    PYTHONPATH=src python tests/test_determinism_oracle.py
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

#: the only JSON keys whose values may differ between the two runs: run
#: lineage and wall time
VOLATILE_KEYS = frozenset({"run", "run_id", "parent_run", "elapsed_s",
                           "seconds"})

#: the sealed-file envelope (``repro.runtime.digest``): its digest is
#: taken over the payload, volatile keys included, so only the schema
#: and the payload are compared
SEALED = {"schema", "sha256", "payload"}

#: ``(directory, environment)`` of each run: the second moves every path
#: and the working directory, reseeds string hashing and adds a variable
#: nothing should read
RUNS = (("first", {"PYTHONHASHSEED": "1"}),
        ("second-run-elsewhere", {"PYTHONHASHSEED": "2",
                                  "REPRO_ORACLE_UNRELATED": "1"}))

#: ``python -c`` program: an optional prelude, then the CLI on argv
BOOT = ("import sys\nfrom repro.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n")


def campaign_flow(out):
    """Two defenses over one workload and one attack: four cache entries
    and the ledger."""
    return [["campaign", str(out / "camp"), "--workloads", "stream",
             "--attacks", "meltdown", "--defenses", "none",
             "fence-spectre", "--scale", "1", "--max-cycles", "20000",
             "--jobs", "1"]]


def persisting_flows(out):
    """Every persisting flow, paths absolute under ``out``; train reads
    the corpus collect wrote."""
    corpus = str(out / "corpus")
    return [
        ["collect", corpus, "--seeds", "1", "--scale", "1",
         "--period", "1000", "--jobs", "2"],
        ["train", corpus, "--out", str(out / "det.json"),
         "--iterations", "10", "--checkpoint-every", "5"],
        *campaign_flow(out),
        ["arena", str(out / "race"), "--generations", "2",
         "--population", "3", "--survivors", "1", "--attacks", "meltdown",
         "--workloads", "stream", "--period", "200", "--iterations", "4",
         "--fp-budget", "0.5", "--fn-budget", "0.5", "--jobs", "1"],
    ]


def run_twice(root, flows, prelude=""):
    """Run ``flows`` once per entry of :data:`RUNS`, each flow in a fresh
    interpreter, and return the two run directories."""
    directories = []
    for name, extra in RUNS:
        directory = root / name
        out = directory / "out"
        out.mkdir(parents=True)
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"), **extra)
        for argv in flows(out):
            proc = subprocess.run(
                [sys.executable, "-c", prelude + BOOT, *argv,
                 "--no-manifest"],
                cwd=directory, env=env, capture_output=True, text=True)
            assert proc.returncode == 0, \
                f"{name}: repro {argv[0]} exited {proc.returncode}\n" \
                f"{proc.stdout}{proc.stderr}"
        directories.append(directory)
    return directories


def _files(root):
    return {path.relative_to(root).as_posix(): path
            for path in root.rglob("*") if path.is_file()}


def _parsed(path):
    value = json.loads(path.read_bytes())
    if isinstance(value, dict) and value.keys() == SEALED:
        del value["sha256"]
    return value


def differences(first, second, where="$"):
    """Paths at which two parsed JSON values differ, ignoring
    :data:`VOLATILE_KEYS` at any depth."""
    if isinstance(first, dict) and isinstance(second, dict):
        found = []
        for key in sorted(first.keys() | second.keys()):
            if key in VOLATILE_KEYS:
                continue
            if key not in first or key not in second:
                found.append(f"{where}.{key}")
            else:
                found += differences(first[key], second[key],
                                     f"{where}.{key}")
        return found
    if isinstance(first, list) and isinstance(second, list) \
            and len(first) == len(second):
        return [d for i, (a, b) in enumerate(zip(first, second))
                for d in differences(a, b, f"{where}[{i}]")]
    same = json.dumps(first, sort_keys=True) == \
        json.dumps(second, sort_keys=True)
    return [] if same else [where]


def verdicts(first, second):
    """``{relative name: what differs}`` for every file either run
    wrote; an empty string means the runs agree on it."""
    a, b = _files(first), _files(second)
    out = {}
    for name in sorted(a.keys() | b.keys()):
        if name not in a or name not in b:
            out[name] = "written by one run only"
        elif name.endswith(".json"):
            out[name] = ", ".join(differences(_parsed(a[name]),
                                              _parsed(b[name])))
        else:
            out[name] = "" if a[name].read_bytes() == b[name].read_bytes() \
                else "bytes differ"
    return out


def mismatches(found):
    return {name: what for name, what in found.items() if what}


# ---------------------------------------------------------------------------


def test_every_persisting_flow_writes_the_same_bytes_twice(tmp_path):
    found = verdicts(*run_twice(tmp_path, persisting_flows))
    assert mismatches(found) == {}
    # each flow's persisted state was compared, not skipped
    for name in ("corpus.npz", "corpus.shards/manifest.json", "det.json",
                 "det.json.train-ckpt/manifest.json", "camp/campaign.json",
                 "race/checkpoints/gen-2.shard.json", "race/detector.json"):
        assert f"out/{name}" in found
    assert sum(name.startswith("out/camp/cache/") for name in found) == 4


#: makes the campaign ledger record the wall clock under a key the
#: oracle does not allow to differ
WALL_CLOCK_LEDGER = """\
import time
from repro.campaign import orchestrator
_build = orchestrator.build_campaign_manifest
orchestrator.build_campaign_manifest = lambda *args, **kwargs: dict(
    _build(*args, **kwargs), written_at=time.time())
"""


def test_a_wall_clock_in_the_campaign_ledger_is_caught(tmp_path):
    found = verdicts(*run_twice(tmp_path, campaign_flow,
                                prelude=WALL_CLOCK_LEDGER))
    assert mismatches(found) == {"out/camp/campaign.json": "$.written_at"}


def test_only_lineage_and_wall_time_may_differ():
    assert VOLATILE_KEYS == {"run", "run_id", "parent_run", "elapsed_s",
                             "seconds"}
    first = {"run": "a", "trajectory": [{"seconds": 1.5, "leaked": 2}],
             "context": {"corpus": "/first/corpus"}}
    second = {"run": "b", "trajectory": [{"seconds": 2.5, "leaked": 2}],
              "context": {"corpus": "/second/corpus"}}
    assert differences(first, second) == ["$.context.corpus"]
    assert differences([1, 2], [1, 2, 3]) == ["$"]
    assert differences({"x": 1}, {"x": 1.0}) == ["$.x"]


def test_a_file_written_by_one_run_only_is_a_mismatch(tmp_path):
    first, second = tmp_path / "first", tmp_path / "second"
    for directory in (first, second):
        (directory / "out").mkdir(parents=True)
        (directory / "out" / "shared.bin").write_bytes(b"\x00")
    (second / "out" / "extra.json").write_text("{}")
    assert mismatches(verdicts(first, second)) == {
        "out/extra.json": "written by one run only"}


def test_sealed_files_compare_payloads_and_others_compare_bytes(tmp_path):
    """A sealed file whose digest moved only with a volatile key agrees;
    a binary file must match byte for byte."""
    from repro.runtime.digest import write_sealed
    first, second = tmp_path / "first", tmp_path / "second"
    for directory, seconds, trace in ((first, 1.5, b"\x00\x01"),
                                      (second, 2.5, b"\x00\x02")):
        directory.mkdir()
        write_sealed(str(directory / "ckpt.json"), "repro.test/1",
                     {"seconds": seconds, "step": 3})
        (directory / "trace.npz").write_bytes(trace)
    assert (first / "ckpt.json").read_bytes() \
        != (second / "ckpt.json").read_bytes()
    assert verdicts(first, second) == {"ckpt.json": "",
                                       "trace.npz": "bytes differ"}
    write_sealed(str(second / "ckpt.json"), "repro.test/2",
                 {"seconds": 2.5, "step": 3})
    assert verdicts(first, second)["ckpt.json"] == "$.schema"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        found = verdicts(*run_twice(Path(scratch), persisting_flows))
    for name, what in found.items():
        print(f"{'DIFF' if what else 'same'}  {name}"
              + (f"  {what}" if what else ""))
    sys.exit(1 if mismatches(found) else 0)
