"""`repro arena` CLI: flag plumbing, exit codes, resume, and the typed
schema-mismatch failure."""

import json
import os

import pytest

from repro.cli import main

ARGS = ["--generations", "1", "--population", "3", "--survivors", "1",
        "--attacks", "meltdown", "--workloads", "stream",
        "--period", "150", "--iterations", "16",
        "--fp-budget", "0.5", "--fn-budget", "0.5", "--seed", "5",
        "--jobs", "2", "--no-manifest"]


@pytest.fixture(scope="module")
def finished(tmp_path_factory):
    """One CLI race, shared by the happy-path and resume tests."""
    directory = str(tmp_path_factory.mktemp("arena-cli") / "race")
    code = main(["arena", directory] + ARGS)
    return directory, code


def test_arena_flags_run_a_race(finished, capsys):
    directory, code = finished
    assert code == 0
    for name in ("arena.md", "arena.json", "detector.json"):
        assert os.path.exists(os.path.join(directory, name))
    ledger = json.loads(open(os.path.join(directory, "arena.json")).read())
    assert ledger["spec"]["generations"] == 1
    assert ledger["spec"]["population"] == 3
    assert ledger["spec"]["attacks"] == ["meltdown"]
    assert ledger["exit_code"] == 0


def test_arena_resume_replays_the_checkpoint(finished, capsys):
    directory, _ = finished
    reference = open(os.path.join(directory, "arena.md"), "rb").read()
    capsys.readouterr()
    assert main(["arena", directory, "--resume"] + ARGS) == 0
    out = capsys.readouterr().out
    assert "arena:" in out and "report" in out
    assert open(os.path.join(directory, "arena.md"), "rb").read() \
        == reference


def test_arena_requires_a_directory(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["arena", "--no-manifest"])
    assert exc.value.code == 2
    assert "directory required" in capsys.readouterr().err


def test_arena_bad_spec_exits_fatal(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["arena", str(tmp_path / "race"), "--attacks", "nope",
              "--no-manifest"])
    assert exc.value.code == 2
    assert "unknown attack" in capsys.readouterr().err


def test_arena_resume_spec_mismatch_exits_fatal(finished, capsys):
    directory, _ = finished
    capsys.readouterr()
    mismatched = list(ARGS)
    mismatched[mismatched.index("--seed") + 1] = "6"
    with pytest.raises(SystemExit) as exc:
        main(["arena", directory, "--resume"] + mismatched)
    assert exc.value.code == 2
    assert "different settings" in capsys.readouterr().err


def test_arena_mismatched_eval_corpus_exits_fatal(finished, tmp_path,
                                                  capsys):
    """A corpus sidecar carrying a foreign counter-layout fingerprint is
    refused with the typed one-line exit-2 error."""
    from repro.data.dataset import Dataset, SampleRecord
    from repro.data.io import META_SCHEMA, save_dataset
    from repro.runtime.digest import read_sealed, write_sealed
    from repro.sim.hpc import COUNTER_NAMES

    directory, _ = finished
    record = SampleRecord(deltas=[1] * len(COUNTER_NAMES), label=0,
                          category="benign", phase=0, source="b",
                          commit_index=0)
    corpus_path = str(tmp_path / "eval")
    save_dataset(Dataset(records=[record], sample_period=150), corpus_path)
    # resealed, so the sidecar verifies and the layout check objects
    meta_path = corpus_path + ".meta.json"
    meta = read_sealed(meta_path, META_SCHEMA)
    meta["counters_sha256"] = "0" * 64
    write_sealed(meta_path, META_SCHEMA, meta)

    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["arena", str(tmp_path / "race"),
              "--detector", os.path.join(directory, "detector.json"),
              "--eval-corpus", corpus_path] + ARGS)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "schema mismatch" in err
    assert "counter layout" in err
