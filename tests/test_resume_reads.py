"""A resume reads each checkpoint shard once.

The store's ``verified()`` hands every shard that verifies to the
resume together with its data, so no resume verifies a shard and then
``get``s it again.  Each test counts the store's ``read_sealed`` calls
per file across one resume: a train resume, a ``collect --resume`` and
an arena resume.
"""

import collections
import os

import pytest

from repro.arena import ArenaSpec, run_arena
from repro.cli import main
from repro.runtime import ArenaChaos, ArenaFault, ChaosKill, GEN_KILL_FAULT
from repro.runtime import checkpoint


@pytest.fixture
def reads(monkeypatch):
    """``Counter`` of file name -> sealed reads by the checkpoint store."""
    counter = collections.Counter()
    real = checkpoint.read_sealed

    def counting(path, schema):
        counter[os.path.basename(path)] += 1
        return real(path, schema)
    monkeypatch.setattr(checkpoint, "read_sealed", counting)
    return counter


def _shards(directory):
    return sorted(name for name in os.listdir(directory)
                  if name.endswith(".shard.json"))


def test_a_train_resume_reads_its_shard_once(tmp_path, capsys,
                                             small_dataset, reads):
    from repro.data import save_dataset
    corpus, ck = str(tmp_path / "corpus"), str(tmp_path / "ck")
    save_dataset(small_dataset, corpus)
    args = ["train", corpus, "--iterations", "10", "--checkpoint-dir", ck,
            "--checkpoint-every", "5", "--no-manifest"]
    assert main(args) == 0
    reads.clear()
    assert main(args[:2] + ["--iterations", "15"] + args[4:]
                + ["--resume"]) == 0
    capsys.readouterr()
    assert _shards(ck) == ["gan.shard.json"]
    assert reads == {"manifest.json": 1, "gan.shard.json": 1}


def test_a_collect_resume_reads_each_shard_once(tmp_path, capsys, reads):
    out = str(tmp_path / "corpus")
    args = ["collect", out, "--seeds", "1", "--scale", "1", "--period",
            "250", "--jobs", "2", "--no-manifest"]
    assert main(args) == 0
    reads.clear()
    assert main(args + ["--resume"]) == 0
    shards = _shards(out + ".shards")
    assert len(shards) == 41
    assert reads == {"manifest.json": 1, **{name: 1 for name in shards}}
    assert "41 from checkpoint" in capsys.readouterr().out


def test_an_arena_resume_reads_each_shard_once(tmp_path, reads):
    spec = ArenaSpec(generations=2, population=4, survivors=2,
                     attacks=("meltdown",), workloads=("stream",),
                     sample_period=150, samples_per_class=6,
                     gan_iterations=16, gan_hidden=(16, 16), epochs=6,
                     fp_budget=0.4, fn_budget=0.4, seed=5)
    directory = str(tmp_path / "race")
    with pytest.raises(ChaosKill):
        run_arena(spec, directory, processes=1, chaos=ArenaChaos(
            [ArenaFault(GEN_KILL_FAULT, generation=2)]))
    reads.clear()
    assert run_arena(spec, directory, processes=1, resume=True) \
        .exit_code == 0
    # gen-2 is written by the resumed generation, never read
    assert reads == {"manifest.json": 1, "gen-0.shard.json": 1,
                     "gen-1.shard.json": 1}
