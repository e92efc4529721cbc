"""Command-line interface."""

import base64
import shutil

import numpy as np
import pytest

from repro.cli import build_parser, main


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_attack_command_reports_leak(capsys):
    code = main(["attack", "meltdown", "--seed", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "leaked      : True" in out


def test_attack_command_under_defense(capsys):
    code = main(["attack", "meltdown", "--seed", "2",
                 "--defense", "fence-futuristic"])
    out = capsys.readouterr().out
    assert code == 0
    assert "leaked      : False" in out


def test_attack_command_unknown_name():
    with pytest.raises(SystemExit):
        main(["attack", "not-an-attack"])


def test_workloads_command(capsys):
    code = main(["workloads", "--scale", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "stream" in out and "IPC=" in out


def test_collect_train_explain_pipeline(tmp_path, capsys):
    corpus = str(tmp_path / "corpus")
    detector = str(tmp_path / "detector.json")
    assert main(["collect", corpus, "--seeds", "1", "--scale", "2",
                 "--period", "250"]) == 0
    assert main(["train", corpus, "--out", detector,
                 "--iterations", "120"]) == 0
    out = capsys.readouterr().out
    assert "accuracy=" in out
    assert "engineered HPCs" in out
    assert main(["explain", detector, "--corpus", corpus]) == 0
    out = capsys.readouterr().out
    assert "malicious-leaning" in out


def test_report_command(tmp_path, capsys):
    corpus = str(tmp_path / "corpus")
    detector = str(tmp_path / "detector.json")
    report = str(tmp_path / "report.md")
    assert main(["collect", corpus, "--seeds", "1", "--scale", "2",
                 "--period", "250", "--jobs", "2"]) == 0
    assert main(["train", corpus, "--out", detector,
                 "--iterations", "120"]) == 0
    assert main(["report", corpus, detector, "--out", report]) == 0
    text = open(report).read()
    assert "# EVAX system report" in text
    assert "## Detector" in text

    # the parallel collect checkpointed per-source shards next to the
    # corpus; a --resume re-run skips every completed source
    capsys.readouterr()
    assert main(["collect", corpus, "--seeds", "1", "--scale", "2",
                 "--period", "250", "--jobs", "2", "--resume"]) == 0
    out = capsys.readouterr().out
    assert "from checkpoint" in out
    assert "saved" in out


def _expect_exit2(argv, capsys, needle):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1          # exactly one line
    assert needle in err


def test_train_missing_corpus_exits_2(tmp_path, capsys):
    missing = str(tmp_path / "no-such-corpus")
    _expect_exit2(["train", missing], capsys, missing)


def test_train_corrupt_corpus_exits_2(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    (tmp_path / "corpus.npz").write_bytes(b"definitely not a zip")
    (tmp_path / "corpus.meta.json").write_text("{broken")
    _expect_exit2(["train", str(corpus)], capsys, str(corpus))


def test_report_missing_corpus_exits_2(tmp_path, capsys):
    missing = str(tmp_path / "nope")
    _expect_exit2(["report", missing, str(tmp_path / "det.json")],
                  capsys, missing)


def test_explain_missing_detector_exits_2(tmp_path, capsys):
    missing = str(tmp_path / "det.json")
    _expect_exit2(["explain", missing], capsys, missing)


def test_explain_corrupt_corpus_exits_2(tmp_path, capsys, small_dataset):
    from repro.core import evax_schema, train_detector
    from repro.core.patching import save_detector
    detector = str(tmp_path / "det.json")
    save_detector(train_detector(small_dataset, evax_schema(), epochs=5),
                  detector)
    corpus = tmp_path / "corpus"
    (tmp_path / "corpus.npz").write_bytes(b"junk")
    (tmp_path / "corpus.meta.json").write_text("[]")
    _expect_exit2(["explain", detector, "--corpus", str(corpus)],
                  capsys, str(corpus))


def test_train_resume_context_mismatch_exits_2(tmp_path, capsys,
                                               small_dataset):
    """Resuming someone else's checkpoints must refuse, not corrupt."""
    from repro.data import save_dataset
    corpus = str(tmp_path / "corpus")
    save_dataset(small_dataset, corpus)
    ck = str(tmp_path / "ck")
    assert main(["train", corpus, "--iterations", "10",
                 "--checkpoint-dir", ck, "--checkpoint-every", "5",
                 "--seed", "0", "--no-manifest"]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as err:
        main(["train", corpus, "--iterations", "10",
              "--checkpoint-dir", ck, "--checkpoint-every", "5",
              "--seed", "1", "--resume", "--no-manifest"])
    assert err.value.code == 2
    assert "checkpoint" in capsys.readouterr().err


def test_train_resume_refuses_previous_checkpoint_format(tmp_path, capsys,
                                                         small_dataset):
    """A checkpoint in format 2 (every parameter and optimizer moment a
    JSON float list, ``repro.train-ckpt/2`` in its context) is refused
    with one line and exit 2, not resumed into the binary-vector
    layout."""
    from repro.data import load_dataset, save_dataset
    from repro.ml.resilience import TrainingCheckpointer
    from repro.runtime.checkpoint import CheckpointStore
    corpus = str(tmp_path / "corpus")
    save_dataset(small_dataset, corpus)
    ck = str(tmp_path / "ck")
    args = ["train", corpus, "--iterations", "10", "--checkpoint-dir", ck,
            "--checkpoint-every", "5", "--seed", "0", "--no-manifest"]
    assert main(args) == 0
    capsys.readouterr()
    context = {"corpus_sha256": load_dataset(corpus).content_sha256,
               "seed": 0}
    payload = TrainingCheckpointer(ck, context, resume=True).load("gan")
    payload["networks"] = {name: _format_2_state(state)
                           for name, state in payload["networks"].items()}
    CheckpointStore(ck).open(dict(context, format="repro.train-ckpt/2")) \
        .put("gan", payload)
    args[args.index("--iterations") + 1] = "20"      # train on from 10
    _expect_exit2(args + ["--resume"], capsys, ck)


def _format_2_state(state):
    """A network's checkpoint state in format 2's layout: weights and
    biases per layer and one moment list per network, as float lists."""
    def floats(text):
        return np.frombuffer(base64.b64decode(text), "<f8")

    params, offset, layers = floats(state["params"]), 0, []
    for rows, cols in state["shapes"]:
        end = offset + rows * cols
        layers.append({"weights": params[offset:end].reshape(rows, cols)
                       .tolist(),
                       "bias": params[end:end + cols].tolist()})
        offset = end + cols
    optimizer = dict(state["optimizer"])
    for key in ("m", "v"):
        optimizer[key] = {i: floats(text).tolist()
                          for i, text in optimizer[key].items()}
    return {"layers": layers, "optimizer": optimizer}


def test_train_resume_refuses_a_different_corpus_at_the_same_path(
        tmp_path, capsys, small_dataset):
    """The checkpoints pin the corpus's content: another corpus saved
    over the same path is refused with one line, not trained on."""
    from repro.data import save_dataset
    corpus = str(tmp_path / "corpus")
    save_dataset(small_dataset, corpus)
    ck = str(tmp_path / "ck")
    args = ["train", corpus, "--iterations", "10", "--checkpoint-dir", ck,
            "--checkpoint-every", "5", "--no-manifest"]
    assert main(args) == 0
    save_dataset(small_dataset.subset(lambda r: r.commit_index % 2 == 0),
                 corpus)
    capsys.readouterr()
    _expect_exit2(args + ["--resume"], capsys, "different settings")


def test_train_resume_follows_the_corpus_to_another_directory(
        tmp_path, capsys, small_dataset):
    """The same corpus copied elsewhere resumes its checkpoints and
    trains the uninterrupted run's detector, byte for byte."""
    from repro.data import save_dataset
    here, there = tmp_path / "here", tmp_path / "there"
    here.mkdir()
    save_dataset(small_dataset, str(here / "corpus"))
    shutil.copytree(here, there)
    ck, whole = str(tmp_path / "ck"), str(tmp_path / "whole.json")
    resumed = str(tmp_path / "resumed.json")
    common = ["--checkpoint-every", "5", "--no-manifest"]
    assert main(["train", str(here / "corpus"), "--out", whole,
                 "--iterations", "10", "--checkpoint-dir",
                 str(tmp_path / "ck-whole"), *common]) == 0
    assert main(["train", str(here / "corpus"), "--iterations", "5",
                 "--checkpoint-dir", ck, *common]) == 0
    assert main(["train", str(there / "corpus"), "--out", resumed,
                 "--iterations", "10", "--checkpoint-dir", ck,
                 "--resume", *common]) == 0
    capsys.readouterr()
    assert open(resumed, "rb").read() == open(whole, "rb").read()


@pytest.mark.slow
def test_train_resume_is_bit_exact_end_to_end(tmp_path, capsys,
                                              small_dataset):
    """`repro train --resume` continues from the durable checkpoint and
    produces a byte-identical detector artifact to an uninterrupted run
    with the same corpus, seed and final iteration count."""
    from repro.data import save_dataset
    from repro.obs import read_manifest

    corpus = str(tmp_path / "corpus")
    save_dataset(small_dataset, corpus)
    ck = str(tmp_path / "ck")
    uninterrupted = str(tmp_path / "a.json")
    halfway = str(tmp_path / "b.json")
    resumed = str(tmp_path / "c.json")

    assert main(["train", corpus, "--out", uninterrupted,
                 "--iterations", "50", "--checkpoint-every", "0",
                 "--no-manifest"]) == 0
    first_manifest = str(tmp_path / "m1.json")
    assert main(["train", corpus, "--out", halfway,
                 "--iterations", "25", "--checkpoint-dir", ck,
                 "--checkpoint-every", "25",
                 "--manifest-out", first_manifest]) == 0
    resumed_manifest = str(tmp_path / "m2.json")
    assert main(["train", corpus, "--out", resumed,
                 "--iterations", "50", "--checkpoint-dir", ck,
                 "--checkpoint-every", "25", "--resume",
                 "--manifest-out", resumed_manifest]) == 0
    capsys.readouterr()

    assert open(resumed, "rb").read() == open(uninterrupted, "rb").read()
    first = read_manifest(first_manifest)
    second = read_manifest(resumed_manifest)
    assert first["lineage"] is None
    assert second["lineage"] == {
        "parent_run": first["run"]["id"],
        "resumed_from_iteration": 25,
    }
    assert second["metrics"]["counters"]["guard.checkpoints.restored"] == 1
