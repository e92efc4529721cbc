"""Engine tests: the mutation fixture every check must catch, the
command's scope and parse guarantees, ``--list``, and the repo's own
gate.

The mutation fixture seeds each violation class once — every check, a
variable and an f-string catalog name, and a syntax error — and the
engine must report exactly the pinned ``(check, path, line)`` set:
nothing missed, nothing twice.
"""

import ast
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

from repro.analysis.cli import main as analysis_main
from repro.analysis.engine import run

REPO = Path(__file__).resolve().parents[2]


def write_tree(root, files):
    for relpath, source in files.items():
        target = root / relpath
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(source))


def analysis_cli(*args, cwd):
    """``python -m repro.analysis`` as ``scripts/ci.sh`` runs it."""
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    return subprocess.run([sys.executable, "-m", "repro.analysis", *args],
                          cwd=cwd, env=env, capture_output=True, text=True)


# ---------------------------------------------------------------------------
# the mutation fixture

MUTATIONS = {
    # the per-file checks, one seeded violation each (two for docs)
    "src/repro/sim/clock.py": """\
        import time

        STAMP = time.time()
    """,
    "src/repro/ml/draw.py": """\
        import numpy as np

        NOISE = np.random.rand(3)
    """,
    "src/repro/core/order.py": """\
        def names(items):
            return [name for name in set(items)]
    """,
    "src/repro/data/save.py": """\
        def save(path, text):
            with open(path, "w") as handle:
                handle.write(text)
    """,
    "src/repro/campaign/fanout.py": """\
        import multiprocessing


        def fan_out(tasks):
            with multiprocessing.Pool(2) as pool:
                return pool.map(len, tasks)
    """,
    "src/repro/runtime/swallow.py": """\
        def quietly(work):
            try:
                work()
            except Exception:
                pass
    """,
    # catalog names: a literal per catalog, plus a variable (counters)
    # and an f-string (metrics) the resolver must follow
    "src/repro/sim/counters.py": """\
        def tick(bank):
            bank.bump("l1d.no_such_counter")
            name = "l1d.misses_typo"
            bank.bump(name)
    """,
    "src/repro/serve/metrics.py": """\
        def record(registry, kind):
            registry.inc("serve.no_such_metric")
            registry.inc(f"runner.retries.{kind}")
    """,
    "src/repro/serve/events.py": """\
        def announce():
            obs_event("serve.no_such_event")
    """,
    "docs/guide.md": """\
        # Guide

        See [the missing page](missing.md).
        See [a missing section](#no-such-section).
    """,
    # digest-module: a hand-written fingerprint that hashes some fields
    # with its own canonical form
    "src/repro/campaign/spec.py": """\
        import hashlib
        import json


        def fingerprint(spec):
            blob = json.dumps({"seeds": spec.seeds})
            return hashlib.sha256(blob.encode()).hexdigest()
    """,
    # fail-secure-handler: a handler in the boundary that swallows
    "src/repro/defenses/fallback.py": """\
        def score(detector, window):
            try:
                return detector(window)
            except ValueError:
                return None
    """,
    "src/repro/sim/broken.py": "def broken(:\n",
}

MUTATION_FINDINGS = {
    ("atomic-io", "src/repro/data/save.py", 2),
    ("broad-except", "src/repro/runtime/swallow.py", 4),
    ("catalog-counters", "src/repro/sim/counters.py", 2),
    ("catalog-counters", "src/repro/sim/counters.py", 4),     # variable
    ("catalog-events", "src/repro/serve/events.py", 2),
    ("catalog-metrics", "src/repro/serve/metrics.py", 2),
    ("catalog-metrics", "src/repro/serve/metrics.py", 3),     # f-string
    ("digest-module", "src/repro/campaign/spec.py", 1),
    ("docs-links", "docs/guide.md", 3),
    ("docs-links", "docs/guide.md", 4),
    ("fail-secure-handler", "src/repro/defenses/fallback.py", 4),
    ("forbidden-clock", "src/repro/sim/clock.py", 3),
    ("parse-error", "src/repro/sim/broken.py", 1),
    ("runner-fanout", "src/repro/campaign/fanout.py", 5),
    ("set-iteration", "src/repro/core/order.py", 2),
    ("unseeded-rng", "src/repro/ml/draw.py", 3),
}


def test_mutation_fixture_is_caught_exactly(tmp_path):
    write_tree(tmp_path, MUTATIONS)
    result = run(root=tmp_path)
    found = [(f.rule, f.path, f.line) for f in result.findings]
    assert sorted(found) == sorted(MUTATION_FINDINGS)   # each exactly once


# ---------------------------------------------------------------------------
# the command


def test_cli_reports_one_parse_error_per_file(tmp_path):
    """A broken file inside the scope of several checks is still one
    finding."""
    write_tree(tmp_path, {"src/repro/bad.py": "def broken(:\n"})
    proc = analysis_cli("src", "--root", ".", cwd=tmp_path)
    assert proc.returncode == 1, proc.stderr
    assert [line for line in proc.stdout.splitlines()
            if "parse-error" in line] == [
        "src/repro/bad.py:1:12: parse-error: syntax error: invalid syntax"]


def test_cli_analyses_only_the_given_paths(tmp_path):
    """Run from the repo with a fixture's paths and root, the command
    reads the fixture, not the working directory's ``src/repro``."""
    write_tree(tmp_path, {"src/repro/ok.py": "def f():\n    return 1\n"})
    out = tmp_path / "findings.json"
    proc = analysis_cli(str(tmp_path / "src"), "--root", str(tmp_path),
                        "--json-out", str(out), cwd=REPO)
    assert proc.returncode == 0, proc.stdout
    payload = json.loads(out.read_text())
    assert payload["findings"] == []
    assert payload["files"] == {"python": 1}


def test_default_path_is_the_root_and_scopes_pick_the_files(tmp_path):
    """PATH defaults to the root; Markdown is checked everywhere, and
    only the Python files some check's scope covers are read:
    ``src/repro`` alone."""
    write_tree(tmp_path, {
        "README.md": "[guide](docs/guide.md)\n",
        "docs/guide.md": "# Guide\n",
        "src/repro/a.py": "def f():\n    return 1\n",
        "tests/test_a.py": "def test_f():\n    assert True\n",
        "scripts/tool.py": "print('tool')\n",
    })
    result = run(root=tmp_path)
    assert result.findings == []
    assert result.files == {"markdown": 2, "python": 1}


def test_each_file_is_parsed_once(tmp_path, monkeypatch):
    write_tree(tmp_path, {"src/repro/sim/a.py": "def f():\n    return 1\n",
                          "src/repro/sim/b.py": "def g():\n    return 2\n",
                          "docs/index.md": "# Index\n"})
    parsed, real_parse = [], ast.parse

    def counting_parse(source, *args, **kwargs):
        parsed.append(kwargs.get("filename"))
        return real_parse(source, *args, **kwargs)

    monkeypatch.setattr(ast, "parse", counting_parse)
    result = run(root=tmp_path)
    assert sorted(parsed) == [str(tmp_path / "src/repro/sim/a.py"),
                              str(tmp_path / "src/repro/sim/b.py")]
    assert result.files == {"markdown": 1, "python": 2}


def test_list_names_every_check(capsys):
    assert analysis_main(["--list"]) == 0
    names = [line.split()[0] for line in capsys.readouterr().out.splitlines()
             if not line.startswith(" ")]
    assert names == [
        "atomic-io", "broad-except", "catalog-counters", "catalog-events",
        "catalog-metrics", "digest-module", "docs-links",
        "fail-secure-handler", "forbidden-clock", "runner-fanout",
        "set-iteration", "unseeded-rng"]


# ---------------------------------------------------------------------------
# the repo's own tree


def test_repo_is_clean():
    """The gate ``scripts/ci.sh`` runs: the whole tree, Markdown
    included, has no unsuppressed finding."""
    result = run(root=REPO)
    assert result.findings == [], \
        "\n".join(f"{f.location()} {f.rule}: {f.message}"
                  for f in result.findings)
    assert result.files["markdown"] > 0


def test_package_import_stays_light():
    """``import repro.analysis`` (what the ``repro`` CLI and perfbench
    do, for the report helpers) loads none of the checks."""
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro.analysis; print(sorted(m for m in sys.modules "
         "if m.startswith('repro.analysis.')))"],
        env=dict(os.environ, PYTHONPATH=str(REPO / "src")),
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "['repro.analysis.report']"
