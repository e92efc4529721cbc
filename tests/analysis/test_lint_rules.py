"""Per-file check tests: good/bad fixtures for every per-file check,
suppressions, engine behaviour, the reporters and the CLI exit codes.

Fixture trees are written under ``tmp_path`` using repo-shaped relative
paths (``src/repro/sim/...``) because scoped checks key off
engine-root-relative prefixes — which also exercises the scoping
itself.
"""

import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis.cli import JSON_SCHEMA, render_json, render_text
from repro.analysis.cli import main as analysis_main
from repro.analysis.engine import AnalysisUsageError, run
from repro.obs.names import EVENTS
from repro.sim.hpc import COUNTER_NAMES

REPO = Path(__file__).resolve().parents[2]

A_COUNTER = COUNTER_NAMES[0]
AN_EVENT = next(iter(sorted(EVENTS)))


def lint_tree(tmp_path, files, select=None, ignore=None):
    """Write ``{relpath: source}`` under ``tmp_path`` and analyse it."""
    for relpath, source in files.items():
        target = tmp_path / relpath
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(source))
    return run(root=tmp_path, select=select, ignore=ignore)


def rules_of(result):
    return [finding.rule for finding in result.findings]


# ---------------------------------------------------------------------------
# determinism checks


def test_forbidden_clock_flags_wall_clock(tmp_path):
    result = lint_tree(tmp_path, {"src/repro/sim/x.py": """\
        import time
        stamp = time.time()
    """})
    assert rules_of(result) == ["forbidden-clock"]
    finding = result.findings[0]
    assert finding.line == 2
    assert finding.data == {"call": "time.time"}


def test_forbidden_clock_flags_datetime_now(tmp_path):
    result = lint_tree(tmp_path, {"src/repro/ml/x.py": """\
        from datetime import datetime
        import datetime as dt
        a = datetime.now()
        b = dt.datetime.utcnow()
    """})
    assert rules_of(result) == ["forbidden-clock", "forbidden-clock"]


def test_forbidden_clock_allows_perf_counter(tmp_path):
    result = lint_tree(tmp_path, {"src/repro/sim/x.py": """\
        import time
        start = time.perf_counter()
        elapsed = time.monotonic() - start
    """})
    assert result.findings == []


def test_forbidden_clock_out_of_scope_dirs_are_free(tmp_path):
    result = lint_tree(tmp_path, {"src/repro/obs/x.py": """\
        import time
        stamp = time.time()
    """})
    assert result.findings == []


def test_determinism_scope_covers_attacks_and_arena(tmp_path):
    """Fuzzed programs are training inputs (the arms race feeds them to
    re-vaccination), so ``attacks/`` and ``arena/`` sit inside the
    deterministic scope: module-level RNG draws are flagged there."""
    result = lint_tree(tmp_path, {
        "src/repro/attacks/x.py": """\
            import random
            pick = random.choice([1, 2])
        """,
        "src/repro/arena/x.py": """\
            import numpy as np
            draw = np.random.rand(3)
        """,
    })
    assert sorted(rules_of(result)) == ["unseeded-rng", "unseeded-rng"]


def test_attacks_tree_passes_its_own_determinism_rules():
    """The real ``attacks/`` + ``arena/`` sources carry no module-level
    RNG or wall-clock reads."""
    result = run([REPO / "src" / "repro" / "attacks",
                  REPO / "src" / "repro" / "arena"], root=REPO,
                 select=["unseeded-rng", "forbidden-clock"])
    assert result.findings == []


def test_unseeded_rng_flags_global_numpy(tmp_path):
    result = lint_tree(tmp_path, {"src/repro/core/x.py": """\
        import numpy as np
        a = np.random.rand(3)
        b = np.random.default_rng()
    """})
    assert rules_of(result) == ["unseeded-rng", "unseeded-rng"]


def test_unseeded_rng_allows_seeded_default_rng(tmp_path):
    result = lint_tree(tmp_path, {"src/repro/core/x.py": """\
        import numpy as np
        rng = np.random.default_rng(7)
        draws = rng.random(8)
    """})
    assert result.findings == []


def test_unseeded_rng_flags_stdlib_module_rng(tmp_path):
    result = lint_tree(tmp_path, {"src/repro/data/x.py": """\
        import random
        pick = random.choice([1, 2])
        gen = random.Random()
        ok = random.Random(3)
    """})
    assert rules_of(result) == ["unseeded-rng", "unseeded-rng"]


def test_set_iteration_flags_bare_sets(tmp_path):
    result = lint_tree(tmp_path, {"src/repro/sim/x.py": """\
        names = ["b", "a"]
        for n in set(names):
            print(n)
        pairs = [x for x in {"u", "v"}]
    """})
    assert rules_of(result) == ["set-iteration", "set-iteration"]


def test_set_iteration_allows_sorted(tmp_path):
    result = lint_tree(tmp_path, {"src/repro/sim/x.py": """\
        names = ["b", "a"]
        for n in sorted(set(names)):
            print(n)
    """})
    assert result.findings == []


# ---------------------------------------------------------------------------
# atomic IO


def test_atomic_io_flags_raw_write_open(tmp_path):
    result = lint_tree(tmp_path, {"src/repro/data/x.py": """\
        def save(path, text):
            with open(path, "w") as f:
                f.write(text)
            with open(path, mode="wb") as f:
                f.write(b"")
            Path(path).write_text(text)
    """})
    assert rules_of(result) == ["atomic-io"] * 3


def test_atomic_io_allows_reads_and_excluded_paths(tmp_path):
    read_only = """\
        def load(path):
            with open(path) as f:
                return f.read() + open(path, "rb").read().decode()
    """
    writer = """\
        def save(path, text):
            with open(path, "w") as f:
                f.write(text)
    """
    result = lint_tree(tmp_path, {
        "src/repro/data/reader.py": read_only,
        "src/repro/runtime/atomic.py": writer,
        "src/repro/obs/sink.py": writer,
    })
    assert result.findings == []


# ---------------------------------------------------------------------------
# error contract


def test_broad_except_flags_swallowing_handlers(tmp_path):
    result = lint_tree(tmp_path, {"src/repro/runtime/x.py": """\
        def f():
            try:
                work()
            except Exception:
                pass
            try:
                work()
            except BaseException as exc:
                log(exc)
            try:
                work()
            except:
                pass
    """})
    assert rules_of(result) == ["broad-except"] * 3


def test_broad_except_allows_reraise_and_typed(tmp_path):
    result = lint_tree(tmp_path, {"src/repro/runtime/x.py": """\
        def f():
            try:
                work()
            except Exception:
                cleanup()
                raise
            try:
                work()
            except (OSError, ValueError):
                pass
            try:
                work()
            except Exception as exc:
                raise RuntimeError("wrapped") from exc
    """})
    assert result.findings == []


def test_fail_secure_handler_flags_every_boundary_handler(tmp_path):
    """Inside the boundary even a re-raising or typed handler is
    flagged: only ``contain`` may catch there."""
    result = lint_tree(tmp_path, {
        "src/repro/defenses/x.py": """\
            def f(detector, window):
                try:
                    return detector(window)
                except ValueError:
                    return None
        """,
        "src/repro/serve/service.py": """\
            def g(work):
                try:
                    work()
                except (OSError, ValueError) as exc:
                    raise RuntimeError("wrapped") from exc
        """,
        "src/repro/arena/gate.py": """\
            def h(work):
                try:
                    work()
                finally:
                    pass
                try:
                    work()
                except KeyError:
                    raise
        """,
    }, select=["fail-secure-handler"])
    assert [(f.path, f.line) for f in result.findings] == [
        ("src/repro/arena/gate.py", 8),
        ("src/repro/defenses/x.py", 4),
        ("src/repro/serve/service.py", 4)]


def test_fail_secure_handler_out_of_scope_is_free(tmp_path):
    source = """\
        def f(work):
            try:
                work()
            except ValueError:
                return None
    """
    result = lint_tree(tmp_path, {"src/repro/serve/queue.py": source,
                                  "src/repro/arena/loop.py": source,
                                  "src/repro/runtime/x.py": source},
                       select=["fail-secure-handler"])
    assert result.findings == []


def test_fail_secure_handler_suppressed(tmp_path):
    result = lint_tree(tmp_path, {"src/repro/defenses/x.py": """\
        def contain(fn):
            try:
                return fn(), None
            # repro-lint: disable=fail-secure-handler -- the one handler
            except ValueError as exc:
                return None, exc
    """}, select=["fail-secure-handler"])
    assert result.findings == []
    assert result.suppressed == 1


def test_fail_secure_boundary_has_one_handler():
    """The real boundary's only handler is ``contain``'s, and it is the
    check's one suppression."""
    result = run([REPO / "src" / "repro"], root=REPO,
                 select=["fail-secure-handler"])
    assert result.findings == []
    assert result.suppressed == 1


# ---------------------------------------------------------------------------
# catalog checks


def test_catalog_counters_flags_unknown_literal(tmp_path):
    result = lint_tree(tmp_path, {"src/repro/sim/x.py": f"""\
        def run(bank, kind):
            bank.bump({A_COUNTER!r})
            bank.bump("no.such.counter")
            bank.bump(f"dyn.{{kind}}")
    """})
    # the literal and the f-string go through one resolver
    assert rules_of(result) == ["catalog-counters"] * 2
    assert result.findings[0].data == {"name": "no.such.counter"}
    assert result.findings[1].data == {"pattern": "dyn.*"}


def test_catalog_counters_dict_get_is_not_a_counter(tmp_path):
    result = lint_tree(tmp_path, {"src/repro/sim/x.py": """\
        def f(options):
            return options.get("retries"), options.get("a.b.c")
    """})
    # un-dotted .get literals are dict keys; dotted ones are checked
    assert rules_of(result) == ["catalog-counters"]
    assert result.findings[0].data == {"name": "a.b.c"}


def test_catalog_metrics_flags_unknown_literal(tmp_path):
    result = lint_tree(tmp_path, {"src/repro/defenses/x.py": """\
        def f(reg, kind):
            reg.inc("sim.runs")
            reg.inc("not.a.metric")
            reg.inc(f"runner.failures.{kind}")
    """})
    assert rules_of(result) == ["catalog-metrics"]
    assert result.findings[0].data == {"name": "not.a.metric"}


def test_catalog_events_flags_unknown_literal(tmp_path):
    result = lint_tree(tmp_path, {"src/repro/defenses/x.py": f"""\
        def f():
            obs_event({AN_EVENT!r})
            obs_event("no.such.event", level="warn")
    """})
    assert rules_of(result) == ["catalog-events"]
    assert result.findings[0].data == {"name": "no.such.event"}


def test_catalog_variable_resolution(tmp_path):
    result = lint_tree(tmp_path, {"src/repro/sim/emit.py": f"""\
        GOOD = {A_COUNTER!r}

        def tick(bank):
            bank.bump(GOOD)
            name = {A_COUNTER + "s"!r}
            bank.bump(name)
    """})
    assert rules_of(result) == ["catalog-counters"]
    assert result.findings[0].data == {"name": A_COUNTER + "s"}
    assert A_COUNTER in result.findings[0].message      # suggestion


def test_catalog_fstring_patterns(tmp_path):
    result = lint_tree(tmp_path, {"src/repro/serve/emit.py": """\
        def report(metrics, kind, prefix):
            metrics.inc(f"runner.failures.{kind}")
            metrics.inc(f"runner.successes.{kind}")
            metrics.inc(f"{prefix}.{kind}")
    """})
    # failures.* matches three entries; successes.* matches none;
    # the fully-dynamic pattern is vacuous and skipped
    assert rules_of(result) == ["catalog-metrics"]
    assert result.findings[0].data == {"pattern": "runner.successes.*"}


def test_catalog_resolved_interpolation_and_events(tmp_path):
    result = lint_tree(tmp_path, {"src/repro/campaign/emit.py": """\
        STAGE = "campaign"

        def done():
            obs_event(f"{STAGE}.finished")
            obs_event(f"{STAGE}.exploded")
    """})
    assert rules_of(result) == ["catalog-events"]
    assert result.findings[0].data == {"name": "campaign.exploded"}


def test_catalog_dotted_only_variable_is_not_a_name(tmp_path):
    result = lint_tree(tmp_path, {"src/repro/sim/emit.py": """\
        def read(mapping):
            key = "plain"
            return mapping.get(key)      # undotted: not a counter name
    """})
    assert result.findings == []


def test_catalog_bare_dotted_only_call_is_checked(tmp_path):
    """A bare ``set("a.b", value)`` names a metric as surely as
    ``registry.set("a.b", value)`` does: its literal is resolved too."""
    result = lint_tree(tmp_path, {"src/repro/serve/emit.py": """\
        def record(value):
            set("not.a.metric", value)
            set("plain")
    """})
    assert rules_of(result) == ["catalog-metrics"]
    assert result.findings[0].data == {"name": "not.a.metric"}


# ---------------------------------------------------------------------------
# runner-fanout


def test_runner_fanout_flags_pool_and_executor(tmp_path):
    result = lint_tree(tmp_path, {"src/repro/data/x.py": """\
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        def f(tasks):
            with multiprocessing.Pool(4) as pool:
                pool.map(len, tasks)
            with ProcessPoolExecutor() as ex:
                ex.map(len, tasks)
    """})
    assert rules_of(result) == ["runner-fanout", "runner-fanout"]
    assert result.findings[0].data == {"call": "multiprocessing.Pool"}
    assert result.findings[1].data == {"call": "ProcessPoolExecutor"}


def test_runner_fanout_flags_context_process(tmp_path):
    result = lint_tree(tmp_path, {"src/repro/campaign/x.py": """\
        import multiprocessing

        def f():
            ctx = multiprocessing.get_context("fork")
            proc = ctx.Process(target=len)
            proc.start()
    """})
    assert rules_of(result) == ["runner-fanout"]
    assert result.findings[0].data == {"call": "ctx.Process"}


def test_runner_fanout_runtime_layer_is_exempt(tmp_path):
    result = lint_tree(tmp_path, {"src/repro/runtime/x.py": """\
        import multiprocessing

        def f(tasks):
            with multiprocessing.Pool(4) as pool:
                pool.map(len, tasks)
    """})
    assert result.findings == []


def test_runner_fanout_needs_the_import(tmp_path):
    # a local class named Pool/Process is not fan-out: the rule only
    # fires in files that import multiprocessing / concurrent.futures
    result = lint_tree(tmp_path, {"src/repro/data/x.py": """\
        class Pool:
            pass

        def f():
            return Pool()
    """})
    assert result.findings == []


# ---------------------------------------------------------------------------
# digest-module


def test_digest_module_flags_every_hashlib_import(tmp_path):
    result = lint_tree(tmp_path, {"src/repro/campaign/x.py": """\
        import hashlib
        from hashlib import sha256

        def f(blob):
            import hashlib as h
            return h.md5(blob).hexdigest()
    """}, select=["digest-module"])
    assert [f.line for f in result.findings] == [1, 2, 5]
    assert result.findings[0].data == {"module": "hashlib"}


def test_digest_module_exempts_only_the_digest_module(tmp_path):
    source = "import hashlib\n"
    result = lint_tree(tmp_path, {"src/repro/runtime/digest.py": source,
                                  "src/repro/runtime/atomic.py": source,
                                  "scripts/tool.py": source},
                       select=["digest-module"])
    assert [f.path for f in result.findings] == [
        "src/repro/runtime/atomic.py"]


# ---------------------------------------------------------------------------
# docs links


def test_docs_links_flags_broken_relative_link(tmp_path):
    (tmp_path / "exists.md").write_text("# here\n")
    result = lint_tree(tmp_path, {"docs/index.md": """\
        [ok](../exists.md) [also ok](https://example.com) [anchor](#x)
        [broken](missing.md#section)
        ## x
    """})
    assert rules_of(result) == ["docs-links"]
    finding = result.findings[0]
    assert finding.line == 2
    assert finding.data == {"target": "missing.md#section"}


def test_docs_links_checks_anchors_against_headings(tmp_path):
    """An anchor must name a heading of its target file (GitHub's slug);
    a bare ``#anchor`` names one of the linking file, and a ``#`` line
    inside fenced code is not a heading."""
    (tmp_path / "other.md").write_text("# Other\n\n## Fast path & `wakeups`\n")
    result = lint_tree(tmp_path, {"docs/index.md": """\
        # Index page
        [good](#index-page) [bad](#missing)
        [good](../other.md#fast-path--wakeups) [bad](../other.md#index-page)
        ```
        # fenced
        ```
        [fenced](#fenced)
    """})
    assert rules_of(result) == ["docs-links"] * 3
    assert [(f.line, f.data["target"]) for f in result.findings] == [
        (2, "#missing"), (3, "../other.md#index-page"), (7, "#fenced")]
    assert result.findings[0].message == "broken anchor -> #missing"


@pytest.mark.parametrize("heading, anchor", [
    ("# Content-addressed cell cache", "content-addressed-cell-cache"),
    ("### 3. Tier-1 verify (CI)", "3-tier-1-verify-ci"),
    ("## `repro collect` — options", "repro-collect--options"),
    ("## snake_case_name", "snake_case_name"),
    ("###### Six deep", "six-deep"),
], ids=["hyphen", "digits-and-parens", "code-and-dash", "underscore",
        "level-six"])
def test_docs_links_anchor_uses_github_slug(tmp_path, heading, anchor):
    result = lint_tree(tmp_path, {
        "docs/index.md": f"{heading}\n[here](#{anchor})\n"})
    assert result.findings == []


@pytest.mark.parametrize("line, anchor", [
    ("####### Seven deep", "seven-deep"),
    ("#hashtag", "hashtag"),
    ("    # indented code", "indented-code"),
], ids=["level-seven", "no-space", "indented-code"])
def test_docs_links_non_heading_defines_no_anchor(tmp_path, line, anchor):
    result = lint_tree(tmp_path, {
        "docs/index.md": f"{line}\n\n[here](#{anchor})\n"})
    assert [f.data["target"] for f in result.findings] == [f"#{anchor}"]


def test_docs_links_checks_anchors_only_in_markdown_targets(tmp_path):
    (tmp_path / "tool.py").write_text("print()\n")
    result = lint_tree(tmp_path, {"docs/index.md": """\
        [source](../tool.py#L1) [gone](../gone.py#L1)
    """})
    assert [f.message for f in result.findings] == [
        "broken link -> ../gone.py#L1"]


# ---------------------------------------------------------------------------
# suppressions


BAD_CLOCK = 'import time\nstamp = time.time()'


def test_suppression_same_line(tmp_path):
    source = BAD_CLOCK + "  # repro-lint: disable=forbidden-clock\n"
    result = lint_tree(tmp_path, {"src/repro/sim/x.py": source})
    assert result.findings == []
    assert result.suppressed == 1


def test_suppression_standalone_comment_shields_next_line(tmp_path):
    source = ("import time\n"
              "# repro-lint: disable=forbidden-clock -- fixture clock\n"
              "stamp = time.time()\n")
    result = lint_tree(tmp_path, {"src/repro/sim/x.py": source})
    assert result.findings == []
    assert result.suppressed == 1


def test_suppression_disable_all(tmp_path):
    source = BAD_CLOCK + "  # repro-lint: disable=all\n"
    result = lint_tree(tmp_path, {"src/repro/sim/x.py": source})
    assert result.findings == []
    assert result.suppressed == 1


def test_suppression_wrong_rule_does_not_shield(tmp_path):
    source = BAD_CLOCK + "  # repro-lint: disable=atomic-io\n"
    result = lint_tree(tmp_path, {"src/repro/sim/x.py": source})
    assert rules_of(result) == ["forbidden-clock"]
    assert result.suppressed == 0


# ---------------------------------------------------------------------------
# engine behaviour


def test_parse_error_is_a_finding(tmp_path):
    result = lint_tree(tmp_path, {"src/repro/sim/x.py": "def broken(:\n"})
    assert rules_of(result) == ["parse-error"]
    assert result.findings[0].line == 1


def test_select_and_ignore_filter_rules(tmp_path):
    files = {"src/repro/sim/x.py": """\
        import time
        stamp = time.time()
        with open("out.txt", "w") as f:
            f.write("x")
    """}
    both = lint_tree(tmp_path, files)
    assert sorted(rules_of(both)) == ["atomic-io", "forbidden-clock"]
    only = lint_tree(tmp_path, files, select=["forbidden-clock"])
    assert rules_of(only) == ["forbidden-clock"]
    without = lint_tree(tmp_path, files, ignore=["forbidden-clock"])
    assert rules_of(without) == ["atomic-io"]


def test_unknown_rule_name_raises(tmp_path):
    with pytest.raises(AnalysisUsageError):
        lint_tree(tmp_path, {"src/repro/sim/x.py": "x = 1\n"},
                  select=["no-such-rule"])


def test_nonexistent_path_raises(tmp_path):
    with pytest.raises(AnalysisUsageError):
        run([tmp_path / "missing"], root=tmp_path)


def test_findings_are_sorted_and_deterministic(tmp_path):
    files = {
        "src/repro/sim/b.py": BAD_CLOCK + "\n",
        "src/repro/sim/a.py": BAD_CLOCK + "\n",
    }
    result = lint_tree(tmp_path, files)
    assert [f.path for f in result.findings] == \
        ["src/repro/sim/a.py", "src/repro/sim/b.py"]


# ---------------------------------------------------------------------------
# reporters


def test_json_reporter_schema(tmp_path):
    result = lint_tree(tmp_path, {"src/repro/sim/x.py": BAD_CLOCK + "\n"})
    payload = render_json(result)
    assert payload["schema"] == JSON_SCHEMA == "repro-analysis/2"
    assert set(payload) == {"schema", "root", "checks", "files",
                            "summary", "findings"}
    assert payload["summary"] == {"findings": 1, "suppressed": 0}
    [finding] = payload["findings"]
    assert set(finding) == {"rule", "path", "line", "col", "message",
                            "data"}
    assert finding["rule"] == "forbidden-clock"
    assert set(payload["checks"][0]) == {"name", "kind", "description"}
    json.dumps(payload)  # must be serializable as-is


def test_text_reporter_locations_and_summary(tmp_path):
    result = lint_tree(tmp_path, {"src/repro/sim/x.py": BAD_CLOCK + "\n"})
    text = render_text(result, elapsed=0.5)
    assert "src/repro/sim/x.py:2:9: forbidden-clock: " in text
    assert "repro-analysis: 1 finding(s) — 1 files (1 python), " \
        f"{len(result.checks)} checks, 0 suppressed, 0.50s" in text
    clean = lint_tree(tmp_path / "clean", {"src/repro/ml/ok.py": "x = 1\n"})
    assert "repro-analysis: clean" in render_text(clean, elapsed=0.5)


# ---------------------------------------------------------------------------
# CLI exit-code contract


def test_cli_exit_codes(tmp_path, capsys):
    bad = tmp_path / "src" / "repro" / "sim"
    bad.mkdir(parents=True)
    (bad / "x.py").write_text(BAD_CLOCK + "\n")
    json_out = tmp_path / "findings.json"
    code = analysis_main([str(tmp_path), "--root", str(tmp_path),
                          "--json-out", str(json_out)])
    assert code == 1
    assert "forbidden-clock" in capsys.readouterr().out
    payload = json.loads(json_out.read_text())
    assert payload["schema"] == JSON_SCHEMA
    assert payload["summary"]["findings"] == 1

    (bad / "x.py").write_text("x = 1\n")
    assert analysis_main(["--root", str(tmp_path)]) == 0
    assert analysis_main([str(tmp_path), "--select", "bogus"]) == 2
    assert analysis_main([str(tmp_path / "missing")]) == 2
