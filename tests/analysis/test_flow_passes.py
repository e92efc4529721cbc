"""Whole-program flow-verifier tests: project-index resolution, the
four passes over fixture trees, baseline semantics, reporter schema,
CLI exit codes, the shared parse cache, and the self-check gate.

Fixture trees are written under ``tmp_path`` with repo-shaped relative
paths and analyzed with a fixture :class:`FlowConfig` whose surfaces /
sinks / boundaries / catalogs point at the fixture modules — so every
pass is exercised hermetically.  The drift tests additionally mutate
copies of the *real* ``CampaignSpec`` / ``CampaignCell`` / ``ArenaSpec``
sources to prove the production contract: adding a field without
updating the fingerprint function is caught.
"""

import dataclasses
import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis.flow import FlowUsageError, ProjectIndex, run_flow
from repro.analysis.flow.baseline import Baseline
from repro.analysis.flow.baseline import SCHEMA as BASELINE_SCHEMA
from repro.analysis.flow.baseline import baseline_key
from repro.analysis.flow.cli import main as flow_main
from repro.analysis.flow.config import FingerprintSurface, FlowConfig
from repro.analysis.flow.engine import FlowEngine
from repro.analysis.flow.reporters import JSON_SCHEMA, render_json
from repro.analysis.lint.engine import LintEngine
from repro.analysis.source import SourceCache

REPO = Path(__file__).resolve().parents[2]


def write_tree(tmp_path, files):
    for relpath, source in files.items():
        target = tmp_path / relpath
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(source))


def flow_tree(tmp_path, files, config, select=None, baseline=None,
              cache=None):
    write_tree(tmp_path, files)
    return run_flow([tmp_path], root=tmp_path, config=config,
                    select=select, baseline=baseline, cache=cache)


def rules_of(result):
    return [finding.rule for finding in result.findings]


# ---------------------------------------------------------------------------
# project index


def build_index(tmp_path, files):
    write_tree(tmp_path, files)
    return ProjectIndex.build([tmp_path], root=tmp_path)


def test_index_import_alias_expansion(tmp_path):
    index = build_index(tmp_path, {"pkg/a.py": """\
        import numpy as np
        from pkg.b import helper as h
    """, "pkg/b.py": """\
        def helper():
            return 1
    """})
    mod = index.modules["pkg.a"]
    assert mod.expand("np.random.rand") == "numpy.random.rand"
    assert mod.expand("h") == "pkg.b.helper"


def test_index_dataclass_field_registry(tmp_path):
    index = build_index(tmp_path, {"pkg/spec.py": """\
        from dataclasses import dataclass
        from typing import ClassVar

        @dataclass
        class Spec:
            alpha: int
            beta: str = "x"
            KIND: ClassVar[str] = "spec"

        class NotADataclass:
            gamma: int
    """})
    spec = index.classes["pkg.spec.Spec"]
    assert spec.is_dataclass
    assert [f.name for f in spec.fields] == ["alpha", "beta"]
    assert not index.classes["pkg.spec.NotADataclass"].fields


def test_index_call_graph_resolution(tmp_path):
    index = build_index(tmp_path, {"pkg/a.py": """\
        from pkg.b import Store, helper

        class Runner:
            def __init__(self):
                self.store = Store()

            def go(self):
                self.step()          # self-method
                self.store.save()    # attr-typed
                local = Store()
                local.save()         # ctor-typed local
                helper()             # imported function

            def step(self):
                pass
    """, "pkg/b.py": """\
        class Store:
            def save(self):
                pass

        def helper():
            pass
    """})
    callees = index.functions["pkg.a.Runner.go"].callees
    assert "pkg.a.Runner.step" in callees
    assert "pkg.b.Store.save" in callees
    assert "pkg.b.helper" in callees


def test_index_unique_name_fallback_respects_ambiguity_cap(tmp_path):
    files = {"pkg/use.py": """\
        def go(obj):
            obj.rare_method()
            obj.common_method()
    """, "pkg/impls.py": """\
        class A:
            def rare_method(self):
                pass
            def common_method(self):
                pass
        class B:
            def common_method(self):
                pass
        class C:
            def common_method(self):
                pass
    """}
    index = build_index(tmp_path, files)
    callees = index.functions["pkg.use.go"].callees
    assert "pkg.impls.A.rare_method" in callees
    # three candidates exceed AMBIGUITY_CAP: no edges for common_method
    assert not any(q.endswith("common_method") for q in callees)


def test_index_reachable_stops_at_barrier(tmp_path):
    index = build_index(tmp_path, {"pkg/a.py": """\
        from pkg import obs

        def top():
            obs.emit()
    """, "pkg/obs/__init__.py": """\
        def emit():
            deep()

        def deep():
            pass
    """})
    unrestricted = index.reachable("pkg.a.top")
    assert "pkg.obs.emit" in unrestricted
    blocked = index.reachable(
        "pkg.a.top",
        barrier=lambda f: f.relpath.startswith("pkg/obs/"))
    assert "pkg.obs.emit" not in blocked
    assert index.call_path("pkg.a.top", "pkg.obs.deep") == \
        ["pkg.a.top", "pkg.obs.emit", "pkg.obs.deep"]


# ---------------------------------------------------------------------------
# fingerprint-drift pass


DRIFT_CONFIG = FlowConfig(surfaces=(
    FingerprintSurface("pkg.spec.Spec", "pkg.spec.Spec.fingerprint"),))

SPEC_WITH_DRIFT = """\
    from dataclasses import dataclass

    @dataclass
    class Spec:
        alpha: int
        beta: int
        gamma: int

        def fingerprint(self):
            return f"{self.alpha}|{self.beta}"
"""


def test_drift_flags_unconsumed_field(tmp_path):
    result = flow_tree(tmp_path, {"pkg/spec.py": SPEC_WITH_DRIFT},
                       DRIFT_CONFIG)
    assert rules_of(result) == ["fingerprint-drift"]
    finding = result.findings[0]
    assert finding.data["field"] == "gamma"
    assert finding.line == 7
    assert "fingerprint-exempt" in finding.message


def test_drift_gains_field_is_flagged(tmp_path):
    """The headline contract: a dataclass gaining a field the
    fingerprint does not hash is detected."""
    clean = SPEC_WITH_DRIFT.replace("        gamma: int\n", "")
    assert not flow_tree(tmp_path / "a", {"pkg/spec.py": clean},
                         DRIFT_CONFIG).findings
    grown = flow_tree(tmp_path / "b", {"pkg/spec.py": SPEC_WITH_DRIFT},
                      DRIFT_CONFIG)
    assert [f.data["field"] for f in grown.findings] == ["gamma"]


def test_drift_covers_all_idiom_is_future_proof(tmp_path):
    result = flow_tree(tmp_path, {"pkg/spec.py": """\
        from dataclasses import dataclass, fields

        @dataclass
        class Spec:
            alpha: int
            brand_new_field: int

            def fingerprint(self):
                return "|".join(str(getattr(self, f.name))
                                for f in fields(self))
    """}, DRIFT_CONFIG)
    assert result.findings == []


def test_drift_follows_to_dict_and_helpers(tmp_path):
    result = flow_tree(tmp_path, {"pkg/spec.py": """\
        from dataclasses import dataclass

        def _canon(spec):
            return {"beta": spec.beta}

        @dataclass
        class Spec:
            alpha: int
            beta: int

            def to_dict(self):
                return {"alpha": self.alpha, **_canon(self)}

            def fingerprint(self):
                return str(self.to_dict())
    """}, DRIFT_CONFIG)
    assert result.findings == []


def test_drift_exemption_annotation(tmp_path):
    result = flow_tree(tmp_path, {"pkg/spec.py": """\
        from dataclasses import dataclass

        @dataclass
        class Spec:
            alpha: int
            # flow: fingerprint-exempt(derived at load time)
            cache_dir: str
            position: int  # flow: fingerprint-exempt(ordering only)

            def fingerprint(self):
                return str(self.alpha)
    """}, DRIFT_CONFIG)
    assert result.findings == []


def test_drift_broken_surface_fails_loudly(tmp_path):
    config = FlowConfig(surfaces=(
        FingerprintSurface("pkg.spec.Renamed",
                           "pkg.spec.Spec.fingerprint"),))
    result = flow_tree(tmp_path, {"pkg/spec.py": SPEC_WITH_DRIFT}, config)
    assert rules_of(result) == ["fingerprint-drift"]
    assert "broken" in result.findings[0].message


def test_drift_detected_on_real_campaignspec_axis(tmp_path):
    """Adding a matrix axis to a copy of the real CampaignSpec without
    threading it into ``to_dict`` (the fingerprint source) is caught —
    exactly the --resume poisoning ISSUE 10 guards against."""
    source = (REPO / "src/repro/campaign/spec.py").read_text()
    anchor = '    tenancies: Tuple[str, ...] = ("single",)'
    assert anchor in source
    mutated = source.replace(anchor,
                             anchor + "\n    new_axis: int = 0")
    result = flow_tree(
        tmp_path, {"src/repro/campaign/spec.py": mutated},
        FlowConfig(surfaces=(
            FingerprintSurface(
                "repro.campaign.spec.CampaignSpec",
                "repro.campaign.spec.CampaignSpec.fingerprint"),)),
        select=["fingerprint-drift"])
    assert [f.data["field"] for f in result.findings] == ["new_axis"]


CELL_SURFACE = FlowConfig(surfaces=(
    FingerprintSurface("repro.campaign.spec.CampaignCell",
                       "repro.campaign.spec.CampaignCell.fingerprint"),))


def test_drift_detected_on_real_campaigncell_field(tmp_path):
    """A CampaignCell field left out of ``config()`` (what the cell
    fingerprint hashes) is caught on a copy of the real source: two
    cells differing only in it would share one CellCache entry."""
    source = (REPO / "src/repro/campaign/spec.py").read_text()
    anchor = '    tenancy: str = "single"      # "single" | "smt"'
    assert source.count(anchor) == 1
    mutated = source.replace(anchor, "    warmup: int = 0\n" + anchor)
    result = flow_tree(tmp_path, {"src/repro/campaign/spec.py": mutated},
                       CELL_SURFACE, select=["fingerprint-drift"])
    assert [f.data["field"] for f in result.findings] == ["warmup"]


def test_real_campaigncell_index_exemption_is_honoured(tmp_path):
    """``CampaignCell.index`` stays outside the content address on
    purpose: the real source is clean because of its exemption, and the
    same source without it is flagged."""
    source = (REPO / "src/repro/campaign/spec.py").read_text()
    exemption = ("    # flow: fingerprint-exempt(matrix position only, "
                 "not simulated state)\n")
    assert source.count(exemption) == 1
    exempt = flow_tree(tmp_path / "exempt",
                       {"src/repro/campaign/spec.py": source},
                       CELL_SURFACE, select=["fingerprint-drift"])
    bare = flow_tree(tmp_path / "bare",
                     {"src/repro/campaign/spec.py":
                      source.replace(exemption, "")},
                     CELL_SURFACE, select=["fingerprint-drift"])
    assert exempt.findings == []
    assert [f.data["field"] for f in bare.findings] == ["index"]


def test_drift_detected_on_real_arenaspec_knob(tmp_path):
    """An ArenaSpec knob that ``to_dict`` (the fingerprint source) does
    not carry is caught on a copy of the real source: ``--resume`` would
    splice lineages run under different values of it."""
    source = (REPO / "src/repro/arena/loop.py").read_text()
    anchor = "    fn_budget: float = 0.05"
    assert source.count(anchor) == 1
    mutated = source.replace(anchor,
                             anchor + "\n    mutation_rate: float = 0.1")
    result = flow_tree(
        tmp_path, {"src/repro/arena/loop.py": mutated},
        FlowConfig(surfaces=(
            FingerprintSurface("repro.arena.loop.ArenaSpec",
                               "repro.arena.loop.ArenaSpec.fingerprint"),)),
        select=["fingerprint-drift"])
    assert [f.data["field"] for f in result.findings] == ["mutation_rate"]


# ---------------------------------------------------------------------------
# determinism-taint pass


TAINT_CONFIG = FlowConfig(
    taint_sink_names=frozenset({"atomic_write_bytes"}),
    taint_sink_methods=frozenset({"pkg.store.CheckpointStore.put"}),
    taint_barriers=("pkg/obs/",))


def test_taint_direct_source_to_sink(tmp_path):
    result = flow_tree(tmp_path, {"pkg/writer.py": """\
        import time
        from pkg.io import atomic_write_bytes

        def persist(path):
            stamp = time.time()
            atomic_write_bytes(path, str(stamp).encode())
    """, "pkg/io.py": """\
        def atomic_write_bytes(path, payload):
            pass
    """}, TAINT_CONFIG, select=["determinism-taint"])
    assert rules_of(result) == ["determinism-taint"]
    finding = result.findings[0]
    assert "time.time" in finding.data["source"]
    assert finding.data["sink"] == "atomic_write_bytes"


def test_taint_interprocedural_chain(tmp_path):
    result = flow_tree(tmp_path, {"pkg/top.py": """\
        import random
        from pkg import mid

        def jitter():
            mid.hand_off(random.random())
    """, "pkg/mid.py": """\
        from pkg.io import atomic_write_bytes

        def hand_off(value):
            atomic_write_bytes("f", str(value).encode())
    """, "pkg/io.py": """\
        def atomic_write_bytes(path, payload):
            pass
    """}, TAINT_CONFIG, select=["determinism-taint"])
    assert rules_of(result) == ["determinism-taint"]
    assert result.findings[0].data["chain"] == \
        ["pkg.top.jitter", "pkg.mid.hand_off"]


def test_taint_seeded_rng_is_clean(tmp_path):
    result = flow_tree(tmp_path, {"pkg/writer.py": """\
        import numpy as np
        import random

        def persist(path):
            rng = np.random.default_rng(7)
            r2 = random.Random(13)
            atomic_write_bytes(path, bytes([rng.integers(0, 255)]))

        def atomic_write_bytes(path, payload):
            pass
    """}, TAINT_CONFIG, select=["determinism-taint"])
    assert result.findings == []


def test_taint_barrier_stops_propagation(tmp_path):
    result = flow_tree(tmp_path, {"pkg/top.py": """\
        import time
        from pkg.obs import context

        def annotate():
            context.emit(time.time())
    """, "pkg/obs/__init__.py": "", "pkg/obs/context.py": """\
        from pkg.io import atomic_write_bytes

        def emit(stamp):
            atomic_write_bytes("m", str(stamp).encode())
    """, "pkg/io.py": """\
        def atomic_write_bytes(path, payload):
            pass
    """}, TAINT_CONFIG, select=["determinism-taint"])
    assert result.findings == []


def test_taint_method_sink_via_typed_local(tmp_path):
    result = flow_tree(tmp_path, {"pkg/store.py": """\
        class CheckpointStore:
            def put(self, key, payload):
                pass
    """, "pkg/writer.py": """\
        import os
        from pkg.store import CheckpointStore

        def persist():
            store = CheckpointStore()
            store.put("k", os.environ.get("HOME"))
    """}, TAINT_CONFIG, select=["determinism-taint"])
    assert rules_of(result) == ["determinism-taint"]
    assert result.findings[0].data["sink"] == \
        "pkg.store.CheckpointStore.put"
    assert "os.environ" in result.findings[0].data["source"]


def test_taint_set_iteration_and_suppression(tmp_path):
    files = {"pkg/writer.py": """\
        def persist(items):
            for item in set(items):{suffix}
                atomic_write_bytes("f", str(item).encode())

        def atomic_write_bytes(path, payload):
            pass
    """}
    flagged = flow_tree(
        tmp_path / "a",
        {k: v.format(suffix="") for k, v in files.items()},
        TAINT_CONFIG, select=["determinism-taint"])
    assert rules_of(flagged) == ["determinism-taint"]
    suppressed = flow_tree(
        tmp_path / "b",
        {k: v.replace(
            "for item in set(items):{suffix}",
            "for item in set(items):  "
            "# repro-lint: disable=determinism-taint -- vetted")
         for k, v in files.items()},
        TAINT_CONFIG, select=["determinism-taint"])
    assert suppressed.findings == []
    assert suppressed.suppressed == 1


# ---------------------------------------------------------------------------
# fail-secure-flow pass


SECURE_CONFIG = FlowConfig(failsecure_boundaries=("pkg/serve.py",))


def secure_tree(tmp_path, body):
    return flow_tree(tmp_path, {"pkg/serve.py": body},
                     SECURE_CONFIG, select=["fail-secure-flow"])


def test_failsecure_flags_swallowing_handler(tmp_path):
    result = secure_tree(tmp_path, """\
        def score(detector, window):
            try:
                return detector(window)
            except Exception:
                return None
    """)
    assert rules_of(result) == ["fail-secure-flow"]
    assert result.findings[0].line == 4


def test_failsecure_latch_reraise_and_escape_are_clean(tmp_path):
    result = secure_tree(tmp_path, """\
        def latching(slot, detector, window):
            try:
                return detector(window)
            except Exception as exc:
                slot._latch(str(exc))
                return None

        def reraising(detector, window):
            try:
                return detector(window)
            except ValueError:
                raise

        def attributing(detector, window, faults, i):
            try:
                return detector(window)
            except Exception as exc:
                faults[i] = exc
                return float("nan")
    """)
    assert result.findings == []


def test_failsecure_requires_all_branches(tmp_path):
    result = secure_tree(tmp_path, """\
        def both(slot, flag, detector, window):
            try:
                return detector(window)
            except Exception:
                if flag:
                    slot._latch("a")
                else:
                    slot.shed_window("b")

        def one_sided(slot, flag, detector, window):
            try:
                return detector(window)
            except Exception:
                if flag:
                    slot._latch("a")
                else:
                    return None
    """)
    assert len(result.findings) == 1
    assert result.findings[0].line == 13


def test_failsecure_only_applies_inside_boundary(tmp_path):
    result = flow_tree(tmp_path, {"pkg/other.py": """\
        def score(detector, window):
            try:
                return detector(window)
            except Exception:
                return None
    """}, SECURE_CONFIG, select=["fail-secure-flow"])
    assert result.findings == []


# ---------------------------------------------------------------------------
# catalog-provenance pass


CATALOG_CONFIG = FlowConfig(
    catalogs={"counter": frozenset({"l1d.hits", "l1d.misses"}),
              "metric": frozenset({"serve.windows", "runner.failures.crash",
                                   "runner.failures.timeout"}),
              "event": frozenset({"run.finished"})},
    counter_scope=("pkg/",), obs_scope=("pkg/",))


def test_catalog_variable_resolution(tmp_path):
    result = flow_tree(tmp_path, {"pkg/emit.py": """\
        GOOD = "l1d.hits"

        def tick(bank):
            bank.bump(GOOD)
            name = "l1d.misess"
            bank.bump(name)
    """}, CATALOG_CONFIG, select=["catalog-provenance"])
    assert rules_of(result) == ["catalog-provenance"]
    assert result.findings[0].data["name"] == "l1d.misess"
    assert "l1d.misses" in result.findings[0].message   # suggestion


def test_catalog_fstring_patterns(tmp_path):
    result = flow_tree(tmp_path, {"pkg/emit.py": """\
        def report(metrics, kind, prefix):
            metrics.inc(f"runner.failures.{kind}")
            metrics.inc(f"runner.successes.{kind}")
            metrics.inc(f"{prefix}.{kind}")
    """}, CATALOG_CONFIG, select=["catalog-provenance"])
    # failures.* matches two entries; successes.* matches none;
    # the fully-dynamic pattern is vacuous and skipped
    assert len(result.findings) == 1
    assert result.findings[0].data["pattern"] == "runner.successes.*"


def test_catalog_resolved_interpolation_and_events(tmp_path):
    result = flow_tree(tmp_path, {"pkg/emit.py": """\
        STAGE = "run"

        def done():
            obs_event(f"{STAGE}.finished")
            obs_event(f"{STAGE}.exploded")
    """}, CATALOG_CONFIG, select=["catalog-provenance"])
    assert len(result.findings) == 1
    assert result.findings[0].data["name"] == "run.exploded"


def test_catalog_dotted_only_and_exclusions(tmp_path):
    config = dataclasses.replace(CATALOG_CONFIG,
                                 catalog_exclude=("pkg/raw.py",))
    result = flow_tree(tmp_path, {"pkg/emit.py": """\
        def read(mapping):
            key = "plain"
            return mapping.get(key)      # undotted: not a counter name
    """, "pkg/raw.py": """\
        def tick(bank):
            name = "not.a.counter"
            bank.bump(name)              # excluded path
    """}, config, select=["catalog-provenance"])
    assert result.findings == []


# ---------------------------------------------------------------------------
# engine, baseline, reporters, CLI


def test_engine_reports_parse_errors(tmp_path):
    result = flow_tree(tmp_path, {"pkg/broken.py": """\
        def f(:
    """}, FlowConfig())
    assert rules_of(result) == ["parse-error"]


def test_engine_unknown_pass_raises(tmp_path):
    with pytest.raises(FlowUsageError):
        flow_tree(tmp_path, {"pkg/a.py": "x = 1\n"}, FlowConfig(),
                  select=["no-such-pass"])


def test_baseline_roundtrip_and_split(tmp_path):
    first = flow_tree(tmp_path, {"pkg/spec.py": SPEC_WITH_DRIFT},
                      DRIFT_CONFIG)
    assert len(first.findings) == 1
    accepted = Baseline.from_findings(first.findings, reason="known debt")
    target = tmp_path / ".flow-baseline.json"
    accepted.save(target)
    loaded = Baseline.load(target)
    assert loaded.accepted == \
        {("fingerprint-drift", baseline_key(first.findings[0]))}
    second = run_flow([tmp_path], root=tmp_path, config=DRIFT_CONFIG,
                      baseline=loaded)
    assert second.findings == []
    assert len(second.baselined) == 1
    payload = json.loads(target.read_text())
    assert payload["schema"] == BASELINE_SCHEMA


def test_baseline_key_survives_line_churn(tmp_path):
    shifted = "# a leading comment\n" + textwrap.dedent(SPEC_WITH_DRIFT)
    a = flow_tree(tmp_path / "a", {"pkg/spec.py": SPEC_WITH_DRIFT},
                  DRIFT_CONFIG)
    b = flow_tree(tmp_path / "b", {"pkg/spec.py": shifted}, DRIFT_CONFIG)
    assert baseline_key(a.findings[0]) == baseline_key(b.findings[0])
    assert a.findings[0].line != b.findings[0].line


def test_render_json_schema(tmp_path):
    result = flow_tree(tmp_path, {"pkg/spec.py": SPEC_WITH_DRIFT},
                       DRIFT_CONFIG)
    payload = render_json(result, root=tmp_path)
    assert payload["schema"] == JSON_SCHEMA == "repro-flow/1"
    assert payload["summary"]["new"] == 1
    assert payload["passes"] == ["fingerprint-drift", "determinism-taint",
                                 "fail-secure-flow", "catalog-provenance"]
    assert payload["findings"][0]["rule"] == "fingerprint-drift"


def test_cli_exit_codes(tmp_path, capsys):
    # 0: the real tree against its committed baseline
    assert flow_main([str(REPO / "src" / "repro"),
                      "--root", str(REPO)]) == 0
    # 1: a fixture tree has none of the DEFAULT_CONFIG surfaces, which
    # must fail loudly as broken-surface findings
    (tmp_path / "empty.py").write_text("x = 1\n")
    assert flow_main([str(tmp_path), "--root", str(tmp_path),
                      "--no-baseline"]) == 1
    # 2: unknown pass selection
    assert flow_main([str(tmp_path), "--root", str(tmp_path),
                      "--select", "no-such-pass"]) == 2
    capsys.readouterr()


def test_cli_json_out_and_write_baseline(tmp_path, capsys):
    (tmp_path / "empty.py").write_text("x = 1\n")
    out = tmp_path / "findings.json"
    flow_main([str(tmp_path), "--root", str(tmp_path), "--no-baseline",
               "--json-out", str(out)])
    payload = json.loads(out.read_text())
    assert payload["schema"] == "repro-flow/1"
    assert payload["summary"]["new"] > 0
    # accepting the debt into a baseline turns the same run clean
    assert flow_main([str(tmp_path), "--root", str(tmp_path),
                      "--write-baseline"]) == 0
    assert flow_main([str(tmp_path), "--root", str(tmp_path)]) == 0
    capsys.readouterr()


def test_shared_cache_parses_each_file_once(tmp_path):
    files = {"src/repro/sim/a.py": "def f():\n    return 1\n",
             "src/repro/sim/b.py": "def g():\n    return 2\n"}
    write_tree(tmp_path, files)
    cache = SourceCache()
    LintEngine(root=tmp_path, cache=cache).run([tmp_path])
    after_lint = cache.parses
    assert after_lint == len(files)
    FlowEngine(config=FlowConfig(), root=tmp_path, cache=cache).run(
        [tmp_path])
    assert cache.parses == after_lint   # flow re-used every parse


def test_flow_self():
    """The repo passes its own whole-program verifier against the
    committed baseline — the same invariant scripts/ci.sh enforces."""
    baseline_file = REPO / ".flow-baseline.json"
    baseline = Baseline.load(baseline_file) if baseline_file.exists() \
        else None
    result = run_flow([REPO / "src" / "repro"], root=REPO,
                      baseline=baseline)
    assert result.findings == [], \
        "\n".join(f.location() + " " + f.message for f in result.findings)
