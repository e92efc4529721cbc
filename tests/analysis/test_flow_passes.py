"""Whole-program check tests: project-index resolution and the two
whole-program checks over fixture trees.

Fixture trees are written under ``tmp_path`` at ``src/repro/pkg/...``,
inside the whole-program checks' scope, and analysed with a fixture
:class:`FlowConfig` whose sinks / boundaries point at the fixture
modules — so every check is exercised hermetically.
"""

import ast
import textwrap

import pytest

from repro.analysis.checks.determinism import nondeterminism_sources
from repro.analysis.config import FlowConfig
from repro.analysis.engine import run
from repro.analysis.index import ProjectIndex
from repro.analysis.source import SourceFile


def write_tree(tmp_path, files):
    for relpath, source in files.items():
        target = tmp_path / relpath
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(source))


def flow_tree(tmp_path, files, config, select=None):
    write_tree(tmp_path, files)
    return run(root=tmp_path, config=config, select=select)


def rules_of(result):
    return [finding.rule for finding in result.findings]


# ---------------------------------------------------------------------------
# project index


def build_index(tmp_path, files):
    write_tree(tmp_path, files)
    return ProjectIndex.build({relpath: SourceFile(tmp_path / relpath,
                                                   relpath)
                               for relpath in files})


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
# determinism-taint check


TAINT_CONFIG = FlowConfig(
    taint_sink_names=frozenset({"atomic_write_bytes"}),
    taint_sink_methods=frozenset({"repro.pkg.store.CheckpointStore.put"}),
    taint_barriers=("src/repro/pkg/obs/",))


def test_taint_direct_source_to_sink(tmp_path):
    result = flow_tree(tmp_path, {"src/repro/pkg/writer.py": """\
        import time
        from repro.pkg.io import atomic_write_bytes

        def persist(path):
            stamp = time.time()
            atomic_write_bytes(path, str(stamp).encode())
    """, "src/repro/pkg/io.py": """\
        def atomic_write_bytes(path, payload):
            pass
    """}, TAINT_CONFIG, select=["determinism-taint"])
    assert rules_of(result) == ["determinism-taint"]
    finding = result.findings[0]
    assert "time.time" in finding.data["source"]
    assert finding.data["sink"] == "atomic_write_bytes"


def test_taint_interprocedural_chain(tmp_path):
    result = flow_tree(tmp_path, {"src/repro/pkg/top.py": """\
        import random
        from repro.pkg import mid

        def jitter():
            mid.hand_off(random.random())
    """, "src/repro/pkg/mid.py": """\
        from repro.pkg.io import atomic_write_bytes

        def hand_off(value):
            atomic_write_bytes("f", str(value).encode())
    """, "src/repro/pkg/io.py": """\
        def atomic_write_bytes(path, payload):
            pass
    """}, TAINT_CONFIG, select=["determinism-taint"])
    assert rules_of(result) == ["determinism-taint"]
    assert result.findings[0].data["chain"] == \
        ["repro.pkg.top.jitter", "repro.pkg.mid.hand_off"]


def test_taint_seeded_rng_is_clean(tmp_path):
    result = flow_tree(tmp_path, {"src/repro/pkg/writer.py": """\
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
    result = flow_tree(tmp_path, {"src/repro/pkg/top.py": """\
        import time
        from repro.pkg.obs import context

        def annotate():
            context.emit(time.time())
    """, "src/repro/pkg/obs/__init__.py": "",
        "src/repro/pkg/obs/context.py": """\
        from repro.pkg.io import atomic_write_bytes

        def emit(stamp):
            atomic_write_bytes("m", str(stamp).encode())
    """, "src/repro/pkg/io.py": """\
        def atomic_write_bytes(path, payload):
            pass
    """}, TAINT_CONFIG, select=["determinism-taint"])
    assert result.findings == []


def test_taint_method_sink_via_typed_local(tmp_path):
    result = flow_tree(tmp_path, {"src/repro/pkg/store.py": """\
        class CheckpointStore:
            def put(self, key, payload):
                pass
    """, "src/repro/pkg/writer.py": """\
        import os
        from repro.pkg.store import CheckpointStore

        def persist():
            store = CheckpointStore()
            store.put("k", os.environ.get("HOME"))
    """}, TAINT_CONFIG, select=["determinism-taint"])
    assert rules_of(result) == ["determinism-taint"]
    assert result.findings[0].data["sink"] == \
        "repro.pkg.store.CheckpointStore.put"
    assert "os.environ" in result.findings[0].data["source"]


def test_taint_set_iteration_and_suppression(tmp_path):
    files = {"src/repro/pkg/writer.py": """\
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
# fail-secure-flow check


SECURE_CONFIG = FlowConfig(failsecure_boundaries=("src/repro/pkg/serve.py",))


def secure_tree(tmp_path, body):
    return flow_tree(tmp_path, {"src/repro/pkg/serve.py": body},
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
    result = flow_tree(tmp_path, {"src/repro/pkg/other.py": """\
        def score(detector, window):
            try:
                return detector(window)
            except Exception:
                return None
    """}, SECURE_CONFIG, select=["fail-secure-flow"])
    assert result.findings == []


# ---------------------------------------------------------------------------
# the shared nondeterminism classifier


@pytest.mark.parametrize("source, check", [
    ("time.time()", "forbidden-clock"),
    ("numpy.random.rand(3)", "unseeded-rng"),
    ("[x for x in set(items)]", "set-iteration"),
], ids=["clock", "rng", "set"])
def test_taint_follows_every_per_file_determinism_source(tmp_path, source,
                                                          check):
    """A source the per-file determinism checks ban is a taint source
    too, with the same description: both call one classifier."""
    body = f"""\
        import time
        import numpy

        def persist(path, items):
            value = {source}
            atomic_write_bytes(path, repr(value).encode())

        def atomic_write_bytes(path, payload):
            pass
    """
    result = flow_tree(tmp_path, {"src/repro/pkg/writer.py": body},
                       TAINT_CONFIG, select=["determinism-taint"])
    assert rules_of(result) == ["determinism-taint"]
    tree = ast.parse(textwrap.dedent(body))
    [(kind, description, _, _)] = nondeterminism_sources(ast.walk(tree))
    assert kind == check
    assert result.findings[0].data["source"] == description
