"""The metric/event docs and repro.obs.names must agree, in both
directions, and instrumentation sites must only emit cataloged names.

Two pages carry catalog tables: ``docs/observability.md`` (the original
layers), ``docs/serving.md`` (the ``serve`` layer) and ``docs/arena.md``
(the ``arena`` layer); all are parsed,
so a metric documented on either page satisfies the contract and a name
on either page that the code cannot emit fails it.
"""

import re
from pathlib import Path

from repro.obs import metrics
from repro.obs.names import ALL_METRICS, CATALOG, EVENTS, is_known_metric

_DOCS_DIR = Path(__file__).resolve().parents[2] / "docs"
#: every page whose backticked dotted tokens are checked as catalog names
DOCS = (_DOCS_DIR / "observability.md", _DOCS_DIR / "serving.md",
        _DOCS_DIR / "arena.md")

#: first name segments that mark a backticked token as a metric/event
_LAYER_PREFIXES = {"sim", "runner", "runtime", "data", "ml", "amgan",
                   "vaccinate", "adaptive", "stage", "cli", "task",
                   "manifest", "guard", "campaign", "serve", "arena"}
#: backticked dotted tokens that are file names, not metric names
_FILE_SUFFIXES = {"json", "jsonl", "md", "py", "pstats", "npz"}


def _doc_names():
    text = "\n".join(page.read_text() for page in DOCS)
    names = set()
    for token in re.findall(
            r"`([a-z_][a-z0-9_]*(?:\.[a-z_][a-z0-9_]*)+)`", text):
        head, _, _ = token.partition(".")
        if head in _LAYER_PREFIXES and \
                token.rsplit(".", 1)[-1] not in _FILE_SUFFIXES:
            names.add(token)
    return names


def test_every_docs_name_exists_in_code():
    """Acceptance check: a metric or event name mentioned in the docs
    that the code cannot emit is a docs bug (or a typo)."""
    known = set(ALL_METRICS) | set(EVENTS)
    unknown = _doc_names() - known
    assert not unknown, f"docs mention unknown metrics/events: {unknown}"


def test_every_catalog_name_is_documented():
    documented = _doc_names()
    missing = (set(ALL_METRICS) | set(EVENTS)) - documented
    assert not missing, f"cataloged but undocumented: {missing}"


def test_catalog_is_well_formed():
    assert set(CATALOG) == {"sim", "runtime", "data", "ml", "core",
                            "campaign", "serve", "cli",
                            "arena"}
    for name, (kind, desc) in ALL_METRICS.items():
        assert kind in ("counter", "gauge", "timer"), name
        assert desc
        assert re.fullmatch(
            r"[a-z_][a-z0-9_]*(\.[a-z_][a-z0-9_]*)+", name), name
    assert is_known_metric("sim.runs")
    assert not is_known_metric("sim.nope")


def test_instrumented_run_emits_only_cataloged_names():
    """Drive real instrumentation, then check the global registry holds
    no name outside the catalog (sites cannot invent metrics)."""
    from repro.attacks import Meltdown
    from repro.data import build_dataset
    from repro.workloads import all_workloads

    reg = metrics()
    reg.reset()
    build_dataset([Meltdown(seed=1)], all_workloads(scale=1, seeds=(0,))[:1],
                  sample_period=500)
    emitted = set(reg.names())
    assert emitted, "instrumentation emitted nothing"
    rogue = {n for n in emitted
             if n.partition(".")[0] in _LAYER_PREFIXES
             and not is_known_metric(n)}
    assert not rogue, f"instrumentation emitted uncataloged names: {rogue}"
    assert {"sim.runs", "sim.sampler.windows", "sim.run.seconds"} <= emitted
