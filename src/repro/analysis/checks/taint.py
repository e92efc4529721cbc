"""Whole-program check: determinism taint into persistence sinks.

The per-file determinism checks ban nondeterminism sources inside the
deterministic layers outright.  This check asks the complementary,
cross-file question: can a nondeterministic value produced *anywhere*
(a wall-clock read in a runner, an unseeded draw in a script helper)
flow through the call graph into something we **persist and later trust
as replayable** — a checkpoint, a cell-cache entry, a genome key, an
atomically-written ledger?

The analysis is function-level may-flow, deliberately coarse:

* a function is **tainted** if its body contains a source (wall clock,
  unseeded RNG, ``os.environ``, bare ``id()``, unordered set
  iteration), as classified by the same
  :func:`~repro.analysis.checks.determinism.nondeterminism_sources`
  the per-file determinism checks use;
* a function is a **sink holder** if its body calls a configured sink
  (by name — ``atomic_write_bytes``, ``genome_key`` — or by resolved
  method — ``CheckpointStore.put``);
* a finding fires when a tainted function can reach a sink holder in
  the call graph without crossing the observability **barrier**
  (``src/repro/obs/`` records wall-clock timestamps by design; nothing
  behind it feeds replayed state, and without the barrier every
  ``obs_event`` caller would light up).

Coarse means conservative: the tainted value itself is not dataflow-
tracked into the sink argument, so a hit says "audit this chain", with
the shortest source→sink call path rendered as evidence.  Suppress a
vetted chain with ``# repro-lint: disable=determinism-taint -- why``
on the source line.
"""

from repro.analysis.checks.determinism import nondeterminism_sources
from repro.analysis.engine import Check, register, under
from repro.analysis.source import dotted_name


class _SinkTable:
    """Resolves calls against the configured sink sets."""

    def __init__(self, index, config):
        self.index = index
        self.names = config.taint_sink_names
        self.methods = config.taint_sink_methods
        self.method_lastnames = frozenset(
            q.rpartition(".")[2] for q in config.taint_sink_methods)

    def sink_of(self, info, call):
        """The sink a call hits, or None."""
        dotted = dotted_name(call.func)
        if dotted is None:
            return None
        last = dotted.split(".")[-1]
        if last in self.names:
            return last
        if last in self.method_lastnames:
            for target in self.index._call_targets(info, dotted):
                if target is not None and target.qname in self.methods:
                    return target.qname
        return None


@register
class DeterminismTaint(Check):
    """No nondeterminism source reaches a persistence sink through the
    call graph."""

    name = "determinism-taint"
    description = ("nondeterminism source can reach a persistence sink "
                   "through the call graph")
    kind = "program"
    include = ("src/repro/",)

    def check(self, index, config):
        sinks = _SinkTable(index, config)

        def barrier(target):
            return under(target.relpath, config.taint_barriers)

        sink_holders = {}   # qname -> sink description
        for info in index.functions.values():
            if barrier(info):
                continue
            for call, _ in info.calls:
                sink = sinks.sink_of(info, call)
                if sink is not None:
                    sink_holders.setdefault(info.qname, sink)
                    break

        findings = []
        for info in sorted(index.functions.values(), key=lambda f: f.qname):
            if barrier(info):
                continue
            sources = list(nondeterminism_sources(info.nodes,
                                                  info.module.expand))
            if not sources:
                continue
            reached = index.reachable(info.qname, barrier=barrier)
            hits = sorted(q for q in sink_holders if q in reached)
            if not hits:
                continue
            goal = hits[0]
            chain = index.call_path(info.qname, goal, barrier=barrier) \
                or [info.qname, goal]
            for _, desc, node, _ in sources:
                findings.append(self.finding_at(
                    info, node,
                    f"{desc} in `{info.qname}` can reach persistence sink "
                    f"`{sink_holders[goal]}` via {' -> '.join(chain)}; "
                    f"persisted state must be a pure function of "
                    f"(workload, seed)",
                    data={"source": desc, "sink": sink_holders[goal],
                          "chain": chain}))
        return findings
