"""Catalog checks: one name resolver per catalog.

Three name catalogs are contracts between code, docs, and ops tooling:

* ``repro.sim.hpc.COUNTER_NAMES`` — every HPC the simulator may bump;
* ``repro.obs.names.ALL_METRICS`` — every metric the instrumentation
  may emit;
* ``repro.obs.names.EVENTS`` — every structured-log event name.

``CounterBank.bump`` and the registry raise on unknown names, but only
when the site first *fires* — a typo on a cold path (a trap counter, a
defense-mode-only stall, an error-path event) survives the whole test
suite and then crashes a long collection run.  Each check resolves the
name argument of every emitter call against its catalog at analysis
time:

* a **string literal** is the name itself;
* a **variable** is resolved when the enclosing function assigns it
  exactly one string constant, or it is a module-level string constant;
* an **f-string** becomes a glob pattern — constant parts verbatim,
  resolvable interpolations substituted, everything else ``*`` — which
  must match at least one catalog entry (``f"{self.prefix}.hits"`` →
  ``*.hits`` must match some cataloged ``<cache>.hits``).

Vacuous patterns (nothing but ``*`` and dots) prove nothing and are
skipped, as are names built across function boundaries — those remain
the blind spot and should stay behind a ``CounterBank.has`` guard.
"""

import ast
import difflib
import fnmatch

from repro.analysis.engine import Check, register
from repro.analysis.source import call_callee


def _suggest(name, known):
    close = difflib.get_close_matches(name, sorted(known), n=2)
    return f" (did you mean {' or '.join(map(repr, close))}?)" if close \
        else ""


def _enclosing_functions(tree):
    """Map every call inside a module-level function or a method of a
    module-level class to that function: the scope its names resolve
    in."""
    owner = {}
    for top in tree.body:
        for node in top.body if isinstance(top, ast.ClassDef) else [top]:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update((sub, node) for sub in ast.walk(node)
                             if isinstance(sub, ast.Call))
    return owner


class _Names:
    """Resolves name arguments within one module."""

    def __init__(self, tree):
        self.owner = _enclosing_functions(tree)
        self.constants = {node.targets[0].id: node.value
                          for node in tree.body
                          if isinstance(node, ast.Assign)
                          and len(node.targets) == 1
                          and isinstance(node.targets[0], ast.Name)}

    def constant(self, call, name):
        """The single constant string ``name`` denotes where ``call``
        is, or None when unbound, non-constant, or multiply assigned."""
        fn = self.owner.get(call)
        values = [] if fn is None else [
            node.value for node in ast.walk(fn)
            if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == name
                    for t in node.targets)]
        if not values:
            values = [self.constants.get(name)]
        elif len(values) > 1:
            return None     # reassigned: give up
        value = values[0]
        if isinstance(value, ast.Constant) and isinstance(value.value, str):
            return value.value
        return None

    def pattern(self, call, joined):
        """An f-string as a glob pattern, or None when un-analyzable."""
        parts = []
        for value in joined.values:
            if isinstance(value, ast.Constant):
                parts.append(str(value.value))
            elif isinstance(value, ast.FormattedValue):
                resolved = self.constant(call, value.value.id) \
                    if isinstance(value.value, ast.Name) else None
                parts.append(resolved if resolved is not None else "*")
            else:
                return None
        return "".join(parts)


class _CatalogCheck(Check):
    """Resolve every emitter call's first argument against a catalog."""

    #: emitters whose first argument is a name of this catalog
    calls = frozenset()
    #: emitters that take one only when it is dotted (``get``/``set``/
    #: ``event`` also name dict and gauge methods; every catalog name is
    #: namespaced, so an undotted argument is not a catalog name)
    dotted_only = frozenset()
    label = ""

    def known_names(self):
        raise NotImplementedError

    def check(self, source):
        known, names = self.known_names(), None
        emitters = self.calls | self.dotted_only
        for call in source.nodes:
            if not isinstance(call, ast.Call) or not call.args:
                continue
            callee = call_callee(call)
            if callee not in emitters:
                continue
            arg = call.args[0]
            if isinstance(arg, ast.Constant):
                name, how = arg.value, ""
            elif isinstance(arg, ast.Name):
                names = names or _Names(source.tree)
                name = names.constant(call, arg.id)
                how = f"variable `{arg.id}` resolves to "
            elif isinstance(arg, ast.JoinedStr):
                names = names or _Names(source.tree)
                name = names.pattern(call, arg)
                how = "f-string resolves to "
                if name is not None and \
                        not name.replace("*", "").replace(".", ""):
                    continue    # vacuous: proves nothing
            else:
                continue
            if not isinstance(name, str) or name in known:
                continue
            if callee in self.dotted_only and \
                    "." not in name.replace("*", ""):
                continue
            if isinstance(arg, ast.JoinedStr) and "*" in name:
                if fnmatch.filter(sorted(known), name):
                    continue
                yield self.finding_at(
                    source, call,
                    f"f-string pattern {name!r} matches no {self.label} "
                    f"catalog entry — the name this builds can never be "
                    f"cataloged", data={"pattern": name})
            else:
                yield self.finding_at(
                    source, call,
                    f"{how}unknown {self.label} name {name!r}"
                    f"{_suggest(name, known)}", data={"name": name})


@register
class CatalogCounters(_CatalogCheck):
    """Every counter name under sim/ exists in COUNTER_NAMES: the
    optimized core preresolves names to slots at import time, but any
    name only a cold path touches would crash mid-collection the first
    time it fires."""

    name = "catalog-counters"
    description = "counter name not in repro.sim.hpc.COUNTER_NAMES"
    include = ("src/repro/sim/",)
    calls = frozenset({"bump", "index_of", "has", "_IX"})
    dotted_only = frozenset({"get"})
    label = "counter"

    def known_names(self):
        from repro.sim.hpc import COUNTER_NAMES
        return frozenset(COUNTER_NAMES)


@register
class CatalogMetrics(_CatalogCheck):
    """Every metric name exists in the obs catalog: docs/observability.md
    and the manifest tooling are checked against the catalog, so an
    uncataloged name is a metric dashboards will never find."""

    name = "catalog-metrics"
    description = "metric name not in repro.obs.names.ALL_METRICS"
    include = ("src/repro/",)
    # ``Gauge.set(value)`` takes no name, ``MetricsRegistry.set("a.b",
    # value)`` does
    calls = frozenset({"inc", "counter", "gauge", "timer", "time_block"})
    dotted_only = frozenset({"set"})
    label = "metric"

    def known_names(self):
        from repro.obs.names import ALL_METRICS
        return frozenset(ALL_METRICS)


@register
class CatalogEvents(_CatalogCheck):
    """Every event name exists in the obs event catalog: log consumers
    join events back to run manifests by cataloged name, so an
    uncataloged event is invisible to every documented query."""

    name = "catalog-events"
    description = "event name not in repro.obs.names.EVENTS"
    include = ("src/repro/",)
    calls = frozenset({"obs_event"})
    dotted_only = frozenset({"event"})
    label = "event"

    def known_names(self):
        from repro.obs.names import EVENTS
        return frozenset(EVENTS)
