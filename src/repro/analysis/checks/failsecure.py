"""Whole-program check: fail-secure exception flow.

EVAX's security argument leans on one invariant: when the adaptive
machinery *faults*, the system degrades toward the secure
configuration, never silently toward the fast one.  The runtime
enforces it dynamically (the controller latches always-secure on
detector faults, the fan-out sheds windows under backpressure, serve
attributes per-row faults) — but every one of those protections sits
inside an ``except`` handler, and a handler that swallows the
exception *is* the vulnerability.

This check statically verifies the boundary set: every ``except``
handler in the configured fail-secure files must, **on all paths
through the handler body**, reach one of

* a ``raise`` (re-raise or translate),
* a latch/shed sink call (``_latch``, ``shed_window``, configurable),
* an **exception escape** — the bound exception object handed onward
  (passed as a call argument/keyword, or stored into a container /
  attribute, e.g. serve's ``faults[i] = exc``).

The all-paths check is conservative in the safe direction: loop bodies
are assumed skippable, an ``if`` guarantees the sink only when both
branches do, a ``return`` before any sink is a swallow.  A handler the
analysis cannot prove safe but a human has vetted takes an inline
``# repro-lint: disable=fail-secure-flow -- <why>`` on its
``except`` line.
"""

import ast

from repro.analysis.engine import Check, register, under
from repro.analysis.source import call_callee


def _exc_escapes(node, exc_name):
    """True when the bound exception object is handed onward."""
    if exc_name is None:
        return False
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call):
            handed = list(sub.args) + [kw.value for kw in sub.keywords]
            if any(isinstance(a, ast.Name) and a.id == exc_name
                   for a in handed):
                return True
        elif isinstance(sub, ast.Assign):
            stored = any(isinstance(t, (ast.Subscript, ast.Attribute))
                         for t in sub.targets)
            names = {n.id for n in ast.walk(sub.value)
                     if isinstance(n, ast.Name)}
            if stored and exc_name in names:
                return True
    return False


def _has_sink_call(node, sink_names):
    return any(isinstance(sub, ast.Call)
               and call_callee(sub) in sink_names
               for sub in ast.walk(node))


def _stmt_sinks(stmt, exc_name, sink_names):
    """Does this single statement itself reach a sink?"""
    if isinstance(stmt, ast.Raise):
        return True
    return _has_sink_call(stmt, sink_names) \
        or _exc_escapes(stmt, exc_name)


def _terminates(stmt):
    return isinstance(stmt, (ast.Return, ast.Break, ast.Continue,
                             ast.Raise))


def _guarantees_sink(stmts, exc_name, sink_names):
    """All-paths: every execution through ``stmts`` reaches a sink.

    Compound statements are analyzed structurally FIRST — a sink
    buried in one branch of an ``if`` (or in a maybe-zero-iteration
    loop body) must not count as guaranteed."""
    for stmt in stmts:
        if isinstance(stmt, ast.If):
            body = _guarantees_sink(stmt.body, exc_name, sink_names)
            orelse = _guarantees_sink(stmt.orelse, exc_name, sink_names)
            if body and orelse:
                return True
            # a branch that leaves the handler without sinking is a
            # proven swallow path
            for branch, ok in ((stmt.body, body), (stmt.orelse, orelse)):
                if branch and not ok and _terminates(branch[-1]):
                    return False
            continue
        if isinstance(stmt, ast.Try):
            covered = _guarantees_sink(stmt.body, exc_name, sink_names) \
                and all(_guarantees_sink(h.body, exc_name, sink_names)
                        for h in stmt.handlers)
            if covered or _guarantees_sink(stmt.finalbody, exc_name,
                                           sink_names):
                return True
            continue
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            if _guarantees_sink(stmt.body, exc_name, sink_names):
                return True
            continue
        if isinstance(stmt, (ast.For, ast.AsyncFor, ast.While)):
            continue    # body may execute zero times: no guarantee
        if _stmt_sinks(stmt, exc_name, sink_names):
            return True
        if _terminates(stmt):
            return False    # leaves the handler without sinking
    return False            # falls off the end without sinking


@register
class FailSecureFlow(Check):
    """Every handler in the fail-secure boundary latches, sheds, hands
    the exception onward, or re-raises, on all paths."""

    name = "fail-secure-flow"
    description = ("except handler in the fail-secure boundary may swallow "
                   "a fault without latching, shedding, or re-raising")
    kind = "program"
    include = ("src/repro/",)

    def check(self, index, config):
        findings = []
        for modname in sorted(index.modules):
            mod = index.modules[modname]
            if not under(mod.relpath, config.failsecure_boundaries):
                continue
            for node in mod.source.nodes:
                if not isinstance(node, ast.ExceptHandler):
                    continue
                if _guarantees_sink(node.body, node.name,
                                    config.failsecure_sinks):
                    continue
                caught = "exception"
                if node.type is not None:
                    caught = ast.unparse(node.type)
                findings.append(self.finding_at(
                    mod, node,
                    f"`except {caught}` handler in the fail-secure "
                    f"boundary has a path that swallows the fault — "
                    f"every path must latch "
                    f"({'/'.join(sorted(config.failsecure_sinks))}), "
                    f"hand the exception onward, or re-raise",
                    data={"caught": caught}))
        return findings
