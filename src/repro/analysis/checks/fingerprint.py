"""Whole-program check: fingerprint-coverage drift.

Every cache key in this repo is a hash over a config dataclass: the
campaign cache hashes :class:`CampaignCell`, resume guards hash
:class:`CampaignSpec` and :class:`ArenaSpec`.  The failure mode is
silent and nasty — add a field to the dataclass, forget the fingerprint
function, and two configs that differ in that field now *collide*: the
cache serves bit-exact results for the wrong configuration.

This check closes the loop statically.  For each declared
:class:`~repro.analysis.config.FingerprintSurface` it computes the
set of fields the fingerprint function *consumes* — attribute reads on
the tracked config object, followed interprocedurally through helper
calls that receive it (``self.to_dict()``, ``_canon(config)``, …) — and
flags every declared field that is neither consumed nor annotated
``# flow: fingerprint-exempt(<why>)``.  A ``dataclasses.fields`` /
``asdict`` / ``astuple`` call on the tracked object is the covers-all
idiom: it consumes every field by construction, including future ones.

``# flow: fingerprint-exempt(<why>)`` is deliberately a *different*
channel from ``# repro-lint: disable=...`` suppressions: a suppression
silences a finding, an exemption declares the exclusion to be part of
the fingerprint's contract.  The reason is mandatory; an empty one is
not an exemption.  A directive on a field's own line exempts that
field; one on a standalone comment line exempts the next line.
"""

import ast
import re

from repro.analysis.engine import Check, register
from repro.analysis.source import dotted_name

#: calls that consume every dataclass field by construction
_COVERS_ALL = frozenset({"dataclasses.fields", "dataclasses.asdict",
                         "dataclasses.astuple"})

_EXEMPT = re.compile(
    r"#\s*flow:\s*fingerprint-exempt\(\s*([^)]+?)\s*\)")

#: interprocedural follow depth — fingerprints are shallow by design
#: (fingerprint -> to_dict -> helper); anything deeper is already a
#: smell worth a finding
_MAX_DEPTH = 4


def fingerprint_exemptions(lines):
    """Map ``{lineno: reason}`` of fingerprint-exempt field lines."""
    table = {}
    for lineno, line in enumerate(lines, 1):
        match = _EXEMPT.search(line)
        if match is not None:
            # a comment-only line shields the line it precedes
            target = lineno + 1 if line.lstrip().startswith("#") \
                else lineno
            table[target] = match.group(1)
    return table


def _first_param(fn):
    """The local name bound to the config object inside ``fn``: its
    first parameter (``self``/``cls`` for a method)."""
    args = fn.node.args
    ordered = list(args.posonlyargs) + list(args.args)
    return ordered[0].arg if ordered else None


class _Consumption:
    """Accumulates field reads across the helper-call closure."""

    def __init__(self, index, cls):
        self.index = index
        self.cls = cls
        self.consumed = set()
        self.covers_all = False
        self._visited = set()

    def collect(self, fn, tracked, depth=0):
        if fn is None or tracked is None or depth > _MAX_DEPTH:
            return
        key = (fn.qname, tracked)
        if key in self._visited or self.covers_all:
            return
        self._visited.add(key)
        for node in fn.nodes:
            if isinstance(node, ast.Attribute) \
                    and isinstance(node.value, ast.Name) \
                    and node.value.id == tracked:
                self.consumed.add(node.attr)
            elif isinstance(node, ast.Call):
                self._follow_call(fn, node, tracked, depth)

    def _follow_call(self, fn, call, tracked, depth):
        dotted = dotted_name(call.func)
        if dotted is None:
            return
        expanded = fn.module.expand(dotted)
        if expanded in _COVERS_ALL and any(
                isinstance(a, ast.Name) and a.id == tracked
                for a in call.args):
            self.covers_all = True
            return
        parts = dotted.split(".")
        # tracked.m(...): a method call on the config object itself
        # (covers both `config.to_dict()` in free functions and
        # `self.to_dict()` once we are inside a method of the class)
        if len(parts) == 2 and parts[0] == tracked:
            self.collect(self.index.lookup_method(self.cls, parts[1]),
                         "self", depth + 1)
            return
        # helper(tracked, ...): follow the object into the callee's
        # matching parameter
        positions = [i for i, a in enumerate(call.args)
                     if isinstance(a, ast.Name) and a.id == tracked]
        if not positions:
            return
        for target in self.index._call_targets(fn, dotted):
            if target is None:
                continue
            args = target.node.args
            params = [a.arg for a in
                      list(args.posonlyargs) + list(args.args)]
            # skip the self/cls slot when the callee is a method
            offset = 1 if target.cls is not None else 0
            for pos in positions:
                slot = pos + offset
                if slot < len(params):
                    self.collect(target, params[slot], depth + 1)


@register
class FingerprintDrift(Check):
    """Every field of a fingerprinted config dataclass is hashed by its
    fingerprint function, or carries a fingerprint-exempt reason."""

    name = "fingerprint-drift"
    description = ("config-dataclass field not consumed by its fingerprint "
                   "function (and not fingerprint-exempt)")
    kind = "program"
    include = ("src/repro/",)

    def check(self, index, config):
        findings = []
        for surface in config.surfaces:
            module = index.modules.get(surface.dataclass.rpartition(".")[0])
            if module is None:
                continue    # the surface's module is not being analysed
            cls = index.classes.get(surface.dataclass)
            fn = index.functions.get(surface.fingerprint)
            missing = [("dataclass", surface.dataclass)] if cls is None \
                else []
            if fn is None:
                missing.append(("fingerprint function", surface.fingerprint))
            if missing:
                # a renamed surface must fail loudly, not silently stop
                # checking — anchor at whichever side still exists
                anchor = cls or fn
                what = " and ".join(f"{kind} `{qname}`"
                                    for kind, qname in missing)
                findings.append(self.finding(
                    anchor.module if anchor else module,
                    anchor.node.lineno if anchor else 1, 1,
                    f"fingerprint surface is broken: {what} not found in "
                    f"the project index — update the flow config if it "
                    f"moved", data={"surface": surface.dataclass}))
                continue
            walker = _Consumption(index, cls)
            walker.collect(fn, _first_param(fn))
            if walker.covers_all:
                continue
            exempt = fingerprint_exemptions(cls.module.source.lines)
            for field in cls.fields:
                if field.name in walker.consumed or field.lineno in exempt:
                    continue
                findings.append(self.finding(
                    cls.module, field.lineno, 1,
                    f"field `{cls.name}.{field.name}` is never "
                    f"consumed by `{surface.fingerprint}` — configs "
                    f"differing only in it share a cache entry; hash "
                    f"it or annotate "
                    f"`# flow: fingerprint-exempt(<why>)`",
                    data={"dataclass": cls.qname, "field": field.name,
                          "fingerprint": surface.fingerprint,
                          "note": surface.note}))
        return findings
