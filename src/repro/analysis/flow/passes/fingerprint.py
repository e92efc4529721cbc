"""Pass 1 — fingerprint-coverage drift.

Every cache key in this repo is a hash over a config dataclass: the
campaign cache hashes :class:`CampaignCell`, resume guards hash
:class:`CampaignSpec` and :class:`ArenaSpec`.  The failure mode is
silent and nasty — add a field to the dataclass, forget the fingerprint
function, and two configs that differ in that field now *collide*: the
cache serves bit-exact results for the wrong configuration.

This pass closes the loop statically.  For each declared
:class:`~repro.analysis.flow.config.FingerprintSurface` it computes the
set of fields the fingerprint function *consumes* — attribute reads on
the tracked config object, followed interprocedurally through helper
calls that receive it (``self.to_dict()``, ``_canon(config)``, …) — and
flags every declared field that is neither consumed nor annotated
``# flow: fingerprint-exempt(<why>)``.  A ``dataclasses.fields`` /
``asdict`` / ``astuple`` call on the tracked object is the covers-all
idiom: it consumes every field by construction, including future ones.
"""

import ast

from repro.analysis.flow.annotations import fingerprint_exemptions
from repro.analysis.lint.astutil import dotted_name
from repro.analysis.lint.findings import ERROR, Finding

NAME = "fingerprint-drift"
DESCRIPTION = ("config-dataclass field not consumed by its fingerprint "
               "function (and not fingerprint-exempt)")

#: calls that consume every dataclass field by construction
_COVERS_ALL = frozenset({"dataclasses.fields", "dataclasses.asdict",
                         "dataclasses.astuple"})

#: interprocedural follow depth — fingerprints are shallow by design
#: (fingerprint -> to_dict -> helper); anything deeper is already a
#: smell worth a finding
_MAX_DEPTH = 4


def _first_param(fn):
    args = fn.node.args
    ordered = list(args.posonlyargs) + list(args.args)
    return ordered[0].arg if ordered else None


def _tracked_root(fn, cls):
    """The local name bound to the config object inside ``fn``."""
    if fn.cls is not None and fn.cls.qname == cls.qname:
        return _first_param(fn)          # a method: self/cls
    return _first_param(fn)              # free function: first arg


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
        for node in ast.walk(fn.node):
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


def run_pass(index, config):
    findings = []
    for surface in config.surfaces:
        cls = index.classes.get(surface.dataclass)
        fn = index.functions.get(surface.fingerprint)
        missing = [("dataclass", surface.dataclass)] if cls is None else []
        if fn is None:
            missing.append(("fingerprint function", surface.fingerprint))
        if missing:
            # a renamed/moved surface must fail loudly, not silently
            # stop checking — anchor at whichever side still exists
            anchor = cls or fn
            path = anchor.module.relpath if anchor else "<flow-config>"
            line = anchor.node.lineno if anchor else 1
            what = " and ".join(f"{kind} `{qname}`"
                                for kind, qname in missing)
            findings.append(Finding(
                rule=NAME, severity=ERROR, path=path, line=line, col=1,
                message=f"fingerprint surface is broken: {what} not "
                        f"found in the project index — update the flow "
                        f"config if it moved",
                data={"surface": surface.dataclass}))
            continue
        walker = _Consumption(index, cls)
        walker.collect(fn, _tracked_root(fn, cls))
        if walker.covers_all:
            continue
        exempt = fingerprint_exemptions(cls.module.source.text)
        for field in cls.fields:
            if field.name in walker.consumed:
                continue
            if field.lineno in exempt:
                continue
            findings.append(Finding(
                rule=NAME, severity=ERROR,
                path=cls.module.relpath, line=field.lineno, col=1,
                message=f"field `{cls.name}.{field.name}` is never "
                        f"consumed by `{surface.fingerprint}` — configs "
                        f"differing only in it share a cache entry; hash "
                        f"it or annotate "
                        f"`# flow: fingerprint-exempt(<why>)`",
                data={"dataclass": cls.qname, "field": field.name,
                      "fingerprint": surface.fingerprint,
                      "note": surface.note}))
    return findings
