"""Atomic-IO rule.

Every durable artifact in this repo (datasets, detector envelopes,
checkpoint shards, manifests, reports) is written via
``repro.runtime.atomic`` — write-to-temp + ``os.replace`` + SHA-256 —
so a crash or kill mid-write can never leave a torn file under the
final name.  A raw ``open(path, "w")`` anywhere else reintroduces
exactly the torn-artifact class PR 1 eliminated; this rule bans it
statically.
"""

import ast

from repro.analysis.engine import Check, register
from repro.analysis.source import call_callee, dotted_name


@register
class AtomicIo(Check):
    """No raw write-mode ``open`` outside the atomic-IO layer: a crash
    between open('w') and close leaves a torn file under the final
    artifact name; durable writes must go through repro.runtime.atomic
    (temp file + os.replace)."""

    name = "atomic-io"
    description = ('raw open(..., "w") / Path.write_text outside '
                   'runtime/atomic.py and obs/')
    include = ("src/repro/",)
    # the atomic layer itself, and the obs sinks: JSONL logs are
    # append-only streams (torn tails are tolerated by the reader) and
    # manifests/metrics snapshots already route through runtime.atomic
    exclude = ("src/repro/runtime/atomic.py", "src/repro/obs/")

    _WRITE_METHODS = {"write_text", "write_bytes"}

    def _open_mode(self, call):
        """The mode string literal of an ``open``-family call, if any."""
        mode = None
        if len(call.args) >= 2:
            mode = call.args[1]
        for keyword in call.keywords:
            if keyword.arg == "mode":
                mode = keyword.value
        if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
            return mode.value
        return None

    def check(self, source):
        for node in source.nodes:
            if not isinstance(node, ast.Call):
                continue
            callee = call_callee(node)
            if callee in self._WRITE_METHODS:
                yield self.finding_at(
                    source, node,
                    f"raw `.{callee}(...)` write; route durable artifacts "
                    f"through repro.runtime.atomic",
                    data={"call": callee})
                continue
            dotted = dotted_name(node.func)
            if dotted not in ("open", "io.open"):
                continue
            mode = self._open_mode(node)
            if mode is not None and mode[:1] in ("w", "x"):
                yield self.finding_at(
                    source, node,
                    f'raw `open(..., "{mode}")` write; route durable '
                    f"artifacts through repro.runtime.atomic "
                    f"(write-to-temp + os.replace)",
                    data={"mode": mode})
