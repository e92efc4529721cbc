"""Error-contract rules.

The pipeline's failure taxonomy (crash / timeout / divergent, guard
trips, fail-secure latches) only works because errors surface as typed
exceptions at the layer that can classify them.  A broad ``except
Exception`` that swallows — no re-raise, no typed conversion — hides
faults from that machinery.  The two places broad catches are
legitimate (the worker-isolation boundary in ``runtime/runner.py``, the
fail-secure boundary's one handler,
:func:`~repro.defenses.controller.contain`) carry documented
``# repro-lint: disable=broad-except`` suppressions.

Inside the fail-secure boundary a detector fault must latch mitigation
on, never off, so no handler there is trusted but ``contain``'s: it
hands the fault back as a value the controller latches on, and
``fail-secure-handler`` flags every other ``except`` there.
"""

import ast

from repro.analysis.engine import Check, register
from repro.analysis.source import dotted_name

_BROAD = {"Exception", "BaseException"}

#: the code whose faults must turn mitigation on: the controllers, the
#: serving path that feeds them, and the arena's promotion gate
FAIL_SECURE_BOUNDARY = ("src/repro/defenses/", "src/repro/serve/service.py",
                        "src/repro/arena/gate.py")


def _broad_name(handler):
    """The broad exception name a handler catches, or ``None``."""
    if handler.type is None:
        return "<bare except>"
    types = handler.type.elts if isinstance(handler.type, ast.Tuple) \
        else [handler.type]
    for node in types:
        dotted = dotted_name(node)
        if dotted is not None and dotted.split(".")[-1] in _BROAD:
            return dotted
    return None


@register
class BroadExcept(Check):
    """No swallowing ``except Exception`` / bare ``except``: the
    runtime's crash/timeout/divergent taxonomy and the training guard
    can only classify faults that reach them as exceptions; a swallowed
    broad catch turns a real fault into silent bad data."""

    name = "broad-except"
    description = ("broad `except Exception` / bare except that swallows "
                   "(never raises)")
    include = ("src/repro/",)

    def check(self, source):
        for node in source.nodes:
            if not isinstance(node, ast.ExceptHandler):
                continue
            caught = _broad_name(node)
            if caught is None:
                continue
            # a handler that raises (re-raise or typed conversion) is
            # narrowing, not swallowing
            if any(isinstance(sub, ast.Raise) for sub in ast.walk(node)):
                continue
            yield self.finding(
                source, node.lineno, node.col_offset + 1,
                f"broad `except {caught}` swallows errors; catch a "
                f"specific type, or add `# repro-lint: "
                f"disable=broad-except` with a justification",
                data={"caught": caught})


@register
class FailSecureHandler(Check):
    """No ``except`` handler in the fail-secure boundary but
    ``contain``'s: a fault is handed to the controller as a value,
    which latches always-secure on it, so no handler there can swallow
    one or turn mitigation off."""

    name = "fail-secure-handler"
    description = ("except handler in the fail-secure boundary; route the "
                   "call through repro.defenses.controller.contain")
    include = FAIL_SECURE_BOUNDARY

    def check(self, source):
        for node in source.nodes:
            if isinstance(node, ast.ExceptHandler):
                yield self.finding_at(
                    source, node,
                    "`except` handler in the fail-secure boundary; call "
                    "through `contain` and hand its fault to the "
                    "controller, which latches on it")
