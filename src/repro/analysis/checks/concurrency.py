"""Concurrency rule: all fan-out goes through the resilient runner.

PR 1 replaced the repo's bare ``multiprocessing.Pool`` with
:class:`repro.runtime.TaskRunner` precisely because a pool offers none
of the resilience contract: no per-task isolation (one segfault poisons
the whole map), no per-task timeout, no deterministic-backoff retries,
no failure taxonomy.  The campaign layer (PR 6) stakes its graceful-
degradation guarantees on every worker going through the runner, so
this rule bans direct pool/process construction statically — a new
``ProcessPoolExecutor`` sneaking into ``data/`` or ``campaign/`` would
silently reopen the one-bad-worker-kills-the-build failure class.
"""

import ast

from repro.analysis.engine import Check, register
from repro.analysis.source import dotted_name

#: module roots whose import marks a file as doing raw fan-out
_POOL_MODULES = ("multiprocessing", "concurrent")

#: constructor names that create worker pools / processes
_POOL_CALLS = {"Pool", "ThreadPool", "ProcessPoolExecutor",
               "ThreadPoolExecutor", "Process"}


@register
class RunnerFanout(Check):
    """No direct multiprocessing / concurrent.futures fan-out outside
    the runtime layer: bare pools have no worker isolation, timeouts,
    retries or failure taxonomy; all fan-out must go through the
    resilient repro.runtime.TaskRunner so one bad worker degrades one
    task, never the run."""

    name = "runner-fanout"
    description = ("direct multiprocessing/concurrent.futures pool or "
                   "process construction outside runtime/")
    include = ("src/repro/",)
    exclude = ("src/repro/runtime/",)

    def _imports_pool_module(self, source):
        """Whether the file imports multiprocessing / concurrent.futures
        (directly or as a submodule / from-import)."""
        for node in source.nodes:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.partition(".")[0] in _POOL_MODULES:
                        return True
            elif isinstance(node, ast.ImportFrom):
                if node.module and \
                        node.module.partition(".")[0] in _POOL_MODULES:
                    return True
        return False

    def check(self, source):
        if not self._imports_pool_module(source):
            return
        for node in source.nodes:
            if not isinstance(node, ast.Call):
                continue
            dotted = dotted_name(node.func)
            if dotted is None:
                continue
            if dotted.rsplit(".", 1)[-1] in _POOL_CALLS:
                yield self.finding_at(
                    source, node,
                    f"direct `{dotted}(...)` fan-out; route parallel "
                    f"work through repro.runtime.TaskRunner (worker "
                    f"isolation, timeouts, retries, failure taxonomy)",
                    data={"call": dotted})
