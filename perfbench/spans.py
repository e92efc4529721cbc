"""Span tracing from outside the program, for the benchmark's traced run.

The benchmark never edits the program.  A traced pass instead replaces
public entry points of each ``repro`` layer with thin wrappers that
record a span per call, and puts the originals back afterwards.

* A span is ``{id, name, start, end, parent, rid}``: ``parent`` is the
  span that was open when the call began, ``rid`` the request id (the
  simulated source, campaign cell, checkpoint key or serve batch),
  inherited from the parent when the call itself names none.
* Spans stay in memory; ``run.py`` writes them as JSONL when the run
  ends.
* A span's self time is its duration minus the durations of its
  direct children.  Calls are nested and single-threaded, so children
  never overlap.
* Two serve hot paths run about once per window (``submit`` and
  ``TenantSlot.apply``).  They are not given a span per call.  Their
  time is summed per call and emitted as one aggregate span per batch.

Work done inside forked fan-out workers runs the wrappers too, but its
spans stay in the worker and are lost.  The campaign workload replays
its cells in-process for that reason.
"""

import functools
import sys
import time

_NOW = time.perf_counter


class Tracer:
    """In-memory span recorder plus per-call accumulators."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._acc = {}      # aggregate name -> [seconds, calls] since flush

    # -- recording -----------------------------------------------------------

    def _open(self, name, rid):
        parent = self._stack[-1] if self._stack else None
        if rid is None and parent is not None:
            rid = parent["rid"]
        span = {"id": len(self.spans), "name": name,
                "parent": parent["id"] if parent is not None else None,
                "rid": rid, "start": _NOW(), "end": None}
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span):
        span["end"] = _NOW()
        self._stack.pop()

    def call(self, name, fn, args, kwargs, rid_of=None):
        span = self._open(name, rid_of(args, kwargs) if rid_of else None)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(span)

    def accumulator(self, name):
        """The ``[seconds, calls]`` cell a per-call wrapper adds into."""
        return self._acc.setdefault(name, [0.0, 0])

    def flush_aggregate(self, name):
        """Emit the time summed in accumulator ``name`` since the last
        flush as one child span of the innermost open span."""
        cell = self._acc.get(name)
        if not cell or not cell[1]:
            return
        seconds, calls = cell
        cell[0], cell[1] = 0.0, 0
        parent = self._stack[-1] if self._stack else None
        end = _NOW()
        self.spans.append({"id": len(self.spans), "name": name,
                           "parent": parent["id"] if parent else None,
                           "rid": parent["rid"] if parent else None,
                           "start": end - seconds, "end": end,
                           "calls": calls})

    # -- analysis ------------------------------------------------------------

    def summarize(self):
        """``name -> {"total": s, "self": s, "count": n, "outer": s}``.

        ``outer`` sums only spans with no same-named ancestor, so a
        recursive or re-entrant call is not counted twice.
        """
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span["parent"] is not None:
                child_time[span["parent"]] += span["end"] - span["start"]
        out = {}
        for span in self.spans:
            duration = span["end"] - span["start"]
            row = out.setdefault(span["name"], {"total": 0.0, "self": 0.0,
                                                "count": 0, "outer": 0.0})
            row["total"] += duration
            row["self"] += duration - child_time[span["id"]]
            row["count"] += span.get("calls", 1)
            if not self.has_ancestor(span, span["name"]):
                row["outer"] += duration
        return out

    def has_ancestor(self, span, name):
        parent = span["parent"]
        while parent is not None:
            above = self.spans[parent]
            if above["name"] == name:
                return True
            parent = above["parent"]
        return False

    def total_under(self, name, ancestor):
        """Summed duration of ``name`` spans nested under ``ancestor``."""
        return sum(s["end"] - s["start"] for s in self.spans
                   if s["name"] == name and self.has_ancestor(s, ancestor))


# -- wrappers ------------------------------------------------------------------

def _span_wrapper(tracer, name, fn, rid_of=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs, rid_of)
    return wrapper


def _generator_wrapper(tracer, name, fn):
    """Time each ``next()`` of a generator as its own span, so the
    consumer's work between items is not charged to the producer."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        inner = fn(*args, **kwargs)
        while True:
            span = tracer._open(name, None)
            try:
                item = next(inner)
            except StopIteration:
                return
            finally:
                tracer._close(span)
            span["rid"] = getattr(item, "key", span["rid"])
            yield item
    return wrapper


def _accumulating_wrapper(tracer, name, fn):
    cell = tracer.accumulator(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        start = _NOW()
        value = fn(*args, **kwargs)
        cell[0] += _NOW() - start
        cell[1] += 1
        return value
    return wrapper


def _batch_wrapper(tracer, fn):
    """``DetectionService.process_batch``: one span per batch, carrying
    the submits since the previous batch and the batch's ``apply``
    calls as aggregate children."""
    counter = [0]

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.flush_aggregate("serve.submit")
        counter[0] += 1
        span = tracer._open("serve.process_batch", f"batch-{counter[0]}")
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.flush_aggregate("defenses.apply")
            tracer._close(span)
    return wrapper


def _source_rid(args, kwargs):
    source = args[0] if args else kwargs.get("source")
    return getattr(source, "name", None)


def _key_rid(args, kwargs):
    key = args[1] if len(args) > 1 else kwargs.get("key")
    return key if isinstance(key, str) else None


def _cell_rid(args, kwargs):
    payload = args[0] if args else kwargs.get("payload")
    config = payload[0]
    return (f"{config['name']}-{config['defense']}-"
            f"{config.get('tenancy', 'single')}")


def replace_everywhere(original, replacement, undo):
    """Swap ``original`` for ``replacement`` in every loaded ``repro``
    module that bound it by name (``from x import f`` copies the
    reference); records ``(module, name, original)`` in ``undo``."""
    for mod in list(sys.modules.values()):
        name = getattr(mod, "__name__", "")
        if not (name == "repro" or name.startswith("repro.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, replacement)
                undo.append((mod, key, original))


def restore(undo):
    """Put back everything :func:`replace_everywhere` or a method swap
    recorded, newest first."""
    while undo:
        owner, attr, original = undo.pop()
        setattr(owner, attr, original)


class Wrappers:
    """Install span wrappers on the public entry points of every layer;
    :meth:`remove` restores the originals."""

    def __init__(self, tracer):
        self.tracer = tracer
        self._undo = []

    def _replace_method(self, cls, attr, replacement):
        self._undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, replacement)

    def function(self, module, attr, name, rid_of=None):
        original = getattr(module, attr)
        replace_everywhere(original, _span_wrapper(
            self.tracer, name, original, rid_of), self._undo)

    def method(self, cls, attr, name, rid_of=None):
        self._replace_method(cls, attr, _span_wrapper(
            self.tracer, name, cls.__dict__[attr], rid_of))

    def install(self):
        from repro import cli
        from repro.analysis import report
        from repro.arena import gate, loop
        from repro.attacks.base import Attack
        from repro.campaign import orchestrator
        from repro.campaign.cache import CellCache
        from repro.core import adversarial, feature_engineering, patching
        from repro.core import vaccination
        from repro.core.adaptive import AdaptiveArchitecture
        from repro.core.amgan import AMGAN
        from repro.core.perceptron import HardwareDetector
        from repro.data import dataset, io
        from repro.defenses.fanout import TenantSlot
        from repro.obs import manifest
        from repro.runtime import atomic
        from repro.runtime.checkpoint import CheckpointStore
        from repro.runtime.runner import TaskRunner
        from repro.serve import service
        from repro.sim.machine import Machine
        from repro.sim.multiprog import SMTMachine
        from repro.workloads.spec import Workload

        t = self.tracer
        for command in ("collect", "train", "report", "adaptive",
                        "campaign", "arena", "serve"):
            self.function(cli, f"_cmd_{command}", f"cli.{command}",
                          rid_of=lambda a, k, c=command: c)
        # sim: every source builder, both machines
        builders = [Workload]
        pending = list(Attack.__subclasses__())
        while pending:
            cls = pending.pop()
            builders.append(cls)
            pending.extend(cls.__subclasses__())
        for cls in builders:
            if "build" in cls.__dict__:
                self.method(cls, "build", "sim.build")
        self.method(Machine, "run", "sim.run")
        self.method(SMTMachine, "run", "sim.run")
        # data
        self.function(dataset, "build_dataset", "data.build_dataset")
        self.function(dataset, "collect_source", "data.collect_source",
                      rid_of=_source_rid)
        self.method(dataset.Dataset, "raw_matrix", "data.raw_matrix")
        self.function(io, "save_dataset", "data.save")
        self.function(io, "load_dataset", "data.load")
        # core
        self.function(vaccination, "vaccinate", "core.vaccinate")
        self.method(AMGAN, "train", "core.gan")
        self.function(feature_engineering, "mine_security_hpcs",
                      "core.engineer")
        self.function(vaccination, "build_augmented_training_set",
                      "core.augment")
        self.function(adversarial, "adversarial_augmentation",
                      "core.augment")
        self.method(HardwareDetector, "calibrate_threshold",
                    "core.calibrate")
        self.method(HardwareDetector, "evaluate", "core.evaluate")
        self.method(HardwareDetector, "score_batch", "core.score_batch")
        self.function(patching, "save_detector", "core.detector_save")
        self.function(patching, "load_detector", "core.detector_load")
        self.method(AdaptiveArchitecture, "run_source", "core.adaptive_run",
                    rid_of=_source_rid)
        # runtime
        self.function(atomic, "atomic_write_bytes", "runtime.atomic_write")
        self.method(CheckpointStore, "put", "runtime.checkpoint_put",
                    rid_of=_key_rid)
        self.method(CheckpointStore, "get", "runtime.checkpoint_get",
                    rid_of=_key_rid)
        self._replace_method(TaskRunner, "run", _generator_wrapper(
            t, "runtime.runner", TaskRunner.__dict__["run"]))
        # campaign, arena
        self.function(orchestrator, "run_campaign", "campaign.run")
        self.function(orchestrator, "run_cell", "campaign.cell",
                      rid_of=_cell_rid)
        self.method(CellCache, "put", "campaign.cache_put")
        self.method(CellCache, "get", "campaign.cache_get")
        self.function(loop, "run_arena", "arena.run")
        self.function(gate, "regression_gate", "arena.gate")
        # serve + defenses: per-batch spans, per-window accumulators
        self.function(service, "run_serve", "serve.run")
        self._replace_method(service.DetectionService, "process_batch",
                             _batch_wrapper(t, service.DetectionService
                                            .__dict__["process_batch"]))
        self._replace_method(service.DetectionService, "submit",
                             _accumulating_wrapper(
                                 t, "serve.submit",
                                 service.DetectionService.__dict__["submit"]))
        self._replace_method(TenantSlot, "apply", _accumulating_wrapper(
            t, "defenses.apply", TenantSlot.__dict__["apply"]))
        # obs, analysis
        self.function(manifest, "write_manifest", "obs.manifest_write")
        self.function(report, "markdown_report", "analysis.report")
        return self

    def remove(self):
        restore(self._undo)
