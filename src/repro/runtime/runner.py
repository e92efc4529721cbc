"""Resilient task execution for corpus construction.

Tasks run in forked worker processes, at most ``processes`` at once.
A worker runs attempt after attempt over a duplex pipe and goes back to
the idle pool only after an attempt whose value passed the validator;
a crash, exception, timeout or divergent result retires it, so every
retry starts in a fresh fork.  Failures are isolated per *attempt*: any
single simulation can crash (exception, segfault, ``os._exit``) or
wedge (infinite loop, sleep) without taking the rest of the corpus
build with it — unlike a ``multiprocessing.Pool``, where one dead
worker breaks the pool and no task has a deadline.  A worker may have
run earlier successful tasks, so a task's result must depend only on
its payload and attempt number.  The runner provides:

* **bounded concurrency** — at most ``processes`` workers live at once;
* **per-task timeout** — a wedged worker is terminated at its deadline
  and the task classified ``timeout``;
* **bounded retries** — failed tasks are re-queued with exponential
  backoff plus *deterministic* jitter (hashed from the task key and
  attempt number, so runs are reproducible);
* **validation** — a caller-supplied validator runs on every completed
  value; a rejection classifies the task ``divergent``;
* **ordered streaming** — results are yielded in submission order as
  soon as they are available, so the consumer can flush incrementally
  with bounded buffering instead of holding the whole corpus.

Payloads travel to the workers pickled; one that cannot be pickled
fails only its own task, as a crash.  The yielded items are
:class:`TaskResult` (success) or :class:`TaskFailure` (quarantined
after exhausting retries); the consumer decides what graceful
degradation means.  :meth:`TaskRunner.run` stops its workers when it
returns or is closed, so a consumer that may stop early wraps it in
:func:`contextlib.closing`.
"""

import heapq
import multiprocessing
import multiprocessing.connection
import os
import pickle
import time
import traceback
from dataclasses import dataclass

from repro.obs import metrics, obs_event
from repro.runtime.digest import sha256_bytes
from repro.runtime.errors import CRASH, DIVERGENT, TIMEOUT


@dataclass
class Task:
    """One unit of work: a stable key plus an opaque payload handed to
    the runner's task function."""

    key: str
    payload: object


@dataclass
class TaskResult:
    """A task that completed and validated."""

    key: str
    index: int
    value: object
    attempts: int
    elapsed: float

    ok = True


@dataclass
class TaskFailure:
    """A task quarantined after exhausting its retries."""

    key: str
    index: int
    kind: str                # CRASH | TIMEOUT | DIVERGENT
    message: str
    attempts: int
    elapsed: float

    ok = False


def backoff_delay(key, attempt, base=0.05, maximum=2.0):
    """Exponential backoff with deterministic jitter.

    ``base * 2**(attempt-1)`` capped at ``maximum``, scaled by a jitter
    factor in ``[1, 2)`` derived from SHA-256 of ``key:attempt`` — so
    two retrying tasks never thunder in lockstep, yet every run of the
    same corpus build waits the exact same amounts.
    """
    if base <= 0:
        return 0.0
    raw = min(maximum, base * (2.0 ** (attempt - 1)))
    digest = sha256_bytes(f"{key}:{attempt}".encode())
    jitter = 1.0 + int(digest[:8], 16) / 0xFFFFFFFF
    return min(maximum, raw * jitter)


def _child_entry(conn, fn, inherited):
    """Worker-process loop: run each pickled ``(payload, attempt)`` that
    arrives on ``conn`` and ship the outcome back, until the parent
    closes the pipe, dies, or an attempt fails.

    ``inherited`` holds the parent-side pipe ends this fork copied, its
    own and its siblings'.  Closing them leaves the parent the only
    holder, so a dead parent reads as EOF here and the worker exits
    instead of sleeping in ``recv`` for ever.
    """
    for end in inherited:
        end.close()
    while True:
        try:
            message = conn.recv_bytes()
        except (EOFError, OSError, KeyboardInterrupt):
            break                # shut down, or the parent is gone
        try:
            payload, attempt = pickle.loads(message)
            value = fn(payload, attempt)
        # the isolation boundary: ANY task failure (incl. SystemExit /
        # KeyboardInterrupt raised inside the task) must become a reported
        # crash, never an unexplained silent child death
        except BaseException as exc:  # repro-lint: disable=broad-except
            _report(conn, ("error", f"{type(exc).__name__}: {exc}",
                           traceback.format_exc(limit=8)))
            break
        try:
            conn.send(("ok", value))
        # pickling an arbitrary task result can raise anything a custom
        # __reduce__/__getstate__ chooses to; whatever it was, the outcome
        # is the same: report "result not transferable" over the pipe
        except Exception as exc:  # repro-lint: disable=broad-except
            _report(conn, ("error", f"result not transferable: {exc}", ""))
            break
    conn.close()


def _report(conn, message):
    try:
        conn.send(message)
    except OSError:
        pass                     # pipe already gone; parent sees a crash


class _Untransferable(Exception):
    """A payload that cannot be pickled for the worker."""


def _attempt_message(payload, attempt):
    """The pickled ``(payload, attempt)`` a worker receives."""
    try:
        return pickle.dumps((payload, attempt), pickle.HIGHEST_PROTOCOL)
    # pickling runs whatever __reduce__ the payload defines; any failure
    # means the same thing: this attempt cannot reach a worker
    except Exception as exc:
        raise _Untransferable(
            f"payload not transferable: {type(exc).__name__}: {exc}") from exc


def _deliver(conn, message):
    """Send ``message`` down ``conn``; ``False`` if the worker is gone."""
    try:
        conn.send_bytes(message)
    except OSError:
        return False
    return True


class _Workers:
    """The workers of one :meth:`TaskRunner.run` call, keyed by the
    parent's end of each one's pipe."""

    def __init__(self, ctx, fn):
        self.ctx = ctx
        self.fn = fn
        self.procs = {}                 # parent end -> live worker process
        self.idle = []                  # parent ends of the idle workers

    def send(self, message):
        """Hand ``message`` to an idle worker, or to a fresh fork when
        none is left alive; returns the parent end of the worker now
        running it.  A worker found dead while idle (the send fails) is
        replaced without charging the task."""
        while self.idle:
            conn = self.idle.pop()
            if _deliver(conn, message):
                return conn
            self.stop(conn)
        conn, child_end = self.ctx.Pipe()
        proc = self.ctx.Process(
            target=_child_entry,
            args=(child_end, self.fn, [*self.procs, conn]),
            daemon=True, name="repro-task-worker")
        proc.start()
        child_end.close()
        metrics().inc("runner.workers.started")
        self.procs[conn] = proc
        # a fork that died at once is seen by the wait as EOF: a crash
        _deliver(conn, message)
        return conn

    def stop(self, conn, grace=5.0):
        """Close a worker's pipe, give it ``grace`` seconds to exit on
        the EOF, then terminate it; reaps it and returns its exit code."""
        conn.close()
        proc = self.procs.pop(conn)
        proc.join(timeout=grace)
        if proc.is_alive():
            proc.terminate()
            proc.join(timeout=2.0)
            if proc.is_alive():         # pragma: no cover
                proc.kill()
                proc.join(timeout=2.0)
        return proc.exitcode

    def shutdown(self):
        """Stop idle workers on EOF and terminate busy ones."""
        idle, self.idle = self.idle, []
        for conn in idle:
            self.stop(conn)
        for conn in list(self.procs):
            self.stop(conn, grace=0.0)


@dataclass
class _Active:
    """Book-keeping for one attempt running on a worker."""

    task: Task
    index: int
    attempt: int
    conn: object
    started: float
    deadline: float


class TaskRunner:
    """Execute tasks in forked worker processes with per-attempt
    isolation, retries, timeouts and ordered streaming of results.

    Parameters
    ----------
    fn:
        ``fn(payload, attempt)`` — the task function, executed in a
        worker process.  ``attempt`` starts at 1.
    processes:
        max concurrent workers (default: CPU count).
    retries:
        how many times a failed task is re-attempted (total attempts =
        ``retries + 1``).
    timeout:
        per-attempt wall-clock deadline in seconds (``None`` = none).
    validator:
        optional ``validator(value)`` run in the parent on completed
        values; any exception classifies the attempt ``divergent``.
    """

    def __init__(self, fn, processes=None, retries=2, timeout=None,
                 backoff_base=0.05, backoff_max=2.0, validator=None,
                 mp_context=None):
        self.fn = fn
        self.processes = max(1, processes if processes is not None
                             else (os.cpu_count() or 2))
        self.retries = max(0, retries)
        self.timeout = timeout
        self.backoff_base = backoff_base
        self.backoff_max = backoff_max
        self.validator = validator
        if mp_context is None:
            try:
                mp_context = multiprocessing.get_context("fork")
            except ValueError:          # platform without fork
                mp_context = multiprocessing.get_context()
        self.ctx = mp_context

    # -- scheduling -----------------------------------------------------------

    def run(self, tasks):
        """Yield a ``TaskResult``/``TaskFailure`` per task, in submission
        order, as soon as each is resolved.  The next attempt is sent
        only once the consumer has taken every result already resolved;
        the workers are stopped when the generator finishes or closes."""
        tasks = list(tasks)
        if not tasks:
            return
        metrics().inc("runner.tasks.queued", len(tasks))
        # (ready_time, index, attempt, first_started or None)
        pending = [(0.0, i, 1, None) for i in range(len(tasks))]
        heapq.heapify(pending)
        workers = _Workers(self.ctx, self.fn)
        active = {}                     # conn -> _Active
        resolved = {}                   # index -> TaskResult | TaskFailure
        next_emit = 0
        try:
            while pending or active or next_emit < len(tasks):
                while next_emit in resolved:
                    yield resolved.pop(next_emit)
                    next_emit += 1
                if not pending and not active:
                    if next_emit < len(tasks):      # pragma: no cover
                        raise RuntimeError("task runner lost results")
                    break
                now = time.monotonic()
                self._launch_ready(tasks, pending, active, workers,
                                   resolved, now)
                wait = self._wait_budget(pending, active, now)
                ready = multiprocessing.connection.wait(
                    list(active), timeout=wait) if active else []
                if not active and wait:
                    time.sleep(wait)
                now = time.monotonic()
                for conn in ready:
                    self._finish(active.pop(conn), workers, pending,
                                 resolved, now)
                for conn, slot in list(active.items()):
                    if now >= slot.deadline:
                        del active[conn]
                        workers.stop(conn, grace=0.0)
                        self._resolve_failure(
                            slot, TIMEOUT,
                            f"exceeded {self.timeout:.1f}s task timeout",
                            pending, resolved, now)
        finally:
            workers.shutdown()

    def _launch_ready(self, tasks, pending, active, workers, resolved, now):
        while pending and len(active) < self.processes \
                and pending[0][0] <= now:
            _, index, attempt, started = heapq.heappop(pending)
            task = tasks[index]
            metrics().inc("runner.tasks.started")
            obs_event("task.started", level="debug",
                      key=task.key, attempt=attempt)
            deadline = now + self.timeout if self.timeout else float("inf")
            slot = _Active(task=task, index=index, attempt=attempt,
                           conn=None, started=started or now,
                           deadline=deadline)
            try:
                message = _attempt_message(task.payload, attempt)
            except _Untransferable as exc:
                self._resolve_failure(slot, CRASH, str(exc),
                                      pending, resolved, now)
                continue
            slot.conn = workers.send(message)
            active[slot.conn] = slot

    def _wait_budget(self, pending, active, now):
        """How long the scheduler may block before something needs it."""
        horizon = []
        if active:
            horizon.append(min(s.deadline for s in active.values()))
        if pending and len(active) < self.processes:
            horizon.append(pending[0][0])
        if not horizon:
            return None
        return max(0.0, min(min(horizon) - now, 1.0))

    def _finish(self, slot, workers, pending, resolved, now):
        """A worker's pipe became readable: collect and classify.  Only
        a worker whose value validated goes back to the idle pool."""
        try:
            message = slot.conn.recv()
        except (EOFError, OSError):
            message = None
        if message is None:             # died without reporting
            code = workers.stop(slot.conn)
            self._resolve_failure(
                slot, CRASH, f"worker died without result (exit {code})",
                pending, resolved, now)
            return
        if message[0] == "error":
            workers.stop(slot.conn)
            self._resolve_failure(slot, CRASH, message[1],
                                  pending, resolved, now)
            return
        value = message[1]
        if self.validator is not None:
            try:
                self.validator(value)
            # a user-supplied validator may raise anything; every
            # failure means the same thing — the result is DIVERGENT —
            # and is recorded with its type in the failure taxonomy
            except Exception as exc:  # repro-lint: disable=broad-except
                workers.stop(slot.conn)
                self._resolve_failure(
                    slot, DIVERGENT, f"{type(exc).__name__}: {exc}",
                    pending, resolved, now)
                return
        workers.idle.append(slot.conn)
        elapsed = now - slot.started
        reg = metrics()
        reg.inc("runner.tasks.finished")
        reg.observe("runner.task.seconds", elapsed)
        obs_event("task.finished", key=slot.task.key,
                  attempts=slot.attempt, elapsed_s=round(elapsed, 6))
        resolved[slot.index] = TaskResult(
            key=slot.task.key, index=slot.index, value=value,
            attempts=slot.attempt, elapsed=elapsed)

    def _resolve_failure(self, slot, kind, message, pending, resolved, now):
        """Retry with backoff, or quarantine once retries are spent."""
        reg = metrics()
        if slot.attempt <= self.retries:
            delay = backoff_delay(slot.task.key, slot.attempt,
                                  self.backoff_base, self.backoff_max)
            reg.inc("runner.tasks.retried")
            reg.inc(f"runner.failures.{kind}")
            obs_event("task.retry", level="warn", key=slot.task.key,
                      kind=kind, attempt=slot.attempt,
                      delay_s=round(delay, 6))
            heapq.heappush(pending, (now + delay, slot.index,
                                     slot.attempt + 1, slot.started))
            return
        elapsed = now - slot.started
        reg.inc("runner.tasks.quarantined")
        reg.inc(f"runner.failures.{kind}")
        reg.observe("runner.task.seconds", elapsed)
        obs_event("task.quarantined", level="error", key=slot.task.key,
                  kind=kind, attempts=slot.attempt, message=message,
                  elapsed_s=round(elapsed, 6))
        resolved[slot.index] = TaskFailure(
            key=slot.task.key, index=slot.index, kind=kind,
            message=message, attempts=slot.attempt,
            elapsed=elapsed)
