"""The resilient task runner: isolation, retries, timeouts, ordering,
and the lifecycle of its reused worker processes."""

import contextlib
import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import pytest

from repro.obs import metrics
from repro.runtime import (
    CRASH, DIVERGENT, TIMEOUT, Task, TaskFailure, TaskResult, TaskRunner,
    backoff_delay,
)

REPO = Path(__file__).resolve().parents[1]


def _echo(payload, attempt):
    return payload


def _sleepy_echo(payload, attempt):
    delay, value = payload
    time.sleep(delay)
    return value


def _fail_until(payload, attempt):
    """Succeed only after ``payload['fail_attempts']`` failures."""
    if attempt <= payload["fail_attempts"]:
        raise RuntimeError(f"boom on attempt {attempt}")
    return payload["value"]


def _always_raise(payload, attempt):
    raise ValueError("permanently broken")


def _hang(payload, attempt):
    time.sleep(3600)


def _hard_exit(payload, attempt):
    os._exit(7)


def _pid(payload, attempt):
    return os.getpid()


def _logged(payload, attempt):
    """Log ``key attempt pid``, then fail the first attempt the way
    ``payload["fail"]`` names; a later attempt returns its pid."""
    with open(payload["log"], "a") as f:
        f.write(f"{payload['key']} {attempt} {os.getpid()}\n")
    if attempt == 1:
        if payload["fail"] == "raise":
            raise RuntimeError("first attempt fails")
        if payload["fail"] == "exit":
            os._exit(3)
        if payload["fail"] == "hang":
            time.sleep(3600)
    return {"key": payload["key"], "attempt": attempt, "pid": os.getpid()}


def _reject_first_flaky_attempt(value):
    if value["key"] == "flaky" and value["attempt"] == 1:
        raise ValueError("first attempt diverged")


def _runner(fn, **kwargs):
    kwargs.setdefault("backoff_base", 0.0)    # keep tests fast
    return TaskRunner(fn, **kwargs)


def _counter(name):
    return metrics().snapshot()["counters"].get(name, 0)


def _live_workers():
    return [p for p in multiprocessing.active_children()
            if p.name == "repro-task-worker"]


def _alive(pid):
    """Whether ``pid`` runs (a zombie waiting to be reaped does not)."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            state = f.read().rsplit(")", 1)[1].split()[0]
    except FileNotFoundError:
        return False
    return state not in ("Z", "X")


class TestOrderingAndStreaming:
    def test_results_stream_in_submission_order(self):
        # later tasks finish first (reverse sleeps), order must hold
        tasks = [Task(key=f"t{i}", payload=((4 - i) * 0.05, i))
                 for i in range(5)]
        out = list(_runner(_sleepy_echo, processes=5).run(tasks))
        assert [r.value for r in out] == [0, 1, 2, 3, 4]
        assert [r.key for r in out] == [f"t{i}" for i in range(5)]
        assert all(isinstance(r, TaskResult) and r.ok for r in out)

    def test_empty_task_list(self):
        assert list(_runner(_echo).run([])) == []

    def test_concurrency_bounded(self):
        tasks = [Task(key=f"t{i}", payload=(0.05, i)) for i in range(6)]
        out = list(_runner(_sleepy_echo, processes=2).run(tasks))
        assert len(out) == 6


class TestRetries:
    def test_flaky_task_recovers(self):
        tasks = [Task(key="flaky",
                      payload={"fail_attempts": 2, "value": 42})]
        [res] = list(_runner(_fail_until, retries=2).run(tasks))
        assert res.ok and res.value == 42
        assert res.attempts == 3

    def test_exhausted_retries_quarantine_as_crash(self):
        [res] = list(_runner(_always_raise, retries=1).run(
            [Task(key="broken", payload=None)]))
        assert isinstance(res, TaskFailure) and not res.ok
        assert res.kind == CRASH
        assert res.attempts == 2
        assert "permanently broken" in res.message

    def test_one_bad_task_does_not_poison_the_batch(self):
        tasks = [Task(key="a", payload="a"),
                 Task(key="b", payload=None),
                 Task(key="c", payload="c")]

        def dispatch(payload, attempt):
            if payload is None:
                raise RuntimeError("bad")
            return payload

        out = list(_runner(dispatch, retries=0, processes=3).run(tasks))
        assert out[0].ok and out[0].value == "a"
        assert not out[1].ok and out[1].kind == CRASH
        assert out[2].ok and out[2].value == "c"


class TestTimeouts:
    def test_hung_worker_is_terminated_and_classified(self):
        [res] = list(_runner(_hang, retries=0, timeout=0.4).run(
            [Task(key="wedged", payload=None)]))
        assert res.kind == TIMEOUT
        assert "timeout" in res.message

    def test_hang_blocks_only_its_own_task(self):
        def mixed(payload, attempt):
            if payload == "hang":
                time.sleep(3600)
            return payload

        tasks = [Task(key="wedged", payload="hang"),
                 Task(key="fine", payload="ok")]
        out = list(_runner(mixed, retries=0, timeout=0.5,
                           processes=2).run(tasks))
        assert out[0].kind == TIMEOUT
        assert out[1].ok and out[1].value == "ok"


class TestCrashIsolation:
    def test_hard_process_death_is_a_crash(self):
        [res] = list(_runner(_hard_exit, retries=0).run(
            [Task(key="dead", payload=None)]))
        assert res.kind == CRASH
        assert "exit" in res.message


class TestValidation:
    def test_validator_rejection_is_divergent(self):
        def validator(value):
            if value != "good":
                raise ValueError("garbage output")

        tasks = [Task(key="ok", payload="good"),
                 Task(key="junk", payload="garbage")]
        out = list(_runner(_echo, retries=0,
                           validator=validator).run(tasks))
        assert out[0].ok
        assert out[1].kind == DIVERGENT
        assert "garbage" in out[1].message


class TestWorkerReuse:
    def test_consecutive_successes_share_one_worker(self):
        metrics().reset()
        tasks = [Task(key=f"t{i}", payload=i) for i in range(4)]
        out = list(_runner(_pid, processes=1).run(tasks))
        assert all(r.ok for r in out)
        assert len({r.value for r in out}) == 1
        assert out[0].value != os.getpid()
        assert _counter("runner.workers.started") == 1
        assert _counter("runner.tasks.started") == 4

    @pytest.mark.parametrize("fail", ["raise", "exit", "hang", "divergent"])
    def test_retry_after_a_failed_attempt_runs_in_a_new_worker(
            self, tmp_path, fail):
        metrics().reset()
        log = str(tmp_path / "attempts.log")
        tasks = [Task(key="warm", payload={"key": "warm", "log": log,
                                           "fail": None}),
                 Task(key="flaky", payload={"key": "flaky", "log": log,
                                            "fail": fail})]
        runner = _runner(
            _logged, processes=1, retries=1,
            timeout=1.0 if fail == "hang" else None,
            validator=_reject_first_flaky_attempt if fail == "divergent"
            else None)
        warm, flaky = list(runner.run(tasks))
        with open(log) as f:
            rows = [line.split() for line in f]
        assert [(key, int(attempt)) for key, attempt, _ in rows] == \
            [("warm", 1), ("flaky", 1), ("flaky", 2)]
        pids = [int(pid) for _, _, pid in rows]
        # the failing attempt reused the warm worker; its retry did not
        assert pids[0] == pids[1] != pids[2]
        assert flaky.ok and flaky.attempts == 2
        assert flaky.value["pid"] == pids[2]
        assert _counter("runner.workers.started") == 2
        assert _counter("runner.tasks.started") == 3

    def test_idle_worker_killed_between_tasks_is_replaced_uncharged(self):
        metrics().reset()
        tasks = [Task(key=f"t{i}", payload=i) for i in range(2)]
        with contextlib.closing(
                _runner(_pid, processes=1, retries=0).run(tasks)) as results:
            first = next(results)
            os.kill(first.value, signal.SIGKILL)
            # wait for the death without reaping, so the runner sees it
            os.waitid(os.P_PID, first.value, os.WEXITED | os.WNOWAIT)
            second = next(results)
        assert second.ok and second.attempts == 1
        assert second.value != first.value
        assert _counter("runner.workers.started") == 2
        assert _counter("runner.tasks.retried") == 0
        assert _counter("runner.failures.crash") == 0

    def test_unpicklable_payload_fails_only_its_own_task(self):
        metrics().reset()
        tasks = [Task(key="a", payload="a"),
                 Task(key="lock", payload=threading.Lock()),
                 Task(key="c", payload="c")]
        out = list(_runner(_echo, processes=1, retries=1).run(tasks))
        assert out[0].ok and out[0].value == "a"
        assert isinstance(out[1], TaskFailure) and out[1].kind == CRASH
        assert out[1].attempts == 2
        assert "not transferable" in out[1].message
        assert out[2].ok and out[2].value == "c"
        # the payload never reached a worker, so none was retired
        assert _counter("runner.workers.started") == 1


class TestWorkerShutdown:
    def test_consumer_that_raises_leaves_no_live_worker(self):
        tasks = [Task(key=f"t{i}", payload=(0.05, i)) for i in range(6)]
        runner = _runner(_sleepy_echo, processes=2)
        with pytest.raises(RuntimeError, match="consumer gave up"):
            with contextlib.closing(runner.run(tasks)) as results:
                for _ in results:
                    raise RuntimeError("consumer gave up")
        assert _live_workers() == []

    def test_closing_the_generator_early_leaves_no_live_worker(self):
        tasks = [Task(key=f"t{i}", payload=(0.05, i)) for i in range(6)]
        results = _runner(_sleepy_echo, processes=2).run(tasks)
        assert next(results).value == 0
        assert _live_workers()
        results.close()
        assert _live_workers() == []

    def test_exhausted_generator_leaves_no_live_worker(self):
        tasks = [Task(key=f"t{i}", payload=i) for i in range(3)]
        assert [r.value for r in _runner(_echo, processes=2).run(tasks)] \
            == [0, 1, 2]
        assert _live_workers() == []

    def test_sigkilled_parent_leaves_no_live_worker(self):
        # two workers idle in recv when their parent dies: each must
        # read EOF (no sibling holds its pipe open) and exit
        script = textwrap.dedent("""
            import os, time
            from repro.runtime import Task, TaskRunner

            def pid(payload, attempt):
                return os.getpid()

            seen = set()
            tasks = [Task(key=str(i), payload=i) for i in range(8)]
            for outcome in TaskRunner(pid, processes=2).run(tasks):
                seen.add(outcome.value)
                if len(seen) == 2:
                    print(*sorted(seen), flush=True)
                    time.sleep(3600)
        """)
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO / "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        proc = subprocess.Popen([sys.executable, "-c", script], env=env,
                                stdout=subprocess.PIPE, text=True)
        try:
            pids = [int(p) for p in proc.stdout.readline().split()]
            assert len(pids) == 2 and all(_alive(p) for p in pids)
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait(timeout=30)
        finally:
            if proc.poll() is None:          # pragma: no cover
                proc.kill()
                proc.wait(timeout=30)
            proc.stdout.close()
        deadline = time.monotonic() + 2.0
        while any(_alive(p) for p in pids) and time.monotonic() < deadline:
            time.sleep(0.02)
        orphans = [p for p in pids if _alive(p)]
        for pid in orphans:              # do not leak them past a failure
            os.kill(pid, signal.SIGKILL)
        assert orphans == []


class TestBackoff:
    def test_deterministic_jitter(self):
        a = backoff_delay("key", 2, base=0.1, maximum=5.0)
        b = backoff_delay("key", 2, base=0.1, maximum=5.0)
        assert a == b

    def test_grows_exponentially_and_caps(self):
        delays = [backoff_delay("k", n, base=0.1, maximum=1.0)
                  for n in range(1, 8)]
        assert delays[1] > delays[0]
        assert max(delays) <= 1.0

    def test_distinct_keys_get_distinct_jitter(self):
        assert backoff_delay("k1", 1, base=0.1) != \
            backoff_delay("k2", 1, base=0.1)

    def test_zero_base_means_no_wait(self):
        assert backoff_delay("k", 3, base=0.0) == 0.0
