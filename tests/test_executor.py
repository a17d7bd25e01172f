"""Tests for the fault-tolerant task fabric (repro.utils.executor)."""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.utils.executor import (
    BACKOFF_FACTOR,
    JITTER,
    ExecutorConfig,
    TaskTimeoutError,
    WorkerCrashError,
    execute_tasks,
)


# ----------------------------------------------------------------------------
# Worker functions: module-level so process pools can pickle them.  The
# fire-once / counting state lives in marker files under a scratch directory
# passed inside each task, so it survives worker death and respawn.


def _square(x):
    return x * x


def _record_execution(scratch, index):
    """Append one execution record; returns how many executions came before."""
    count = 0
    while True:
        try:
            with open(os.path.join(scratch, f"exec-{index}-{count}"), "x"):
                return count
        except FileExistsError:
            count += 1


def _counted_square(task):
    scratch, index, value = task
    _record_execution(scratch, index)
    return value * value


def _die_once_on_target(task):
    scratch, index, value, target = task
    prior = _record_execution(scratch, index)
    if index == target and prior == 0:
        os.kill(os.getpid(), signal.SIGKILL)
    return value * value


def _flaky(task):
    scratch, index, value, fail_times = task
    prior = _record_execution(scratch, index)
    if prior < fail_times:
        raise RuntimeError(f"task {index} transient failure #{prior}")
    return value * value


def _slow_on_first(task):
    scratch, index, value, seconds = task
    prior = _record_execution(scratch, index)
    if prior == 0 and seconds > 0:
        time.sleep(seconds)
    return value + 1000


def _always_slow(task):
    time.sleep(task)
    return task


def _executions(scratch, index):
    return sum(
        1 for name in os.listdir(scratch) if name.startswith(f"exec-{index}-")
    )


FAST = ExecutorConfig(max_retries=2, backoff=0.05)


class TestSerialExecution:
    def test_results_ordered_and_reported(self):
        report = execute_tasks(_square, range(6), workers=1)
        assert report.results == [x * x for x in range(6)]
        assert report.ok
        assert report.attempts == {i: 1 for i in range(6)}
        assert report.wasted_executions() == 0
        assert not report.serial_fallback  # serial by request, not by failure

    def test_failure_does_not_abort_siblings(self, tmp_path):
        tasks = [(str(tmp_path), i, i, 10 if i == 1 else 0) for i in range(3)]
        report = execute_tasks(
            _flaky, tasks, workers=1, config=ExecutorConfig(max_retries=1, backoff=0.01)
        )
        assert [report.results[0], report.results[2]] == [0, 4]
        assert len(report.failures) == 1
        failure = report.failures[0]
        assert failure.index == 1 and failure.kind == "error"
        assert isinstance(failure.error, RuntimeError)
        assert report.attempts[1] == 2  # initial + one retry
        with pytest.raises(RuntimeError):
            report.raise_first()

    def test_retry_recovers_transient_failures(self, tmp_path):
        tasks = [(str(tmp_path), i, i, 2 if i == 0 else 0) for i in range(3)]
        report = execute_tasks(
            _flaky, tasks, workers=1, config=ExecutorConfig(max_retries=2, backoff=0.01)
        )
        assert report.ok
        assert report.results == [0, 1, 4]
        assert report.attempts[0] == 3
        assert report.retries == 2

    def test_initializer_runs_once(self, tmp_path, monkeypatch):
        marker = tmp_path / "init"

        def initializer(value):
            with open(marker, "a") as fh:
                fh.write(value)

        report = execute_tasks(
            _square, range(3), workers=1, initializer=initializer, initargs=("x",)
        )
        assert report.ok
        assert marker.read_text() == "x"


class TestRetryPolicy:
    def test_retry_delay_is_deterministic_and_bounded(self):
        config = ExecutorConfig(backoff=0.5, seed=7)
        delays = [config.retry_delay(3, attempt) for attempt in (1, 2, 3)]
        assert delays == [config.retry_delay(3, attempt) for attempt in (1, 2, 3)]
        for attempt, delay in enumerate(delays, start=1):
            base = 0.5 * BACKOFF_FACTOR ** (attempt - 1)
            assert base <= delay <= base * (1.0 + JITTER)
        # Different tasks jitter differently (no thundering-herd retries).
        assert config.retry_delay(0, 1) != config.retry_delay(1, 1)

    def test_zero_backoff(self):
        assert ExecutorConfig(backoff=0.0).retry_delay(0, 1) == 0.0


class TestPoolExecution:
    def test_results_match_serial(self, tmp_path):
        tasks = [(str(tmp_path), i, i) for i in range(6)]
        report = execute_tasks(_counted_square, tasks, workers=2, config=FAST)
        assert report.results == [i * i for i in range(6)]
        assert report.ok
        assert all(_executions(str(tmp_path), i) == 1 for i in range(6))

    def test_worker_crash_recovers_task_level(self, tmp_path):
        """One killed worker costs exactly its own in-flight task."""
        scratch = str(tmp_path)
        tasks = [(scratch, i, i, 0) for i in range(6)]
        report = execute_tasks(_die_once_on_target, tasks, workers=2, config=FAST)
        assert report.results == [i * i for i in range(6)]
        assert report.ok
        assert report.worker_crashes == 1
        assert report.respawns >= 1
        assert not report.serial_fallback
        # The regression this fabric exists for: the task that lost its
        # worker re-ran once; every sibling ran exactly once (the old
        # serial-fallback rewind re-ran *everything*).
        assert _executions(scratch, 0) == 2
        assert all(_executions(scratch, i) == 1 for i in range(1, 6))
        assert report.wasted_executions() == 1

    def test_run_tasks_reuses_completed_results_on_broken_pool(self, tmp_path):
        """Satellite regression: per-task execution counts under a crash."""
        scratch = str(tmp_path)
        tasks = [(scratch, i, i, 2) for i in range(5)]
        report = execute_tasks(
            _die_once_on_target,
            tasks,
            workers=2,
            config=ExecutorConfig(max_retries=2, backoff=0.05),
        )
        report.raise_first()
        assert report.results == [i * i for i in range(5)]
        executions = {i: _executions(scratch, i) for i in range(5)}
        assert executions[2] == 2, executions
        assert all(executions[i] == 1 for i in (0, 1, 3, 4)), executions

    def test_permanent_crash_reported_without_aborting_siblings(self, tmp_path):
        # Task 1 dies on every attempt; siblings must still complete.
        scratch = str(tmp_path)
        tasks = [(scratch, i, i, 0) for i in range(4)]
        report = execute_tasks(
            _die_forever_on_one,
            tasks,
            workers=2,
            config=ExecutorConfig(max_retries=1, backoff=0.05),
        )
        assert [report.results[i] for i in (0, 2, 3)] == [0, 4, 9]
        assert len(report.failures) == 1
        failure = report.failures[0]
        assert failure.index == 1 and failure.kind == "crash"
        assert isinstance(failure.error, WorkerCrashError)
        assert failure.attempts == 2

    def test_timeout_kills_and_retries(self, tmp_path):
        scratch = str(tmp_path)
        tasks = [(scratch, i, i, 30.0 if i == 1 else 0.0) for i in range(3)]
        config = ExecutorConfig(timeout=1.0, max_retries=2, backoff=0.05)
        start = time.monotonic()
        report = execute_tasks(_slow_on_first, tasks, workers=2, config=config)
        elapsed = time.monotonic() - start
        assert report.results == [1000, 1001, 1002]
        assert report.ok
        assert report.timeouts >= 1
        assert elapsed < 20.0  # never waited out the 30 s sleep

    def test_timeout_exhausted_surfaces_as_timeout_error(self):
        config = ExecutorConfig(timeout=0.5, max_retries=1, backoff=0.05)
        start = time.monotonic()
        report = execute_tasks(_always_slow, [5.0, 0.0], workers=2, config=config)
        elapsed = time.monotonic() - start
        assert report.results[1] == 0.0
        assert len(report.failures) == 1
        failure = report.failures[0]
        assert failure.index == 0 and failure.kind == "timeout"
        assert isinstance(failure.error, TaskTimeoutError)
        assert failure.error.index == 0
        assert report.timeouts == 2  # both attempts timed out
        assert elapsed < 15.0

    def test_pool_initializer_and_knobs_via_run_tasks(self, tmp_path):
        scratch = str(tmp_path)
        tasks = [(scratch, i, i, 1 if i == 0 else 0) for i in range(3)]
        report = execute_tasks(
            _flaky, tasks, workers=2, config=ExecutorConfig(max_retries=1, backoff=0.05)
        )
        report.raise_first()
        assert report.results == [0, 1, 4]


def _die_forever_on_one(task):
    scratch, index, value, _ = task
    _record_execution(scratch, index)
    if index == 1:
        os.kill(os.getpid(), signal.SIGKILL)
    return value * value


def _die_once_if_even(task):
    scratch, index, value, parent = task
    prior = _record_execution(scratch, index)
    if index % 2 == 0 and prior == 0 and os.getpid() != parent:
        os.kill(os.getpid(), signal.SIGKILL)
    return value * value


def _repeated_kill_rounds(scratch, rounds, num_tasks=8):
    """Run ``rounds`` pooled runs in which every even task kills its worker
    once; return the rounds whose results came back incomplete or out of
    order."""
    bad = []
    for round_index in range(rounds):
        round_dir = os.path.join(scratch, f"round-{round_index}")
        os.mkdir(round_dir)
        tasks = [(round_dir, i, i, os.getpid()) for i in range(num_tasks)]
        report = execute_tasks(
            _die_once_if_even,
            tasks,
            workers=2,
            config=ExecutorConfig(max_retries=2, backoff=0.01),
        )
        if not report.ok or report.results != [i * i for i in range(num_tasks)]:
            bad.append((round_index, report.results, [str(f) for f in report.failures]))
    return bad


class TestRepeatedWorkerKills:
    def test_repeated_kills_never_hang(self, tmp_path):
        """Workers SIGKILLed mid-run must not wedge their sibling slots.

        Runs in a child process so a hang fails this test (with every
        thread's stack on stderr) instead of blocking the suite.
        """
        repo = Path(__file__).resolve().parents[1]
        script = (
            "import faulthandler, sys\n"
            "faulthandler.dump_traceback_later(50, exit=True)\n"
            "from tests.test_executor import _repeated_kill_rounds\n"
            f"bad = _repeated_kill_rounds({str(tmp_path)!r}, rounds=40)\n"
            "print(bad)\n"
            "sys.exit(1 if bad else 0)\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(repo / "src"), str(repo), env.get("PYTHONPATH", "")]
        )
        child = subprocess.Popen(
            [sys.executable, "-c", script],
            cwd=str(repo),
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        try:
            stdout, stderr = child.communicate(timeout=60)
        finally:
            # A wedged run leaves its pool workers behind; reap the session.
            try:
                os.killpg(child.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        assert child.returncode == 0, stdout + stderr
