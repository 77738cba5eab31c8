"""Crash semantics of the shared work-unit executor (no simulations)."""

import os
import signal
import time
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.experiments import pool
from repro.experiments.pool import REORDER_WINDOWS, run_units

needs_sigkill = pytest.mark.skipif(not hasattr(signal, "SIGKILL"),
                                   reason="needs SIGKILL (POSIX)")


# Module-level work functions so the process pool can pickle them.
def kill_once(marker):
    """SIGKILL this worker the first time, succeed on the retry."""
    try:
        with open(marker, "x"):
            pass
    except FileExistsError:
        return "survived"
    os.kill(os.getpid(), signal.SIGKILL)


def always_kill(unit):
    os.kill(os.getpid(), signal.SIGKILL)


def nap(unit):
    """Sleep ``unit``'s delay, then report when it finished."""
    index, delay = unit
    time.sleep(delay)
    return index, time.monotonic()


class Recorder:
    """Collects every callback the executor makes."""

    def __init__(self):
        self.started = []
        self.done = []
        self.gave_up = []

    def run(self, units, work, jobs, retries, ordered=False):
        run_units(units, work, jobs, retries, self.on_done, self.on_give_up,
                  self.on_started, ordered=ordered)
        return self

    def on_started(self, unit, attempt):
        self.started.append((unit, attempt))

    def on_done(self, unit, result):
        self.done.append((unit, result))

    def on_give_up(self, unit, attempts, failure):
        self.gave_up.append((unit, attempts, failure))


@needs_sigkill
class TestWorkerDeath:
    def test_kill_once_is_retried_on_a_fresh_pool(self, tmp_path):
        marker = str(tmp_path / "killed")
        calls = Recorder().run([marker], kill_once, jobs=2, retries=1)
        assert os.path.exists(marker)
        assert calls.done == [(marker, "survived")]
        assert calls.started == [(marker, 1), (marker, 2)]
        assert calls.gave_up == []

    def test_permanent_death_gives_up_after_retries_plus_one(self):
        calls = Recorder().run(["doomed"], always_kill, jobs=2, retries=2)
        assert calls.done == []
        assert [attempt for _, attempt in calls.started] == [1, 2, 3]
        [(unit, attempts, failure)] = calls.gave_up
        assert unit == "doomed" and attempts == 3
        assert failure.startswith("worker process died")


class ScriptedPool:
    """A fake pool; the first one breaks on the unit "crash".

    Submitting "crash" to the first pool fails its future with
    ``BrokenProcessPool`` at once, while every other unit submitted to
    that pool stays in flight forever; later pools run units inline.
    """

    def __init__(self, first):
        self.first = first

    def submit(self, work, unit):
        future = Future()
        if not self.first:
            future.set_result(work(unit))
        elif unit == "crash":
            future.set_exception(BrokenProcessPool("scripted crash"))
        return future

    def shutdown(self, wait=True):
        pass


class TestCollateral:
    def test_in_flight_collateral_is_requeued_uncharged(self, monkeypatch):
        pools = []

        def open_pool(jobs, workers):
            pools.append(ScriptedPool(first=not pools))
            return pools[-1]

        monkeypatch.setattr(pool, "_open_pool", open_pool)
        calls = Recorder().run(["crash", "bystander"], str.upper, jobs=2,
                               retries=0)
        assert len(pools) == 2  # one fresh pool after the crash
        # The crash was charged: with retries=0 it is given up.
        [(unit, attempts, failure)] = calls.gave_up
        assert unit == "crash" and attempts == 1
        assert "worker process died: scripted crash" in failure
        # The bystander was still in flight: resubmitted uncharged (the
        # same attempt number again) and it succeeded.
        assert calls.done == [("bystander", "BYSTANDER")]
        assert [s for s in calls.started if s[0] == "bystander"] == \
            [("bystander", 1), ("bystander", 1)]


class TestOrderedCommit:
    UNITS = [(0, 0.6), (1, 0.0), (2, 0.0), (3, 0.2), (4, 0.0), (5, 0.0),
             (6, 0.0), (7, 0.0)]

    def test_commits_in_order_under_out_of_order_completion(self):
        jobs = 2
        calls = Recorder()
        ahead = []

        def started(unit, attempt):
            # How far past the commit point this dispatch reaches.
            ahead.append(unit[0] - len(calls.done))

        run_units(self.UNITS, nap, jobs, 0,
                  done=lambda unit, result: calls.done.append(result),
                  give_up=lambda *args: pytest.fail(f"gave up: {args}"),
                  started=started, ordered=True)
        assert [index for index, _ in calls.done] == list(range(8))
        finish = dict(calls.done)
        assert finish[1] < finish[0]  # completion really was out of order
        assert max(ahead) < REORDER_WINDOWS * jobs

    def test_in_process_path_gives_the_same_sequence(self):
        pooled = Recorder().run(self.UNITS, nap, jobs=2, retries=0,
                                ordered=True)
        inline = Recorder().run(self.UNITS, nap, jobs=1, retries=0,
                                ordered=True)
        assert [unit for unit, _ in inline.done] == \
            [unit for unit, _ in pooled.done] == self.UNITS

    def test_in_process_path_needs_no_pickling(self):
        seen = []

        def work(unit):  # a closure: unpicklable, fine in-process
            seen.append(unit)
            return unit * 10

        calls = Recorder().run([1, 2, 3], work, jobs=1, retries=0)
        assert seen == [1, 2, 3]
        assert calls.done == [(1, 10), (2, 20), (3, 30)]

    def test_in_process_failures_are_retried_then_given_up(self):
        calls = Recorder().run(["bad"], int, jobs=1, retries=1)
        assert calls.started == [("bad", 1), ("bad", 2)]
        [(unit, attempts, failure)] = calls.gave_up
        assert attempts == 2 and failure.startswith("ValueError")
