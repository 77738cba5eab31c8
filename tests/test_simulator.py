"""Tests for the discrete-event kernel."""

import pytest

from repro.net.simulator import SimulationError, Simulator


def pending(sim):
    """Scheduled, non-cancelled events; the simulator's own count of
    cancelled entries (which drives compaction) must agree."""
    live = sum(1 for event in sim._heap if not event.cancelled)
    assert len(sim._heap) - sim._cancelled == live
    return live

class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(2.0, fired.append, "late")
        sim.schedule(1.0, fired.append, "early")
        sim.schedule(3.0, fired.append, "latest")
        sim.run()
        assert fired == ["early", "late", "latest"]

    def test_ties_break_in_scheduling_order(self):
        sim = Simulator()
        fired = []
        for i in range(5):
            sim.schedule(1.0, fired.append, i)
        sim.run()
        assert fired == [0, 1, 2, 3, 4]

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [1.5]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-0.1, lambda: None)

    def test_events_scheduled_during_run_fire(self):
        sim = Simulator()
        fired = []

        def first():
            fired.append("first")
            sim.schedule(1.0, lambda: fired.append("second"))

        sim.schedule(1.0, first)
        sim.run()
        assert fired == ["first", "second"]
        assert sim.now == 2.0

    def test_zero_delay_event_fires_at_current_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, lambda: sim.schedule(0.0,
                                               lambda: seen.append(sim.now)))
        sim.run()
        assert seen == [1.0]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(1.0, fired.append, "x")
        event.cancel()
        sim.run()
        assert fired == []

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        event.cancel()
        event.cancel()
        sim.run()

    def test_pending_events_excludes_cancelled(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        event = sim.schedule(2.0, lambda: None)
        event.cancel()
        assert pending(sim) == 1


class TestRunUntil:
    def test_run_until_stops_before_later_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(5.0, fired.append, "b")
        sim.run(until=2.0)
        assert fired == ["a"]
        assert sim.now == 2.0

    def test_run_until_advances_clock_with_no_events(self):
        sim = Simulator()
        sim.run(until=10.0)
        assert sim.now == 10.0

    def test_run_resumes_after_until(self):
        sim = Simulator()
        fired = []
        sim.schedule(5.0, fired.append, "b")
        sim.run(until=2.0)
        sim.run()
        assert fired == ["b"]
        assert sim.now == 5.0

    def test_run_is_not_reentrant(self):
        sim = Simulator()

        def reenter():
            with pytest.raises(SimulationError):
                sim.run()

        sim.schedule(1.0, reenter)
        sim.run()


class TestPeriodicProcess:
    def test_fires_every_interval(self):
        sim = Simulator()
        times = []
        sim.call_every(1.0, lambda: times.append(sim.now))
        sim.run(until=3.5)
        assert times == [1.0, 2.0, 3.0]

    def test_stop_halts_firing(self):
        sim = Simulator()
        times = []
        proc = sim.call_every(1.0, lambda: times.append(sim.now))
        sim.run(until=2.5)
        proc.stop()
        sim.run(until=10.0)
        assert times == [1.0, 2.0]
        assert not proc.active

    def test_callback_may_stop_its_own_process(self):
        sim = Simulator()
        times = []

        def tick():
            times.append(sim.now)
            if len(times) == 2:
                proc.stop()

        proc = sim.call_every(1.0, tick)
        sim.run(until=10.0)
        assert times == [1.0, 2.0]

    def test_restart_after_stop(self):
        sim = Simulator()
        times = []
        proc = sim.call_every(1.0, lambda: times.append(sim.now))
        sim.run(until=1.5)
        proc.stop()
        sim.run(until=5.0)
        proc.start()
        sim.run(until=6.5)
        assert times == [1.0, 6.0]

    def test_non_positive_interval_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.call_every(0.0, lambda: None)


class TestHeapCompaction:
    def test_queue_stays_bounded_under_schedule_cancel_cycles(self):
        """Timeouts that almost never fire (the schedule/cancel pattern)
        must not grow the heap without bound."""
        sim = Simulator()
        keeper = sim.schedule(1e9, lambda: None)
        for _ in range(10_000):
            sim.schedule(1e6, lambda: None).cancel()
        assert pending(sim) == 1
        assert len(sim._heap) < 200
        keeper.cancel()

    def test_compaction_preserves_firing_order(self):
        sim = Simulator()
        fired = []
        events = [sim.schedule(float(i), fired.append, i)
                  for i in range(200)]
        # Cancel most of the early ones to force a compaction.
        for event in events[:150]:
            if event.time % 2 == 0:
                event.cancel()
        for _ in range(500):
            sim.schedule(1e6, lambda: None).cancel()
        sim.run(until=300.0)
        expected = [i for i in range(200) if not (i < 150 and i % 2 == 0)]
        assert fired == expected

    def test_pending_events_is_exact(self):
        sim = Simulator()
        events = [sim.schedule(float(i + 1), lambda: None)
                  for i in range(10)]
        assert pending(sim) == 10
        events[3].cancel()
        events[7].cancel()
        events[7].cancel()  # double-cancel must not double-count
        assert pending(sim) == 8
        sim.run()
        assert pending(sim) == 0

    def test_cancel_after_fire_does_not_corrupt_count(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.run(until=1.5)
        event.cancel()  # already fired; must be a no-op
        assert pending(sim) == 1

    def test_explicit_compact_is_idempotent(self):
        sim = Simulator()
        live = sim.schedule(5.0, lambda: None)
        for _ in range(10):
            sim.schedule(1.0, lambda: None).cancel()
        sim.compact()
        sim.compact()
        assert len(sim._heap) == 1
        assert pending(sim) == 1
        assert sim._heap[0] is live
