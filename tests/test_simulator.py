"""Discrete-event engine semantics."""

import pytest

from repro.errors import SimulationError
from repro.net.simulator import Simulator


class TestScheduling:
    def test_runs_in_time_order(self):
        simulator = Simulator()
        order = []
        simulator.schedule(2.0, order.append, "b")
        simulator.schedule(1.0, order.append, "a")
        simulator.schedule(3.0, order.append, "c")
        simulator.run()
        assert order == ["a", "b", "c"]

    def test_fifo_tie_break(self):
        simulator = Simulator()
        order = []
        for tag in "abc":
            simulator.schedule(1.0, order.append, tag)
        simulator.run()
        assert order == ["a", "b", "c"]

    def test_now_advances(self):
        simulator = Simulator()
        times = []
        simulator.schedule(0.5, lambda: times.append(simulator.now))
        simulator.schedule(1.5, lambda: times.append(simulator.now))
        simulator.run()
        assert times == [0.5, 1.5]

    def test_negative_delay_rejected(self):
        simulator = Simulator()
        with pytest.raises(SimulationError):
            simulator.schedule(-0.1, lambda: None)

    def test_schedule_at_past_rejected(self):
        simulator = Simulator()
        simulator.schedule(1.0, lambda: None)
        simulator.run()
        with pytest.raises(SimulationError):
            simulator.schedule_at(0.5, lambda: None)

    def test_events_can_schedule_events(self):
        simulator = Simulator()
        seen = []

        def tick(n):
            seen.append(n)
            if n < 4:
                simulator.schedule(1.0, tick, n + 1)

        simulator.schedule(0.0, tick, 0)
        simulator.run()
        assert seen == [0, 1, 2, 3, 4]
        assert simulator.now == pytest.approx(4.0)


class TestRunUntil:
    def test_stops_at_boundary(self):
        simulator = Simulator()
        seen = []
        simulator.schedule(1.0, seen.append, 1)
        simulator.schedule(2.0, seen.append, 2)
        simulator.run(until=1.5)
        assert seen == [1]
        assert simulator.now == pytest.approx(1.5)

    def test_boundary_inclusive(self):
        simulator = Simulator()
        seen = []
        simulator.schedule(1.0, seen.append, 1)
        simulator.run(until=1.0)
        assert seen == [1]

    def test_run_for(self):
        simulator = Simulator()
        simulator.run_for(5.0)
        assert simulator.now == pytest.approx(5.0)

    def test_run_for_negative_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().run_for(-1.0)

    def test_remaining_events_survive(self):
        simulator = Simulator()
        seen = []
        simulator.schedule(2.0, seen.append, 2)
        simulator.run(until=1.0)
        assert simulator.pending_events == 1
        simulator.run()
        assert seen == [2]


class TestSafety:
    def test_not_reentrant(self):
        simulator = Simulator()

        def evil():
            simulator.run()

        simulator.schedule(0.0, evil)
        with pytest.raises(SimulationError):
            simulator.run()

    def test_event_storm_guard(self):
        simulator = Simulator()

        def storm():
            simulator.schedule(0.0, storm)

        simulator.schedule(0.0, storm)
        with pytest.raises(SimulationError):
            simulator.run(max_events=1000)

    def test_max_events_is_an_exact_bound(self):
        # Regression: the guard used to fire only after max_events + 1
        # events had already executed.
        simulator = Simulator()
        for _ in range(6):
            simulator.schedule(0.0, lambda: None)
        with pytest.raises(SimulationError):
            simulator.run(max_events=5)
        assert simulator.events_processed == 5

    def test_max_events_allows_exactly_that_many(self):
        simulator = Simulator()
        for _ in range(5):
            simulator.schedule(0.0, lambda: None)
        simulator.run(max_events=5)  # must drain without raising
        assert simulator.events_processed == 5

    def test_processed_counter(self):
        simulator = Simulator()
        for _ in range(5):
            simulator.schedule(1.0, lambda: None)
        simulator.run()
        assert simulator.events_processed == 5


NAN = float("nan")


class TestNaNRejected:
    """NaN compares false against everything, so each guard rejects it.

    Regression: a NaN event time used to be accepted and ran before
    earlier-scheduled real events, and the clock went NaN.
    """

    def test_schedule_at_nan(self):
        simulator = Simulator()
        seen = []
        simulator.schedule_at(0.5, seen.append, 0.5)
        with pytest.raises(SimulationError, match="nan"):
            simulator.schedule_at(NAN, seen.append, "nan")
        simulator.run()
        assert seen == [0.5]
        assert simulator.now == 0.5

    def test_schedule_nan_delay(self):
        simulator = Simulator()
        with pytest.raises(SimulationError, match="nan"):
            simulator.schedule(NAN, lambda: None)
        assert simulator.pending_events == 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"period": NAN},
            {"period": None, "rate": NAN},
            {"period": 1.0, "first_delay": NAN},
        ],
    )
    def test_schedule_periodic_nan(self, kwargs):
        simulator = Simulator()
        fired = []
        kwargs = dict(kwargs)
        period = kwargs.pop("period")
        with pytest.raises(SimulationError, match="nan"):
            simulator.schedule_periodic(
                period, lambda: fired.append(1), **kwargs
            )
        assert fired == [] and simulator.pending_events == 0

    def test_run_until_nan(self):
        simulator = Simulator()
        seen = []
        simulator.schedule(1.0, seen.append, 1)
        with pytest.raises(SimulationError, match="nan"):
            simulator.run(until=NAN)
        assert seen == [] and simulator.pending_events == 1
        assert simulator.now == 0.0

    def test_run_for_nan(self):
        simulator = Simulator()
        simulator.schedule(1.0, lambda: None)
        with pytest.raises(SimulationError, match="nan"):
            simulator.run_for(NAN)
        assert simulator.pending_events == 1
        assert simulator.now == 0.0
