"""Unit tests for crash-stop fault plans: the paper's failure model.

A crash-stop plan holds only :class:`Crash` events (no recovery), built with
``FaultPlan.crashes`` or ``FaultPlan.random(..., recover_probability=0.0)``;
``FaultPlan.validate(n, t)`` enforces the at-most-``t``-crashes budget.
"""

import pytest

from repro.simulation.faults import Crash, FaultPlan
from repro.util.rng import RandomSource


def crash_times(plan):
    """``pid -> time`` of a crash-stop plan, in plan order."""
    assert all(type(event) is Crash for event in plan.events)
    return {event.pid: event.time for event in plan.events}


def random_crash_stop(n, t, seed, horizon, **kwargs):
    return FaultPlan.random(
        n=n, t=t, rng=RandomSource(seed), horizon=horizon,
        recover_probability=0.0, **kwargs,
    )


class TestBuilders:
    def test_none_schedule_is_empty(self):
        plan = FaultPlan.none()
        assert len(plan) == 0
        assert 0 in plan.correct_ids(4)

    def test_crash_set(self):
        plan = FaultPlan.crashes({pid: 10.0 for pid in [1, 3]})
        assert crash_times(plan) == {1: 10.0, 3: 10.0}
        assert plan.final_down_ids() == [1, 3]

    def test_staggered(self):
        plan = FaultPlan.crashes({2: 5.0, 4: 8.0, 5: 11.0})
        assert list(crash_times(plan).items()) == [(2, 5.0), (4, 8.0), (5, 11.0)]
        # Crash-stop: staggering does not free budget, all three stay down.
        plan.validate(n=7, t=3)
        with pytest.raises(ValueError):
            plan.validate(n=7, t=2)

    def test_random_respects_t_and_protection(self):
        plan = random_crash_stop(n=7, t=3, seed=3, horizon=100.0, protect=[0])
        times = crash_times(plan)
        assert len(times) == 3
        assert 0 not in plan.final_down_ids()
        # Crashes fall in the first half of the horizon.
        assert all(0.0 <= time <= 50.0 for time in times.values())

    def test_random_with_explicit_count(self):
        plan = random_crash_stop(n=5, t=2, seed=1, horizon=10.0, crash_count=1)
        assert len(crash_times(plan)) == 1

    def test_random_rejects_count_above_t(self):
        with pytest.raises(ValueError, match="cannot crash 2 > t=1"):
            random_crash_stop(n=5, t=1, seed=1, horizon=10.0, crash_count=2)

    def test_random_rejects_overprotection(self):
        with pytest.raises(ValueError, match="only 0 candidates"):
            random_crash_stop(n=3, t=1, seed=1, horizon=10.0, protect=[0, 1, 2])


class TestQueries:
    def test_correct_ids(self):
        assert FaultPlan.crashes({1: 5.0}).correct_ids(4) == [0, 2, 3]

    def test_items(self):
        assert FaultPlan.crashes({2: 7}).events == [Crash(time=7.0, pid=2)]

    def test_crash_time_none_for_correct(self):
        plan = FaultPlan.crashes({1: 5.0})
        assert 3 not in crash_times(plan)
        assert 3 in plan.correct_ids(4)


class TestValidation:
    def test_accepts_at_most_t_crashes(self):
        FaultPlan.crashes({0: 1.0, 1: 2.0}).validate(n=5, t=2)

    def test_rejects_too_many_crashes(self):
        with pytest.raises(ValueError, match="3 processes down"):
            FaultPlan.crashes({0: 1.0, 1: 2.0, 2: 3.0}).validate(n=5, t=2)

    def test_rejects_out_of_range_pid(self):
        with pytest.raises(ValueError, match="outside"):
            FaultPlan.crashes({7: 1.0}).validate(n=5, t=2)

    def test_rejects_negative_crash_time(self):
        with pytest.raises(ValueError):
            FaultPlan.crashes({0: -1.0})
