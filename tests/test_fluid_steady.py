"""Steady-state closed forms.

The occupancy-bound oracle's tests live in ``tests/test_oracles.py``."""

import pytest
from fractions import Fraction

from fbsim.core import QueueId
from fbsim.fluid import steady_state
from oracles import fb_omegas

F = Fraction


def qid(port, cls=0):
    return QueueId(port, cls)


class TestSteadyState:
    def test_dt_four_queue_split(self):
        # alphas 2,1,1,1 on separate ports under DT (omega = alpha)
        omegas = {qid(0, 1): 2, qid(1): 1, qid(2): 1, qid(3): 1}
        res = steady_state(omegas, 60)
        assert res.steady_occupancy == 50
        assert res.steady_remaining == 10
        assert res.steady_thresholds[qid(0, 1)] == 20
        for p in (1, 2, 3):
            assert res.steady_thresholds[qid(p)] == 10

    def test_fb_bounds_low_aggregate(self):
        # high alone (omega 2), three lows of one class on own ports
        omegas = fb_omegas(
            {qid(0, 1): (2, 1, 1), qid(1): (1, 0, 1), qid(2): (1, 0, 1), qid(3): (1, 0, 1)}
        )
        assert omegas[qid(1)] == F(1, 3)
        res = steady_state(omegas, 60)
        assert res.steady_occupancy == 45
        assert res.steady_remaining == 15
        assert res.steady_thresholds[qid(0, 1)] == 30
        assert sum(res.steady_thresholds[qid(p)] for p in (1, 2, 3)) == 15

    def test_single_queue_half_buffer(self):
        res = steady_state({qid(0): 1}, 60)
        assert res.steady_occupancy == 30
        assert res.steady_remaining == 30

    def test_results_are_exact_rationals(self):
        res = steady_state({qid(0): F(1, 3)}, 60)
        assert res.steady_occupancy == F(60, 4)

    def test_rejects_nonpositive_omega(self):
        with pytest.raises(ValueError):
            steady_state({qid(0): F(0)}, 60)


class TestQueueCountDependence:
    def test_dt_remaining_shrinks_with_queue_count(self):
        previous = None
        for n in range(1, 33):
            omegas = {qid(p): 1 for p in range(n)}
            rem = steady_state(omegas, 60).steady_remaining
            assert rem == F(60, 1 + n)
            if previous is not None:
                assert rem < previous
            previous = rem

    def test_fb_remaining_constant_in_queue_count(self):
        values = set()
        for n in range(1, 33):
            queues = {qid(p): (1, 0, 1) for p in range(n)}
            values.add(steady_state(fb_omegas(queues), 60).steady_remaining)
        assert values == {30}
