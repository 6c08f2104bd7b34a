"""The test-only oracles in ``tests/oracles.py``: snapshot derivation,
aggregates and their invariants, and the FB occupancy bound."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from fbsim.core import QueueId
from fbsim.fluid import steady_state
from oracles import CapacityError, derive_aggregates, fb_omegas, occupancy_bound

F = Fraction
LOW, HIGH = 0, 1


def qid(port, cls=0):
    return QueueId(port, cls)


def test_empty_buffer_snapshot():
    snap = derive_aggregates({}, {0: LOW}, buffer_size=60)
    assert snap.occupancy == 0
    assert snap.remaining == 60
    assert all(n == 0 for n in snap.congested_per_priority.values())


def test_five_low_queues_share_one_port():
    lengths = {QueueId(2, c): 10 for c in range(5)}
    snap = derive_aggregates(lengths, {c: LOW for c in range(5)}, buffer_size=60)
    assert snap.congested_per_priority[LOW] == 5


def test_queues_on_distinct_ports_get_full_rate():
    lengths = {QueueId(p, 0): 5 for p in (1, 2, 3)}
    lengths[QueueId(0, 1)] = 7
    snap = derive_aggregates(lengths, {0: LOW, 1: HIGH}, buffer_size=60)
    assert snap.congested_per_priority == {LOW: 3, HIGH: 1}


def test_inactive_queue_next_to_active_gets_zero_share():
    lengths = {QueueId(0, 0): 5, QueueId(0, 1): 1}
    snap = derive_aggregates(lengths, {0: LOW, 1: HIGH}, buffer_size=60,
                             congestion_threshold=2)
    assert snap.congested_per_priority == {LOW: 1, HIGH: 0}


def test_capacity_violation():
    with pytest.raises(CapacityError):
        derive_aggregates({QueueId(0, 0): 61}, {0: LOW}, buffer_size=60)


def test_negative_length_rejected():
    with pytest.raises(ValueError):
        derive_aggregates({QueueId(0, 0): -1}, {0: LOW}, buffer_size=60)


def test_unknown_class_rejected():
    with pytest.raises(ValueError):
        derive_aggregates({QueueId(0, 9): 1}, {0: LOW}, buffer_size=60)


@given(
    st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 2), st.integers(0, 8)),
        min_size=0, max_size=10, unique_by=lambda t: (t[0], t[1]),
    )
)
def test_snapshot_invariants_hold(entries):
    lengths = {QueueId(port, cls): ln for port, cls, ln in entries}
    priorities = {0: LOW, 1: LOW, 2: HIGH}
    if sum(lengths.values()) > 60:
        return
    snap = derive_aggregates(lengths, priorities, buffer_size=60)
    assert snap.occupancy == sum(lengths.values())
    assert 0 <= snap.occupancy <= 60
    assert snap.remaining == 60 - snap.occupancy
    for prio, n in snap.congested_per_priority.items():
        assert n == sum(
            1 for q, ln in lengths.items() if priorities[q.class_id] == prio and ln > 0
        )


def test_derive_is_idempotent():
    lengths = {QueueId(0, 0): 3, QueueId(1, 1): 7, QueueId(1, 0): 0}
    first = derive_aggregates(lengths, {0: LOW, 1: HIGH}, 60)
    second = derive_aggregates(dict(first.lengths), {0: LOW, 1: HIGH}, 60)
    assert first.occupancy == second.occupancy
    assert first.congested_per_priority == second.congested_per_priority


class TestOccupancyBound:
    def test_two_priority_example(self):
        assert occupancy_bound([1, 2], 60) == 45

    def test_skewed_alphas(self):
        assert occupancy_bound([F(1, 2), 20], 86) == 86 * F(41, 2) / F(43, 2)

    def test_single_priority_half_buffer(self):
        assert occupancy_bound([1], 60) == 30

    def test_validates_input(self):
        with pytest.raises(ValueError):
            occupancy_bound([], 60)
        with pytest.raises(ValueError):
            occupancy_bound([-1], 60)

    def test_fb_steady_occupancy_never_exceeds_bound(self):
        import random

        rng = random.Random(7)
        for _ in range(200):
            a_low = F(rng.randint(1, 16), rng.randint(1, 4))
            a_high = F(rng.randint(1, 32), rng.randint(1, 4))
            n_low = rng.randint(1, 6)
            per_port = rng.randint(1, 3)
            queues = {}
            for i in range(n_low * per_port):
                queues[qid(100 + i // per_port, i)] = (a_low, 0, F(1, per_port))
            queues[qid(0, 99)] = (a_high, 1, 1)
            res = steady_state(fb_omegas(queues), 60)
            assert res.steady_occupancy <= occupancy_bound([a_low, a_high], 60)

    def test_bound_attained_when_priorities_saturate(self):
        # one queue per priority, gamma = 1: each group's omega sum hits its max
        omegas = fb_omegas({qid(0, 0): (F(1, 2), 0, 1), qid(1, 1): (20, 1, 1)})
        res = steady_state(omegas, 60)
        assert res.steady_occupancy == occupancy_bound([F(1, 2), 20], 60)
