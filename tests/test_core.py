"""Core types: snapshot derivation, aggregates, invariants."""

import pytest
from fractions import Fraction

from hypothesis import given, strategies as st

from fbsim.core import (
    CapacityError,
    PolicyKind,
    QueueId,
    TrafficClass,
    derive_aggregates,
)
from fbsim.workloads import ConfigError, ScenarioConfig

LOW, HIGH = 0, 1


def test_units_convention_requires_positive_buffer():
    # the buffer is counted in whole packets; ScenarioConfig enforces B >= 1
    def config(buffer_size):
        return ScenarioConfig(
            buffer_size=buffer_size, n_ports=1, classes=(TrafficClass(0, Fraction(1), LOW),),
            policy=PolicyKind.DYNAMIC_THRESHOLDS,
        )

    config(1).validate()
    for bad in (0, -1):
        with pytest.raises(ConfigError, match="buffer size must be >= 1 packet"):
            config(bad).validate()


def test_traffic_class_requires_positive_alpha():
    with pytest.raises(ValueError):
        TrafficClass(0, Fraction(0), LOW)
    with pytest.raises(ValueError):
        TrafficClass(0, Fraction(-1), LOW)


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
