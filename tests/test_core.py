"""Core types: the unit conventions, the traffic class's alpha check and the
whole-number converter.

The snapshot-derivation oracle and its tests live in ``tests/oracles.py``
and ``tests/test_oracles.py``."""

import math

import pytest
from fractions import Fraction

from fbsim.core import PolicyKind, QueueId, TrafficClass, as_whole
from fbsim.workloads import ConfigError, ScenarioConfig

LOW = 0


def test_units_convention_requires_positive_buffer():
    # the buffer is counted in whole packets; ScenarioConfig enforces B >= 1
    def config(buffer_size):
        return ScenarioConfig(
            buffer_size=buffer_size, n_ports=1, classes=(TrafficClass(0, Fraction(1), LOW),),
            policy=PolicyKind.DYNAMIC_THRESHOLDS,
        )

    config(1)
    for bad in (0, -1):
        with pytest.raises(ConfigError, match="buffer size must be >= 1 packet"):
            config(bad)


def test_traffic_class_requires_positive_alpha():
    with pytest.raises(ValueError):
        TrafficClass(0, Fraction(0), LOW)
    with pytest.raises(ValueError):
        TrafficClass(0, Fraction(-1), LOW)


@pytest.mark.parametrize("value,whole", [(60, 60), (60.0, 60), (Fraction(120, 2), 60), (-3.0, -3)])
def test_a_whole_number_of_any_kind_becomes_an_int(value, whole):
    assert type(as_whole(value)) is int and as_whole(value) == whole


@pytest.mark.parametrize("value", [60.5, Fraction(1, 2), math.inf, -math.inf, math.nan, "60"])
def test_anything_else_is_not_whole(value):
    with pytest.raises(ValueError, match="expected a whole number"):
        as_whole(value)


def test_ids_are_whole_ints():
    # a whole-float id once wrote "1.0:3" into a lock, which its reader refuses
    cls, queue = TrafficClass(0.0, 1, Fraction(2)), QueueId(1.0, Fraction(3))
    assert (cls, queue) == (TrafficClass(0, Fraction(1), 2), QueueId(1, 3))
    assert {type(v) for v in (cls.class_id, cls.priority_id, queue.port, queue.class_id)} == {int}
    assert str(queue) == "1:3"
    for build in (lambda: TrafficClass(0, 1, 0.5), lambda: QueueId(0.5, 0), lambda: QueueId(0, math.nan)):
        with pytest.raises(ValueError, match="expected a whole number"):
            build()
