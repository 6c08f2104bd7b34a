"""Core types: the unit conventions and the traffic class's alpha check.

The snapshot-derivation oracle and its tests live in ``tests/oracles.py``
and ``tests/test_oracles.py``."""

import pytest
from fractions import Fraction

from fbsim.core import PolicyKind, TrafficClass
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
