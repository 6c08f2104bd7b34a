"""Trace post-processing: counts, burst metrics, occupancy statistics."""

import math
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from fbsim.core import QueueId, TrafficClass
from fbsim.engine import run
from fbsim.metrics import _nearest_rank, compute, trailing_steady_lengths
from fbsim.policies import PolicyKind
from fbsim.workloads import Burst, ConstantRate, ScenarioConfig, preset

F = Fraction
LOW, HIGH = 0, 1


def test_zero_drop_run():
    # genuinely drop-free trace: fraction 1 and first-drop at infinity
    cfg = ScenarioConfig(
        buffer_size=60, n_ports=1, classes=(TrafficClass(0, F(1), LOW),),
        policy=PolicyKind.COMPLETE_SHARING,
        sources=(Burst(class_id=0, port=0, r=F(4), duration=F(5), start=F(0)),),
        horizon=30.0,
    )
    m = compute(run(cfg), cfg)
    assert m.burst_admitted_fraction == 1.0
    assert all(t == math.inf for t in m.first_drop_time.values())
    assert m.total_drops == 0


def test_burst_queue_drop_free_under_fb():
    # the incast burst itself sails through even though background low
    # sources keep probing their pinned queues
    cfg = preset("fig5_incast")
    m = compute(run(cfg), cfg)
    assert m.burst_admitted_fraction == 1.0
    assert m.first_drop_time["0:5"] == math.inf


def test_incast_first_drop_length_and_time():
    cfg = preset("fig4_incast")
    trace = run(cfg)
    m = compute(trace, cfg)
    drop_time = m.first_drop_time["0:5"]
    assert drop_time < math.inf
    record = next(r for r in trace.records if r[3] == "drop" and r[2] == 5)
    assert record[4] == 8  # queue held 8 packets at the first drop
    assert m.burst_admitted_fraction < 1.0


def test_idle_run_zero_throughput():
    cfg = replace(preset("fig2"), sources=(), initial_lengths={})
    m = compute(run(cfg), cfg)
    assert m.throughput_total == 0.0
    assert m.occupancy_mean == 0.0


def test_backlogged_port_throughput_is_unit_rate():
    cfg = ScenarioConfig(
        buffer_size=60, n_ports=1, classes=(TrafficClass(0, F(1), LOW),),
        policy=PolicyKind.COMPLETE_SHARING,
        sources=(ConstantRate(class_id=0, port=0, rate=F(3)),),
        horizon=50.0,
    )
    m = compute(run(cfg), cfg)
    assert m.throughput_per_port[0] == pytest.approx(1.0, abs=1 / 50)


def test_qct_proxy_counts_drain_of_last_admitted_burst_packet():
    # a lone 3-packet burst into an empty port departs at t = 1, 2, 3
    cfg = ScenarioConfig(
        buffer_size=60, n_ports=1, classes=(TrafficClass(0, F(1), LOW),),
        policy=PolicyKind.COMPLETE_SHARING,
        sources=(Burst(class_id=0, port=0, r=F(3), duration=F(1), start=F(0)),),
        horizon=10.0,
    )
    m = compute(run(cfg), cfg)
    assert m.burst_admitted_fraction == 1.0
    assert m.burst_drain_completion_time == pytest.approx(3.0)
    assert not m.partial


def test_partial_flag_when_burst_not_drained():
    cfg = ScenarioConfig(
        buffer_size=60, n_ports=1, classes=(TrafficClass(0, F(1), LOW),),
        policy=PolicyKind.COMPLETE_SHARING,
        sources=(Burst(class_id=0, port=0, r=F(10), duration=F(3), start=F(0)),),
        horizon=5.0,
    )
    m = compute(run(cfg), cfg)
    assert m.partial and m.burst_drain_completion_time == math.inf


def test_p99_at_least_mean():
    cfg = preset("fig4_steady")
    m = compute(run(cfg), cfg)
    assert m.occupancy_p99 >= m.occupancy_mean
    assert m.occupancy_max >= m.occupancy_p99


def sorted_nearest_rank(values, quantile):
    """Oracle: the nearest-rank quantile read off the fully sorted samples."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(quantile * len(ordered)) - 1)]


@settings(max_examples=300, deadline=None)
@given(values=st.lists(st.integers(0, 12), min_size=1, max_size=300),
       quantile=st.one_of(st.just(0.99), st.floats(0.001, 1.0)))
@example(values=[7], quantile=0.99)  # n = 1
@example(values=[4] * 250, quantile=0.99)  # all samples equal
@example(values=[1] * 198 + [5, 5, 5], quantile=0.99)  # ties around the rank
@example(values=list(range(100)), quantile=1.0)
def test_p99_selection_matches_the_sorted_oracle(values, quantile):
    assert _nearest_rank(values, quantile) == sorted_nearest_rank(values, quantile)


def test_trailing_steady_lengths_on_converged_run():
    cfg = preset("fig4_steady")
    lengths, occ_max = trailing_steady_lengths(run(cfg), 20.0)
    assert lengths[QueueId(0, 1)] == 20
    assert occ_max == 50
