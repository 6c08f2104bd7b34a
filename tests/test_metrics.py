"""Trace post-processing: counts, burst metrics, occupancy statistics."""

import math
import random
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from fbsim.core import PolicyKind, QueueId, TrafficClass
from fbsim.engine import ADMIT, DEPART, DROP, SOURCE_CHANGE, run, run_summary
from fbsim.metrics import (
    RunMetrics, _nearest_rank, compute, trailing_steady_lengths,
)
from fbsim.workloads import (
    Burst, ConstantRate, ScenarioConfig, load_scenario, preset, preset_names,
)

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


def scanned_metrics(trace, scenario):
    """Reference: every run metric found again by one pass over the trace's
    records, as ``compute`` did before the engine kept the facts itself."""
    burst_ids = {i for i, s in enumerate(scenario.sources) if isinstance(s, Burst)}
    burst_start = min(
        (float(s.start) for s in scenario.sources if isinstance(s, Burst)), default=None
    )
    first_drop = {str(q): math.inf for q in trace.queue_ids}
    occ_max = sum(trace.initial_lengths.values())
    arrivals = admitted = departed = 0
    last_departure = None
    for time, _thr, port, class_id, code, _qlen, occ, source_id in trace.rows():
        if code == SOURCE_CHANGE:
            continue
        occ_max = max(occ_max, occ)
        if code == DROP:
            key = str(trace.queue_of[port, class_id])
            first_drop[key] = min(first_drop[key], time)
        if source_id in burst_ids:
            if code == DEPART:
                departed += 1
                last_departure = time
            else:
                arrivals += 1
                admitted += code == ADMIT
    partial = False
    if burst_start is None:
        fraction, drain_time = 1.0, None
    else:
        fraction = admitted / arrivals if arrivals else 1.0
        if admitted == 0:
            drain_time = 0.0
        elif departed < admitted:
            drain_time, partial = math.inf, True
        else:
            drain_time = last_departure - burst_start
    departed_per_port = {}
    for q in trace.queue_ids:
        departed_per_port[q.port] = departed_per_port.get(q.port, 0) + trace.counts[q]["departed"]
    samples = list(trace.occupancy)
    return RunMetrics(
        per_queue=run_summary(trace)["queues"],
        first_drop_time=first_drop,
        burst_admitted_fraction=fraction,
        burst_drain_completion_time=drain_time,
        throughput_per_port={p: departed_per_port[p] / trace.horizon
                             for p in sorted(departed_per_port)},
        occupancy_mean=sum(samples) / len(samples) if samples else 0.0,
        occupancy_p99=sorted_nearest_rank(samples, 0.99) if samples else 0,
        occupancy_max=occ_max,
        partial=partial,
    )


GOLDEN_SCENARIOS = sorted((Path(__file__).parent / "golden" / "scenarios").glob("*.ini"))


@pytest.mark.parametrize("cfg", [preset(name) for name in preset_names()]
                         + [load_scenario(path) for path in GOLDEN_SCENARIOS],
                         ids=list(preset_names()) + [path.stem for path in GOLDEN_SCENARIOS])
def test_compute_matches_a_scan_of_the_records_on_presets_and_goldens(cfg):
    trace = run(cfg)
    assert compute(trace, cfg) == scanned_metrics(trace, cfg)


def family_config(rng):
    """A small random run: pre-filled queues, constant background, and one
    or two bursts with a burst as the last source, under every policy, in
    either queue mode, with or without a stale snapshot; the horizon
    sometimes ends before the bursts drain."""
    n_ports = rng.randint(1, 3)
    classes = (TrafficClass(0, F(rng.randint(1, 4), 2), LOW),
               TrafficClass(1, F(rng.randint(1, 8), 2), HIGH))
    buffer_size = rng.randint(8, 40)
    sources = [
        ConstantRate(class_id=rng.randint(0, 1), port=rng.randrange(n_ports),
                     rate=F(rng.randint(1, 6), 2), start=F(rng.randint(0, 8), 4))
        for _ in range(rng.randint(0, 3))
    ]
    sources += [
        Burst(class_id=rng.randint(0, 1), port=rng.randrange(n_ports),
              r=F(rng.randint(2, 12), 2), duration=F(rng.randint(1, 8), 2),
              start=F(rng.randint(0, 12), 2))
        for _ in range(rng.randint(1, 2))
    ]
    initial = {}
    for port in range(n_ports):
        for class_id in (0, 1):
            if rng.random() < 0.4:
                room = buffer_size - sum(initial.values())
                initial[QueueId(port, class_id)] = rng.randint(0, min(room, 10))
    return ScenarioConfig(
        buffer_size=buffer_size, n_ports=n_ports, classes=classes,
        policy=rng.choice(list(PolicyKind)), sources=tuple(sources),
        horizon=float(rng.choice([6.5, 12, 40])),
        queue_mode=rng.choice(["multi", "single"]),
        seed=rng.randint(0, 99), congestion_threshold=rng.randint(0, 2),
        fba_period=rng.choice([0.0, 1.0, 2.5]), sample_interval=0.5,
        snapshot_staleness=rng.choice([0.0, 0.0, 1.5]), initial_lengths=initial,
    )


def test_compute_matches_a_scan_of_the_records_on_a_seeded_family():
    rng = random.Random(16)
    seen = set()
    for _ in range(150):
        cfg = family_config(rng)
        trace = run(cfg)
        m = compute(trace, cfg)
        assert m == scanned_metrics(trace, cfg), cfg
        seen.update({cfg.policy, cfg.queue_mode, ("stale", cfg.snapshot_staleness > 0),
                     ("partial", m.partial), ("drops", m.total_drops > 0),
                     ("prefill", any(cfg.initial_lengths.values()))})
    assert seen >= {*PolicyKind, "multi", "single", ("stale", True), ("partial", True),
                    ("partial", False), ("drops", True), ("prefill", True)}
