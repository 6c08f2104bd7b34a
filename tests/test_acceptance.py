"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  The randomized suites use fixed seeds and therefore check the
same scenarios every run.
"""

import math
import random
import time
from dataclasses import replace
from fractions import Fraction

from fbsim.core import PolicyKind, QueueId, TrafficClass
from fbsim.engine import run
from fbsim.fluid import (
    CaseKind,
    burst_absorption_curve,
    case_rate_bound,
    classify_case,
    first_threshold_crossing,
    integrate_transient,
    steady_state,
    two_priority_incast,
)
from fbsim.metrics import compute, trailing_steady_lengths
from fbsim.workloads import (
    Burst,
    ConstantRate,
    ScenarioConfig,
    preset,
    transient_scenario,
)
from oracles import (
    alpha_H_for_burst,
    alpha_L_for_burst,
    alpha_L_for_zero_transient,
    fb_omegas,
    occupancy_bound,
)
from test_engine import ticks

F = Fraction
LOW, HIGH = 0, 1


def _report(criterion, text):
    print(f"[acceptance {criterion}] PASS: {text}")


def trailing_group_max(trace, queues, window):
    """Maximum summed length of a queue group over the run's last ``window``
    time units (e.g. a priority group's pinned aggregate)."""
    group = set(queues)
    t0 = trace.horizon - window
    current = {q: trace.initial_lengths.get(q, 0) for q in trace.queue_ids}
    best = None
    for time_, port, class_id, action, qlen, *_ in trace.records:
        if action not in ("admit", "depart"):
            continue
        if time_ >= t0 and best is None:
            best = sum(current[q] for q in group)
        current[trace.queue_of[port, class_id]] = qlen
        if best is not None:
            best = max(best, sum(current[q] for q in group))
    return best if best is not None else sum(current[q] for q in group)


def test_criterion_01_dt_steady_state():
    started = time.monotonic()
    # fluid: alphas 2,1,1,1 -> T_high 20, remaining 10, T_low 10
    omegas = {QueueId(0, 1): 2, QueueId(1, 0): 1, QueueId(2, 0): 1, QueueId(3, 0): 1}
    res = steady_state(omegas, 60)
    assert res.steady_thresholds[QueueId(0, 1)] == 20
    assert res.steady_remaining == 10
    assert all(res.steady_thresholds[QueueId(p, 0)] == 10 for p in (1, 2, 3))

    cfg = preset("fig4_steady")
    trace = run(cfg)
    pinned, occ_max = trailing_steady_lengths(trace, 20.0)
    assert abs(pinned[QueueId(0, 1)] - 20) <= 1
    for p in (1, 2, 3):
        assert abs(pinned[QueueId(p, 0)] - 10) <= 1
    assert abs((cfg.buffer_size - occ_max) - 10) <= 1
    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    _report(1, f"DT steady 20/10/10/10, remaining 10 (sim within 1 pkt, {elapsed:.2f}s)")


def test_criterion_02_fb_steady_state():
    # fluid: high omega 2, three lows at 1/3 -> T_high 30, lows 15 aggregate
    omegas = fb_omegas(
        {QueueId(0, 1): (2, HIGH, 1), QueueId(1, 0): (1, LOW, 1),
         QueueId(2, 0): (1, LOW, 1), QueueId(3, 0): (1, LOW, 1)}
    )
    res = steady_state(omegas, 60)
    assert res.steady_thresholds[QueueId(0, 1)] == 30
    assert sum(res.steady_thresholds[QueueId(p, 0)] for p in (1, 2, 3)) == 15

    cfg = preset("fig5_steady")
    trace = run(cfg)
    pinned, _ = trailing_steady_lengths(trace, 20.0)
    assert abs(pinned[QueueId(0, 1)] - 30) <= 1
    low_aggregate = trailing_group_max(trace, [QueueId(p, 0) for p in (1, 2, 3)], 20.0)
    assert abs(low_aggregate - 15) <= 1
    _report(2, f"FB steady: T_high 30 exact, low aggregate {low_aggregate} (15 +/- 1)")


def test_criterion_03_dt_incast_first_drop_at_eight():
    cfg = preset("fig4_incast")
    trace = run(cfg)
    burst_drops = [r for r in trace.records if r[3] == "drop" and r[2] == 5]
    assert burst_drops, "the DT incast must drop"
    first = burst_drops[0]
    assert abs(first[4] - 8) <= 1  # queue held 8 packets

    ts = transient_scenario(cfg)
    assert first_threshold_crossing(ts) == 2  # exact closed form
    res = integrate_transient(ts)
    t1 = res.t1
    assert t1 == 2 and res.first_crossing == {ts.new[0].queue: 2}  # exact fluid solver
    _report(3, f"DT incast first drop at {first[4]} pkts (8 +/- 1), fluid t1 = {t1}")


def test_criterion_04_two_queue_transient_walkthrough():
    cfg = preset("fig2")
    trace = run(cfg)
    q1, q2 = QueueId(0, 0), QueueId(1, 1)
    assert abs(trace.final_lengths[q1] - 15) <= 1
    assert abs(trace.final_lengths[q2] - 30) <= 1
    pinned, occ_max = trailing_steady_lengths(trace, 10.0)
    assert abs((cfg.buffer_size - occ_max) - 15) <= 1
    _report(4, f"transient walkthrough ends at {trace.final_lengths[q1]}/"
               f"{trace.final_lengths[q2]}, remaining {cfg.buffer_size - occ_max}")


def test_criterion_05_occupancy_bound():
    rng = random.Random(20240501)

    # fluid: 1000 random FB weight configurations never exceed the bound
    checked_equalities = 0
    for i in range(1000):
        a_low = F(rng.randint(1, 24), rng.randint(1, 4))
        a_high = F(rng.randint(1, 48), rng.randint(1, 4))
        bound = occupancy_bound([a_low, a_high], 60)
        queues = {}
        if i % 4 == 0:
            # saturating layout: same alpha per priority, own ports
            for k in range(rng.randint(1, 5)):
                queues[QueueId(100 + k, 0)] = (a_low, LOW, 1)
            for k in range(rng.randint(1, 3)):
                queues[QueueId(200 + k, 1)] = (a_high, HIGH, 1)
        else:
            per_port = rng.randint(1, 3)
            n_low = rng.randint(1, 4) * per_port
            for k in range(n_low):
                alpha = a_low if k == 0 else a_low * F(rng.randint(1, 4), 4)
                queues[QueueId(100 + k // per_port, k)] = (alpha, LOW, F(1, per_port))
            queues[QueueId(0, 99)] = (a_high, HIGH, 1)
        occupancy = steady_state(fb_omegas(queues), 60).steady_occupancy
        assert occupancy <= bound
        if i % 4 == 0:
            assert occupancy == bound
            checked_equalities += 1

    # packet sim: converged occupancy within queue-count packets of the bound
    worst_slack = -1e9
    for i in range(1000):
        a_low = F(rng.randint(1, 12), rng.randint(1, 4))
        a_high = F(rng.randint(1, 24), rng.randint(1, 4))
        n_low = rng.randint(1, 4)
        n_high = rng.randint(1, 2)
        low_port = rng.randint(0, 1)
        classes = tuple(
            TrafficClass(c, a_low if c == 0 else a_low * F(rng.randint(1, 4), 4), LOW)
            for c in range(n_low)
        ) + tuple(
            TrafficClass(n_low + c, a_high if c == 0 else a_high * F(rng.randint(1, 4), 4), HIGH)
            for c in range(n_high)
        )
        sources = tuple(
            ConstantRate(class_id=c, port=low_port, rate=F(2), start=F(c, 16))
            for c in range(n_low)
        ) + tuple(
            ConstantRate(class_id=n_low + c, port=2 + c, rate=F(2), start=F(c + n_low, 16))
            for c in range(n_high)
        )
        cfg = ScenarioConfig(
            buffer_size=60, n_ports=2 + n_high, classes=classes,
            policy=PolicyKind.FB, sources=sources, horizon=30.0,
        )
        trace = run(cfg)
        _, occ_max = trailing_steady_lengths(trace, 6.0)
        bound = float(occupancy_bound([a_low, a_high], 60))
        slack = occ_max - bound
        worst_slack = max(worst_slack, slack)
        assert occ_max <= bound + (n_low + n_high)
    _report(5, f"occupancy bound held on 1000 fluid (incl. {checked_equalities} tight) "
               f"+ 1000 sim cases (worst sim slack {worst_slack:+.2f} pkts)")


def test_criterion_06_t1_oracle_equivalence():
    started = time.monotonic()
    rng = random.Random(61)
    done = {CaseKind.CASE1: 0, CaseKind.CASE2: 0}
    while min(done.values()) < 500:
        a_low = F(rng.randint(1, 8), rng.randint(1, 4))
        a_high = F(rng.randint(1, 12), rng.randint(1, 3))
        num = rng.randint(1, 6)
        per_port = rng.choice([1, 1, 2, 3])
        n_new = rng.randint(1, 3)
        buffer_size = rng.randint(40, 200)
        probe = two_priority_incast(
            buffer_size, a_low, a_high, 2, n_low_ports=num,
            low_queues_per_port=per_port, n_new=n_new,
        )
        bound = case_rate_bound(probe)
        want_case1 = done[CaseKind.CASE1] <= done[CaseKind.CASE2]
        if want_case1:
            r = 1 + (bound - 1) * F(rng.randint(10, 99), 100)
        else:
            r = bound * F(rng.randint(105, 400), 100)
        ts = two_priority_incast(
            buffer_size, a_low, a_high, r, n_low_ports=num,
            low_queues_per_port=per_port, n_new=n_new,
        )
        case = classify_case(ts)
        closed = first_threshold_crossing(ts)
        res = integrate_transient(ts)
        solved = res.t1
        assert isinstance(solved, Fraction) and closed == solved, (ts.r, case, closed, solved)
        assert res.first_crossing == {q.queue: solved for q in ts.new}  # symmetric new queues
        done[case] += 1
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    _report(6, f"{done[CaseKind.CASE1]} Case-1 + {done[CaseKind.CASE2]} Case-2 scenarios, "
               f"closed form == solver exactly, {elapsed:.1f}s")


def _guarantee_config(buffer_size, alpha_low, alpha_high, r, duration):
    prefill = int(buffer_size * alpha_low / (1 + alpha_low))
    return ScenarioConfig(
        buffer_size=buffer_size, n_ports=2,
        classes=(TrafficClass(0, alpha_low, LOW), TrafficClass(1, alpha_high, HIGH)),
        policy=PolicyKind.FB,
        sources=(
            ConstantRate(class_id=0, port=1, rate=F(2)),
            Burst(class_id=1, port=0, r=r, duration=duration, start=F(2)),
        ),
        initial_lengths={QueueId(1, 0): prefill},
        horizon=float(2 + duration + 5),
        sample_interval=1.0,
    )


def test_criterion_07_burst_guarantee_soundness():
    rng = random.Random(77)
    for i in range(200):
        buffer_size = rng.randint(1000, 3000)
        r = F(rng.randint(25, 60), 10)
        frac = F(rng.randint(20, 70), 100)
        t = frac * buffer_size / r
        alpha_l_max = alpha_L_for_burst(buffer_size, r, t)
        alpha_l = alpha_l_max * F(rng.randint(20, 80), 100)
        alpha_h_min = alpha_H_for_burst(buffer_size, r, t, alpha_l)
        alpha_h = alpha_h_min * F(13, 10) + F(1, 10)
        # closed-form soundness first: the chosen alphas leave margin
        ts = two_priority_incast(buffer_size, alpha_l, alpha_h, r)
        assert first_threshold_crossing(ts) > t
        cfg = _guarantee_config(buffer_size, alpha_l, alpha_h, r, t)
        m = compute(run(cfg), cfg)
        assert m.burst_admitted_fraction == 1.0, (
            buffer_size, float(r), float(t), float(alpha_l), float(alpha_h)
        )

    # violating the zero-transient bound by 10% must produce transient drops
    r = F(4)
    buffer_size = 2000
    bound = alpha_L_for_zero_transient(r, 1)
    alpha_l = bound * F(11, 10)
    alpha_h = F(2)
    ts = two_priority_incast(buffer_size, alpha_l, alpha_h, r)
    assert classify_case(ts) is CaseKind.CASE2
    t1 = first_threshold_crossing(ts)
    steady_share = buffer_size * alpha_h / (1 + alpha_l + alpha_h)
    duration = F(int(t1 * F(6, 5)))
    cfg = _guarantee_config(buffer_size, alpha_l, alpha_h, r, duration)
    trace = run(cfg)
    burst_drops = [rec for rec in trace.records if rec[3] == "drop" and rec[2] == 1]
    assert burst_drops, "10% over the zero-transient bound must drop"
    first_len = burst_drops[0][4]
    assert first_len < math.floor(steady_share), (first_len, float(steady_share))
    _report(7, f"200 solver-configured bursts drop-free; 1.1x alpha_L drops at "
               f"{first_len} < steady share {float(steady_share):.1f}")


def test_criterion_08_dt_scaling_curve():
    dt_previous = None
    below_tenth = None
    fb_values = set()
    for n in range(1, 33):
        dt = steady_state(
            {QueueId(0, 1): 2, **{QueueId(1 + k, 0): 1 for k in range(n)}},
            60,
        ).steady_thresholds[QueueId(0, 1)]
        if dt_previous is not None:
            assert dt < dt_previous
        dt_previous = dt
        if below_tenth is None and dt < F(60, 10):
            below_tenth = n
        fb = steady_state(
            fb_omegas(
                {QueueId(0, 1): (2, HIGH, 1), **{QueueId(1 + k, 0): (1, LOW, 1) for k in range(n)}}
            ),
            60,
        ).steady_thresholds[QueueId(0, 1)]
        fb_values.add(fb)
    assert below_tenth is not None
    assert fb_values == {30}
    _report(8, f"DT T_high strictly falls, below 10% of B at N={below_tenth}; "
               f"FB T_high = 30 for every N in 1..32")


def test_criterion_09_burst_curve_lower_bound():
    r_values = [F(3, 2), 2, 3, 4, 6, 8, 12, 16, 24, 48, 96, 192]
    counts = [1, 2, 4, 8]
    points = burst_absorption_curve(667, F(1, 2), 20, r_values, counts, scheme="fb")
    base = {p.r: p.burst for p in points if p.n_low_queues == 1}
    for p in points:
        assert p.burst >= base[p.r]
    for count in counts[1:]:
        ratios = [
            p.burst / base[p.r]
            for p in points
            if p.n_low_queues == count and p.r >= 24
        ]
        assert all(a >= b for a, b in zip(ratios, ratios[1:]))  # converging
        assert ratios[-1] < F(105, 100)
    _report(9, "FB curve pointwise above the single-queue state and converging to it")


def test_criterion_10_fba_consistency():
    for name in ("fig2", "fig4_steady", "fig4_incast", "fig5_steady", "fig5_incast", "dt_scaling"):
        base = preset(name)
        fb = run(replace(base, policy=PolicyKind.FB))
        fba = run(replace(base, policy=PolicyKind.FBA, fba_period=0.0))
        assert fb.records == fba.records
        assert fb.samples == fba.samples
        assert fb.final_lengths == fba.final_lengths

    cfg = replace(preset("fig5_incast"), policy=PolicyKind.FBA, fba_period=1.0)
    trace = run(cfg)
    rows = ticks(cfg)

    def table_in_force(t):
        current = rows[0][1]
        for tick_time, table in rows:
            if tick_time < t or tick_time == 0.0:
                current = table
            else:
                break
        return current

    checked = 0
    for rec_time, port, cls, action, _qlen, threshold, occ, _src in trace.records:
        if action not in ("admit", "drop"):
            continue
        occ_before = occ - (1 if action == "admit" else 0)
        expected = table_in_force(rec_time)[QueueId(port, cls)] * (
            cfg.buffer_size - occ_before
        )
        assert expected == threshold  # bitwise
        checked += 1
    assert checked > 200
    _report(10, f"FBA(period->0) traces equal FB on every preset; period=1 "
                f"thresholds match the emitted tables exactly ({checked} decisions)")
