"""Transient analysis: case classification, t1 closed forms, alpha bounds,
and the exact event-driven solver as the independent cross-check."""

import math
import random
from dataclasses import replace

import pytest
from fractions import Fraction
from hypothesis import example, given, settings, strategies as st

from fbsim import fluid
from fbsim.core import QueueId
from fbsim.fluid import (
    INFEASIBLE,
    UNCONSTRAINED,
    BoundStatus,
    CaseKind,
    NewQueue,
    OldQueue,
    TransientScenario,
    _over_lcm,
    _scaled,
    _solve_total_rate,
    alpha_bounds_general,
    analyze_transient,
    burst_absorption_curve,
    case_rate_bound,
    classify_case,
    first_threshold_crossing,
    integrate_first_crossing,
    integrate_transient,
    two_priority_incast,
)
from fbsim.workloads import loads_scenario, preset, transient_scenario
from oracles import (
    affected,
    aggregate_alpha_bounds,
    aggregate_closed_form,
    alpha_H_for_burst,
    alpha_L_for_burst,
    alpha_L_for_zero_transient,
    multi_priority_alpha_H,
    reference_total_rate,
    reference_transient,
)

F = Fraction


def with_new_gamma(ts, gamma, scheme):
    """``ts`` with its new queues draining at ``gamma``; under FB a new
    queue's factor beta * gamma, and so its omega, scale with it."""
    scale = gamma if scheme == "fb" else 1
    return replace(ts, new=tuple(
        replace(q, gamma=gamma, omega=q.omega * scale, factor=q.factor * scale) for q in ts.new
    ))


def scenario_case1():
    # three unaffected lows (gamma=1, omega=1/3 each), one new high (omega=2)
    return two_priority_incast(60, 1, 2, 4, n_low_ports=3)


def scenario_case2(r=10):
    return two_priority_incast(60, 1, 2, r, n_low_ports=3)


@pytest.mark.parametrize("buffer", [60.5, 60.9, F(121, 2), math.inf, math.nan])
def test_a_buffer_that_is_not_whole_is_refused(buffer):
    # 60.5 once gave the inexact t1 6.05 and broke the solver, and
    # two_priority_incast truncated 60.9 to 60
    ts = two_priority_incast(60, 1, 2, 5)
    with pytest.raises(ValueError, match="expected a whole number"):
        TransientScenario(buffer, ts.old, ts.new, ts.r)
    with pytest.raises(ValueError, match="expected a whole number"):
        two_priority_incast(buffer, 1, 2, 5)


@pytest.mark.parametrize("buffer", [60.0, F(120, 2)])
def test_a_whole_buffer_of_any_kind_is_an_int(buffer):
    ts = two_priority_incast(60, 1, 2, 5)
    for built in (TransientScenario(buffer, ts.old, ts.new, ts.r), two_priority_incast(buffer, 1, 2, 5)):
        assert built == ts and type(built.buffer_size) is int
        assert first_threshold_crossing(built) == min(integrate_transient(built).first_crossing.values())


def test_a_queue_of_another_type_is_refused():
    with pytest.raises(ValueError, match="old: expected OldQueue, got 'x'"):
        TransientScenario(60, ("x",), (), 2)


@pytest.mark.parametrize("before", [-1, 0, F(3, 8)])
def test_a_rising_omega_is_refused(before):
    # a burst only adds queues, and adding queues never raises a weight;
    # omega_before=-1 once built and then ended both routes in ZeroDivisionError
    with pytest.raises(ValueError, match="100:0: need omega_before >= omega"):
        OldQueue(QueueId(100, 0), omega=F(3, 4), gamma=1, omega_before=before)


def test_an_unchanged_or_lowered_omega_is_kept():
    for before, lowered in ((None, False), (F(3, 4), False), (F(3, 2), True)):
        q = OldQueue(QueueId(100, 0), omega=F(3, 4), gamma=1, omega_before=before)
        assert affected(q) is lowered


def test_a_negative_fill_rate_is_refused():
    # fill_rate=-1 once built; beside one new queue (omega 1, gamma 1) at
    # r = 4, the closed form then gave t1 6 and the solver 15/2
    with pytest.raises(ValueError, match="100:0: need fill_rate >= 0"):
        OldQueue(QueueId(100, 0), omega=1, gamma=1, fill_rate=-1)


def test_a_zero_fill_rate_only_drains():
    # at rate 0 the old queue drains at gamma from its steady 30 at t = 0
    old = (OldQueue(QueueId(100, 0), omega=1, gamma=1, fill_rate=0),)
    ts = TransientScenario(60, old, (NewQueue(QueueId(0, 1), omega=2, gamma=1),), F(4))
    res = integrate_transient(ts, horizon=10)
    assert_equals_the_reference(ts, 10, res)
    assert res.lengths[QueueId(100, 0)] == [30 - t for t in res.times]


@pytest.mark.parametrize("count", [2.5, F(5, 2), math.inf, math.nan])
def test_a_count_that_is_not_whole_is_refused(count):
    # a count once reached range() and raised TypeError
    for call in (lambda: two_priority_incast(60, 1, 2, 5, n_low_ports=count),
                 lambda: two_priority_incast(60, 1, 2, 5, low_queues_per_port=count),
                 lambda: two_priority_incast(60, 1, 2, 5, n_new=count),
                 lambda: burst_absorption_curve(60, 1, 2, [3], [count])):
        with pytest.raises(ValueError, match="expected a whole number"):
            call()


@pytest.mark.parametrize("count", [2.0, F(4, 2)])
def test_a_whole_count_of_any_kind_is_an_int(count):
    shape = dict(n_low_ports=count, low_queues_per_port=count, n_new=count)
    assert two_priority_incast(60, 1, 2, 5, **shape) == two_priority_incast(60, 1, 2, 5, 2, 2, 2)
    assert burst_absorption_curve(60, 1, 2, [3], [count]) == burst_absorption_curve(60, 1, 2, [3], [2])


@pytest.mark.parametrize("shape", [
    dict(n_low_ports=fluid.MAX_INCAST_QUEUES),
    dict(low_queues_per_port=fluid.MAX_INCAST_QUEUES),
    dict(n_low_ports=0, n_new=fluid.MAX_INCAST_QUEUES + 1),
    dict(n_low_ports=64, low_queues_per_port=64),
], ids=["low_ports", "per_port", "new", "product"])
def test_an_incast_one_queue_past_the_limit_is_refused_before_it_is_built(shape, monkeypatch):
    # each shape holds MAX_INCAST_QUEUES + 1 queues; no QueueId is made
    # before the refusal
    monkeypatch.setattr(fluid, "QueueId", lambda *a: pytest.fail("a queue was built"))
    with pytest.raises(ValueError, match=f"the incast has {fluid.MAX_INCAST_QUEUES + 1} queues"):
        two_priority_incast(60, 1, 2, 5, **shape)
    with pytest.raises(ValueError, match="more than"):
        burst_absorption_curve(60, 1, 2, [3], [fluid.MAX_INCAST_QUEUES])


class TestClassification:
    def test_rate_bound_value(self):
        assert case_rate_bound(scenario_case1()) == 7

    def test_case1_below_bound(self):
        assert classify_case(scenario_case1()) is CaseKind.CASE1

    def test_case2_above_bound(self):
        assert classify_case(scenario_case2()) is CaseKind.CASE2

    def test_slow_arrivals_always_case1(self):
        ts = two_priority_incast(60, 1, 2, F(11, 10), n_low_ports=5)
        assert classify_case(ts) is CaseKind.CASE1

    def test_no_old_queues_is_case1(self):
        ts = two_priority_incast(60, 1, 2, 50, n_low_ports=1)
        ts = TransientScenario(ts.buffer_size, (), ts.new, ts.r)
        assert classify_case(ts) is CaseKind.CASE1

    def test_no_new_queues_rejected(self):
        ts = scenario_case1()
        bare = TransientScenario(ts.buffer_size, ts.old, (), ts.r)
        with pytest.raises(ValueError):
            classify_case(bare)

    def test_unknown_scheme_rejected_without_old_queues(self):
        with pytest.raises(ValueError, match="unknown scheme"):
            two_priority_incast(60, 1, 2, 4, n_low_ports=0, scheme="fq")


def t1_in(ts, case):
    """The closed-form t1 per new queue, with the scenario asserted to be
    in ``case``."""
    res = analyze_transient(ts)
    assert res.case is case
    return res.t1_per_queue


class TestT1:
    def test_case1_example(self):
        assert min(t1_in(scenario_case1(), CaseKind.CASE1).values()) == 10

    def test_case1_infinite_when_rate_below_drain(self):
        ts = two_priority_incast(60, 1, 2, 1, n_low_ports=3)
        assert min(t1_in(ts, CaseKind.CASE1).values()) == math.inf

    def test_case1_two_new_queues(self):
        # two new high queues split their group's share: omega = 1 each
        ts = two_priority_incast(60, 1, 2, 4, n_low_ports=3, n_new=2)
        assert set(t1_in(ts, CaseKind.CASE1).values()) == {5}

    def test_case1_rejects_case2_scenario(self):
        # a Case-2 scenario gets the Case-2 form, not Case-1's other value
        ts = scenario_case2()
        assert (t1_in(ts, CaseKind.CASE2) == _paper_t1(ts, CaseKind.CASE2)
                != _paper_t1(ts, CaseKind.CASE1))

    def test_case2_example(self):
        assert min(t1_in(scenario_case2(), CaseKind.CASE2).values()) == F(20, 7)

    def test_case2_single_port(self):
        ts = two_priority_incast(60, 1, 2, 10, n_low_ports=1)
        assert min(t1_in(ts, CaseKind.CASE2).values()) == F(12, 5)

    def test_case2_t1_grows_with_congested_ports(self):
        previous = None
        for num in range(1, 8):
            ts = two_priority_incast(60, 1, 2, 30, n_low_ports=num)
            t1 = min(t1_in(ts, CaseKind.CASE2).values())
            if previous is not None:
                assert t1 > previous
            previous = t1

    def test_case2_rejects_strict_case1_scenario(self):
        # a strictly Case-1 scenario gets the Case-1 form, not Case-2's
        ts = scenario_case1()
        assert (t1_in(ts, CaseKind.CASE1) == _paper_t1(ts, CaseKind.CASE1)
                != _paper_t1(ts, CaseKind.CASE2))

    def test_case_boundary_continuity(self):
        ts = scenario_case1()
        boundary = case_rate_bound(ts)
        at_boundary = two_priority_incast(60, 1, 2, boundary, n_low_ports=3)
        assert classify_case(at_boundary) is CaseKind.CASE1
        assert t1_in(at_boundary, CaseKind.CASE1) == _paper_t1(at_boundary, CaseKind.CASE2)
        assert first_threshold_crossing(at_boundary) == min(
            _paper_t1(at_boundary, CaseKind.CASE2).values())

    def test_no_old_queues_direct_fill(self):
        # omega*B / ((r-gamma) * (1 + omega*|S_new|))
        ts = two_priority_incast(60, 1, 2, 4, n_low_ports=1)
        bare = TransientScenario(ts.buffer_size, (), ts.new, ts.r)
        assert min(t1_in(bare, CaseKind.CASE1).values()) == F(2 * 60, 3 * (1 + 2))


class TestBurstTolerance:
    def test_case1_example(self):
        assert analyze_transient(scenario_case1()).burst_tolerance == 40

    def test_case2_example(self):
        assert analyze_transient(scenario_case2()).burst_tolerance == F(200, 7)

    def test_infinite_propagates(self):
        ts = two_priority_incast(60, 1, 2, 1, n_low_ports=3)
        assert analyze_transient(ts).burst_tolerance == math.inf

    def test_analyze_bundles_everything(self):
        res = analyze_transient(scenario_case2())
        assert res.case is CaseKind.CASE2
        assert res.t1 == F(20, 7)
        assert res.burst_tolerance == F(200, 7)
        assert res.steady_occupancy + res.steady_remaining == 60


def test_each_closed_form_call_evaluates_once(monkeypatch):
    import fbsim.fluid as fluid

    calls = []
    evaluate = fluid._closed_form
    monkeypatch.setattr(fluid, "_closed_form", lambda ts: calls.append(ts) or evaluate(ts))
    for ts in (scenario_case1(), scenario_case2()):
        for route in (first_threshold_crossing, analyze_transient,
                      lambda ts: alpha_bounds_general(ts, 3), case_rate_bound, classify_case):
            calls.clear()
            route(ts)
            assert len(calls) == 1
    calls.clear()
    points = burst_absorption_curve(60, 1, 2, [2, 4, 10], [1, 3])
    assert len(calls) == len(points) == 6


def test_fb_tolerance_never_falls_as_low_ports_are_added():
    # at fixed alphas FB splits the low priority's weight over its queues,
    # so a burst's exact first crossing never comes earlier as low ports go
    # from 1 to 5: configure-alpha's bounds for NUM ports hold on more, and
    # every FB column of demos/burst_tolerance_curves.py sits on or above
    # its n=1 column; the closed form equals the solver at every point
    rng = random.Random(36)
    for _ in range(300):
        b, r = rng.randint(60, 400), F(rng.randint(11, 80), 10)
        alpha_l, alpha_h = (F(rng.randint(1, 8), rng.choice([1, 2, 4])) for _ in range(2))
        previous = 0
        for n in range(1, 6):
            ts = two_priority_incast(b, alpha_l, alpha_h, r, n_low_ports=n)
            res = integrate_transient(ts)
            t1 = res.t1
            assert res.first_crossing == {ts.new[0].queue: t1}
            assert t1 == first_threshold_crossing(ts)
            assert t1 >= previous, (b, r, alpha_l, alpha_h, n)
            previous = t1


def _case_bound(r, num):
    """configure-alpha's zero-transient bound: the case bound of NUM low FB
    ports beside one new queue, read without a t."""
    ts = two_priority_incast(60, 1, 1, r, n_low_ports=num)
    return alpha_bounds_general(ts, None).alpha_L_case_bound


class TestAlphaSolvers:
    # the paper's hand examples of the zero-transient rule: the oracle
    # states it for DT weights, and FB's bound is NUM times it
    def test_zero_transient_single_port(self):
        assert alpha_L_for_zero_transient(4, 1) == F(1, 2) == _case_bound(4, 1)

    def test_zero_transient_unconstrained(self):
        assert alpha_L_for_zero_transient(2, 1) == "unconstrained"
        assert _case_bound(2, 1) is UNCONSTRAINED

    def test_zero_transient_two_ports(self):
        assert alpha_L_for_zero_transient(4, 2) == 1
        assert _case_bound(4, 2) == 2

    def test_alpha_l_for_burst(self):
        assert alpha_L_for_burst(60, 4, 10) == 2

    def test_alpha_l_infeasible(self):
        assert alpha_L_for_burst(60, 4, 30) == "infeasible"

    def test_alpha_l_unconstrained_below_two(self):
        assert alpha_L_for_burst(60, 2, 10) == "unconstrained"

    def test_alpha_h_for_burst(self):
        assert alpha_H_for_burst(60, 4, 5, 2) == F(3, 2)

    def test_alpha_h_infeasible_at_frontier(self):
        assert alpha_H_for_burst(60, 4, 10, 2) == "infeasible"

    def test_alpha_h_vanishing_burst(self):
        bound = alpha_H_for_burst(60, 4, F(1, 100), 0)
        assert 0 < bound < F(1, 10)

    def test_multi_priority_single_reduces(self):
        assert multi_priority_alpha_H([2], 60, 4, 5) == alpha_H_for_burst(60, 4, 5, 2)

    def test_multi_priority_two_equal(self):
        assert multi_priority_alpha_H([1, 1], 60, 4, 5) == F(3, 2)

    def test_multi_priority_sum_three(self):
        assert multi_priority_alpha_H([2, 1], 60, 4, 5) == 3


class TestAlphaBoundsGeneral:
    def test_two_priority_reduction_matches_closed_forms(self):
        # canonical worst case: one congested low port at alpha_L, one new
        # queue with gamma = beta = 1, Case-2 rate
        alpha_l, r, t = F(2), F(4), F(5)
        ts = two_priority_incast(60, alpha_l, 20, r, n_low_ports=1)
        assert classify_case(ts) is CaseKind.CASE2
        bounds = alpha_bounds_general(ts, t)
        assert bounds.alpha_L_max_for_burst == alpha_L_for_burst(60, r, t)
        assert bounds.alpha_H_min == alpha_H_for_burst(60, r, t, alpha_l)
        assert bounds.alpha_L_relation == ">"

    def test_infeasible_matches_closed_form(self):
        ts = two_priority_incast(60, 2, 20, 4, n_low_ports=1)
        bounds = alpha_bounds_general(ts, 10)
        assert bounds.alpha_H_min is INFEASIBLE

    def test_case1_inversion_recovers_alpha(self):
        # the Case-1 scenario with alpha_H = 2 crosses at t1 = 10; asking for
        # exactly t = 10 must demand exactly alpha_H >= 2
        bounds = alpha_bounds_general(scenario_case1(), 10)
        assert bounds.case is CaseKind.CASE1
        assert bounds.alpha_H_min == 2

    def test_case_boundary_value_matches_zero_transient_rule(self):
        # single congested port, one new queue: boundary alpha_L = 1/(r-2)
        for r in (F(3), F(4), F(6)):
            ts = two_priority_incast(60, 1, 2, r, n_low_ports=1)
            bounds = alpha_bounds_general(ts, 1)
            assert bounds.alpha_L_case_bound == 1 / (r - 2)

    @pytest.mark.parametrize("scheme", ["dt", "fb"])
    @pytest.mark.parametrize("num", [1, 2, 3, 4])
    @pytest.mark.parametrize("r", [F(3, 2), 2, 3, F(9, 2), 5, 6, 10, 25])
    def test_zero_transient_rule_is_dt_weights(self, scheme, num, r):
        # alpha_L_for_zero_transient bounds each low alpha under DT weights:
        # the case bound is on the NUM low queues' weight sum, NUM * alpha_L
        # under DT but alpha_L under FB (each weighs alpha_L / NUM), so
        # FB's bound on alpha_L is NUM times the rule's (r=6, NUM=3: 3/2)
        zt = alpha_L_for_zero_transient(r, num)
        ts = two_priority_incast(60, 1, 1, r, n_low_ports=num, scheme=scheme)
        bounds = alpha_bounds_general(ts, 1)
        assert alpha_bounds_general(ts, None) == replace(
            bounds, alpha_L_max_for_burst=None, alpha_H_min=None)
        if zt == "unconstrained":
            assert bounds.alpha_L_case_bound is UNCONSTRAINED
        else:
            assert bounds.alpha_L_case_bound == num * zt

    def test_affected_old_queues_use_ge_sums(self):
        # all old queues affected (omega halved by the newcomers): the
        # starred sums fall back to G_e
        old = (OldQueue(QueueId(9, 0), omega=F(1, 2), gamma=1, omega_before=F(1)),)
        new = (NewQueue(QueueId(0, 1), omega=F(2), gamma=1),)
        ts = TransientScenario(60, old, new, F(4))
        assert all(affected(q) for q in ts.old)
        # bound = sum_new gamma / 1 + Gamma_e * (1 + W_e) / (W_e * 1)
        assert case_rate_bound(ts) == 1 + 1 * (1 + F(1, 2)) / F(1, 2)
        bounds = alpha_bounds_general(ts, 2)
        # 1 / ((n/Gamma_e) * (r - (sum_new gamma + Gamma_e)/n)), no -1 term
        assert bounds.alpha_L_case_bound == F(1, 2)

    @pytest.mark.parametrize("scheme", ["dt", "fb"])
    @pytest.mark.parametrize("new_gamma", [1, F(1, 2)])
    @pytest.mark.parametrize("shape,r,t", [
        (dict(n_low_ports=1), 4, 3),
        (dict(n_low_ports=3), 4, 5),
        (dict(n_low_ports=3, n_new=2), 10, F(1, 2)),
        (dict(n_low_ports=2, low_queues_per_port=2), 3, 2),
    ], ids=["one_low", "case1", "two_new", "shared_low"])
    def test_alpha_h_min_plugged_back_crosses_at_t(self, scheme, new_gamma, shape, r, t):
        # the incast built with alpha_H = alpha_H_min first meets its
        # threshold exactly at t, whatever the scheme and the new gamma
        def incast(alpha_h):
            return with_new_gamma(two_priority_incast(60, 1, alpha_h, r, scheme=scheme, **shape),
                                  new_gamma, scheme)

        alpha_h = alpha_bounds_general(incast(2), t).alpha_H_min
        assert isinstance(alpha_h, F)
        assert first_threshold_crossing(incast(alpha_h)) == t

    @pytest.mark.parametrize("kind", ["dt", "fb"])
    @pytest.mark.parametrize("port,gamma", [(0, F(1, 2)), (2, 1)], ids=["shared_port", "own_port"])
    def test_scenario_alpha_h_min_plugged_back_crosses_at_t(self, kind, port, gamma):
        # the same through a scenario file: a burst that shares port 0 with
        # a congested low queue drains at gamma 1/2, which under DT leaves
        # its weight at alpha_H
        text = (
            "[switch]\nbuffer = 60\nports = 3\nhorizon = 20\n\n"
            "[classes]\n0 = alpha=1 priority=0\n1 = alpha={alpha} priority=1\n\n"
            f"[policy]\nkind = {kind}\n\n"
            "[sources]\n0 = constant class=0 port=0 rate=2\n1 = constant class=0 port=1 rate=2\n"
            f"2 = burst class=1 port={port} r=4 duration=8 start=2\n"
        )
        ts = transient_scenario(loads_scenario(text.format(alpha=2)))
        assert ts.new[0].gamma == gamma
        alpha_h = alpha_bounds_general(ts, 3).alpha_H_min
        assert isinstance(alpha_h, F)
        assert first_threshold_crossing(transient_scenario(loads_scenario(text.format(alpha=alpha_h)))) == 3
        if (kind, port) == ("dt", 0):
            assert alpha_h == F(3, 4)

    def test_alpha_h_min_bounds_every_new_queue(self):
        # two DT bursts, the first on its own port (gamma 1, bound 9/5) and
        # the second sharing port 0 with a low queue (gamma 1/2, bound
        # 21/10): the larger bound keeps both from crossing before t = 3
        text = (
            "[switch]\nbuffer = 60\nports = 3\nhorizon = 20\n\n"
            "[classes]\n0 = alpha=1 priority=0\n1 = alpha={alpha} priority=1\n\n"
            "[policy]\nkind = dt\n\n"
            "[sources]\n0 = constant class=0 port=0 rate=2\n1 = constant class=0 port=1 rate=2\n"
            "2 = burst class=1 port=2 r=4 duration=8 start=2\n"
            "3 = burst class=1 port=0 r=4 duration=8 start=2\n"
        )
        ts = transient_scenario(loads_scenario(text.format(alpha=2)))
        assert [q.gamma for q in ts.new] == [1, F(1, 2)]
        alpha_h = alpha_bounds_general(ts, 3).alpha_H_min
        assert alpha_h == F(21, 10)
        assert first_threshold_crossing(transient_scenario(loads_scenario(text.format(alpha=alpha_h)))) == 3


def check_breakpoints(ts, res):
    """The recorded breakpoints are consistent: every threshold is
    omega * remaining with sum(lengths) + remaining == B, and no new queue
    is above its threshold before its first crossing, where it meets it."""
    omega = {q.queue: q.omega for q in (*ts.old, *ts.new)}
    for k, t in enumerate(res.times):
        total = sum(series[k] for series in res.lengths.values())
        for q, w in omega.items():
            assert total + res.thresholds[q][k] / w == ts.buffer_size
        for q in ts.new:
            crossing = res.first_crossing[q.queue]
            if t < crossing:
                assert res.lengths[q.queue][k] < res.thresholds[q.queue][k]
            elif t == crossing:
                assert res.lengths[q.queue][k] == res.thresholds[q.queue][k]


def check_segments(ts, res):
    """Between breakpoints every queue obeys its regime: above its threshold
    it drains at gamma, below it fills at its fill rate, at it it moves with
    the threshold inside [-gamma, fill - gamma], and it leaves the threshold
    only when the threshold outruns that range."""
    fill = {q.queue: ts.r - q.gamma for q in ts.new}
    fill.update({q.queue: q.fill_rate - q.gamma for q in ts.old if q.fill_rate is not None})
    entries = (*ts.old, *ts.new)
    for k in range(len(res.times) - 1):
        dt = res.times[k + 1] - res.times[k]
        assert dt > 0
        for q in entries:
            lengths, thresholds = res.lengths[q.queue], res.thresholds[q.queue]
            slope = (lengths[k + 1] - lengths[k]) / dt
            thr_slope = (thresholds[k + 1] - thresholds[k]) / dt
            start = lengths[k] - thresholds[k]
            mid = start + (lengths[k + 1] - thresholds[k + 1])  # 2 * midpoint gap
            cap = fill.get(q.queue, math.inf)
            if mid > 0:
                assert slope == -q.gamma
                assert start > 0 or thr_slope < -q.gamma
            elif mid < 0:
                assert slope == cap
                assert start < 0 or thr_slope > cap
            else:
                assert slope == thr_slope and -q.gamma <= slope <= cap


def clamp_walk(base, tracked):
    """Independent oracle for _solve_total_rate: evaluate the right side at
    every sorted breakpoint, bracket the root and solve on its segment.  A
    bound of None is unbounded."""
    def rhs(s):
        acc = base
        for omega, lo, hi in tracked:
            v = -omega * s
            acc += lo if lo is not None and v < lo else (hi if hi is not None and v > hi else v)
        return acc

    points = sorted(
        -bound / omega for omega, lo, hi in tracked for bound in (lo, hi) if bound is not None
    )
    if not points:
        probe = F(0)
    elif rhs(points[0]) < points[0]:
        probe = points[0] - 1
    else:
        lower = max(p for p in points if rhs(p) >= p)
        above = [p for p in points if p > lower]
        probe = (lower + above[0]) / 2 if above else lower + 1
    const, slope = base, 0
    for omega, lo, hi in tracked:
        v = -omega * probe
        if lo is not None and v < lo:
            const += lo
        elif hi is not None and v > hi:
            const += hi
        else:
            slope += omega
    return const / (1 + slope), rhs


# small grids so that breakpoints -lo/omega and -hi/omega often coincide
_omegas = st.sampled_from([F(1, 3), F(1, 2), F(1), F(2), F(3)])
_bounds = st.integers(-6, 6).map(F)


@st.composite
def _clamps(draw):
    # the solver's clamps: lo is a drain, always finite; hi is None for a
    # backlogged old queue
    omega = draw(_omegas)
    lo, hi = sorted((draw(_bounds), draw(_bounds)))
    if draw(st.booleans()):
        hi = None
    return omega, lo, hi


class TestSolveTotalRate:
    @settings(max_examples=300, deadline=None)
    @given(base=st.integers(-20, 20).map(F), tracked=st.lists(_clamps(), max_size=6))
    @example(base=F(0), tracked=[])
    @example(base=F(3), tracked=[(F(1), F(-2), F(2)), (F(2), F(-4), F(4)), (F(1, 2), F(-1), F(1))])
    @example(base=F(-5), tracked=[(F(1), F(-6), F(0)), (F(2), F(-6), F(0))])
    @example(base=F(7), tracked=[(F(1), F(-1), None), (F(3), F(-2), None)])
    def test_sweep_matches_the_breakpoint_walk(self, base, tracked):
        # the root is unique, so the solver's int sweep, fed every value as
        # an int over one common denominator, equals the walk and solves
        # S = base + sum clamp(-omega * S, lo, hi) exactly; so does the
        # Fraction sweep of the reference solver
        expected, rhs = clamp_walk(base, tracked)
        assert rhs(expected) == expected
        one = math.lcm(base.denominator, *(v.denominator for clamp in tracked
                                           for v in clamp if v is not None))
        c, k = _solve_total_rate(one, int(base * one), [
            tuple(None if v is None else int(v * one) for v in clamp) for clamp in tracked])
        assert type(c) is int and type(k) is int and k > 0
        assert F(c, k) == expected
        assert reference_total_rate(base, tracked) == expected


class TestIntegrator:
    def test_dt_incast_replay_first_drop_at_eight(self):
        # five alpha=1 queues at 10 on one port (gamma 1/5), alpha=2 burst at
        # r=5 on an empty port, DT weights
        ts = two_priority_incast(60, 1, 2, 5, n_low_ports=1, low_queues_per_port=5, scheme="dt")
        assert classify_case(ts) is CaseKind.CASE2
        res = integrate_transient(ts)
        assert res.first_crossing == t1_in(ts, CaseKind.CASE2) == {ts.new[0].queue: 2}
        check_breakpoints(ts, res)
        # burst queue holds (r - gamma) * t1 = 8 packets at the crossing
        assert res.times[-1] == 2
        assert res.lengths[ts.new[0].queue][-1] == 8

    def test_incast_presets_cross_exactly(self):
        for name, t1 in (("fig4_incast", 2), ("fig5_incast", F(75, 8))):
            ts = transient_scenario(preset(name))
            res = integrate_transient(ts)
            assert min(res.first_crossing.values()) == t1
            check_breakpoints(ts, res)

    def test_case1_crossing_matches_closed_form(self):
        ts = scenario_case1()
        res = integrate_transient(ts)
        assert res.first_crossing == t1_in(ts, CaseKind.CASE1) == {ts.new[0].queue: 10}

    def test_rate_equal_to_drain_never_crosses(self):
        ts = two_priority_incast(60, 1, 2, 1, n_low_ports=3)
        res = integrate_transient(ts)
        assert min(res.first_crossing.values()) == math.inf

    def test_steady_state_is_a_fixpoint(self):
        # old queues parked at their steady thresholds stay put
        old = tuple(
            OldQueue(QueueId(100 + i, 0), omega=F(1, 3), gamma=1) for i in range(3)
        )
        ts = TransientScenario(60, old, (), F(1))
        res = integrate_transient(ts, horizon=5)
        assert res.times == [0, 5]
        for series in res.lengths.values():
            assert series == [10, 10]

    def test_case2_settles_to_the_closed_form_steady_state(self):
        # after t1 the old queues drain down to their thresholds; the run
        # past t1 ends exactly at the steady state of all queues
        ts = scenario_case2()
        res = integrate_transient(ts, horizon=40)
        assert res.times == [0, F(20, 7), 5, 40]
        check_breakpoints(ts, res)
        check_segments(ts, res)
        steady = analyze_transient(ts).steady_thresholds
        assert {q: series[-1] for q, series in res.lengths.items()} == steady

    def test_float_fill_rate_stays_exact(self):
        old = (OldQueue(QueueId(9, 0), omega=1, gamma=1, fill_rate=0.7),
               OldQueue(QueueId(8, 0), omega=F(1, 2), gamma=F(1, 3)))
        ts = TransientScenario(60, old, (NewQueue(QueueId(0, 1), omega=2, gamma=1),), F(4))
        res = integrate_transient(ts, horizon=100)
        assert all(isinstance(v, Fraction) for series in res.lengths.values() for v in series)
        check_breakpoints(ts, res)
        check_segments(ts, res)

    @pytest.mark.parametrize("horizon", [-1, F(-1, 2), -0.5, math.inf, -math.inf, math.nan])
    def test_bad_horizon_is_rejected(self, horizon):
        with pytest.raises(ValueError, match="horizon"):
            integrate_transient(scenario_case2(), horizon)

    @pytest.mark.parametrize("horizon", [0, 0.0, F(0)])
    def test_zero_horizon_keeps_only_the_start(self, horizon):
        res = integrate_transient(scenario_case2(), horizon)
        assert res.times == [0]
        assert res.first_crossing == {QueueId(0, 1): math.inf}

    def test_a_horizon_at_the_crossing_keeps_each_breakpoint_once(self):
        # the next hit and the horizon tie: the step stops there once and
        # still reports the crossing; half way, nothing has crossed yet
        ts = two_priority_incast(100, F(1, 2), 2, 6, n_low_ports=2)
        t1 = F(80, 7)
        assert analyze_transient(ts).t1 == t1
        res = integrate_transient(ts, t1)
        assert res.times == [0, t1]
        assert res.first_crossing == {QueueId(0, 1): t1}
        assert_equals_the_reference(ts, t1, res)
        half = integrate_transient(ts, t1 / 2)
        assert half.times == [0, t1 / 2]
        assert half.first_crossing == {QueueId(0, 1): math.inf}
        assert_equals_the_reference(ts, t1 / 2, half)

    def test_first_crossing_is_exact(self):
        t1, resolution = integrate_first_crossing(scenario_case2())
        assert (t1, resolution) == (20 / 7, 0.0)

    def test_oracle_equivalence_randomized(self):
        rng = random.Random(42)
        for _ in range(40):
            a_low = F(rng.randint(1, 8), rng.randint(1, 4))
            a_high = F(rng.randint(1, 12), rng.randint(1, 3))
            num = rng.randint(1, 4)
            per_port = rng.choice([1, 2])
            n_new = rng.randint(1, 2)
            ts_probe = two_priority_incast(
                60, a_low, a_high, 2, n_low_ports=num,
                low_queues_per_port=per_port, n_new=n_new,
            )
            bound = case_rate_bound(ts_probe)
            if rng.random() < 0.5:
                r = F(1) + (bound - 1) * F(rng.randint(1, 9), 10)
            else:
                r = bound * F(rng.randint(11, 30), 10)
            ts = two_priority_incast(
                60, a_low, a_high, r, n_low_ports=num,
                low_queues_per_port=per_port, n_new=n_new,
            )
            res = integrate_transient(ts)
            assert res.first_crossing == analyze_transient(ts).t1_per_queue
            check_breakpoints(ts, res)

    def test_trajectory_solves_the_dynamics_randomized(self):
        # affected old queues that drain first and rate-limited old queues
        # that fall behind their thresholds: several regime changes per run
        changes = 0
        for ts in dynamics_recipe(random.Random(7), 60):
            res = integrate_transient(ts, horizon=400)
            check_breakpoints(ts, res)
            check_segments(ts, res)
            changes += len(res.times) - 2
        assert changes > 60


def symmetric_recipe(rng, n):
    """The benchmark's symmetric family: FB incasts, half of them Case-1."""
    done = {CaseKind.CASE1: 0, CaseKind.CASE2: 0}
    out = []
    while min(done.values()) < n // 2:
        a_low = F(rng.randint(1, 8), rng.randint(1, 4))
        a_high = F(rng.randint(1, 12), rng.randint(1, 3))
        shape = dict(n_low_ports=rng.randint(1, 6), low_queues_per_port=rng.choice([1, 1, 2, 3]),
                     n_new=rng.randint(1, 3))
        buffer = rng.randint(40, 200)
        bound = case_rate_bound(two_priority_incast(buffer, a_low, a_high, 2, **shape))
        if done[CaseKind.CASE1] <= done[CaseKind.CASE2]:
            r = 1 + (bound - 1) * F(rng.randint(10, 99), 100)
        else:
            r = bound * F(rng.randint(105, 400), 100)
        ts = two_priority_incast(buffer, a_low, a_high, r, **shape)
        case = classify_case(ts)
        if done[case] < n // 2:
            done[case] += 1
            out.append(ts)
    return out


def asymmetric_recipe(rng, n):
    """The benchmark's asymmetric family: unequal old-queue omega/gamma ratios."""
    return [
        TransientScenario(
            rng.randint(50, 200),
            tuple(OldQueue(QueueId(100 + i, 0), omega=F(rng.randint(1, 12), 4),
                           gamma=F(1, rng.choice((1, 2, 3))))
                  for i in range(rng.randint(2, 4))),
            (NewQueue(QueueId(0, 1), omega=F(rng.randint(1, 12), 4), gamma=F(1)),),
            F(rng.randint(11, 80), 10),
        )
        for _ in range(n)
    ]


def dynamics_recipe(rng, n):
    """Affected old queues (omega_before > omega) that start above their
    thresholds and drain first, and rate-limited old queues; solved to a
    horizon."""
    out = []
    for _ in range(n):
        old = []
        for i in range(rng.randint(1, 4)):
            omega = F(rng.randint(1, 12), 4)
            before = omega * F(rng.randint(11, 30), 10) if rng.random() < 0.6 else None
            fill = F(rng.randint(1, 30), 10) if rng.random() < 0.3 else None
            old.append(OldQueue(QueueId(100 + i, 0), omega=omega, gamma=F(1, rng.choice((1, 2, 3))),
                                omega_before=before, fill_rate=fill))
        new = tuple(NewQueue(QueueId(j, 1), omega=F(rng.randint(1, 12), 4),
                             gamma=F(1, rng.choice((1, 2))))
                    for j in range(rng.randint(1, 2)))
        out.append(TransientScenario(rng.randint(50, 200), tuple(old), new,
                                     F(rng.randint(11, 80), 10)))
    return out


def assert_equals_the_reference(ts, horizon, res):
    """Every series and crossing of ``res`` equals the reference solve's,
    and holds only Fractions."""
    reference = reference_transient(ts, horizon)
    assert res.times == reference["times"]
    assert res.lengths == reference["lengths"]
    assert res.thresholds == reference["thresholds"]
    assert res.first_crossing == reference["first_crossing"]
    assert_all_fractions(res)


def assert_all_fractions(res):
    series = [res.times, *res.lengths.values(), *res.thresholds.values()]
    assert all(type(v) is Fraction for values in series for v in values)
    assert all(type(v) is Fraction or v == math.inf for v in res.first_crossing.values())


# signed numerators, zero included, over small and very large denominators
_rationals = st.builds(F, st.integers(-10**6, 10**6),
                       st.one_of(st.integers(1, 12), st.integers(1, 10**30)))


class TestSolverRational:
    @settings(max_examples=150, deadline=None)
    @given(values=st.lists(_rationals, max_size=8))
    @example(values=[])
    @example(values=[F(0), F(0)])
    @example(values=[F(1, 6), F(-1, 6), F(5, 6), F(1, 6)])
    @example(values=[F(1, 10**30), F(-3, 7), F(1, 10**30 - 1)])
    def test_each_route_sums_to_the_reduced_fraction_sum(self, values):
        # _scaled is the closed forms' arithmetic and _over_lcm the solver's:
        # each writes the values as ints over their lcm denominator, so each
        # int sum gives sum(values, Fraction(0)) as the same reduced pair
        expected = sum(values, F(0))
        for d, scaled in (_scaled(values), _over_lcm(values)):
            assert all(type(v) is int for v in scaled)
            assert [F(v, d) for v in scaled] == values
            assert d == math.lcm(*(v.denominator for v in values))
            total = F(sum(scaled), d)
            assert (total.numerator, total.denominator) == (expected.numerator, expected.denominator)

    def test_the_int_solver_equals_the_fraction_reference(self):
        # the solver in ints and the reference solver on Fractions
        # (tests/oracles.py): every breakpoint, length, threshold and
        # crossing agrees
        rng = random.Random(14)
        runs = [(ts, None) for ts in symmetric_recipe(rng, 100) + asymmetric_recipe(rng, 80)]
        runs += [(ts, 400) for ts in dynamics_recipe(rng, 120)]
        runs += [(ts, F(rng.randint(1, 40), 4)) for ts in symmetric_recipe(rng, 20)]
        limited = 0
        for ts, horizon in runs:
            assert_equals_the_reference(ts, horizon, integrate_transient(ts, horizon))
            limited += any(q.fill_rate is not None for q in ts.old)
        assert len(runs) >= 300 and limited >= 20

    def test_trajectories_hold_only_fractions(self):
        for ts, horizon in ((scenario_case2(), 40), (scenario_case1(), None),
                            (transient_scenario(preset("fig5_incast")), None),
                            (two_priority_incast(60, 1, 2, 1, n_low_ports=3), None)):
            assert_all_fractions(integrate_transient(ts, horizon))


class TestLazySeries:
    def test_series_read_in_any_order_and_twice_agree(self):
        ts = scenario_case2()
        names = ("times", "lengths", "thresholds")
        first = {name: getattr(integrate_transient(ts, 40), name) for name in names}
        res = integrate_transient(ts, 40)
        for name in reversed(names):
            assert getattr(res, name) == first[name]
            assert getattr(res, name) == first[name]
        assert_all_fractions(res)
        assert res.times == [0, F(20, 7), 5, 40]

    def test_reading_only_the_crossing_builds_no_series(self):
        res = integrate_transient(scenario_case1())
        assert res.first_crossing == {QueueId(0, 1): 10}
        assert not {"times", "lengths", "thresholds"} & set(vars(res))

    @pytest.mark.parametrize("horizon", [None, 40])
    def test_t1_is_the_earliest_first_crossing(self, horizon):
        # t1 is picked from the record's int pairs: it equals the smallest
        # first crossing in value and type, a Fraction or math.inf itself,
        # over ties among new queues, crossings at distinct times and a
        # burst that never crosses; reading t1 alone builds no crossing dict
        rng = random.Random(46)
        scenarios = symmetric_recipe(rng, 60) + asymmetric_recipe(rng, 60) + dynamics_recipe(rng, 60)
        scenarios.append(two_priority_incast(60, 1, 2, 1, n_low_ports=3))  # r = gamma
        ties = distinct = never = 0
        for ts in scenarios:
            res = integrate_transient(ts, horizon)
            t1 = res.t1
            assert "first_crossing" not in vars(res)
            crossings = list(res.first_crossing.values())
            earliest = min(crossings)
            assert t1 == earliest and type(t1) is type(earliest)
            assert type(t1) is Fraction or t1 is math.inf
            finite = [t for t in crossings if t != math.inf]
            ties += len(finite) > len(set(finite))
            distinct += len(set(finite)) > 1
            never += t1 is math.inf
        assert ties and distinct and never

    def test_first_crossing_route_matches_the_full_result(self):
        rng = random.Random(15)
        for ts in symmetric_recipe(rng, 30) + asymmetric_recipe(rng, 30):
            full = integrate_transient(ts)
            assert integrate_first_crossing(ts)[0] == float(min(full.first_crossing.values()))


class TestBurstAbsorptionCurve:
    def test_fb_single_queue_state_is_lower_bound(self):
        points = burst_absorption_curve(
            60, F(1, 2), 20, r_values=[F(3, 2), 2, 4, 8, 16], low_queue_counts=[1, 2, 4]
        )
        base = {p.r: p.burst for p in points if p.n_low_queues == 1}
        for p in points:
            assert p.burst >= base[p.r]

    def test_dt_family_shrinks_with_queue_count(self):
        points = burst_absorption_curve(
            60, F(1, 2), 20, r_values=[8], low_queue_counts=[1, 4, 16], scheme="dt"
        )
        bursts = [p.burst for p in sorted(points, key=lambda p: p.n_low_queues)]
        assert bursts[0] > bursts[1] > bursts[2]

    def test_rate_near_drain_explodes(self):
        points = burst_absorption_curve(
            60, F(1, 2), 20, r_values=[F(101, 100)], low_queue_counts=[1]
        )
        assert points[0].burst > 1000

    def test_rates_from_a_generator_reach_every_count(self):
        points = burst_absorption_curve(300, 1, 8, (r for r in (2, 3, 4)), [1, 2, 4])
        assert points == burst_absorption_curve(300, 1, 8, [2, 3, 4], [1, 2, 4])
        assert [(p.n_low_queues, p.r) for p in points] == [
            (n, r) for n in (1, 2, 4) for r in (2, 3, 4)]

    def test_csv_export(self, tmp_path):
        points = burst_absorption_curve(60, 1, 2, [2, 4], [1, 2])
        path = tmp_path / "curve.csv"
        from fbsim.fluid import curve_to_csv

        curve_to_csv(points, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "scheme,r,n_low_queues,case,t1,burst_tolerance"
        assert len(lines) == 5


# ---------------------------------------------------------------------------
# the paper's t1 and alpha_H formulas, restated term by term
# ---------------------------------------------------------------------------


def _paper_t1(ts, case):
    """Case-1: omega*B*(1+W_ne) / ((1+W_old) * ((r-gamma)*(1+W_ne) + omega*(F - G_e drain)));
    Case-2: omega*B / ((1+W_old) * ((r-gamma) + omega*(F - NUM))).  +inf when
    the bracket is not positive."""
    w_old = sum((q.pre_omega for q in ts.old), F(0))
    w_ne = sum((q.omega for q in ts.old if not affected(q)), F(0))
    drain_e = sum((q.gamma for q in ts.old if affected(q)), F(0))
    num = sum((q.gamma for q in ts.old), F(0))
    fill = sum((ts.r - q.gamma for q in ts.new), F(0))
    out = {}
    for q in ts.new:
        if case is CaseKind.CASE1:
            denom = (ts.r - q.gamma) * (1 + w_ne) + q.omega * (fill - drain_e)
            top = q.omega * ts.buffer_size * (1 + w_ne)
        else:
            denom = (ts.r - q.gamma) + q.omega * (fill - num)
            top = q.omega * ts.buffer_size
        out[q.queue] = top / ((1 + w_old) * denom) if denom > 0 else math.inf
    return out


def _paper_alpha_bounds(ts, t, case):
    """(alpha_L_max_for_burst, alpha_H_min): Case-1 inverts its t1 formula
    with the (1+W_ne) factors, Case-2 inverts its own.  alpha_H is the
    largest over the new queues of the queue's omega bound over its weight
    factor (beta * gamma under FB, 1 under DT), so that no new queue crosses
    before t.  The frontier is one rule in either case: infeasible when
    Case-1's fill reaches B by t at the scenario's weights, B * (1+W_ne) <=
    t * (1+W_old) * (F - G_e drain); else Case-2's B / (t*(F - NUM)) - 1,
    unconstrained when F <= NUM."""
    w_old = sum((q.pre_omega for q in ts.old), F(0))
    w_ne = sum((q.omega for q in ts.old if not affected(q)), F(0))
    drain_e = sum((q.gamma for q in ts.old if affected(q)), F(0))
    num = sum((q.gamma for q in ts.old), F(0))
    fill = sum((ts.r - q.gamma for q in ts.new), F(0))
    b = ts.buffer_size
    drift = fill - num
    if b * (1 + w_ne) <= t * (1 + w_old) * (fill - drain_e):
        frontier = INFEASIBLE
    elif drift <= 0:
        frontier = UNCONSTRAINED
    else:
        frontier = b / (t * drift) - 1
    if case is CaseKind.CASE1:
        denom = b * (1 + w_ne) - t * (1 + w_old) * (fill - drain_e)
        scale = 1 + w_ne
    else:
        denom = b - t * (1 + w_old) * drift
        scale = 1
    if denom <= 0:
        return frontier, INFEASIBLE
    return frontier, max(t * (ts.r - q.gamma) * (1 + w_old) * scale / denom / q.factor
                         for q in ts.new)


def _paper_rate_bound(ts, w):
    """The Case-1 rate bound r*(W) over the starred omega sum W:
    first + G* * (1 + W_ne) / (W * n_new), where first = (new gammas + G_e
    gammas) / n_new, G* sums the gammas of G_ne, or of G_e when G_ne is
    empty, and W_ne is W itself when G_ne is not empty and 0 otherwise.
    r*(W) falls as W grows; ``w = math.inf`` gives its infimum."""
    n = len(ts.new)
    g_e = [q for q in ts.old if affected(q)]
    g_ne = [q for q in ts.old if not affected(q)]
    first = (sum((q.gamma for q in ts.new), F(0)) + sum((q.gamma for q in g_e), F(0))) / n
    g_star = sum((q.gamma for q in g_ne or g_e), F(0))
    if w == math.inf:
        return first + (g_star / n if g_ne else 0)
    return first + g_star * (1 + (w if g_ne else 0)) / (w * n)


def _formula_scenario(rng):
    """A random transient scenario: the canonical incast under DT or FB
    (sometimes without old queues), or a general one with affected and
    rate-limited old queues and 1-3 new queues."""
    r = F(rng.randint(1, 96), rng.choice([4, 8]))
    if rng.random() < 0.4:
        b, a_low, a_high = rng.randint(20, 200), F(rng.randint(1, 8), 4), F(rng.randint(1, 16), 4)
        shape = dict(n_low_ports=rng.randint(0, 4), low_queues_per_port=rng.randint(1, 3),
                     n_new=rng.randint(1, 3), scheme=rng.choice(["dt", "fb"]))
        ts = two_priority_incast(b, a_low, a_high, r, **shape)
        return with_new_gamma(ts, rng.choice([1, F(1, 2)]), shape["scheme"])
    old = []
    for i in range(rng.randint(0, 5)):
        omega = F(rng.randint(1, 12), 4)
        old.append(OldQueue(
            QueueId(100 + i, 0), omega=omega, gamma=rng.choice([1, F(1, 2), F(1, 3)]),
            omega_before=omega * rng.choice([2, 3]) if rng.random() < 0.4 else None,
            fill_rate=F(rng.randint(1, 12), 4) if rng.random() < 0.4 else None,
        ))
    new = [
        NewQueue(QueueId(i, 1), omega=F(rng.randint(1, 16), 4),
                 gamma=rng.choice([1, F(1, 2)]), factor=rng.choice([1, F(1, 2)]))
        for i in range(rng.randint(1, 3))
    ]
    return TransientScenario(rng.randint(20, 200), tuple(old), tuple(new), r)


def test_closed_forms_match_the_paper_formulas():
    """Every closed-form route to t1 and the alpha bounds equals the paper's
    formulas exactly, as Fractions, on each scenario's own case."""
    rng = random.Random(8)
    seen = set()
    for k in range(600):
        ts = _formula_scenario(rng)
        if k % 3 == 0 and ts.old:  # exactly at the case boundary
            ts = replace(ts, r=case_rate_bound(ts))
        case = classify_case(ts)
        at_bound = ts.old and ts.r == case_rate_bound(ts)
        expected = _paper_t1(ts, case)
        t1 = min(expected.values())
        seen.update({case, ("old", bool(ts.old)), ("g_e", any(affected(q) for q in ts.old)),
                     ("inf", t1 == math.inf), ("boundary", bool(at_bound))})
        assert first_threshold_crossing(ts) == t1
        if at_bound:  # where the two cases meet, their forms agree
            assert first_threshold_crossing(ts) == min(_paper_t1(ts, CaseKind.CASE2).values())
        res = analyze_transient(ts)
        assert res.case is case
        assert res.t1_per_queue == expected
        assert res.burst_tolerance == (math.inf if t1 == math.inf else ts.r * t1)
        for t in (F(1, 2), F(3), F(40)):
            bounds = alpha_bounds_general(ts, t)
            assert bounds.case is case
            assert (bounds.alpha_L_max_for_burst, bounds.alpha_H_min) == \
                _paper_alpha_bounds(ts, t, case)
        if ts.old:  # the case-boundary alpha_L inverts r* = r
            starred = [q for q in ts.old if not affected(q)] or ts.old  # G_ne, else G_e
            assert case_rate_bound(ts) == _paper_rate_bound(ts, sum(q.omega for q in starred))
            w_bound = bounds.alpha_L_case_bound
            if w_bound is UNCONSTRAINED:  # r <= r*(W) for every W, its infimum included
                assert all(ts.r <= _paper_rate_bound(ts, w)
                           for w in (F(1, 1000), F(1), F(1000), math.inf))
            else:
                assert _paper_rate_bound(ts, w_bound) == ts.r
            seen.add(("case_bound", w_bound is UNCONSTRAINED))
    assert seen >= {CaseKind.CASE1, CaseKind.CASE2, ("old", False), ("g_e", True),
                    ("inf", True), ("inf", False), ("boundary", True),
                    ("case_bound", True), ("case_bound", False)}


REPORTED = ("case", "rate_bound", "t1_per_queue", "t1", "burst")


def assert_closed_form_is_the_fraction_statement(ts):
    """Every value ``_closed_form(ts)`` reports, value and type, equals the
    aggregate closed form stated on plain Fractions in ``tests/oracles.py``,
    and its t1 is ``math.inf`` itself exactly when the oracle's is inf."""
    cf = fluid._closed_form(ts)
    got = {name: getattr(cf, name) for name in REPORTED}
    got["case"] = cf.case.value
    expected = aggregate_closed_form(ts)
    assert got.keys() == expected.keys()
    assert got == expected
    assert (cf.t1 is math.inf) == (expected["t1"] == math.inf)
    assert {k: type(v) for k, v in got.items()} == {k: type(v) for k, v in expected.items()}
    assert {k: type(v) for k, v in cf.t1_per_queue.items()} == \
        {k: type(v) for k, v in expected["t1_per_queue"].items()}
    return cf


def assert_alpha_bounds_are_the_fraction_statement(ts, t):
    """The three bounds ``alpha_bounds_general(ts, t)`` builds from the
    closed form's ints equal, value and type, those ``aggregate_alpha_bounds``
    states on plain Fractions in ``tests/oracles.py``, whose text status is
    the BoundStatus of that value."""
    expected = {name: BoundStatus(v) if isinstance(v, str) else v
                for name, v in aggregate_alpha_bounds(ts, t).items()}
    bounds = vars(alpha_bounds_general(ts, t))
    got = {name: bounds[name] for name in expected}
    assert got == expected
    assert {k: type(v) for k, v in got.items()} == {k: type(v) for k, v in expected.items()}
    return got


def _frontier_edge(ts):
    """The duration at which Case-1's fill reaches B by the end of the
    burst, B * (1+W_ne) / ((1+W_old) * (F - G_e drain)): the frontier is
    infeasible from there on.  None when that fill is not positive."""
    w_old = sum((q.pre_omega for q in ts.old), F(0))
    w_ne = sum((q.omega for q in ts.old if not affected(q)), F(0))
    fill = sum((ts.r - q.gamma for q in ts.new), F(0)) - \
        sum((q.gamma for q in ts.old if affected(q)), F(0))
    return ts.buffer_size * (1 + w_ne) / ((1 + w_old) * fill) if fill > 0 else None


def test_the_integer_closed_form_equals_its_fraction_statement():
    # the benchmark's recipes, incasts under FB and DT with 0, 1 and 3 low
    # ports (none: no old queue), and rates at or below a drain (t1 = +inf);
    # the alpha bounds with no duration, with short, middling and long
    # bursts, and with a burst that just fills the buffer
    rng = random.Random(33)
    scenarios = symmetric_recipe(rng, 60) + asymmetric_recipe(rng, 60) + dynamics_recipe(rng, 60)
    scenarios += [_formula_scenario(rng) for _ in range(120)]
    for scheme in ("fb", "dt"):
        for n_low in (0, 1, 3):
            for _ in range(12):
                ts = two_priority_incast(
                    rng.randint(20, 300), F(rng.randint(1, 8), rng.randint(1, 4)),
                    F(rng.randint(1, 16), rng.randint(1, 4)),
                    F(rng.randint(1, 64), rng.choice([4, 8, 3])), n_low_ports=n_low,
                    low_queues_per_port=rng.randint(1, 3), n_new=rng.randint(1, 3), scheme=scheme)
                scenarios.append(with_new_gamma(ts, rng.choice([1, F(1, 2), F(1, 3)]), scheme))
    seen = set()
    for ts in scenarios:
        cf = assert_closed_form_is_the_fraction_statement(ts)
        seen.update({cf.case, ("old", bool(ts.old)), ("g_e", any(affected(q) for q in ts.old)),
                     ("ne_empty", bool(ts.old) and all(affected(q) for q in ts.old)),
                     ("inf", cf.t1 == math.inf)})
        for t in (None, F(1, 2), F(3), F(40), _frontier_edge(ts)):
            got = assert_alpha_bounds_are_the_fraction_statement(ts, t)
            seen.update((name, v if isinstance(v, BoundStatus) else type(v))
                        for name, v in got.items())
            seen.add(("edge", t is not None and t == _frontier_edge(ts)
                      and got["alpha_L_max_for_burst"] is INFEASIBLE))
    assert seen >= {CaseKind.CASE1, CaseKind.CASE2, ("old", False), ("old", True),
                    ("g_e", True), ("ne_empty", True), ("inf", True), ("inf", False),
                    ("edge", True), ("alpha_L_case_bound", UNCONSTRAINED),
                    ("alpha_L_case_bound", F), ("alpha_L_max_for_burst", type(None)),
                    ("alpha_L_max_for_burst", F), ("alpha_L_max_for_burst", UNCONSTRAINED),
                    ("alpha_L_max_for_burst", INFEASIBLE), ("alpha_H_min", type(None)),
                    ("alpha_H_min", F), ("alpha_H_min", INFEASIBLE)}


_huge = st.integers(10**30 - 10**6, 10**30 + 10**6)
_positive_rationals = st.builds(F, st.integers(1, 10**6), st.one_of(st.integers(1, 12), _huge))
_drains = st.builds(lambda n, extra: F(n, n + extra), st.integers(1, 10**6),
                    st.one_of(st.integers(0, 12), _huge))  # in (0, 1]


def _before(omega, fall):
    """The pre-burst omega of an old queue whose omega fell by ``fall``
    (None: unchanged); a burst never raises a weight."""
    return None if fall is None else omega + fall


@settings(max_examples=150, deadline=None)
@given(buffer=st.integers(1, 10**4), r=_positive_rationals,
       old=st.lists(st.tuples(_positive_rationals, _drains, st.none() | _positive_rationals),
                    max_size=4),
       new=st.lists(st.tuples(_positive_rationals, _drains), min_size=1, max_size=3),
       t=st.none() | _positive_rationals)
@example(buffer=97, r=F(7 * 10**30 + 1, 10**30),
         old=[(F(1, 10**30 - 1), F(10**30 - 7, 10**30), F(3, 10**30 + 1)),
              (F(5, 3), F(1, 2), None)],
         new=[(F(10**30 + 3, 10**30), F(1, 3)), (F(2), F(10**30 - 1, 10**30))],
         t=F(10**30 + 7, 10**30))
@example(buffer=60, r=F(1, 10**30), old=[], new=[(F(1), F(1))], t=F(5))
@example(buffer=80, r=F(3), old=[(F(1, 2), F(1), None)],  # two new queues of one t1
         new=[(F(2), F(1, 2)), (F(2), F(1, 2))], t=None)
@example(buffer=60, r=F(10**30 + 1, 10**30 - 1), old=[(F(1, 10**30 + 1), F(1), None)],
         new=[(F(3, 10**30 - 3), F(1))], t=F(3))
@example(buffer=60, r=F(4), old=[(F(1, 10**30 + 1), F(1), F(1, 3))],  # G_ne empty
         new=[(F(3, 10**30 - 3), F(1, 2))], t=F(10**30 - 1, 10**29))
def test_the_integer_closed_form_equals_its_fraction_statement_on_huge_denominators(
        buffer, r, old, new, t):
    # an old queue's third entry is None or how far the burst lowered its
    # omega; each new queue's weight factor is its drain (FB's beta*gamma
    # with beta 1), and the alpha bounds take the duration t
    ts = TransientScenario(
        buffer,
        tuple(OldQueue(QueueId(100 + i, 0), omega=w, gamma=g, omega_before=_before(w, fall))
              for i, (w, g, fall) in enumerate(old)),
        tuple(NewQueue(QueueId(i, 1), omega=w, gamma=g, factor=g)
              for i, (w, g) in enumerate(new)),
        r,
    )
    assert_closed_form_is_the_fraction_statement(ts)
    assert_alpha_bounds_are_the_fraction_statement(ts, t)


@settings(max_examples=80, deadline=None)
@given(buffer=st.integers(1, 10**4), r=_positive_rationals,
       old=st.lists(st.tuples(_positive_rationals, _drains, st.none() | _positive_rationals,
                              st.none() | _positive_rationals), max_size=3),
       new=st.lists(st.tuples(_positive_rationals, _drains), min_size=1, max_size=2),
       horizon=st.none() | _positive_rationals)
@example(buffer=97, r=F(7 * 10**30 + 1, 10**30),
         old=[(F(1, 10**30 - 1), F(10**30 - 7, 10**30), F(3, 10**30 + 1), None),
              (F(5, 3), F(1, 2), None, F(10**30 + 9, 10**30))],
         new=[(F(10**30 + 3, 10**30), F(1, 3)), (F(2), F(10**30 - 1, 10**30))], horizon=None)
@example(buffer=60, r=F(3, 1), old=[(F(10**30 + 1, 10**30), F(1, 2), F(3 * 10**30 - 1, 10**30), None),
                                     (F(2, 10**30 - 3), F(1), None, None)],
         new=[(F(3, 10**30 - 3), F(1))], horizon=F(10**31 + 7, 10**30))
def test_the_int_solver_equals_the_fraction_reference_on_huge_denominators(
        buffer, r, old, new, horizon):
    # weights, drains, fill rates and horizons over denominators near 10**30;
    # an old queue's third entry is None or how far the burst lowered its omega
    ts = TransientScenario(
        buffer,
        tuple(OldQueue(QueueId(100 + i, 0), omega=w, gamma=g, omega_before=_before(w, fall),
                       fill_rate=fill)
              for i, (w, g, fall, fill) in enumerate(old)),
        tuple(NewQueue(QueueId(i, 1), omega=w, gamma=g) for i, (w, g) in enumerate(new)),
        r,
    )
    assert_equals_the_reference(ts, horizon, integrate_transient(ts, horizon))
