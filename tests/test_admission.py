"""Admission policies: the engine's thresholds, decisions and FBA tables.

Each test pre-fills a buffer and either runs the engine on one arriving
packet, so the decision comes from the run's own admission path, or reads
the FBA table in force from t = 0, and checks the threshold, decision or
emitted table against the paper's rule
``alpha * (1/N_p) * gamma * (B - Q(t))``.
"""

import math
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from fbsim.core import PolicyKind, QueueId, TrafficClass
from fbsim.engine import SwitchState, run
from fbsim.workloads import ConfigError, ConstantRate, ScenarioConfig
from test_engine import ticks

LOW, HIGH = 0, 1


def state(kind, lengths, alphas=None, priorities=None, queue_mode="multi"):
    """A 60-packet, 4-port switch pre-filled with ``lengths`` (keyed by
    (port, class) queue; the class picks the shared queue's port in
    single-queue mode), as a one-time-unit scenario.  Classes 0 (low,
    alpha 1) and 1 (high, alpha 2) unless ``alphas``/``priorities`` say
    otherwise.  ``decide`` replaces its one source."""
    alphas = {0: 1, 1: 2, **(alphas or {})}
    priorities = {0: LOW, 1: HIGH, **(priorities or {})}
    return ScenarioConfig(
        buffer_size=60, n_ports=4,
        classes=tuple(TrafficClass(c, Fraction(a), priorities[c]) for c, a in alphas.items()),
        policy=kind, queue_mode=queue_mode,
        sources=(ConstantRate(class_id=0, port=0, rate=Fraction(1)),),
        initial_lengths=lengths, horizon=1.0,
    )


def decide(config, class_id, port):
    """(admitted, threshold, queue length in the record) for one packet of
    ``class_id`` arriving at ``port`` at t = 0, as the run decided it."""
    one = ConstantRate(class_id, port, rate=1, start=0, stop=Fraction(1, 2))
    trace = run(replace(config, sources=(one,)))
    _time, _port, _cls, action, qlen, threshold, _occ, _src = next(
        r for r in trace.records if r[3] in ("admit", "drop"))
    return action == "admit", threshold, qlen


def threshold(kind, lengths, class_id, port, **kw):
    return decide(state(kind, lengths, **kw), class_id, port)[1]


def tick(config):
    """The FBA table in force from t = 0 (tick 0) on the pre-filled state."""
    return ticks(config)[0][1]


DT = PolicyKind.DYNAMIC_THRESHOLDS
FB = PolicyKind.FB


class TestDtThreshold:
    def test_half_full_unit_alpha(self):
        assert threshold(DT, {QueueId(0, 0): 30}, 0, 0) == 30

    def test_remaining_ten_alpha_two(self):
        lengths = {QueueId(0, 1): 20, QueueId(1, 0): 10, QueueId(2, 0): 10, QueueId(3, 0): 10}
        assert threshold(DT, lengths, 1, 0) == 20

    def test_full_buffer_gives_zero(self):
        assert threshold(DT, {QueueId(0, 0): 60}, 0, 0, alphas={0: 7}) == 0

    def test_rejects_nonpositive_alpha(self):
        with pytest.raises(ValueError):
            TrafficClass(0, Fraction(0), LOW)

    @given(st.integers(0, 59), st.integers(1, 59))
    def test_strictly_decreasing_in_occupancy(self, q, delta):
        q2 = min(60, q + delta)
        lo = threshold(DT, {QueueId(0, 0): q}, 0, 0, alphas={0: Fraction(3, 2)})
        hi = threshold(DT, {QueueId(0, 0): q2}, 0, 0, alphas={0: Fraction(3, 2)})
        assert hi < lo


class TestFbThreshold:
    LENGTHS = {QueueId(0, 1): 15, QueueId(1, 0): 10, QueueId(2, 0): 10, QueueId(3, 0): 10}

    def test_lone_high_queue_gets_double_share(self):
        # one congested high queue, buffer at 45 of 60
        assert threshold(FB, self.LENGTHS, 1, 0) == 30

    def test_three_low_queues_share_fifteen(self):
        assert threshold(FB, self.LENGTHS, 0, 1) == 5

    def test_empty_buffer_reduces_to_alpha_b(self):
        assert threshold(FB, {}, 0, 0) == 60

    def test_factor_is_evaluated_left_to_right(self):
        # alpha 1/3, N_p = 3 low queues, 5 congested queues on port 0: here
        # ``alpha * (1/N_p) * gamma`` and ``alpha * gamma * (1/N_p)`` differ
        # in the last bit, and the engine's thresholds are the former's
        lengths = {QueueId(0, c): 2 for c in range(5)} | {QueueId(1, 0): 2, QueueId(2, 0): 2}
        switch = state(FB, lengths, alphas={0: Fraction(1, 3), 2: 1, 3: 1, 4: 1},
                       priorities={2: HIGH, 3: HIGH, 4: HIGH})
        alpha, remaining = 1 / 3, 60 - 14
        expected = alpha * (1.0 / 3) * (1.0 / 5) * remaining
        assert expected != alpha * (1.0 / 5) * (1.0 / 3) * remaining
        assert decide(switch, 0, 0)[1] == expected

    def test_degenerates_to_dt_for_lone_full_rate_queue(self):
        lengths = {QueueId(0, 0): 23, QueueId(1, 1): 9}
        for alpha in (Fraction(1, 2), 1, 2, 20):
            assert threshold(FB, lengths, 0, 0, alphas={0: alpha}) == threshold(
                DT, lengths, 0, 0, alphas={0: alpha}
            )


class TestFbSingleQueue:
    def single(self, lengths, alpha):
        return threshold(
            PolicyKind.FB, lengths, 1, 0, alphas={1: alpha}, queue_mode="single"
        )

    def test_large_alpha_uncapped_value(self):
        # two congested shared queues, 30 packets queued
        assert self.single({QueueId(0, 0): 20, QueueId(1, 0): 10}, 20) == 300

    def test_small_alpha_empty_buffer(self):
        assert self.single({}, Fraction(1, 2)) == 30

    def test_full_buffer(self):
        assert self.single({QueueId(0, 0): 60}, 20) == 0


class TestAdmit:
    def test_complete_sharing_admits_while_space_remains(self):
        admitted, thr, _ = decide(state(PolicyKind.COMPLETE_SHARING, {QueueId(0, 0): 59}), 1, 0)
        assert admitted and thr == math.inf

    def test_complete_sharing_drops_on_full_buffer(self):
        admitted, _, _ = decide(state(PolicyKind.COMPLETE_SHARING, {QueueId(0, 0): 60}), 1, 0)
        assert not admitted

    def test_dt_at_threshold_drops(self):
        # queue pinned at its own threshold: 30 = 1 * (60 - 30)
        admitted, thr, qlen = decide(state(DT, {QueueId(0, 0): 30}), 0, 0)
        assert thr == 30 and qlen == 30
        assert not admitted

    def test_fb_below_threshold_admits(self):
        lengths = {QueueId(0, 1): 29, QueueId(1, 0): 8, QueueId(2, 0): 8}
        admitted, thr, _ = decide(state(FB, lengths), 1, 0)
        assert thr == 2 * (60 - 45)
        assert admitted

    def test_fb_counts_arriving_queue_when_empty(self):
        # empty high queue arriving: N_high includes it, gamma = 1
        assert threshold(FB, {QueueId(1, 0): 10}, 1, 0) == 2 * (60 - 10)

    def test_single_queue_mode_differs_per_class(self):
        # same shared queue, class-specific thresholds
        def shared(class_id):
            switch = state(PolicyKind.FB, {QueueId(0, 0): 20},
                           alphas={0: Fraction(1, 2), 1: 20}, queue_mode="single")
            return decide(switch, class_id, 0)

        low, high = shared(0), shared(1)
        assert not low[0] and low[1] == 0.5 * 40
        assert high[0] and high[1] == 20 * 40

    def test_unknown_class_raises(self):
        with pytest.raises(ConfigError, match="source references unknown class 9"):
            decide(state(FB, {}), 9, 0)


class TestFba:
    # two congested low queues sharing port 1, one congested high on port 0
    LENGTHS = {QueueId(0, 1): 10, QueueId(1, 0): 10, QueueId(1, 2): 10}
    PRIORITIES = {2: LOW}

    def fba(self, alphas, kind=PolicyKind.FBA):
        return state(kind, self.LENGTHS, alphas=alphas, priorities=self.PRIORITIES)

    def test_emitted_alphas_are_alpha_over_n_p_times_gamma(self):
        table = tick(self.fba({0: 20, 1: 2, 2: 1}))
        # congested low on shared port: N_p=2, gamma=1/2
        assert table[QueueId(1, 2)] == 1.0 * (1.0 / 2) * 0.5
        # congested lone high: identity
        assert table[QueueId(0, 1)] == 2.0
        # empty low queue on port 0: would join N_p=3, gamma shares with high
        assert table[QueueId(0, 0)] == 20.0 * (1.0 / 3) * 0.5

    def test_example_values(self):
        table = tick(self.fba({0: 20, 1: 1, 2: 1}))
        assert table[QueueId(1, 2)] == pytest.approx(1 / 2 * 0.5)  # alpha=1, N=2, g=.5
        lone = tick(state(PolicyKind.FBA, {QueueId(0, 0): 5}, alphas={0: Fraction(1, 2), 1: 1}))
        assert lone[QueueId(0, 0)] == 0.5  # N_p=1, gamma=1: identity

    def test_single_queue_mode_returns_base(self):
        # a shared queue cannot carry per-class thresholds: the run's rule
        # is DT and admission keeps the configured alphas
        config = state(PolicyKind.FBA, {QueueId(0, 0): 3}, alphas={0: Fraction(1, 2)},
                       queue_mode="single")
        assert SwitchState(config).rule is PolicyKind.DYNAMIC_THRESHOLDS
        assert decide(config, 0, 0)[1] == 0.5 * 57

    def test_fba_table_reproduces_fb_thresholds_exactly(self):
        alphas = {0: Fraction(3, 2), 1: 2, 2: 1}
        for q in list(self.LENGTHS) + [QueueId(0, 0)]:
            fb = decide(self.fba(alphas, kind=FB), q.class_id, q.port)
            fba = self.fba(alphas)
            # the run admits on the table its controller emits at t = 0
            assert fb[1] == tick(fba)[q] * (60 - 30)
            assert fb[:2] == decide(fba, q.class_id, q.port)[:2]  # thresholds bitwise

    def test_fba_without_table_is_continuous_fb(self):
        alphas = {0: Fraction(3, 2), 1: 2, 2: 1}
        for q in list(self.LENGTHS) + [QueueId(0, 0)]:
            fb = decide(self.fba(alphas, kind=FB), q.class_id, q.port)
            assert fb[1] == decide(self.fba(alphas), q.class_id, q.port)[1]


def test_threshold_comparison_is_strict_with_tolerance():
    # a DT threshold ``gap`` above a 30-packet queue, alpha (1 + gap/30) on
    # B - Q = 30: a length within 1e-9 of it is not below, so the packet drops
    for gap, admits in ((Fraction(3, 10**11), False),  # alpha 1 + 1e-12
                        (Fraction(5, 10**10), False),
                        (Fraction(2, 10**9), True),
                        (Fraction(1, 10**6), True)):
        switch = state(DT, {QueueId(0, 0): 30}, alphas={0: 1 + gap / 30})
        admitted, thr, _ = decide(switch, 0, 0)
        assert thr - 30 == pytest.approx(float(gap), rel=1e-3)
        assert admitted is admits, gap
    # pinned exactly at threshold: 30 < 1 * (60 - 30) is false
    assert not decide(state(DT, {QueueId(0, 0): 30}), 0, 0)[0]
    # one packet below: 29 < 1 * (60 - 30) admits
    assert decide(state(DT, {QueueId(0, 0): 29, QueueId(0, 1): 1}), 0, 0)[0]


def test_every_policy_requires_free_buffer():
    full = {QueueId(0, 0): 40, QueueId(0, 1): 20}
    for kind in (DT, FB, PolicyKind.FBA):
        assert not decide(state(kind, full), 1, 0)[0]
