"""Test-only code that the package does not run: the independent oracles
the tests check it against.

- ``derive_aggregates`` rebuilds a buffer's aggregates (occupancy,
  remaining space, the congested set and N_p per priority) from raw
  per-queue lengths.  The engine tests replay its decisions against them.
- ``occupancy_bound`` is the paper's FB occupancy bound, which no FB steady
  state may exceed (criterion 05).
- ``fb_omegas`` builds FB weights from explicit (alpha, priority, gamma)
  triples, written out here rather than read from ``fbsim.fluid``, so the
  scenario bridge's weights are checked against a second statement of the
  rule.
- ``alpha_L_for_burst``, ``alpha_H_for_burst`` and
  ``multi_priority_alpha_H`` are the paper's alpha bounds for a burst of
  rate r and duration t, in their Case-2 form only (the low queue drains
  flat out), where ``fbsim.fluid.alpha_bounds_general`` must agree with
  them.  ``alpha_L_for_zero_transient`` is the paper's rate-only bound,
  stated for DT weights, which the case bound of
  ``alpha_bounds_general`` must reproduce.  A bound is a Fraction, or the
  text "unconstrained" or "infeasible".
- ``affected`` tells whether a burst lowered an old queue's omega, the
  G_e/G_ne split, read from the queue's fields alone.
- ``aggregate_closed_form`` states the aggregate transient closed form on
  plain Fraction arithmetic, field by field as ``fbsim.fluid._closed_form``
  reports it, and ``aggregate_alpha_bounds`` the three alpha bounds that
  ``fbsim.fluid.alpha_bounds_general`` builds from the same ints, so the
  package's integer evaluation is checked against both.
- ``reference_transient`` and ``reference_total_rate`` are the exact
  event-driven solver on plain Fraction arithmetic, breakpoint by
  breakpoint as ``fbsim.fluid.integrate_transient`` walks it, so the
  package's integer solve is checked against it.

pytest's default import mode puts ``tests/`` on ``sys.path``, so a test
file imports these with ``from oracles import ...``.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from operator import itemgetter
from typing import Mapping, Optional, Sequence

from fbsim.core import Number, QueueId, as_fraction


class CapacityError(ValueError):
    """Total queued packets exceed the buffer capacity."""


@dataclass(frozen=True)
class BufferSnapshot:
    """Instantaneous buffer state plus the aggregates the policies consume.

    ``occupancy`` is the total queued packets Q(t), ``remaining`` is
    B - Q(t).  ``congested_per_priority`` maps priority id -> N_p(t), the
    count of queues of that priority deemed congested under
    ``congestion_threshold`` (a queue is congested when its length exceeds
    the threshold; the default threshold 0 means "non-empty").
    """

    buffer_size: int
    congestion_threshold: int
    lengths: Mapping[QueueId, int]
    occupancy: int
    remaining: int
    congested_per_priority: Mapping[int, int]
    congested: frozenset[QueueId] = field(default_factory=frozenset)


def derive_aggregates(
    lengths: Mapping[QueueId, int],
    class_priorities: Mapping[int, int],
    buffer_size: int,
    congestion_threshold: int = 0,
) -> BufferSnapshot:
    """Compute a BufferSnapshot from raw per-queue lengths: the occupancy,
    the remaining space, the congested set and N_p per priority.

    Raises CapacityError if the lengths sum beyond the buffer size.
    """
    total = 0
    for q, length in lengths.items():
        if length < 0:
            raise ValueError(f"queue {q}: negative length {length}")
        if q.class_id not in class_priorities:
            raise ValueError(f"queue {q}: unknown class {q.class_id}")
        total += length
    if total > buffer_size:
        raise CapacityError(f"total occupancy {total} exceeds buffer size {buffer_size}")

    congested: set[QueueId] = {
        q for q, length in lengths.items() if length > congestion_threshold
    }
    n_per_priority: dict[int, int] = {pid: 0 for pid in set(class_priorities.values())}
    for q in congested:
        n_per_priority[class_priorities[q.class_id]] += 1

    return BufferSnapshot(
        buffer_size=buffer_size,
        congestion_threshold=congestion_threshold,
        lengths=dict(lengths),
        occupancy=total,
        remaining=buffer_size - total,
        congested_per_priority=n_per_priority,
        congested=frozenset(congested),
    )


def occupancy_bound(priority_alpha_maxes: Sequence[Number], buffer_size: Number) -> Fraction:
    """Upper bound on total occupancy from the per-priority alpha maxima.

    Each priority group's omegas sum to at most its largest alpha, so
    occupancy never exceeds B * sum(alpha_max) / (1 + sum(alpha_max))
    regardless of how many queues are congested.
    """
    if not priority_alpha_maxes:
        raise ValueError("need at least one priority alpha")
    total = sum((as_fraction(a) for a in priority_alpha_maxes), Fraction(0))
    if total <= 0:
        raise ValueError("alpha maxima must be > 0")
    return as_fraction(buffer_size) * total / (1 + total)


def fb_omegas(queues: Mapping[QueueId, tuple[Number, int, Number]]) -> dict[QueueId, Fraction]:
    """FB weights from {queue: (alpha, priority_id, gamma)}, all listed queues
    congested: omega = alpha * gamma / (listed queues of that priority)."""
    per_priority = Counter(prio for _, prio, _ in queues.values())
    return {q: as_fraction(alpha) * as_fraction(gamma) / per_priority[prio]
            for q, (alpha, prio, gamma) in queues.items()}


def alpha_L_for_zero_transient(r: Number, num_congested_ports: int = 1):
    """Largest low-priority alpha keeping a burst of rate r free of
    transient loss on NUM congested ports, one DT queue (omega = alpha)
    each: alpha_L <= 1 / (r - (NUM+1)).  Unconstrained when r <= NUM + 1.
    """
    rf = as_fraction(r)
    if rf <= 0 or num_congested_ports < 1:
        raise ValueError("need r > 0 and NUM >= 1")
    denom = rf - (num_congested_ports + 1)
    return 1 / denom if denom > 0 else "unconstrained"


def alpha_L_for_burst(buffer_size: Number, r: Number, t: Number):
    """Largest low-priority alpha allowing a worst-case (r, t) burst through:
    alpha_L <= B / ((r-2)*t) - 1.  Unconstrained for r <= 2; infeasible when
    the bound is not positive."""
    b, rf, tf = as_fraction(buffer_size), as_fraction(r), as_fraction(t)
    if b <= 0 or tf <= 0:
        raise ValueError("need B > 0 and t > 0")
    if rf <= 2:
        return "unconstrained"
    bound = b / ((rf - 2) * tf) - 1
    return bound if bound > 0 else "infeasible"


def alpha_H_for_burst(buffer_size: Number, r: Number, t: Number, alpha_L: Number):
    """Smallest high-priority alpha (strict lower bound) absorbing a
    worst-case (r, t) burst given alpha_L:

        alpha_H > 1 / (B / ((r-1)*t*(1+alpha_L)) - (r-2)/(r-1))

    Infeasible when the inner denominator is not positive (no alpha_H works).
    """
    b, rf, tf, al = as_fraction(buffer_size), as_fraction(r), as_fraction(t), as_fraction(alpha_L)
    if rf <= 1:
        raise ValueError("r must exceed the port drain rate (r > 1)")
    if tf <= 0 or al < 0:
        raise ValueError("need t > 0 and alpha_L >= 0")
    inner = b / ((rf - 1) * tf * (1 + al)) - (rf - 2) / (rf - 1)
    return 1 / inner if inner > 0 else "infeasible"


def multi_priority_alpha_H(lower_priority_alpha_maxes: Sequence[Number], buffer_size: Number,
                           r: Number, t: Number):
    """Highest-priority alpha bound with several lower priorities: their
    alpha maxima simply sum into the alpha_L slot."""
    if not lower_priority_alpha_maxes:
        raise ValueError("need at least one lower-priority alpha")
    alpha_x = sum((as_fraction(a) for a in lower_priority_alpha_maxes), Fraction(0))
    return alpha_H_for_burst(buffer_size, r, t, alpha_x)


def affected(q) -> bool:
    """True when the burst lowered old queue ``q``'s omega: a G_e member."""
    return q.omega_before != q.omega


def _aggregates(ts) -> dict:
    """The sums and terms both aggregate statements read, on Fractions
    summed with ``sum(..., Fraction(0))``.

    The old queues split into G_e (omega changed by the burst) and G_ne.
    Case-1 holds while r <= r* = first + G* * (1 + W_ne) / (W* * n_new),
    with first = (new drains + G_e drains) / n_new and G*, W* the drain and
    omega sums of G_ne (of G_e when G_ne is empty); r* is +inf without old
    queues.  With F = n_new*r - new drains, Q' is (F - G_e drains) /
    (1 + W_ne) in Case-1 and F - G_e drains - G_ne drains in Case-2.
    """
    zero = Fraction(0)
    n_new = len(ts.new)
    old_e = [q for q in ts.old if affected(q)]
    old_ne = [q for q in ts.old if not affected(q)]
    w_old = sum((q.omega_before for q in ts.old), zero)
    w_e, drain_e = sum((q.omega for q in old_e), zero), sum((q.gamma for q in old_e), zero)
    w_ne, drain_ne = sum((q.omega for q in old_ne), zero), sum((q.gamma for q in old_ne), zero)
    drain_new = sum((q.gamma for q in ts.new), zero)
    first = (drain_new + drain_e) / n_new
    g_star, w_star = (drain_ne, w_ne) if old_ne else (drain_e, w_e)
    rate_bound = first + g_star * (1 + w_ne) / (w_star * n_new) if ts.old else math.inf
    after_e = n_new * ts.r - drain_new - drain_e
    return dict(n_new=n_new, ne_empty=not old_ne, w_old=w_old, first=first, g_star=g_star,
                rate_bound=rate_bound, case1=ts.r <= rate_bound,
                fill1=after_e / (1 + w_ne), fill2=after_e - drain_ne)


def aggregate_closed_form(ts) -> dict:
    """The aggregate closed form of a transient scenario, every field named
    as in ``fbsim.fluid._closed_form`` (the case as its text): Q' in the
    scenario's case (``_aggregates``) gives each new queue's
    t1 = omega*B/(1+W_old) / ((r-gamma) + omega*Q'), +inf when that speed is
    not positive.
    """
    agg = _aggregates(ts)
    fill = agg["fill1"] if agg["case1"] else agg["fill2"]
    gap = ts.buffer_size / (1 + agg["w_old"])
    per_queue = {}
    for q in ts.new:
        speed = (ts.r - q.gamma) + q.omega * fill
        per_queue[q.queue] = q.omega * gap / speed if speed > 0 else math.inf
    t1 = min(per_queue.values())
    return dict(case="case1" if agg["case1"] else "case2", rate_bound=agg["rate_bound"],
                t1_per_queue=per_queue, t1=t1, burst=math.inf if t1 == math.inf else ts.r * t1)


def aggregate_alpha_bounds(ts, t) -> dict:
    """The three bounds of ``fbsim.fluid.alpha_bounds_general``, named as its
    fields, over the terms of ``_aggregates``; a bound is a Fraction or the
    text "unconstrained" or "infeasible", and the two burst bounds are None
    when ``t`` is None.

    The case bound solves r = r* for W*: G* / (n_new*(r - first) - G*), or
    G* / (n_new*(r - first)) when G_ne is empty, unconstrained without old
    queues or when that denominator is not positive.  The frontier is
    infeasible when B <= t*(1+W_old)*Q'_1, else unconstrained when
    Q'_2 <= 0, else B/(t*Q'_2) - 1.  alpha_H_min is the largest
    t*(r-gamma)*(1+W_old) / (B - t*(1+W_old)*Q') / factor over the new
    queues, with Q' of the scenario's case, infeasible when that
    denominator is not positive.  A new queue with r <= gamma never fills,
    so it sets no bound; when none sets one, alpha_H_min is unconstrained.
    """
    agg = _aggregates(ts)
    fill1, fill2 = agg["fill1"], agg["fill2"]
    den = agg["n_new"] * (ts.r - agg["first"]) - (0 if agg["ne_empty"] else agg["g_star"])
    bounds = dict(alpha_L_case_bound=agg["g_star"] / den if ts.old and den > 0
                  else "unconstrained", alpha_L_max_for_burst=None, alpha_H_min=None)
    if t is None:
        return bounds
    t, b, lift = as_fraction(t), ts.buffer_size, 1 + agg["w_old"]
    denom = b - t * lift * (fill1 if agg["case1"] else fill2)
    bounds["alpha_H_min"] = max((t * (ts.r - q.gamma) * lift / denom / q.factor
                                 for q in ts.new if ts.r > q.gamma),
                                default="unconstrained") if denom > 0 else "infeasible"
    if b <= t * lift * fill1:
        bounds["alpha_L_max_for_burst"] = "infeasible"
    else:
        bounds["alpha_L_max_for_burst"] = "unconstrained" if fill2 <= 0 else b / (t * fill2) - 1
    return bounds


def reference_total_rate(base: Fraction, tracked: list[tuple]) -> Fraction:
    """Solve S = base + sum_i clamp(-omega_i*S, lo_i, hi_i) on Fractions;
    each ``lo`` is finite and a ``hi`` of None leaves that side unbounded.

    The right side is piecewise linear and non-increasing in S, so the root
    is unique.  Sweep the sorted clamp breakpoints from S = -inf, where every
    finite ``hi`` applies and every unbounded one is linear, keeping the
    segment's right side as ``const - slope * S``; the root lies in the
    first segment whose right end p has ``const - slope * p <= p``.
    """
    const, scale = base, Fraction(1)  # scale = 1 + slope
    steps = []  # (breakpoint, slope change, const change), as S increases
    for omega, lo, hi in tracked:
        if hi is None:
            scale += omega
        else:
            const += hi
            steps.append((-hi / omega, omega, -hi))
        steps.append((-lo / omega, -omega, lo))
    steps.sort(key=itemgetter(0))
    for p, d_slope, d_const in steps:
        if const <= scale * p:
            break
        scale += d_slope
        const += d_const
    return const / scale


def reference_transient(ts, horizon: Optional[Number] = None) -> dict:
    """The exact fluid trajectory of a transient scenario on Fractions:
    ``{"times": [...], "lengths": {queue: [...]}, "thresholds": {queue:
    [...]}, "first_crossing": {new queue: t or math.inf}}``.

    Thresholds are omega * (B - Q_total).  Above its threshold a queue
    drains at gamma; at it, it tracks the threshold's rate clamped to
    [-gamma, fill - gamma]; below it, new and rate-limited old queues fill
    at their fill rate.  Every old queue starts at or above its threshold,
    since ``OldQueue`` refuses omega_before < omega.  Each pass solves the
    total rate S once and jumps to the next instant at which a closing gap
    reaches zero, or to the horizon.  Without one it stops at the last new
    queue's first crossing, or once no gap is closing.
    """
    zero = Fraction(0)
    b = Fraction(ts.buffer_size)
    end = None if horizon is None else as_fraction(horizon)
    entries = (*ts.old, *ts.new)
    n_old = len(ts.old)
    omega = [q.omega for q in entries]
    drain = [-q.gamma for q in entries]  # the rate above the threshold
    fill_cap = [None if q.fill_rate is None else q.fill_rate + drain[i]
                for i, q in enumerate(ts.old)] + [ts.r + v for v in drain[n_old:]]

    share = b / (1 + sum((q.omega_before for q in ts.old), zero))
    lengths = [q.omega_before * share for q in ts.old] + [zero] * len(ts.new)

    crossing: dict[int, Fraction] = {}
    times, length_rows, threshold_rows = [], [], []
    t = zero
    while True:
        remaining = b - sum(lengths, zero)
        thr = [w * remaining for w in omega]
        times.append(t)
        length_rows.append(lengths)
        threshold_rows.append(thr)
        if (len(crossing) == len(ts.new) and end is None) or (end is not None and end <= t):
            break

        gaps = [lengths[i] - thr[i] for i in range(len(entries))]
        rates = [drain[i] if gap > 0 else fill_cap[i] if gap < 0 else None
                 for i, gap in enumerate(gaps)]
        s_total = reference_total_rate(
            sum((v for v in rates if v is not None), zero),
            [(omega[i], drain[i], fill_cap[i]) for i, v in enumerate(rates) if v is None],
        )
        for i, v in enumerate(rates):
            if v is None:  # clamp(-omega * S, -gamma, fill cap)
                v = max(-omega[i] * s_total, drain[i])
                rates[i] = v if fill_cap[i] is None else min(v, fill_cap[i])

        # gap_i changes at rate_i + omega_i * S; it closes when that slope
        # has the opposite sign of the gap
        hits = {}
        for i, gap in enumerate(gaps):
            slope = rates[i] + omega[i] * s_total
            if gap * slope < 0:
                hits[i] = -gap / slope
        dt = min(hits.values(), default=None)
        if end is not None and (dt is None or end < t + dt):
            dt = end - t
        elif dt is None:
            break

        lengths = [q + v * dt for q, v in zip(lengths, rates)]
        t += dt
        for i, hit in hits.items():
            if hit == dt and i >= n_old and i not in crossing:
                crossing[i] = t

    queues = [q.queue for q in entries]
    return dict(
        times=times,
        lengths={q: list(col) for q, col in zip(queues, zip(*length_rows))},
        thresholds={q: list(col) for q, col in zip(queues, zip(*threshold_rows))},
        first_crossing={q.queue: crossing.get(i, math.inf) for i, q in enumerate(ts.new, n_old)},
    )
