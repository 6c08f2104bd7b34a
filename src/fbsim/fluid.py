"""Fluid-model analysis of threshold-managed shared buffers.

Everything here works on the weight ``omega = alpha * factor`` of a queue.
``congested_weights`` states the rule once: under FB the factor is
``beta * gamma``, where ``beta`` is the inverse congested-queue count of the
queue's priority group and ``gamma`` its per-port-normalized dequeue rate.
Under plain Dynamic Thresholds the factor is 1 (``omega = alpha``), while
``gamma`` stays the queue's drain rate, so one machinery covers both schemes.

Steady state (all congested queues pinned at their thresholds):

    Q         = B * W / (1 + W)          with W = sum of omegas
    remaining = B / (1 + W)
    T_q       = B * omega_q / (1 + W)

Transient state: previously steady "old" queues meet newly arriving "new"
queues filling at rate ``r``.  Old queues either track their falling
thresholds (Case-1) or drain at full service rate because the thresholds
fall faster than they can empty (Case-2).  ``t1`` is the first time a new
queue meets its own falling threshold -- the first instant a drop becomes
possible -- and ``r * t1`` is the largest burst at rate ``r`` admitted
without loss.  In both cases a new queue starts ``omega * B / (1 + W_old)``
below its threshold and closes that gap at ``(r - gamma) + omega * Q'``;
only ``Q'``, the rate at which the buffer fills, depends on the case:

    t1 = omega * B / (1 + W_old) / ((r - gamma) + omega * Q')

The old queues split into G_e (omega lowered by the burst) and G_ne.  With
F = n_new * r - new drains and NUM all old drains, Case-1's
Q' = (F - G_e drain) / (1 + W_ne) -- each unaffected old queue tracks
omega * (B - Q) and so sheds omega * Q' -- and Case-2's Q' = F - NUM give
the paper's two forms:

    Case-1: t1 = omega*B*(1+W_ne) / ((1+W_old) * ((r-gamma)*(1+W_ne) + omega*(F - G_e drain)))
    Case-2: t1 = omega*B / ((1+W_old) * ((r-gamma) + omega*(F - NUM)))

``_closed_form`` evaluates them in ints.  Over the least common denominator
d of r and of every weight and drain, each value v is V / d (capitals are
scaled values), so with AE = d * (F - G_e drain) = n_new*R - G_new - G_e,
multiplying out d gives

    t1 = O*B*den / ((d + W_old) * sp)
    sp = (R - G)*(d + W_T) + O*(AE - G_D),  den = d*(d + W_T)

where T and D are the unaffected old queues that track their thresholds and
those that drain: (T, D) = (G_ne, {}) in Case-1 and ({}, G_ne) in Case-2.
t1 = +inf when sp <= 0, i.e. when the new queue never closes its gap.
``_closed_form`` keeps these ints and builds no Fraction; its record builds
each reported value, one Fraction of two ints, when it is read.

Between regime changes every queue drains, tracks or fills at a constant
rate, so the transient trajectory is piecewise linear.  The event-driven
solver (``integrate_transient``) follows it from breakpoint to breakpoint
and is the closed forms' independent cross-check.  Both are exact and
compute in ints, each with its own code, so the two routes share no
arithmetic: the closed forms over one common denominator (``_scaled``), the
solver over the lcm E of its inputs' denominators (``_over_lcm``), with
every queue length over one running denominator.  The solver's record keeps
its crossings and rows as ints: it builds the earliest crossing ``t1`` as a
Fraction at once, and the other crossings and the series when read.

Each value type's field is its annotated kind (``core.convert_fields``), so
both routes see exact numbers only: a buffer of ``60.0`` is 60, ``60.5`` an error.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, Optional, Sequence, Union

from .core import Number, QueueId, as_fraction, as_whole, convert_fields, jsonable, write_table

#: t1 values may be +inf (queue never meets its threshold).
Value = Union[Fraction, float]


class CaseKind(Enum):
    CASE1 = "case1"  # unaffected old queues track their falling thresholds
    CASE2 = "case2"  # thresholds fall faster than old queues can drain


class BoundStatus(Enum):
    UNCONSTRAINED = "unconstrained"
    INFEASIBLE = "infeasible"


UNCONSTRAINED = BoundStatus.UNCONSTRAINED
INFEASIBLE = BoundStatus.INFEASIBLE

Bound = Union[Fraction, BoundStatus]

#: The most queues ``two_priority_incast`` builds: it makes one object per
#: queue, so a larger count is refused before any is made.
MAX_INCAST_QUEUES = 4096

#: Class ids of ``two_priority_incast``'s queues: low queues count up from
#: _LOW_CLASS on their port, new queues are _HIGH_CLASS.
_LOW_CLASS, _HIGH_CLASS = 0, 1


# ---------------------------------------------------------------------------
# weights and steady state
# ---------------------------------------------------------------------------


def congested_weights(
    queues: Mapping[QueueId, tuple[int, Number]], fb: bool
) -> dict[QueueId, tuple[Fraction, Fraction, Fraction]]:
    """FB's weight rule, stated once: {queue: (omega, gamma, factor)} from
    {queue: (priority_id, alpha)}, every listed queue congested.

    ``gamma`` is 1 / (listed queues on the queue's port), its round-robin
    share of the port.  The factor omega / alpha is ``beta * gamma`` under
    FB (``fb`` true), with ``beta`` = 1 / (listed queues of its priority),
    and 1 under DT.
    """
    per_port = Counter(q.port for q in queues)
    per_priority = Counter(prio for prio, _ in queues.values())
    weights = {}
    for q, (prio, alpha) in queues.items():
        factor = Fraction(1, per_port[q.port] * per_priority[prio]) if fb else Fraction(1)
        weights[q] = (as_fraction(alpha) * factor, Fraction(1, per_port[q.port]), factor)
    return weights


def _scaled(values: list[Fraction]) -> tuple[int, list[int]]:
    """The closed forms' exact arithmetic: ``(d, [v * d for v in values])``,
    with d the lcm of the values' denominators, so every scaled value is an
    int and every sum of them an int sum over the one denominator d."""
    ratios = [v.as_integer_ratio() for v in values]  # one call reads both ints
    d = math.lcm(*[den for _, den in ratios])
    return d, [num * (d // den) for num, den in ratios]


@dataclass(frozen=True)
class AnalysisResult:
    """Closed-form outputs; transient fields are None for steady-only runs."""

    steady_occupancy: Fraction
    steady_remaining: Fraction
    steady_thresholds: Mapping[QueueId, Fraction]
    case: Optional[CaseKind] = None
    t1: Optional[Value] = None
    t1_per_queue: Optional[Mapping[QueueId, Value]] = None
    burst_tolerance: Optional[Value] = None


def steady_state(omegas: Mapping[QueueId, Number], buffer_size: Number) -> AnalysisResult:
    """Steady-state occupancy, remaining space and per-queue thresholds
    from {queue: omega}, every queue congested; each weight becomes a
    Fraction and then an int over the weights' common denominator
    (``_scaled``), so every result is exact."""
    d, weights = _scaled([as_fraction(w) for w in omegas.values()])
    if any(w <= 0 for w in weights):
        raise ValueError("all omegas must be > 0 for congested queues")
    b = as_fraction(buffer_size)
    w_total = sum(weights)
    # over d: share = B / (1 + W) = B*d / (d + W), and T_q = omega_q * share
    low = b.denominator * (d + w_total)
    return AnalysisResult(
        steady_occupancy=Fraction(b.numerator * w_total, low),
        steady_remaining=Fraction(b.numerator * d, low),
        steady_thresholds={q: Fraction(b.numerator * w, low) for q, w in zip(omegas, weights)},
    )


# ---------------------------------------------------------------------------
# transient scenarios
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OldQueue:
    """A pre-existing congested queue.

    ``omega`` is the weight during the transient.  ``omega_before``, when
    given, is the weight in the preceding steady state and at least
    ``omega``: a burst only adds queues, and adding queues never raises a
    weight (``congested_weights``).  A larger value marks the queue as
    omega-affected, a member of G_e (``_closed_form`` splits the old queues
    by ``pre_omega == omega``); None means the weight did not change.
    So every old queue starts at or above its threshold.  ``fill_rate`` is
    the queue's own arrival rate for the solver, >= 0 (0: it only drains);
    None means fully backlogged (it can always refill up to its threshold).
    """

    queue: QueueId
    omega: Fraction
    gamma: Fraction
    omega_before: Optional[Fraction] = None
    fill_rate: Optional[Fraction] = None

    def __post_init__(self) -> None:
        convert_fields(self)
        if self.omega <= 0 or not 0 < self.gamma <= 1:
            raise ValueError(f"{self.queue}: need omega > 0 and gamma in (0,1]")
        if self.omega_before is not None and self.omega_before < self.omega:
            raise ValueError(f"{self.queue}: need omega_before >= omega")
        if self.fill_rate is not None and self.fill_rate < 0:
            raise ValueError(f"{self.queue}: need fill_rate >= 0")

    @property
    def pre_omega(self) -> Fraction:
        return self.omega if self.omega_before is None else self.omega_before


@dataclass(frozen=True)
class NewQueue:
    """A newly arriving queue (empty at t = 0, filling at the burst rate).

    ``factor`` is the weight factor omega / alpha (``congested_weights``):
    ``beta * gamma`` under FB, 1 under DT.  It is kept beside ``omega`` so
    alpha bounds can be solved for; ``gamma`` is the drain rate under both.
    """

    queue: QueueId
    omega: Fraction
    gamma: Fraction
    factor: Fraction = Fraction(1)

    def __post_init__(self) -> None:
        convert_fields(self)
        if self.omega <= 0 or not 0 < self.gamma <= 1 or not 0 < self.factor <= 1:
            raise ValueError(f"{self.queue}: need omega > 0, gamma and factor in (0,1]")


@dataclass(frozen=True)
class TransientScenario:
    """Old/new queue sets plus the per-new-queue arrival rate ``r``."""

    buffer_size: int
    old: tuple[OldQueue, ...]
    new: tuple[NewQueue, ...]
    r: Fraction

    def __post_init__(self) -> None:
        convert_fields(self)
        if self.buffer_size < 1:
            raise ValueError("buffer_size must be >= 1")
        if self.r <= 0:
            raise ValueError("arrival rate r must be > 0")
        seen = set()
        for entry in (*self.old, *self.new):
            if entry.queue in seen:
                raise ValueError(f"duplicate queue {entry.queue}")
            seen.add(entry.queue)


def two_priority_incast(
    buffer_size: Number,
    alpha_low: Number,
    alpha_high: Number,
    r: Number,
    n_low_ports: int = 1,
    low_queues_per_port: int = 1,
    n_new: int = 1,
    scheme: str = "fb",
) -> TransientScenario:
    """Canonical burst scenario: low-priority queues congested, a high burst
    arrives on empty ports.

    Low queues occupy ``n_low_ports`` ports with ``low_queues_per_port``
    queues each; the ``n_new`` new queues land on otherwise empty ports and
    form their own priority group.  ``scheme`` selects FB weights
    (alpha * beta * gamma) or DT weights (omega = alpha).  Low queues form
    priority 0, new queues priority 1.  The counts are whole numbers, and
    the queues number at most ``MAX_INCAST_QUEUES``.
    """
    n_low_ports, m, n_new = as_whole(n_low_ports), as_whole(low_queues_per_port), as_whole(n_new)
    if n_low_ports < 0 or m < 1 or n_new < 1:
        raise ValueError(
            "need n_low_ports >= 0, low_queues_per_port >= 1 and n_new >= 1"
        )
    if n_low_ports * m + n_new > MAX_INCAST_QUEUES:
        raise ValueError(f"the incast has {n_low_ports * m + n_new} queues, "
                         f"more than {MAX_INCAST_QUEUES}")
    if scheme not in ("fb", "dt"):
        raise ValueError(f"unknown scheme {scheme!r}")
    # queues sharing a port carry distinct class ids (one queue per
    # (port, class) pair); new queues sit on ports 0..n_new-1, low ports
    # from 100 on, or past the new ports if there are more than 100
    first_low = max(100, n_new)
    low = [QueueId(first_low + i // m, _LOW_CLASS + i % m) for i in range(n_low_ports * m)]
    high = [QueueId(i, _HIGH_CLASS) for i in range(n_new)]
    weights = congested_weights(
        {**dict.fromkeys(low, (0, alpha_low)), **dict.fromkeys(high, (1, alpha_high))},
        scheme == "fb",
    )
    return TransientScenario(
        buffer_size,
        tuple(OldQueue(q, *weights[q][:2]) for q in low),
        tuple(NewQueue(q, *weights[q]) for q in high),
        r,
    )


# ---------------------------------------------------------------------------
# case classification and t1 closed forms
# ---------------------------------------------------------------------------


class _ClosedForm:
    """What ``_closed_form`` returns: the ints it computed over its one
    denominator d, from which each reported value is built when it is read.

    Reported, each a Fraction of two ints normalized once unless noted:
    ``case`` (a ``CaseKind``), ``rate_bound`` (r*, +inf without old queues),
    ``t1_per_queue``, ``t1`` (the earliest t1) and ``burst`` (r * t1).  A t1
    that never comes is ``math.inf`` itself, so ``t1 is math.inf`` tests for
    it.  ``alpha_bounds_general`` builds its bounds from the ints themselves:
    d, R (``_r``), n_new, W_old, W_ne, G_ne, G_new + G_e (``_first``), G*
    (``_g_star``) and the case test's result.
    """

    __slots__ = ("_d", "_r", "_n_new", "_w_old", "_w_ne", "_g_ne", "_first", "_g_star",
                 "_w_star", "_bound", "_case1", "_top", "_low", "_speeds", "_o1", "_sp1")

    def __init__(self, d, r, n_new, w_old, w_ne, g_ne, first, g_star, w_star, bound, case1,
                 top, low, speeds, o1, sp1) -> None:
        self._d, self._r, self._n_new, self._w_old = d, r, n_new, w_old
        self._w_ne, self._g_ne, self._first, self._g_star = w_ne, g_ne, first, g_star
        self._w_star, self._bound, self._case1, self._top, self._low = w_star, bound, case1, top, low
        self._speeds = speeds  # (queue, O, sp) per new queue
        self._o1, self._sp1 = o1, sp1  # the earliest crossing's (O, sp); sp1 = 0: none

    @property
    def case(self) -> CaseKind:
        return CaseKind.CASE1 if self._case1 else CaseKind.CASE2

    @property
    def rate_bound(self) -> Value:
        if not self._w_old:  # no old queue
            return math.inf
        return Fraction(self._bound, self._d * self._w_star * self._n_new)

    @property
    def t1_per_queue(self) -> dict[QueueId, Value]:
        top, low = self._top, self._low
        return {q: Fraction(o * top, low * sp) if sp > 0 else math.inf for q, o, sp in self._speeds}

    @property
    def t1(self) -> Value:
        return Fraction(self._o1 * self._top, self._low * self._sp1) if self._sp1 else math.inf

    @property
    def burst(self) -> Value:
        if not self._sp1:
            return math.inf
        return Fraction(self._r * self._o1 * self._top, self._d * self._low * self._sp1)


def _closed_form(ts: TransientScenario) -> _ClosedForm:
    """The one closed-form evaluation, in ints over one denominator (the
    module docstring derives the int t1 from the paper's two forms).

    ``_scaled`` writes r and every queue's pre-transient omega, omega and
    gamma as V / d, so each of the six sums (W_old, W_e, W_ne and the G_e,
    G_ne and new drains) is an int sum.  It returns those ints, the case
    test's result and each new queue's (O, sp), and builds no Fraction: each
    reported value is one Fraction of two ints, built by the record when it
    is read.  The earliest t1 is picked by cross-multiplying, O1 * sp2 <
    O2 * sp1 over the queues with sp > 0, and the burst r * t1 is one
    Fraction of R * O * top over d * low * sp.

    Case-1 holds while r <= r* = first + G* * (1 + W_ne) / (W* * n_new), with
    first = (new drains + G_e drain) / n_new and G*, W* the drain and omega
    sums of G_ne (of G_e when G_ne is empty); r* is +inf without old queues.
    Over d, r* = ((G_new + G_e) * W* + G* * (d + W_ne)) / (d * W* * n_new),
    so multiplying r <= r* by d * W* * n_new > 0 gives the int case test

        R * W* * n_new <= (G_new + G_e) * W* + G* * (d + W_ne)

    At equality both forms give the same t1.  Without old queues both sides
    are 0, so the test reads Case-1.

    The aggregate bound assumes the unaffected old queues share one
    gamma/omega ratio, as every symmetric scenario built here does.  Outside
    that assumption t1 can be wrong: on 300 random scenarios with unequal
    ratios (2-4 old queues, omega in [1/4, 3], gamma in {1, 1/2, 1/3}, r in
    [1.1, 8], B in 50-200, seed 3) it differs from the exact solver by more
    than 1% in 57, by up to 32%.
    """
    if not ts.new:
        raise ValueError("scenario has no new queues, nothing transient to classify")
    n_new, n_old = len(ts.new), len(ts.old)
    values = [ts.r]
    for q in ts.old:  # pre_omega, read without the property call
        omega, before = q.omega, q.omega_before
        values += (omega if before is None else before, omega, q.gamma)
    for q in ts.new:
        values += (q.omega, q.gamma)
    d, scaled = _scaled(values)
    r = scaled[0]
    w_old = w_e = g_e = w_ne = g_ne = 0
    for i in range(1, 3 * n_old, 3):
        pre, w, g = scaled[i], scaled[i + 1], scaled[i + 2]
        w_old += pre
        if pre == w:  # G_ne: the burst left this omega as it was
            w_ne += w
            g_ne += g
        else:
            w_e += w
            g_e += g
    new_at = 3 * n_old + 1  # the new queues' (omega, gamma) pairs start here
    g_new = sum(scaled[new_at + 1::2])

    first = g_new + g_e  # first = (G_new + G_e) / (n_new * d)
    g_star, w_star = (g_ne, w_ne) if w_ne else (g_e, w_e)  # W_ne = 0: G_ne is empty
    bound = first * w_star + g_star * (d + w_ne)  # r* = bound / (d * W* * n_new)
    case1 = r * w_star * n_new <= bound
    w_t, g_d = (w_ne, 0) if case1 else (0, g_ne)  # (T, D) = (G_ne, {}) or ({}, G_ne)
    scale, excess = d + w_t, n_new * r - first - g_d  # d + W_T and AE - G_D
    top, low = ts.buffer_size * d * scale, d + w_old
    speeds, o1, sp1 = [], 0, 0
    for q, i in zip(ts.new, range(new_at, len(scaled), 2)):
        o = scaled[i]
        sp = (r - scaled[i + 1]) * scale + o * excess
        speeds.append((q.queue, o, sp))
        # t1 = O*top / (low*sp): the earlier of two has the smaller O/sp
        if sp > 0 and (not sp1 or o * sp1 < o1 * sp):
            o1, sp1 = o, sp
    return _ClosedForm(d, r, n_new, w_old, w_ne, g_ne, first, g_star, w_star, bound, case1,
                       top, low, speeds, o1, sp1)


def case_rate_bound(ts: TransientScenario) -> Value:
    """The arrival rate r* at or below which unaffected old queues can track
    their thresholds (Case-1).  +inf when there are no old queues."""
    return _closed_form(ts).rate_bound


def classify_case(ts: TransientScenario) -> CaseKind:
    """Case-1 when r is at or below the tracking bound, Case-2 above."""
    return _closed_form(ts).case


def first_threshold_crossing(ts: TransientScenario) -> Value:
    """Earliest t1 over the new queues, using the scenario's case."""
    return _closed_form(ts).t1


def analyze_transient(ts: TransientScenario) -> AnalysisResult:
    """Full closed-form analysis: eventual steady state, case, t1, tolerance."""
    steady = steady_state({q.queue: q.omega for q in (*ts.old, *ts.new)}, ts.buffer_size)
    cf = _closed_form(ts)
    return replace(steady, case=cf.case, t1=cf.t1, t1_per_queue=cf.t1_per_queue,
                   burst_tolerance=cf.burst)


# ---------------------------------------------------------------------------
# alpha configuration bounds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GeneralAlphaBounds:
    """Scenario-shaped alpha bounds.

    ``alpha_L_case_bound`` is the low-priority weight sum at the Case-1/
    Case-2 boundary (the scenario stays Case-1 at or below it -- relation
    '<=' -- and is Case-2 above it -- relation '>').
    ``alpha_L_max_for_burst`` is the feasibility frontier on W_old, the old
    queues' pre-transient weight sum (alpha_L itself on an FB incast of one
    queue per low port), as alpha_H grows without bound;
    ``alpha_bounds_general`` derives its rule.
    ``alpha_H_min`` inverts t <= t1 for the scenario's case: the largest
    t * (r-gamma_q) * (1+W_old) / (B - t * (1+W_old) * Q') / factor_q over
    the new queues q (omega_q = alpha_H * factor_q), so no new queue
    crosses before t.  The last two are None when no duration t is given.
    """

    case: CaseKind
    alpha_L_case_bound: Bound
    alpha_L_relation: str
    alpha_L_max_for_burst: Optional[Bound]
    alpha_H_min: Optional[Bound]


def alpha_bounds_general(ts: TransientScenario, t: Optional[Number]) -> GeneralAlphaBounds:
    """Alpha bounds for an arbitrary transient scenario: the one route from a
    burst of rate r and duration t to the alphas that absorb it; with t None,
    the case bound alone.

    The case bound solves r = r* for W*.  On NUM low ports of one FB queue
    each, beside one new queue, it is W_old <= NUM / (r - (NUM+1)), and
    W_old is alpha_L itself; DT weighs each low queue alpha_L, so there the
    bound is the paper's per-queue rule alpha_L <= 1 / (r - (NUM+1)).

    The frontier, one rule for both regimes.  As omega_q grows, t1 rises to
    B / ((1+W_old) * Q'), so some alpha_H absorbs the burst exactly while
    B > t * (1+W_old) * Q'.  Write F for the new queues' sum of r - gamma,
    Q'_1 = (F - G_e drain) / (1 + W_ne) and Q'_2 = F - NUM for the fills of
    Case-1 and Case-2.  Without an affected old queue, (1+W_old) * Q'_1 = F
    for every weight, so Case-1 absorbs the burst iff B > t*F.  Case-1 holds
    up to the boundary weight, where Q'_1 = Q'_2 and so (1+W_old) * Q'_2 = F;
    past it (1+W_old) * Q'_2 grows with W_old when Q'_2 > 0, and there is no
    boundary when Q'_2 <= 0.  So the frontier is

        infeasible                 when B <= t * (1+W_old) * Q'_1,
        unconstrained              else when Q'_2 <= 0,
        W_old < B / (t*Q'_2) - 1   else.

    On the one-low-port incast (F = r-1, NUM = 1) that is: infeasible when
    B <= (r-1)*t, else B/((r-2)*t) - 1 for r > 2, and unconstrained for
    r <= 2.  There alpha_H_min is t*(r-1)*(1+alpha_L) / (B - t*(r-1)) in
    Case-1 (alpha_L <= 1/(r-2)) and the paper's
    t*(r-1)*(1+alpha_L) / (B - t*(r-2)*(1+alpha_L)) in Case-2.  With an
    affected old queue (1+W_old) * Q'_1 depends on how W_old splits between
    G_e and G_ne; the rule reads it at the scenario's own weights, so it
    assumes that a change of alpha_L keeps that split.

    Each term is built from ``_closed_form``'s ints over its denominator d
    (the module docstring's capitals), with AE = n_new*R - (G_new + G_e):
    1 + W_old = (d + W_old)/d, Q'_1 = AE/(d + W_ne), Q'_2 = (AE - G_ne)/d,
    and the case bound W* = G*/(AE - G*), G*/AE when G_ne is empty,
    unconstrained without old queues or when that denominator is <= 0.
    """
    cf = _closed_form(ts)
    d, b = cf._d, ts.buffer_size
    ae = cf._n_new * cf._r - cf._first
    den = ae - (cf._g_star if cf._w_ne else 0)  # W_ne = 0: G_ne is empty
    boundary: Bound = Fraction(cf._g_star, den) if ts.old and den > 0 else UNCONSTRAINED
    relation = "<=" if cf._case1 else ">"
    if t is None:
        return GeneralAlphaBounds(cf.case, boundary, relation, None, None)
    tf = as_fraction(t)
    if tf <= 0:
        raise ValueError("t must be > 0")

    lift = Fraction(d + cf._w_old, d)  # 1 + W_old
    fill1, fill2 = Fraction(ae, d + cf._w_ne), Fraction(ae - cf._g_ne, d)  # Q'_1, Q'_2
    denom = b - tf * lift * (fill1 if cf._case1 else fill2)
    alpha_h: Bound = max(tf * (ts.r - q.gamma) * lift / denom / q.factor
                         for q in ts.new) if denom > 0 else INFEASIBLE
    frontier: Bound = (INFEASIBLE if b <= tf * lift * fill1
                       else UNCONSTRAINED if fill2 <= 0 else b / (tf * fill2) - 1)

    return GeneralAlphaBounds(cf.case, boundary, relation, frontier, alpha_h)


# ---------------------------------------------------------------------------
# exact event-driven solver (independent oracle)
# ---------------------------------------------------------------------------


def _over_lcm(values: list[Fraction]) -> tuple[int, list[int]]:
    """The solver's exact arithmetic: ``(e, [v * e for v in values])`` with e
    the lcm of the values' denominators, so each value is an int over e."""
    ratios = [v.as_integer_ratio() for v in values]
    e = math.lcm(*[den for _, den in ratios])
    return e, [num * (e // den) for num, den in ratios]


class TransientTrajectories:
    """The exact fluid trajectory at its breakpoints.

    Between consecutive ``times`` every length and threshold is linear in t,
    so the series pin the whole piecewise-linear trajectory.
    ``first_crossing`` holds each new queue's first fill-to-threshold hit
    (``math.inf`` itself when it never happens), and ``t1`` the earliest.
    Every finite value is a Fraction.  The solver keeps its ints: each
    crossing as a ``(t numerator, t denominator)`` pair and one row per
    breakpoint, ``(t numerator, t denominator, D, rho, length numerators)``.
    ``t1``, picked from the pairs by cross-multiplying, is built at once;
    the rest are built on first read, so a caller pays only for what it reads.
    """

    def __init__(self, queues: Sequence[QueueId], n_old: int, weights: list[int], one: int,
                 rows: list[tuple], crossings: dict[int, tuple[int, int]]) -> None:
        self._queues = queues  # the old queues, then the new ones
        self._n_old = n_old
        self._weights = weights  # omega_i * one
        self._one = one
        self._rows = rows
        self._crossings = crossings  # queue index -> first crossing (tn, td)
        tn1, td1 = 1, 0  # the earliest crossing so far, 1/0 standing for +inf
        for tn, td in crossings.values():
            if tn * td1 < tn1 * td:
                tn1, td1 = tn, td
        self.t1: Value = Fraction(tn1, td1) if td1 else math.inf

    @cached_property
    def first_crossing(self) -> dict[QueueId, Value]:
        return {q: Fraction(*self._crossings[i]) if i in self._crossings else math.inf
                for i, q in enumerate(self._queues[self._n_old:], self._n_old)}

    @cached_property
    def times(self) -> list[Fraction]:
        return [Fraction(tn, td) for tn, td, *_ in self._rows]

    @cached_property
    def lengths(self) -> dict[QueueId, list[Fraction]]:
        return {q: [Fraction(row[4][i], row[2]) for row in self._rows]
                for i, q in enumerate(self._queues)}

    @cached_property
    def thresholds(self) -> dict[QueueId, list[Fraction]]:
        one = self._one
        return {q: [Fraction(w * rho, one * d) for _, _, d, rho, _ in self._rows]
                for q, w in zip(self._queues, self._weights)}


def _solve_total_rate(one: int, base: int, tracked: list[tuple]) -> tuple[int, int]:
    """Solve S = base + sum_i clamp(-omega_i*S, lo_i, hi_i) in ints: every
    value is an int numerator over the denominator ``one`` (omega_i = w_i /
    one), each ``lo`` is finite and a ``hi`` of None leaves that side
    unbounded.  Returns S as ``(c, k)``, S = c / k with k > 0.

    The right side is piecewise linear and non-increasing in S, so the root
    is unique.  Sweep the clamp breakpoints a / w (a = -hi or -lo) in
    increasing order, sorted on the exact int key a * (L // w) with L the
    lcm of the weights, from S = -inf, where every finite ``hi`` applies
    and every unbounded one is linear.  The segment's right side is
    ``const - slope * S``; with c = one * const and k = one * (1 + slope),
    the root lies in the first segment whose right end p = a / w has
    ``const - slope * p <= p``, i.e. ``c * w <= k * a``, and there S = c / k.
    """
    c, k = base, one
    lcm = math.lcm(*[w for w, _, _ in tracked])
    steps = []  # (sort key, a, w, change of k, change of c), a breakpoint a / w
    for w, lo, hi in tracked:
        m = lcm // w
        if hi is None:
            k += w
        else:
            c += hi
            steps.append((-hi * m, -hi, w, w, -hi))
        steps.append((-lo * m, -lo, w, -w, lo))
    steps.sort()
    for _, a, w, d_k, d_c in steps:
        if c * w <= k * a:
            break
        k += d_k
        c += d_c
    return c, k


def integrate_transient(
    ts: TransientScenario, horizon: Optional[Number] = None
) -> TransientTrajectories:
    """Exact breakpoint-to-breakpoint solution of the threshold/queue dynamics.

    Thresholds are ``omega * (B - Q_total)``.  Between regime changes every
    queue is in one of three regimes: above its threshold it drains at
    gamma; at its threshold it tracks the threshold's rate clamped to
    [-gamma, fill - gamma]; below it, new and rate-limited old queues fill
    at their fill rate.  Every old queue starts at or above its threshold
    (``OldQueue`` refuses omega_before < omega), and a backlogged one never
    falls below it.  All rates are then constant and the thresholds linear
    in t, so each step solves the total rate once and jumps to the next
    instant at which a closing gap reaches zero.

    The solve runs in ints.  ``_over_lcm`` writes r and every queue's
    pre-transient omega, omega, gamma and fill rate as V / E (omega_i =
    W_i / E), and each length is an int L_i over one running denominator
    D, reduced by one gcd per breakpoint.  With rho = B*D - sum L, the
    remaining space is rho / D, so

        threshold_i = W_i * rho / (E*D),   gap_i = (E*L_i - W_i*rho) / (E*D).

    Each step walks the queues twice.  Pass 1 takes each gap's numerator
    g_i = E*L_i - W_i*rho and the fixed rate of a queue off its threshold
    (drain -G_i above, fill cap C_i below); ``_solve_total_rate`` solves
    the total rate S = c / k over those and the clamps of the queues on it,
    all ints over E.  Pass 2 makes each rate an int v_i over E*k, a fixed
    one scaled by k and a tracked one min(max(-W_i*c, -G_i*k), C_i*k); the
    gap moves at rate_i + omega_i*S = s_i / (E*k), s_i = v_i + W_i*c, and
    closes when s_i and g_i differ in sign, hitting zero after

        dt_i = (|g_i| / (E*D)) / (|s_i| / (E*k)) = k * |g_i| / (D * |s_i|).

    Pass 2 keeps the smallest |g_i| / |s_i| (compared by cross-multiplying)
    as the next breakpoint; a new queue crosses there when its ratio equals
    it.  A step dt = k*u / (D*w) takes each length to (L_i*E*w + v_i*u) /
    (E*D*w): u, w = |g_i|, |s_i| at a hit, and u / w = (end - t) * D / k at
    the horizon.  The loop builds no Fraction: the record it returns builds
    each from the rows and crossings it keeps as ints.

    Without a ``horizon`` the solve stops at the last new queue's first
    crossing, or as soon as no gap is closing; with one it runs to the
    horizon, which must be a finite number >= 0.
    """
    if horizon is not None and not 0 <= horizon < math.inf:
        raise ValueError(f"horizon must be None or a finite number >= 0, got {horizon!r}")
    if horizon is not None:
        en, ed = as_fraction(horizon).as_integer_ratio()  # the horizon is en / ed
    old, new = ts.old, ts.new
    n_old, n_new = len(old), len(new)
    # each value read once, at a fixed stride: r, (initial share, omega, gamma) per
    # old queue, (omega, gamma) per new one, then the rate-limited old queues' fill
    # rates; a new queue starts at 0 and fills at r, a backlogged old one has no cap
    values, fills, limited = [ts.r], [], []
    for i, q in enumerate(old):
        omega, before, fill = q.omega, q.omega_before, q.fill_rate
        values += (omega if before is None else before, omega, q.gamma)
        if fill is not None:
            fills.append(fill)
            limited.append(i)
    for q in new:
        values += (q.omega, q.gamma)
    e, ints = _over_lcm(values + fills)
    new_at, fill_at = 1 + 3 * n_old, 1 + 3 * n_old + 2 * n_new
    pre = ints[1:new_at:3]
    weights = ints[2:new_at:3] + ints[new_at:fill_at:2]
    drain = [-g for g in ints[3:new_at:3] + ints[new_at + 1:fill_at:2]]
    cap = [None] * n_old + [ints[0] + lo for lo in drain[n_old:]]
    for i, fill in zip(limited, ints[fill_at:]):
        cap[i] = fill + drain[i]
    b = ts.buffer_size

    # the steady share B / (1 + W_old) = B*E / (E + sum pre), so L_i = pre_i * B
    d = e + sum(pre)
    lengths = [p * b for p in pre] + [0] * n_new

    crossing: dict[int, tuple[int, int]] = {}  # entry index of a new queue -> first crossing
    rows: list[tuple] = []  # (t numerator, t denominator, D, rho, lengths) per breakpoint
    tn, td = 0, 1
    while True:
        rho = b * d - sum(lengths)
        rows.append((tn, td, d, rho, lengths))
        if (len(crossing) == n_new if horizon is None else en * td <= tn * ed):
            break
        g = math.gcd(d, *lengths)  # then rho is a multiple of g too
        if g > 1:
            d, rho = d // g, rho // g
            lengths = [x // g for x in lengths]

        # pass 1: each gap numerator g_i and fixed rate, None on the threshold
        gaps, clamps, base = [], [], 0
        for x, wi, lo, hi in zip(lengths, weights, drain, cap):
            gap = e * x - wi * rho
            v = lo if gap > 0 else hi if gap < 0 else None
            gaps.append((gap, v))
            if v is None:
                clamps.append((wi, lo, hi))
            else:
                base += v
        c, k = _solve_total_rate(e, base, clamps)

        # pass 2: each rate v_i over E*k, and the closing gaps' smallest
        # |g_i| / |s_i| as u / w (w = 0 while no gap is closing)
        rates, closing = [], []
        u = w = 0
        for i, ((gap, v), wi, lo, hi) in enumerate(zip(gaps, weights, drain, cap)):
            if v is None:
                v = max(-wi * c, lo * k)
                if hi is not None:
                    v = min(v, hi * k)
            else:
                v *= k
            rates.append(v)
            slope = v + wi * c
            if gap > 0 > slope or gap < 0 < slope:
                gap, slope = abs(gap), abs(slope)
                closing.append((i, gap, slope))
                if not w or gap * w < u * slope:
                    u, w = gap, slope
        if w:  # t + k*u / (D*w)
            next_n, next_d = tn * d * w + k * u * td, td * d * w
        if horizon is not None and (not w or en * next_d < next_n * ed):
            u, w = (en * td - tn * ed) * d, ed * td * k
            tn, td = en, ed
        elif not w:
            break
        else:
            g = math.gcd(next_n, next_d)
            tn, td = next_n // g, next_d // g
            for i, gap, slope in closing:
                if i >= n_old and i not in crossing and gap * w == u * slope:
                    crossing[i] = (tn, td)

        ew = e * w
        lengths = [x * ew + v * u for x, v in zip(lengths, rates)]
        d *= ew

    return TransientTrajectories([q.queue for q in (*old, *new)], n_old, weights, e, rows,
                                 crossing)


def integrate_first_crossing(ts: TransientScenario) -> tuple[float, float]:
    """Earliest crossing time from the exact solver, as (t1, resolution).

    The solver has no step, so the resolution is 0; the pair keeps the
    shape of the old fixed-step tolerance ``max(2*resolution, 1e-3*t1)``.
    Criterion 06 compares the two routes' Fractions for equality, so the
    benchmark is its only caller outside its own tests: the package does not
    export it, and ``bench/cases.py`` and ``bench/spans.py`` reach it as
    ``fbsim.fluid.integrate_first_crossing``.
    """
    return float(integrate_transient(ts).t1), 0.0


# ---------------------------------------------------------------------------
# burst-absorption curves
# ---------------------------------------------------------------------------

CURVE_COLUMNS = ("scheme", "r", "n_low_queues", "case", "t1", "burst_tolerance")


@dataclass(frozen=True)
class CurvePoint:
    scheme: str
    r: Fraction
    n_low_queues: int
    case: CaseKind
    t1: Value
    burst: Value


def burst_absorption_curve(
    buffer_size: Number,
    alpha_low: Number,
    alpha_high: Number,
    r_values: Iterable[Number],
    low_queue_counts: Iterable[int],
    scheme: str = "fb",
) -> list[CurvePoint]:
    """Burst tolerance over (rate, pre-occupied low-queue count) grids.

    Each point classifies the scenario's case and evaluates r * t1.  Under
    FB the single-low-queue state is the pointwise lower bound of the
    family; under DT the family is unbounded in both directions.
    """
    rates = tuple(r_values)  # read once: every count walks the same rates
    points: list[CurvePoint] = []
    for count in map(as_whole, low_queue_counts):
        if count < 1:
            raise ValueError("low-queue count must be >= 1")
        # the queues depend on the count only; each rate reuses them
        shape = two_priority_incast(
            buffer_size, alpha_low, alpha_high, 1, n_low_ports=count, scheme=scheme
        )
        for r in rates:
            ts = TransientScenario(shape.buffer_size, shape.old, shape.new, r)
            cf = _closed_form(ts)
            points.append(CurvePoint(scheme, ts.r, count, cf.case, cf.t1, cf.burst))
    return points


def curve_to_csv(points: Sequence[CurvePoint], path) -> None:
    """Write curve points as CSV with the documented header row."""
    write_table(path, CURVE_COLUMNS, (
        jsonable([p.scheme, p.r, p.n_low_queues, p.case, p.t1, p.burst]) for p in points
    ))
