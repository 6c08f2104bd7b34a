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

Between regime changes every queue drains, tracks or fills at a constant
rate, so the transient trajectory is piecewise linear.  The event-driven
solver (``integrate_transient``) follows it from breakpoint to breakpoint
and is the closed forms' independent cross-check.  Both are exact: the
closed forms on Fraction, summing through ``_fsum``, the solver on the
private rational ``_Q``, summing through ``_qsum``, so the two routes share
no arithmetic.  The solver returns its first crossings as
Fractions and builds the Fraction series from its breakpoints when read.

The value types convert their fields through ``core.convert_fields``: every
weight, drain, fill rate and ``r`` becomes a Fraction, and a transient
scenario's buffer a whole int (``60.0`` is 60; ``60.5`` is refused), so both
routes see exact numbers only.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction
from functools import cached_property
from operator import itemgetter
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


def _fsum(values: Iterable[Fraction]) -> Fraction:
    """The closed forms' exact sum, ``sum(values, Fraction(0))`` with one
    normalization: the numerators are accumulated as ints over a running
    common denominator in one pass, and Fraction reduces the result once."""
    n, d = 0, 1
    for v in values:
        vd = v.denominator
        if vd == d:
            n += v.numerator
        else:
            n = n * vd + v.numerator * d
            d *= vd
    return Fraction(n, d)


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
    Fraction, so every result is exact."""
    weights = {q: as_fraction(w) for q, w in omegas.items()}
    if any(w <= 0 for w in weights.values()):
        raise ValueError("all omegas must be > 0 for congested queues")
    b = as_fraction(buffer_size)
    w_total = _fsum(weights.values())
    share = b / (1 + w_total)
    return AnalysisResult(
        steady_occupancy=b * w_total / (1 + w_total),
        steady_remaining=share,
        steady_thresholds={q: w * share for q, w in weights.items()},
    )


# ---------------------------------------------------------------------------
# transient scenarios
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OldQueue:
    """A pre-existing congested queue.

    ``omega`` is the weight during the transient; ``omega_before`` the weight
    in the preceding steady state (defaults to ``omega``; a smaller pre/post
    difference marks the queue as omega-affected, i.e. a member of G_e).
    ``fill_rate`` is the queue's own arrival rate for the solver; None
    means fully backlogged (it can always refill up to its threshold).
    """

    queue: QueueId
    omega: Fraction
    gamma: Fraction
    omega_before: Optional[Fraction] = None
    fill_rate: Optional[Fraction] = None

    def __post_init__(self) -> None:
        convert_fields(self, as_fraction, "omega", "gamma", "omega_before", "fill_rate")
        if self.omega <= 0 or not 0 < self.gamma <= 1:
            raise ValueError(f"{self.queue}: need omega > 0 and gamma in (0,1]")

    @property
    def pre_omega(self) -> Fraction:
        return self.omega if self.omega_before is None else self.omega_before

    @property
    def affected(self) -> bool:
        """True when the new queues changed this queue's omega (G_e member)."""
        return self.omega_before is not None and self.omega_before != self.omega


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
        convert_fields(self, as_fraction, "omega", "gamma", "factor")
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
        convert_fields(self, as_whole, "buffer_size")
        convert_fields(self, as_fraction, "r")
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
    priority 0, new queues priority 1.
    """
    if n_low_ports < 0 or low_queues_per_port < 1 or n_new < 1:
        raise ValueError(
            "need n_low_ports >= 0, low_queues_per_port >= 1 and n_new >= 1"
        )
    if scheme not in ("fb", "dt"):
        raise ValueError(f"unknown scheme {scheme!r}")
    m = low_queues_per_port
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


@dataclass(frozen=True)
class _ClosedForm:
    """What ``_closed_form`` returns."""

    case: CaseKind
    rate_bound: Value  # r*, +inf without old queues
    fill: Fraction  # Q'
    w_old: Fraction  # the old queues' pre-transient omega sum
    t1_per_queue: dict[QueueId, Value]
    t1: Value  # the earliest t1
    burst: Value  # r * t1
    # r*'s terms that alpha_bounds_general inverts for its boundary alpha_L
    first: Fraction
    g_star: Fraction  # G*
    ne_empty: bool  # G_ne is empty


def _closed_form(ts: TransientScenario) -> _ClosedForm:
    """The one closed-form evaluation.  One pass splits the old queues into
    G_e and G_ne; then each of the six sums (W_old, W_e, W_ne and the G_e,
    G_ne and new-queue drains) is taken once, through ``_fsum``.

    Case-1 holds while r <= r* = first + G* * (1 + W_ne) / (W* * n_new),
    with first = (new gammas + G_e drain) / n_new and G*, W* the gamma and
    omega sums of G_ne (of G_e when G_ne is empty); r* is +inf without old
    queues.  The new queues add F = sum(r - gamma).  In Case-2 every old
    queue drains, so Q' = F - NUM (NUM: all old drain, the congested port
    count).  In Case-1 only G_e drains, while each unaffected queue tracks
    omega * (B - Q) and so sheds omega * Q': Q' = (F - G_e_drain) / (1 + W_ne).
    The module's t1 (+inf when the closing speed is <= 0) then gives the
    paper's Case-1 form
    omega*B*(1+W_ne) / ((1+W_old) * ((r-gamma)*(1+W_ne) + omega*(F - G_e_drain)))
    and its Case-2 form omega*B / ((1+W_old) * ((r-gamma) + omega*(F - NUM))),
    which agree at the case boundary.

    The aggregate bound assumes the unaffected old queues share one
    gamma/omega ratio, as every symmetric scenario built here does.  Outside
    that assumption t1 can be wrong: on 300 random scenarios with unequal
    ratios (2-4 old queues, omega in [1/4, 3], gamma in {1, 1/2, 1/3}, r in
    [1.1, 8], B in 50-200, seed 3) it differs from the exact solver by more
    than 1% in 57, by up to 32%.
    """
    if not ts.new:
        raise ValueError("scenario has no new queues, nothing transient to classify")
    n_new = len(ts.new)
    old_e, old_ne = [], []  # G_e and G_ne
    for q in ts.old:
        (old_e if q.affected else old_ne).append(q)
    w_old = _fsum([q.pre_omega for q in ts.old])
    w_e, drain_e = _fsum([q.omega for q in old_e]), _fsum([q.gamma for q in old_e])
    w_ne, drain_ne = _fsum([q.omega for q in old_ne]), _fsum([q.gamma for q in old_ne])
    drain_new = _fsum([q.gamma for q in ts.new])
    first = (drain_new + drain_e) / n_new
    ne_empty = w_ne == 0  # every omega is > 0
    g_star, w_star = (drain_e, w_e) if ne_empty else (drain_ne, w_ne)
    rate_bound = first + g_star * (1 + w_ne) / (w_star * n_new) if ts.old else math.inf
    case = CaseKind.CASE1 if ts.r <= rate_bound else CaseKind.CASE2

    net_fill = n_new * ts.r - drain_new  # F
    fill = ((net_fill - drain_e) / (1 + w_ne) if case is CaseKind.CASE1
            else net_fill - drain_e - drain_ne)
    gap = ts.buffer_size / (1 + w_old)
    per_queue: dict[QueueId, Value] = {}
    for q in ts.new:
        speed = (ts.r - q.gamma) + q.omega * fill
        per_queue[q.queue] = q.omega * gap / speed if speed > 0 else math.inf
    t1 = min(per_queue.values())
    burst = math.inf if t1 == math.inf else ts.r * t1
    return _ClosedForm(case, rate_bound, fill, w_old, per_queue, t1, burst, first, g_star, ne_empty)


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


def alpha_L_for_zero_transient(r: Number, num_congested_ports: int = 1) -> Bound:
    """Largest low-priority alpha guaranteeing zero transient losses for a
    burst of rate r, given at least ``num_congested_ports`` congested ports:
    alpha_L <= 1 / (r - (NUM + 1)).  Unconstrained when r <= NUM + 1.
    """
    rf = as_fraction(r)
    if rf <= 0:
        raise ValueError("r must be > 0")
    if num_congested_ports < 1:
        raise ValueError("NUM must be >= 1")
    denom = rf - (num_congested_ports + 1)
    if denom <= 0:
        return UNCONSTRAINED
    return 1 / denom


def alpha_L_for_burst(buffer_size: Number, r: Number, t: Number) -> Bound:
    """Largest low-priority alpha allowing a worst-case (r, t) burst through:
    alpha_L <= B / ((r-2)*t) - 1.  Unconstrained for r <= 2; infeasible when
    the bound is not positive."""
    b, rf, tf = as_fraction(buffer_size), as_fraction(r), as_fraction(t)
    if b <= 0 or tf <= 0:
        raise ValueError("need B > 0 and t > 0")
    if rf <= 2:
        return UNCONSTRAINED
    bound = b / ((rf - 2) * tf) - 1
    return bound if bound > 0 else INFEASIBLE


def alpha_H_for_burst(buffer_size: Number, r: Number, t: Number, alpha_L: Number) -> Bound:
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
    if inner <= 0:
        return INFEASIBLE
    return 1 / inner


def multi_priority_alpha_H(
    lower_priority_alpha_maxes: Sequence[Number],
    buffer_size: Number,
    r: Number,
    t: Number,
) -> Bound:
    """Highest-priority alpha bound with several lower priorities: their
    alpha maxima simply sum into the alpha_L slot."""
    if not lower_priority_alpha_maxes:
        raise ValueError("need at least one lower-priority alpha")
    alpha_x = _fsum([as_fraction(a) for a in lower_priority_alpha_maxes])
    return alpha_H_for_burst(buffer_size, r, t, alpha_x)


@dataclass(frozen=True)
class GeneralAlphaBounds:
    """Scenario-shaped alpha bounds.

    ``alpha_L_case_bound`` is the low-priority weight sum at the Case-1/
    Case-2 boundary (the scenario stays Case-1 at or below it -- relation
    '<=' -- and is Case-2 above it -- relation '>').
    ``alpha_L_max_for_burst`` is the feasibility frontier as alpha_H grows
    without bound (the duration-aware alpha_L limit).
    ``alpha_H_min`` inverts t <= t1 for the scenario's case: the largest
    t * (r-gamma_q) * (1+W_old) / (B - t * (1+W_old) * Q') / factor_q over
    the new queues q (omega_q = alpha_H * factor_q), so no new queue
    crosses before t.
    """

    case: CaseKind
    alpha_L_case_bound: Bound
    alpha_L_relation: str
    alpha_L_max_for_burst: Bound
    alpha_H_min: Bound


def alpha_bounds_general(ts: TransientScenario, t: Number) -> GeneralAlphaBounds:
    """Generalized alpha bounds for an arbitrary transient scenario.

    On the canonical worst case (one congested low port, one new queue with
    factor 1 and gamma 1, Case-2 rate) these reduce exactly to the
    two-priority closed forms of alpha_L_for_burst / alpha_H_for_burst.
    """
    tf = as_fraction(t)
    if tf <= 0:
        raise ValueError("t must be > 0")
    cf = _closed_form(ts)
    case, fill, w_old = cf.case, cf.fill, cf.w_old

    # case-boundary alpha_L, unconstrained without old queues: solve r = r*
    # for W*, which is W_ne when G_ne is not empty and leaves W_ne = 0 otherwise
    inner = (len(ts.new) / cf.g_star * (ts.r - cf.first) - (0 if cf.ne_empty else 1)
             if ts.old else 0)
    boundary: Bound = 1 / inner if inner > 0 else UNCONSTRAINED

    denom = ts.buffer_size - tf * (1 + w_old) * fill
    alpha_h: Bound = max(
        tf * (ts.r - q.gamma) * (1 + w_old) / denom / q.factor for q in ts.new
    ) if denom > 0 else INFEASIBLE
    # the alpha_L frontier: Case-2 solves denom > 0 for W_old = alpha_L,
    # Case-1 keeps only the sign of denom
    if case is CaseKind.CASE1:
        frontier: Bound = UNCONSTRAINED if denom > 0 else INFEASIBLE
    elif fill <= 0:
        frontier = UNCONSTRAINED
    else:
        limit = ts.buffer_size / (tf * fill) - 1
        frontier = limit if limit > 0 else INFEASIBLE

    return GeneralAlphaBounds(
        case=case,
        alpha_L_case_bound=boundary,
        alpha_L_relation="<=" if case is CaseKind.CASE1 else ">",
        alpha_L_max_for_burst=frontier,
        alpha_H_min=alpha_h,
    )


# ---------------------------------------------------------------------------
# exact event-driven solver (independent oracle)
# ---------------------------------------------------------------------------


# the _Q operators' two calls, bound once as module names
_gcd = math.gcd
_new = object.__new__


class _Q:
    """The solver's exact rational: a reduced int numerator over a positive
    int denominator, with only what the solver uses (``+ - * /``, unary minus,
    ``< <= ==`` between _Q values; the sign is the numerator's) and none of
    Fraction's operator dispatch.  ``_Q(x)`` converts an int or a Fraction;
    ``_Q(n, d)`` takes Fraction's constructor shape, ints with d != 0, and
    reduces them once.

    Each operator computes its result and reduces it by one gcd inline.
    ``+`` and ``-`` skip the cross products when the denominators are equal,
    and unary minus copies the pair, which is already reduced.
    """

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator: Union[int, Fraction], denominator: Optional[int] = None) -> None:
        if denominator is None:
            self.numerator, self.denominator = numerator.numerator, numerator.denominator
            return
        if denominator == 0:
            raise ZeroDivisionError("division by zero")
        g = _gcd(numerator, denominator)
        if denominator < 0:
            g = -g
        self.numerator, self.denominator = numerator // g, denominator // g

    def __add__(self, other: _Q) -> _Q:
        d, od = self.denominator, other.denominator
        if d == od:
            n = self.numerator + other.numerator
        else:
            n = self.numerator * od + other.numerator * d
            d *= od
        g = _gcd(n, d)
        q = _new(_Q)
        q.numerator, q.denominator = n // g, d // g
        return q

    def __sub__(self, other: _Q) -> _Q:
        d, od = self.denominator, other.denominator
        if d == od:
            n = self.numerator - other.numerator
        else:
            n = self.numerator * od - other.numerator * d
            d *= od
        g = _gcd(n, d)
        q = _new(_Q)
        q.numerator, q.denominator = n // g, d // g
        return q

    def __mul__(self, other: _Q) -> _Q:
        n = self.numerator * other.numerator
        d = self.denominator * other.denominator
        g = _gcd(n, d)
        q = _new(_Q)
        q.numerator, q.denominator = n // g, d // g
        return q

    def __truediv__(self, other: _Q) -> _Q:
        n = self.numerator * other.denominator
        d = self.denominator * other.numerator
        if d <= 0:
            if d == 0:
                raise ZeroDivisionError("division by zero")
            n, d = -n, -d
        g = _gcd(n, d)
        q = _new(_Q)
        q.numerator, q.denominator = n // g, d // g
        return q

    def __neg__(self) -> _Q:
        q = _new(_Q)
        q.numerator, q.denominator = -self.numerator, self.denominator
        return q

    def __lt__(self, other: _Q) -> bool:
        return self.numerator * other.denominator < other.numerator * self.denominator

    def __le__(self, other: _Q) -> bool:
        return self.numerator * other.denominator <= other.numerator * self.denominator

    def __eq__(self, other: _Q) -> bool:
        return self.numerator == other.numerator and self.denominator == other.denominator


#: The solver's number type, chosen in this one place: a test sets it to
#: Fraction to run the very same solver as its reference.
_EXACT = _Q


def _qsum(values: Iterable) -> _Q:
    """The solver's exact sum of ``_EXACT`` values: the numerators are
    accumulated as ints over a running common denominator in one pass, and
    the result is reduced once, by the ``_EXACT`` constructor."""
    n, d = 0, 1
    for v in values:
        vd = v.denominator
        if vd == d:
            n += v.numerator
        else:
            n = n * vd + v.numerator * d
            d *= vd
    return _EXACT(n, d)


def _fraction(v: _Q) -> Fraction:
    return Fraction(v.numerator, v.denominator)


class TransientTrajectories:
    """The exact fluid trajectory at its breakpoints.

    Between consecutive ``times`` every length and threshold is linear in t,
    so the series pin the whole piecewise-linear trajectory.
    ``first_crossing`` holds each new queue's first fill-to-threshold hit
    (+inf when it never happens).  Every finite value is a Fraction.  The
    solver keeps one ``(t, lengths, thresholds)`` row per breakpoint;
    ``times``, ``lengths`` and ``thresholds`` are built from those rows on
    first read, so a caller that reads only ``first_crossing`` never pays
    for them.
    """

    def __init__(self, queues: Sequence[QueueId], rows: list[tuple],
                 first_crossing: dict[QueueId, Value]) -> None:
        self.first_crossing = first_crossing
        self._queues = queues
        self._rows = rows

    @cached_property
    def times(self) -> list[Fraction]:
        return [_fraction(row[0]) for row in self._rows]

    @cached_property
    def lengths(self) -> dict[QueueId, list[Fraction]]:
        return self._series(1)

    @cached_property
    def thresholds(self) -> dict[QueueId, list[Fraction]]:
        return self._series(2)

    def _series(self, column: int) -> dict[QueueId, list[Fraction]]:
        per_queue = zip(*(row[column] for row in self._rows))
        return {q: [_fraction(v) for v in values] for q, values in zip(self._queues, per_queue)}


def _solve_total_rate(base, tracked: list[tuple]):
    """Solve S = base + sum_i clamp(-omega_i*S, lo_i, hi_i); a bound of None
    leaves that side unbounded.

    The right side is piecewise linear and non-increasing in S, so the root
    is unique.  Sweep the sorted clamp breakpoints from S = -inf, where every
    finite ``hi`` applies and every unbounded one is linear, keeping the
    segment's right side as ``const - slope * S``; the root lies in the
    first segment whose right end p has ``const - slope * p <= p``.  The
    arithmetic keeps the exact type of its inputs (``_Q`` in the solver).
    """
    const = base
    scale = type(base)(1)  # 1 + slope
    steps = []  # (breakpoint, slope change, const change), as S increases
    for omega, lo, hi in tracked:
        if hi is None:
            scale += omega
        else:
            const += hi
            steps.append((-hi / omega, omega, -hi))
        if lo is not None:
            steps.append((-lo / omega, -omega, lo))
    steps.sort(key=itemgetter(0))
    for p, d_slope, d_const in steps:
        if const <= scale * p:
            break
        scale += d_slope
        const += d_const
    return const / scale


def integrate_transient(
    ts: TransientScenario, horizon: Optional[Number] = None
) -> TransientTrajectories:
    """Exact breakpoint-to-breakpoint solution of the threshold/queue dynamics.

    Thresholds are ``omega * (B - Q_total)``.  Between regime changes every
    queue is in one of three regimes: above its threshold it drains at
    gamma; at its threshold it tracks the threshold's rate clamped to
    [-gamma, fill - gamma]; below it, new and rate-limited old queues fill
    at their fill rate.  Backlogged old queues (no ``fill_rate``) below
    their thresholds snap up to them at t = 0 and never fall below again.
    All rates are then constant and the thresholds linear in t, so each
    pass solves the total rate once and jumps to the next instant at which
    a closing gap reaches zero.

    The solve runs on ``_EXACT`` (``_Q``), converting the scenario once on
    entry.  Each sum over the queues (the pre-transient weights, the lengths
    at every breakpoint, the fixed rates) is one ``_qsum``, and omega_i * S
    is computed once per breakpoint for both the clamp and the slope.  It
    keeps one row of lengths and thresholds per breakpoint and returns the
    first crossings as Fractions; the series are converted to Fraction when
    first read.  The values are exactly those of the same solve on Fraction.

    Without a ``horizon`` the solve stops at the last new queue's first
    crossing, or as soon as no gap is closing; with one it runs to the
    horizon, which must be a finite number >= 0.
    """
    if horizon is not None and not 0 <= horizon < math.inf:
        raise ValueError(f"horizon must be None or a finite number >= 0, got {horizon!r}")
    num = _EXACT
    zero = num(0)
    b = num(ts.buffer_size)
    end = None if horizon is None else num(as_fraction(horizon))
    entries = (*ts.old, *ts.new)
    n_old = len(ts.old)
    omega = [num(q.omega) for q in entries]
    drain = [-num(q.gamma) for q in entries]  # the rate above the threshold
    r = num(ts.r)
    fill_cap = [None if q.fill_rate is None else num(q.fill_rate) + drain[i]
                for i, q in enumerate(ts.old)] + [r + v for v in drain[n_old:]]
    backlogged = [i for i in range(n_old) if fill_cap[i] is None]

    pre = [num(q.pre_omega) for q in ts.old]
    share = b / (_qsum(pre) + num(1))
    lengths = [w * share for w in pre] + [zero] * len(ts.new)
    remaining = b - _qsum(lengths)
    if any(lengths[i] < omega[i] * remaining for i in backlogged):
        # backlogged old queues below their thresholds fill up to them at
        # once; the thresholds fall as they fill, so solve for the remaining
        # space R in R = B - Q_others - sum_i max(L_i, omega_i * R)
        others = _qsum(lengths[i] for i in range(len(entries)) if i not in backlogged)
        remaining = _solve_total_rate(
            b - others, [(omega[i], None, -lengths[i]) for i in backlogged]
        )
        for i in backlogged:
            lengths[i] = max(lengths[i], omega[i] * remaining)

    crossing: dict[int, _Q] = {}  # entry index of a new queue -> first crossing
    rows: list[tuple] = []  # (t, lengths, thresholds) per breakpoint

    t = zero
    while True:
        remaining = b - _qsum(lengths)
        thr = [w * remaining for w in omega]
        rows.append((t, lengths, thr))
        if (len(crossing) == len(ts.new) and end is None) or (end is not None and end <= t):
            break

        gaps = [lengths[i] - thr[i] for i in range(len(entries))]
        # drain and fill rates are fixed; tracked queues (None) follow S
        rates = [drain[i] if gap.numerator > 0 else fill_cap[i] if gap.numerator < 0 else None
                 for i, gap in enumerate(gaps)]
        s_total = _solve_total_rate(
            _qsum(v for v in rates if v is not None),
            [(omega[i], drain[i], fill_cap[i]) for i, v in enumerate(rates) if v is None],
        )
        shed = [w * s_total for w in omega]  # omega_i * S, for the clamp and the slope
        for i, v in enumerate(rates):
            if v is None:  # clamp(-omega * S, -gamma, fill cap)
                v = max(-shed[i], drain[i])
                rates[i] = v if fill_cap[i] is None else min(v, fill_cap[i])

        # gap_i changes at rate_i + omega_i * S; it closes when that slope
        # has the opposite sign of the gap
        hits = {}
        for i, gap in enumerate(gaps):
            slope = rates[i] + shed[i]
            if gap.numerator * slope.numerator < 0:
                hits[i] = -gap / slope
        dt = min(hits.values(), default=None)
        if end is not None and (dt is None or end < t + dt):
            dt = end - t
        elif dt is None:
            break

        # a new list, so the row just kept stays as it was
        lengths = [q + v * dt for q, v in zip(lengths, rates)]
        t += dt
        for i, hit in hits.items():
            if hit == dt and i >= n_old and i not in crossing:
                crossing[i] = t

    return TransientTrajectories(
        [q.queue for q in entries], rows,
        {q.queue: _fraction(crossing[i]) if i in crossing else math.inf
         for i, q in enumerate(ts.new, n_old)},
    )


def integrate_first_crossing(ts: TransientScenario) -> tuple[float, float]:
    """Earliest crossing time from the exact solver, as (t1, resolution).

    The solver has no step, so the resolution is 0; the pair keeps the
    shape of the old fixed-step tolerance ``max(2*resolution, 1e-3*t1)``.
    Criterion 06 compares the two routes' Fractions for equality, so the
    benchmark is its only caller outside its own tests: the package does not
    export it, and ``bench/cases.py`` and ``bench/spans.py`` reach it as
    ``fbsim.fluid.integrate_first_crossing``.
    """
    t1 = min(integrate_transient(ts).first_crossing.values())
    return float(t1), 0.0


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
    for count in low_queue_counts:
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
