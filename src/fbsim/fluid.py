"""Fluid-model analysis of threshold-managed shared buffers.

Everything here works on the weight ``omega = alpha * factor`` of a queue.
Under FB the factor is ``beta * gamma`` (``fb_factors``), where ``beta`` is
the inverse congested-queue count of the queue's priority group and
``gamma`` its per-port-normalized dequeue rate.  Under plain Dynamic
Thresholds the factor is 1 (``omega = alpha``), while ``gamma`` stays the
queue's drain rate, so one machinery covers both schemes.

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
closed forms on Fraction, the solver on the private rational ``_Q``, so the
two routes share no arithmetic.  The solver returns its first crossings as
Fractions and builds the Fraction series from its breakpoints when read.
"""

from __future__ import annotations

import csv
import math
from collections import Counter
from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction
from functools import cached_property
from operator import itemgetter
from typing import Iterable, Mapping, Optional, Sequence, Union

from .core import QueueId

Number = Union[int, float, Fraction]
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


def _frac(x: Number) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


# ---------------------------------------------------------------------------
# omega vectors and steady state
# ---------------------------------------------------------------------------


def fb_factors(queues: Mapping[QueueId, tuple[int, Number]]) -> dict[QueueId, Fraction]:
    """FB's weight factor beta * gamma per queue, from {queue: (priority_id,
    gamma)}; DT's factor is 1.

    All listed queues are taken as congested, so beta for a priority is
    1 / (number of listed queues of that priority).
    """
    counts = Counter(prio for prio, _ in queues.values())
    return {q: Fraction(1, counts[prio]) * _frac(gamma) for q, (prio, gamma) in queues.items()}


@dataclass(frozen=True)
class OmegaVector:
    """Per-queue weights omega = alpha * factor."""

    entries: Mapping[QueueId, Fraction]

    def total(self) -> Fraction:
        return sum(self.entries.values(), Fraction(0))

    @staticmethod
    def for_dt(alphas: Mapping[QueueId, Number]) -> "OmegaVector":
        """DT's factor is 1: omega = alpha."""
        return OmegaVector({q: _frac(a) for q, a in alphas.items()})

    @staticmethod
    def for_fb(
        queues: Mapping[QueueId, tuple[Number, int, Number]],
    ) -> "OmegaVector":
        """Build FB omegas from {queue: (alpha, priority_id, gamma)}, all
        listed queues congested."""
        factors = fb_factors({q: (prio, gamma) for q, (_, prio, gamma) in queues.items()})
        return OmegaVector({q: _frac(queues[q][0]) * f for q, f in factors.items()})


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
    feasible: bool = True


def steady_state(omegas: OmegaVector, buffer_size: Number) -> AnalysisResult:
    """Steady-state occupancy, remaining space and per-queue thresholds."""
    if any(w <= 0 for w in omegas.entries.values()):
        raise ValueError("all omegas must be > 0 for congested queues")
    b = _frac(buffer_size)
    w_total = omegas.total()
    share = b / (1 + w_total)
    return AnalysisResult(
        steady_occupancy=b * w_total / (1 + w_total),
        steady_remaining=share,
        steady_thresholds={q: w * share for q, w in omegas.entries.items()},
    )


def occupancy_bound(priority_alpha_maxes: Sequence[Number], buffer_size: Number) -> Fraction:
    """Upper bound on total occupancy from the per-priority alpha maxima.

    Each priority group's omegas sum to at most its largest alpha, so
    occupancy never exceeds B * sum(alpha_max) / (1 + sum(alpha_max))
    regardless of how many queues are congested.
    """
    if not priority_alpha_maxes:
        raise ValueError("need at least one priority alpha")
    total = sum((_frac(a) for a in priority_alpha_maxes), Fraction(0))
    if total <= 0:
        raise ValueError("alpha maxima must be > 0")
    return _frac(buffer_size) * total / (1 + total)


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
        object.__setattr__(self, "omega", _frac(self.omega))
        object.__setattr__(self, "gamma", _frac(self.gamma))
        for name in ("omega_before", "fill_rate"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, _frac(getattr(self, name)))
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

    ``factor`` is the queue's weight factor omega / alpha: ``beta * gamma``
    under FB (``fb_factors``), 1 under DT.  It is kept beside ``omega`` so
    alpha bounds can be solved for; ``gamma`` is the drain rate under both.
    """

    queue: QueueId
    omega: Fraction
    gamma: Fraction
    factor: Fraction = Fraction(1)

    def __post_init__(self) -> None:
        object.__setattr__(self, "omega", _frac(self.omega))
        object.__setattr__(self, "gamma", _frac(self.gamma))
        object.__setattr__(self, "factor", _frac(self.factor))
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
        object.__setattr__(self, "r", _frac(self.r))
        if self.buffer_size < 1:
            raise ValueError("buffer_size must be >= 1")
        if self.r <= 0:
            raise ValueError("arrival rate r must be > 0")
        seen = set()
        for entry in (*self.old, *self.new):
            if entry.queue in seen:
                raise ValueError(f"duplicate queue {entry.queue}")
            seen.add(entry.queue)

    @property
    def g_e(self) -> tuple[OldQueue, ...]:
        return tuple(q for q in self.old if q.affected)

    @property
    def g_ne(self) -> tuple[OldQueue, ...]:
        return tuple(q for q in self.old if not q.affected)

    @property
    def num_congested_ports(self) -> Fraction:
        """NUM: the old queues' total drain, which sums to the congested
        port count when every congested port's queues are all in S_old."""
        return sum((q.gamma for q in self.old), Fraction(0))

    # sum shorthands used by the closed forms
    def _w_old_pre(self) -> Fraction:
        return sum((q.pre_omega for q in self.old), Fraction(0))

    def _w_ne(self) -> Fraction:
        return sum((q.omega for q in self.g_ne), Fraction(0))


def two_priority_incast(
    buffer_size: Number,
    alpha_low: Number,
    alpha_high: Number,
    r: Number,
    n_low_ports: int = 1,
    low_queues_per_port: int = 1,
    n_new: int = 1,
    scheme: str = "fb",
    new_gamma: Number = 1,
) -> TransientScenario:
    """Canonical burst scenario: low-priority queues congested, a high burst
    arrives on empty ports.

    Low queues occupy ``n_low_ports`` ports with ``low_queues_per_port``
    queues each (gamma = 1/m); the ``n_new`` new queues land on otherwise
    empty ports (gamma = ``new_gamma``) and form their own priority group.
    ``scheme`` selects FB weights (alpha * beta * gamma) or DT weights
    (omega = alpha).  Low queues form priority 0, new queues priority 1.
    """
    if n_low_ports < 0 or low_queues_per_port < 1 or n_new < 1:
        raise ValueError(
            "need n_low_ports >= 0, low_queues_per_port >= 1 and n_new >= 1"
        )
    if scheme not in ("fb", "dt"):
        raise ValueError(f"unknown scheme {scheme!r}")
    a_low, a_high, rf = _frac(alpha_low), _frac(alpha_high), _frac(r)
    m = low_queues_per_port
    n_low = n_low_ports * m
    gamma_low, g_new = Fraction(1, m), _frac(new_gamma)
    # queues sharing a port carry distinct class ids (one queue per
    # (port, class) pair)
    low = [QueueId(100 + i // m, _LOW_CLASS + i % m) for i in range(n_low)]
    high = [QueueId(i, _HIGH_CLASS) for i in range(n_new)]
    layout = {**dict.fromkeys(low, (0, gamma_low)), **dict.fromkeys(high, (1, g_new))}
    factor = fb_factors(layout) if scheme == "fb" else dict.fromkeys(layout, Fraction(1))
    return TransientScenario(
        int(buffer_size),
        tuple(OldQueue(q, omega=a_low * factor[q], gamma=gamma_low) for q in low),
        tuple(NewQueue(q, omega=a_high * factor[q], gamma=g_new, factor=factor[q]) for q in high),
        rf,
    )


# ---------------------------------------------------------------------------
# case classification and t1 closed forms
# ---------------------------------------------------------------------------


def _rate_bound_sums(ts: TransientScenario) -> tuple[Fraction, Fraction, Fraction]:
    """(first, G*, W*) of the Case-1 rate bound
    r* = first + G* * (1 + W_ne) / (W* * n_new), for a scenario with old
    queues: first = (new gammas + G_e gammas) / n_new, and G* and W* sum the
    gammas and omegas of G_ne, or of G_e when G_ne is empty."""
    g_e = ts.g_e
    first = (sum((q.gamma for q in ts.new), Fraction(0)) + sum((q.gamma for q in g_e), Fraction(0))) / len(ts.new)
    starred = ts.g_ne or g_e
    return first, sum((q.gamma for q in starred), Fraction(0)), sum((q.omega for q in starred), Fraction(0))


def case_rate_bound(ts: TransientScenario) -> Value:
    """The arrival rate at or below which unaffected old queues can track
    their thresholds (Case-1).  +inf when there are no old queues.

    The second term sums over G_ne, or over G_e when G_ne is empty.
    """
    if not ts.new:
        raise ValueError("scenario has no new queues, nothing transient to classify")
    if not ts.old:
        return math.inf
    first, g_star, w_star = _rate_bound_sums(ts)
    return first + g_star * (1 + ts._w_ne()) / (w_star * len(ts.new))


def classify_case(ts: TransientScenario) -> CaseKind:
    """Case-1 when r is at or below the tracking bound, Case-2 above.

    The closed forms read the case through ``_closed_form`` only.

    With no old queues at all, the scenario is Case-1 by definition (the
    new queues simply fill toward their thresholds).  The aggregate bound
    assumes the unaffected old queues share one gamma/omega ratio, which
    holds for all the symmetric scenarios built here.  Outside that
    assumption the closed-form t1 can be wrong: on 300 random scenarios
    with unequal old-queue ratios (2-4 old queues, omega in [1/4, 3], gamma
    in {1, 1/2, 1/3}, r in [1.1, 8], B in 50-200, seed 3) it differs from
    the exact solver by more than 1% in 57, by up to 32%.
    """
    return CaseKind.CASE1 if ts.r <= case_rate_bound(ts) else CaseKind.CASE2


def _fill_rate(ts: TransientScenario, case: CaseKind) -> Fraction:
    """Q', the rate at which the buffer fills while the new queues grow.

    The new queues add F = sum(r - gamma).  In Case-2 every old queue drains
    at gamma, so Q' = F - NUM.  In Case-1 the affected old queues (G_e)
    drain at gamma, while each unaffected one tracks omega * (B - Q) and so
    sheds omega * Q' itself: Q' = F - G_e_drain - W_ne * Q', that is
    Q' = (F - G_e_drain) / (1 + W_ne).  Dividing the paper's Case-1 t1
    through by (1 + W_ne) leaves exactly the Case-2 expression in this Q'.
    """
    fill = sum((ts.r - q.gamma for q in ts.new), Fraction(0))
    if case is CaseKind.CASE2:
        return fill - ts.num_congested_ports
    drain_e = sum((q.gamma for q in ts.g_e), Fraction(0))
    return (fill - drain_e) / (1 + ts._w_ne())


def _closed_form(ts: TransientScenario) -> tuple[CaseKind, Fraction, dict[QueueId, Value]]:
    """(case, Q', {new queue: t1}): the one closed-form evaluation.

    Each new queue's t1 is its starting gap omega * B / (1 + W_old) over its
    closing speed (r - gamma) + omega * Q'; +inf when that speed is <= 0.
    That is the paper's Case-1 form
    omega*B*(1+W_ne) / ((1+W_old) * ((r-gamma)*(1+W_ne) + omega*(F - G_e_drain)))
    and its Case-2 form omega*B / ((1+W_old) * ((r-gamma) + omega*(F - NUM))),
    where W_ne sums the unaffected old omegas, W_old the pre-transient old
    omegas, F the new queues' total net fill, G_e_drain the affected old
    queues' total drain and NUM all old queues' drain (their congested port
    count).  At the case boundary the two agree.
    """
    case = classify_case(ts)
    fill = _fill_rate(ts, case)
    gap = ts.buffer_size / (1 + ts._w_old_pre())
    t1: dict[QueueId, Value] = {}
    for q in ts.new:
        speed = (ts.r - q.gamma) + q.omega * fill
        t1[q.queue] = q.omega * gap / speed if speed > 0 else math.inf
    return case, fill, t1


def first_threshold_crossing(ts: TransientScenario) -> Value:
    """Earliest t1 over the new queues, using the scenario's case."""
    return min(_closed_form(ts)[2].values())


def analyze_transient(ts: TransientScenario) -> AnalysisResult:
    """Full closed-form analysis: eventual steady state, case, t1, tolerance."""
    omegas = OmegaVector(
        {**{q.queue: q.omega for q in ts.old}, **{q.queue: q.omega for q in ts.new}}
    )
    steady = steady_state(omegas, ts.buffer_size)
    case, _, per_queue = _closed_form(ts)
    t1 = min(per_queue.values())
    return replace(
        steady,
        case=case,
        t1=t1,
        t1_per_queue=per_queue,
        burst_tolerance=math.inf if t1 == math.inf else ts.r * t1,
        feasible=True,
    )


# ---------------------------------------------------------------------------
# alpha configuration bounds
# ---------------------------------------------------------------------------


def alpha_L_for_zero_transient(r: Number, num_congested_ports: int = 1) -> Bound:
    """Largest low-priority alpha guaranteeing zero transient losses for a
    burst of rate r, given at least ``num_congested_ports`` congested ports:
    alpha_L <= 1 / (r - (NUM + 1)).  Unconstrained when r <= NUM + 1.
    """
    rf = _frac(r)
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
    b, rf, tf = _frac(buffer_size), _frac(r), _frac(t)
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
    b, rf, tf, al = _frac(buffer_size), _frac(r), _frac(t), _frac(alpha_L)
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
    alpha_x = sum((_frac(a) for a in lower_priority_alpha_maxes), Fraction(0))
    return alpha_H_for_burst(buffer_size, r, t, alpha_x)


@dataclass(frozen=True)
class GeneralAlphaBounds:
    """Scenario-shaped alpha bounds.

    ``alpha_L_case_bound`` is the low-priority weight sum at the Case-1/
    Case-2 boundary (the scenario stays Case-1 at or below it -- relation
    '<=' -- and is Case-2 above it -- relation '>').
    ``alpha_L_max_for_burst`` is the feasibility frontier as alpha_H grows
    without bound (the duration-aware alpha_L limit).
    ``alpha_H_min`` inverts t <= t1 for the scenario's case:
    t * (r-gamma) * (1+W_old) / (B - t * (1+W_old) * Q') / factor, with the
    first new queue's weight factor (omega = alpha_H * factor).
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
    tf = _frac(t)
    if tf <= 0:
        raise ValueError("t must be > 0")
    case, fill, _ = _closed_form(ts)

    # case-boundary alpha_L: solve r = r* for the starred omega sum W*, which
    # is W_ne itself when G_ne is not empty and leaves W_ne = 0 otherwise
    if not ts.old:
        boundary: Bound = UNCONSTRAINED
    else:
        first, g_star, _ = _rate_bound_sums(ts)
        inner = len(ts.new) / g_star * (ts.r - first) - (1 if ts.g_ne else 0)
        boundary = 1 / inner if inner > 0 else UNCONSTRAINED

    w_old = ts._w_old_pre()
    target = ts.new[0]
    denom = ts.buffer_size - tf * (1 + w_old) * fill
    alpha_h: Bound = (
        tf * (ts.r - target.gamma) * (1 + w_old) / denom / target.factor if denom > 0 else INFEASIBLE
    )
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


class _Q:
    """The solver's exact rational: a reduced int numerator over a positive
    int denominator, with only what the solver uses (``+ - * /``, unary minus,
    ``< <= ==`` between _Q values; the sign is the numerator's) and none of
    Fraction's operator dispatch.  ``_Q(x)`` converts an int or a Fraction."""

    __slots__ = ("numerator", "denominator")

    def __init__(self, value: Union[int, Fraction]) -> None:
        self.numerator = value.numerator
        self.denominator = value.denominator

    def __add__(self, other: _Q) -> _Q:
        return _reduced(self.numerator * other.denominator + other.numerator * self.denominator,
                        self.denominator * other.denominator)

    def __sub__(self, other: _Q) -> _Q:
        return _reduced(self.numerator * other.denominator - other.numerator * self.denominator,
                        self.denominator * other.denominator)

    def __mul__(self, other: _Q) -> _Q:
        return _reduced(self.numerator * other.numerator, self.denominator * other.denominator)

    def __truediv__(self, other: _Q) -> _Q:
        n, d = self.numerator * other.denominator, self.denominator * other.numerator
        if d == 0:
            raise ZeroDivisionError("division by zero")
        return _reduced(n, d) if d > 0 else _reduced(-n, -d)

    def __neg__(self) -> _Q:
        return _reduced(-self.numerator, self.denominator)

    def __lt__(self, other: _Q) -> bool:
        return self.numerator * other.denominator < other.numerator * self.denominator

    def __le__(self, other: _Q) -> bool:
        return self.numerator * other.denominator <= other.numerator * self.denominator

    def __eq__(self, other: _Q) -> bool:
        return self.numerator == other.numerator and self.denominator == other.denominator


def _reduced(n: int, d: int) -> _Q:
    """The _Q n/d for d > 0, reduced by one gcd."""
    q = object.__new__(_Q)
    g = math.gcd(n, d)
    q.numerator, q.denominator = n // g, d // g
    return q


#: The solver's number type, chosen in this one place: a test sets it to
#: Fraction to run the very same solver as its reference.
_EXACT = _Q


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
    entry.  It keeps one row of lengths and thresholds per breakpoint and
    returns the first crossings as Fractions; the series are converted to
    Fraction when first read.  The values are exactly those of the same
    solve on Fraction.

    Without a ``horizon`` the solve stops at the last new queue's first
    crossing, or as soon as no gap is closing; with one it runs to the
    horizon, which must be a finite number >= 0.
    """
    if horizon is not None and not 0 <= horizon < math.inf:
        raise ValueError(f"horizon must be None or a finite number >= 0, got {horizon!r}")
    num = _EXACT
    zero = num(0)
    b = num(ts.buffer_size)
    end = None if horizon is None else num(_frac(horizon))
    entries = (*ts.old, *ts.new)
    n_old = len(ts.old)
    omega = [num(q.omega) for q in entries]
    drain = [-num(q.gamma) for q in entries]  # the rate above the threshold
    r = num(ts.r)
    fill_cap = [None if q.fill_rate is None else num(q.fill_rate) + drain[i]
                for i, q in enumerate(ts.old)] + [r + v for v in drain[n_old:]]
    backlogged = [i for i in range(n_old) if fill_cap[i] is None]

    pre = [num(q.pre_omega) for q in ts.old]
    share = b / sum(pre, num(1))
    lengths = [w * share for w in pre] + [zero] * len(ts.new)
    remaining = b - sum(lengths, zero)
    if any(lengths[i] < omega[i] * remaining for i in backlogged):
        # backlogged old queues below their thresholds fill up to them at
        # once; the thresholds fall as they fill, so solve for the remaining
        # space R in R = B - Q_others - sum_i max(L_i, omega_i * R)
        others = sum((lengths[i] for i in range(len(entries)) if i not in backlogged), zero)
        remaining = _solve_total_rate(
            b - others, [(omega[i], None, -lengths[i]) for i in backlogged]
        )
        for i in backlogged:
            lengths[i] = max(lengths[i], omega[i] * remaining)

    crossing: dict[int, _Q] = {}  # entry index of a new queue -> first crossing
    rows: list[tuple] = []  # (t, lengths, thresholds) per breakpoint

    t = zero
    while True:
        remaining = b - sum(lengths, zero)
        thr = [w * remaining for w in omega]
        rows.append((t, lengths, thr))
        if (len(crossing) == len(ts.new) and end is None) or (end is not None and end <= t):
            break

        gaps = [lengths[i] - thr[i] for i in range(len(entries))]
        # drain and fill rates are fixed; tracked queues (None) follow S
        rates = [drain[i] if gap.numerator > 0 else fill_cap[i] if gap.numerator < 0 else None
                 for i, gap in enumerate(gaps)]
        s_total = _solve_total_rate(
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
    shape of the criterion-06 tolerance ``max(2*resolution, 1e-3*t1)``.
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
            case, _, per_queue = _closed_form(ts)
            t1 = min(per_queue.values())
            points.append(
                CurvePoint(
                    scheme=scheme,
                    r=ts.r,
                    n_low_queues=count,
                    case=case,
                    t1=t1,
                    burst=math.inf if t1 == math.inf else ts.r * t1,
                )
            )
    return points


def curve_to_csv(points: Sequence[CurvePoint], path) -> None:
    """Write curve points as CSV with the documented header row."""

    def fmt(value: Value) -> str:
        return "inf" if value == math.inf else repr(float(value))

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CURVE_COLUMNS)
        for p in points:
            writer.writerow(
                [p.scheme, repr(float(p.r)), p.n_low_queues, p.case.value, fmt(p.t1), fmt(p.burst)]
            )
