"""Deterministic discrete-event packet simulator of one shared-buffer switch.

One event loop per run: packet arrivals consult the run's admission rule
against the buffer state, every port serves its queues round-robin at one
packet per time unit, and (for FBA) a controller periodically re-emits
effective alphas.  Events are plain tuples; arrivals are drawn lazily from
one ``workloads.source_stream`` per source, with one pending arrival per
source and one pending tick and snapshot sync on the event heap, so memory
grows with the number of sources, not of arrivals.  Simultaneous events
are ordered snapshot syncs -> arrivals -> service completions ->
controller ticks; equal-time arrivals then go in source order (their index
in the config) and other events by sequence number, so identical
configurations always produce bit-identical traces.  The loop reads the
head event in place and does one heap operation per event: a source's next
arrival or a port's next completion replaces it, and it is popped only when
nothing follows it (every key is unique, so the pop order is that of
pop-then-push).  The loop owns the arrival and completion paths: it
decides each arrival and serves each completion inline, on the state's
tables hoisted once per run, through ``SwitchState._bump`` (the one writer
of the per-queue counts) and ``SwitchState.refresh`` (the one statement of
FB's factor); ``controller_tick`` is called once per tick.

``SwitchState`` resolves each run's admission rule once, and ``queue_mode``
only shapes the queue layout.  It numbers the (port, class) slots once, and
the run resolves each source's slot and queue index once, so a packet's
path does no keyed lookup.  ``cs`` (Complete Sharing) admits while the
buffer has room; every other rule admits below ``alphas[slot] * (B - Q)``
from the run's one alpha table, a list indexed by slot.  Thresholds are
real-valued and queue lengths integers, and the comparison is strict in
double precision with a ``THRESHOLD_EPS`` = 1e-9 tolerance: a length
within 1e-9 of its threshold is *not* below it.  ``dt`` (Dynamic
Thresholds) reads the configured alphas.  ``fb`` (in either mode; scenario
files may also say ``fb_single``) reads FB's factors ``alpha * (1/N_p) *
gamma``: N_p counts the congested queues of the class's priority and
gamma is 1 over the congested queues on the port, both counting the target
queue, so a priority group cannot monopolize the buffer and slow-draining
queues get less of it.  The table is refreshed before a decision after any
congestion-threshold crossing (it depends on nothing else).  ``fba`` runs
FB on DT-only hardware: a controller re-emits FB's factors as DT alphas,
so it reads the same table refreshed at its ticks.  So ``fba`` at
``fba_period = 0`` is ``fb`` by construction, and in single-queue mode it
is ``dt`` (one shared queue cannot carry per-class DT alphas, so no
controller runs).  Under ``snapshot_staleness = s`` admission and ticks
see the state just before the last k * s.

The trace records every admit/drop/departure with the threshold used and
the packet's origin, plus periodic occupancy samples; it keeps nothing per
controller tick.  Each record is one 24-byte ``RECORD`` in one bytearray:
time, threshold, tag and queue_len, the tag ``origin << 2 | code`` with the
action code ADMIT 0, DROP 1, DEPART 2 or SOURCE_CHANGE 3.  The origin
indexes ``EventTrace.origins`` (port, class, source), so those and the
occupancy, a running sum, are derived on decode from one entry per tag.
Each source's target carries its tag base ``source << 2``, so an arrival
packs its tag with no shift.  The loop stores the occupancy at each sample
instant as it passes, as one 4-byte int.  ``EventTrace.rows()`` decodes
the records, and the ``records`` and ``samples`` views decode to tuples.
The loop also keeps each fact ``metrics.compute`` reads as it happens
(first drops, occupancy peak, per-source counts), and
``verify_conservation`` checks them against a rescan of the records.
``write_trace_csv`` and ``write_samples_csv`` spell its rows, each distinct
text once (threshold texts from a bounded cache; zeros, which print two
ways, never cached), and stream them through ``core.write_csv``, the one
CSV writer; ``write_run_summary`` writes the per-queue totals as JSON.
"""

from __future__ import annotations

import heapq
import math
import struct
from array import array
from collections import deque
from dataclasses import dataclass, field
from itertools import product, repeat, zip_longest
from typing import Iterator, Optional

from .core import PolicyKind, QueueId, write_csv, write_json
from .workloads import ScenarioConfig, grid_steps, source_stream

#: Tolerance of the strict "length below threshold" comparison.
THRESHOLD_EPS = 1e-9

#: Pseudo class id of the shared per-port queue in single-queue mode.
SHARED_QUEUE_CLASS = -1

#: Action codes of trace records, and their names in the CSV and ``records``.
ADMIT, DROP, DEPART, SOURCE_CHANGE = range(4)
ACTIONS = ("admit", "drop", "depart", "source_change")
_ACTION_FIELDS = tuple(f",{name}," for name in ACTIONS)
#: One trace record: time, threshold, tag (origin << 2 | action code),
#: queue_len.  The origin indexes ``EventTrace.origins``; validation keeps
#: the ints within MAX_RECORD_INT, so a tag (an origin below sources +
#: buffer) fits 4 unsigned bytes.
RECORD = struct.Struct("<2dIi")
_pack = RECORD.pack

TRACE_COLUMNS = ("time", "port", "class", "queue_len", "action", "threshold")


class EngineInvariantError(RuntimeError):
    """An internal invariant (e.g. buffer capacity) was violated."""


#: Ranks of ``(time, rank, seq, payload)`` events: equal times pop in rank
#: order, then by seq (source index, sync or tick number, or a running
#: count).  A snapshot sync pops first, so it copies the state just before
#: its instant.
_SYNC = 0
_SOURCE_CHANGE = 1
_ARRIVAL = 2
_COMPLETION = 3
_TICK = 4


@dataclass
class EventTrace:
    """Time-ordered record of everything a run did.

    ``packed`` holds one 24-byte ``RECORD`` (time, threshold, tag ``origin
    << 2 | action code``, queue_len) per admit, drop, departure and source
    on/off, in event order, and ``rows()`` decodes them.  queue_len is the
    length after an admit/depart and at the decision for a drop; the
    threshold means nothing for DEPART and SOURCE_CHANGE.  ``origins[origin]`` is the record's
    (port, class_id, source): the sources in config order, then each
    pre-filled queue in key order (source -1).  Decoding derives those and
    the occupancy, as the running sum from ``initial_lengths``.
    ``occupancy[k]``, a 4-byte int, is the occupancy at k *
    ``sample_interval``; no field grows with the FBA ticks.  The
    ``records`` view decodes to (time, port, class_id, action name,
    queue_len, threshold or None, occupancy_after, source_id) tuples and
    ``samples`` to (time, occupancy).
    ``queue_of`` maps a record's (port, class_id) to its engine queue (the
    shared per-port queue in single-queue mode).  ``counts`` holds the
    engine's per-queue arrival/admit/drop/departure totals, ``first_drop``
    each queue's first drop time (inf without one), ``occupancy_peak`` the
    highest occupancy reached, and ``source_counts`` one row per configured
    source: admitted, dropped and departed packets and the last departure
    time (or None).
    """

    queue_ids: tuple[QueueId, ...]
    queue_of: dict[tuple[int, int], QueueId] = field(default_factory=dict)
    origins: tuple[tuple[int, int, int], ...] = ()
    packed: bytearray = field(default_factory=bytearray)
    occupancy: array = field(default_factory=lambda: array("i"))
    sample_interval: float = 0.1
    initial_lengths: dict[QueueId, int] = field(default_factory=dict)
    final_lengths: dict[QueueId, int] = field(default_factory=dict)
    counts: dict[QueueId, dict[str, int]] = field(default_factory=dict)
    first_drop: dict[QueueId, float] = field(default_factory=dict)
    occupancy_peak: int = 0
    source_counts: list[dict] = field(default_factory=list)
    horizon: float = 0.0

    def rows(self) -> Iterator[tuple]:
        """The records decoded, in order, as (time, threshold, port, class_id,
        action code, queue_len, occupancy after, source_id) tuples."""
        # per tag: port, class, code, source and the occupancy step (an
        # admit adds a packet, a departure takes one)
        decode = [(port, class_id, code, source, step) for port, class_id, source in self.origins
                  for code, step in enumerate((1, 0, -1, 0))]
        occ = sum(self.initial_lengths.values())
        for time, thr, tag, qlen in RECORD.iter_unpack(self.packed):
            port, class_id, code, source, step = decode[tag]
            occ += step
            yield time, thr, port, class_id, code, qlen, occ, source

    @property
    def records(self) -> list[tuple]:
        return [(t, port, c, ACTIONS[code], qlen, thr if code < DEPART else None, occ, src)
                for t, thr, port, c, code, qlen, occ, src in self.rows()]

    @property
    def samples(self) -> list[tuple[float, int]]:
        return [(k * self.sample_interval, occ) for k, occ in enumerate(self.occupancy)]

    def verify_conservation(self) -> None:
        """Check the engine's facts (per-queue counters and first drops,
        occupancy peak, per-source rows) against an independent rescan of
        the records, then arrivals = admitted + dropped and admitted +
        initial = departed + final length, per queue.  The peak check
        compares the engine's live peak with the decoded running sum.
        Raises EngineInvariantError on mismatch."""
        counts = {q: dict.fromkeys(("arrivals", "admitted", "dropped", "departed"), 0)
                  for q in self.queue_ids}
        first_drop = dict.fromkeys(self.queue_ids, math.inf)
        peak = sum(self.initial_lengths.values())
        sources = [{"admitted": 0, "dropped": 0, "departed": 0, "last_departure": None}
                   for _ in self.source_counts]
        for time, _thr, port, class_id, code, _qlen, occ, src in self.rows():
            if code == SOURCE_CHANGE:
                continue
            q = self.queue_of[port, class_id]
            action = ("admitted", "dropped", "departed")[code]
            counts[q][action] += 1
            counts[q]["arrivals"] += code < DEPART
            if code == DROP:
                first_drop[q] = min(first_drop[q], time)
            peak = max(peak, occ)
            if src >= 0:  # -1 is a pre-filled packet
                sources[src][action] += 1
                if code == DEPART:
                    sources[src]["last_departure"] = time
        for name, kept, scanned in (("counters", self.counts, counts),
                                    ("first drops", self.first_drop, first_drop),
                                    ("occupancy peak", self.occupancy_peak, peak),
                                    ("source rows", self.source_counts, sources)):
            if kept != scanned:
                raise EngineInvariantError(
                    f"engine {name} {kept} disagree with the records {scanned}")
        for q, c in self.counts.items():
            if c["arrivals"] != c["admitted"] + c["dropped"]:
                raise EngineInvariantError(f"{q}: arrivals != admitted + dropped: {c}")
            residue = self.initial_lengths.get(q, 0) + c["admitted"] - c["departed"]
            if residue != self.final_lengths.get(q, 0):
                raise EngineInvariantError(
                    f"{q}: admitted + initial != departed + final ({c}, "
                    f"final={self.final_lengths.get(q, 0)})"
                )


class SwitchState:
    """Mutable per-run switch state: queue lengths, congestion counters,
    the run's facts as they happen (per-queue first drop, occupancy peak,
    per-source counts and last departure; departures count only per origin,
    so each pre-filled queue has a row after the sources'), the
    trace's ``origins``, one packet FIFO per queue of origin ids in service
    order, round-robin cursors, and the run's one alpha table.

    ``rule`` is the run's admission rule, resolved once from the policy, the
    queue mode and the FBA period (see the module docstring).  Single-queue
    mode is the same model with one shared queue per port, all in one
    priority group: N counts every congested queue and gamma is 1.

    ``slot`` numbers the (port, class_id) slots port by port in class
    order; ``slot_queue`` and ``slot_alpha`` hold each slot's queue index
    and configured alpha.  ``alphas``, a list indexed by slot, holds each
    slot's threshold alpha.  Under DT it *is* ``slot_alpha``.  Under FB and
    FBA ``refresh`` rebuilds it on the state admission sees when that state's
    ``cong_changes`` (congestion-threshold crossings so far) moved since
    ``built_at``, the count it was built at, so the FBA ticks between two
    crossings keep one list.

    ``stale`` is None, or under a snapshot staleness s the copy ``sync``
    took just before the last k * s, which admission sees instead of the
    live state.  Counters are maintained incrementally; the engine tests
    check them against the aggregates that the independent oracle in
    ``tests/oracles.py`` derives from the raw lengths.
    """

    def __init__(self, config: ScenarioConfig):
        self.buffer_size = config.buffer_size
        self.cong_thr = config.congestion_threshold
        single = config.queue_mode == "single"
        rule = config.policy
        if rule is PolicyKind.FBA and single:
            rule = PolicyKind.DYNAMIC_THRESHOLDS
        elif rule is PolicyKind.FBA and config.fba_period == 0:
            rule = PolicyKind.FB
        self.rule = rule

        # priority of a queue's class, the shared queue in its own group
        class_prio = {c.class_id: c.priority_id for c in config.classes}
        if single:
            class_prio[SHARED_QUEUE_CLASS] = SHARED_QUEUE_CLASS
        prio_index = {p: i for i, p in enumerate(sorted(set(class_prio.values())))}

        # the (port, class_id) slots numbered port by port in class order, so
        # in multi mode slot s is queue s, and in single mode a slot's queue
        # index is its port: each slot's queue index and configured alpha
        # (overrides applied)
        slots = [QueueId(p, c.class_id) for p, c in product(range(config.n_ports), config.classes)]
        self.queue_ids = (tuple(QueueId(p, SHARED_QUEUE_CLASS) for p in range(config.n_ports))
                          if single else tuple(slots))
        self.slot = {(q.port, q.class_id): s for s, q in enumerate(slots)}
        self.slot_queue = [q.port for q in slots] if single else list(range(len(slots)))
        self.slot_alpha = [float(config.alpha_of(q)) for q in slots]
        n = len(self.queue_ids)
        self.q_prio = [prio_index[class_prio[q.class_id]] for q in self.queue_ids]
        self.q_port = [q.port for q in self.queue_ids]

        self.lengths = [0] * n
        self.total = 0
        self.peak = 0
        self.first_drop = [math.inf] * n
        self.src_admitted = [0] * len(config.sources)
        self.src_dropped = [0] * len(config.sources)
        self.cong_prio = [0] * len(prio_index)
        self.active_port = [0] * config.n_ports
        self.cong_changes = 0
        self.nonempty_port = [0] * config.n_ports
        self.port_queues = [[] for _ in range(config.n_ports)]
        for i, q in enumerate(self.queue_ids):
            self.port_queues[q.port].append(i)
        # next queue to try, a negative index: counting up past -1 wraps
        self.rr_cursor = [-len(qs) for qs in self.port_queues]
        self.fifo = [deque() for _ in range(n)]

        # the packets' origins: the sources, then each pre-filled queue
        origins = [(src.port, src.class_id, i) for i, src in enumerate(config.sources)]
        for q, length in sorted(config.initial_lengths.items()):
            if length:
                qi = self.slot_queue[self.slot[q.port, q.class_id]]
                for _ in range(length):
                    self._bump(qi, +1)
                self.fifo[qi].extend(repeat(len(origins), length))
                origins.append((q.port, q.class_id, -1))
        self.origins = tuple(origins)
        self.src_departed = [0] * len(origins)
        self.src_last_departure: list[Optional[float]] = [None] * len(origins)

        # optional fixed snapshot staleness (hardware-sync modelling): the
        # copy due at k = 0 is the state at construction
        self.stale: Optional[tuple] = None
        if config.snapshot_staleness > 0:
            self.sync()

        self.alphas = self.slot_alpha
        self.built_at: Optional[int] = None
        if rule is PolicyKind.FB or rule is PolicyKind.FBA:
            self.refresh()

    # -- incremental counter maintenance ------------------------------------

    def _bump(self, qi: int, delta: int) -> None:
        old = self.lengths[qi]
        new = old + delta
        self.lengths[qi] = new
        self.total += delta
        port = self.q_port[qi]
        if delta > 0:
            if old == 0:
                self.nonempty_port[port] += 1
            if old == self.cong_thr:
                self.cong_prio[self.q_prio[qi]] += 1
                self.active_port[port] += 1
                self.cong_changes += 1
            # occupancy can pass the buffer only by rising past its peak
            if self.total > self.peak:
                self.peak = self.total
                if self.peak > self.buffer_size:
                    raise EngineInvariantError(
                        f"occupancy {self.total} exceeds buffer {self.buffer_size}"
                    )
        else:
            if new == 0:
                self.nonempty_port[port] -= 1
            if new == self.cong_thr:
                self.cong_prio[self.q_prio[qi]] -= 1
                self.active_port[port] -= 1
                self.cong_changes += 1

    def sync(self) -> None:
        """Take the stale copy of the state as it is now."""
        self.stale = (
            list(self.lengths),
            self.total,
            list(self.cong_prio),
            list(self.active_port),
            self.cong_changes,
        )

    # -- the alpha table ----------------------------------------------------

    def refresh(self) -> None:
        """Rebuild ``alphas`` as FB's factor ``alpha * (1/N_p) * gamma`` per
        slot on the state admission sees (the stale copy, if any), counting
        the slot's queue as congested.  The table depends only on which
        queues are congested, so it returns at once, keeping the list, when
        the seen ``cong_changes`` is the one the table was built at."""
        lengths, _, cong_prio, active_port, changes = self.stale or (
            self.lengths, self.total, self.cong_prio, self.active_port, self.cong_changes)
        if changes == self.built_at:
            return
        self.built_at = changes
        thr, q_prio, q_port = self.cong_thr, self.q_prio, self.q_port
        table = []
        for qi, alpha in zip(self.slot_queue, self.slot_alpha):
            # both counts include the slot's own queue, so n_p >= 1 and
            # gamma lies in (0, 1]
            joins = 0 if lengths[qi] > thr else 1
            n_p = cong_prio[q_prio[qi]] + joins
            gamma = 1.0 / (active_port[q_port[qi]] + joins)
            table.append(alpha * (1.0 / n_p) * gamma)
        self.alphas = table


def controller_tick(state: SwitchState) -> None:
    """Emit the FBA alpha table in force from this tick: the run's table,
    refreshed on the state admission sees.  A tick that sees no congestion
    change since the last refresh keeps the list already in force."""
    state.refresh()


def run(config: ScenarioConfig) -> EventTrace:
    """Simulate the scenario to its horizon and return the full trace."""
    state = SwitchState(config)
    queues, slot_queue = state.queue_ids, state.slot_queue
    trace = EventTrace(
        queue_ids=queues,
        queue_of={key: queues[slot_queue[s]] for key, s in state.slot.items()},
        origins=state.origins,
        initial_lengths={q: n for q, n in zip(queues, state.lengths) if n},
        sample_interval=config.sample_interval,
        horizon=config.horizon,
    )

    # each source's (slot, queue index, port, tag base), resolved once; one
    # pending arrival per source, its seq the source index: at equal times
    # arrivals pop in source order
    targets = []
    for source_id, src in enumerate(config.sources):
        slot = state.slot[src.port, src.class_id]
        targets.append((slot, slot_queue[slot], src.port, source_id << 2))
    streams = [
        source_stream(src, idx, config.seed, config.horizon)
        for idx, src in enumerate(config.sources)
    ]
    events: list[tuple] = []
    seq = 0
    for source_id, (stream, src, target) in enumerate(zip(streams, config.sources, targets)):
        first = next(stream, None)
        if first is not None:
            events.append((first, _ARRIVAL, source_id, target))
        payload = (target[1], target[3] | SOURCE_CHANGE)
        events.append((float(src.start), _SOURCE_CHANGE, seq, payload))
        seq += 1
        if src.stop is not None and float(src.stop) <= config.horizon:
            events.append((float(src.stop), _SOURCE_CHANGE, seq, payload))
            seq += 1
    period = config.fba_period  # one pending tick, k at k * period
    ticks = 0
    if state.rule is PolicyKind.FBA:  # tick 0 is the table built with the state
        ticks = grid_steps(config.horizon, period)
        if ticks:
            events.append((period, _TICK, 1, None))
    staleness = config.snapshot_staleness  # one pending sync, k at k * staleness
    if staleness > 0:
        events.append((staleness, _SYNC, 1, None))
    for port in range(config.n_ports):
        if state.nonempty_port[port] > 0:
            events.append((1.0, _COMPLETION, seq, port))
            seq += 1
    heapq.heapify(events)

    # the state's tables, hoisted once for the inline arrival and completion
    # paths.  The head event is replaced by what follows it, or else popped;
    # keys (time, rank, seq) are unique, so the pop order is that of
    # pop-then-push
    heappop, heappush, heapreplace = heapq.heappop, heapq.heappush, heapq.heapreplace
    packed, pack, bump = trace.packed, _pack, state._bump
    lengths, fifo, first_drop = state.lengths, state.fifo, state.first_drop
    port_queues, rr_cursor, nonempty_port = state.port_queues, state.rr_cursor, state.nonempty_port
    src_admitted, src_dropped = state.src_admitted, state.src_dropped
    src_departed, src_last_departure = state.src_departed, state.src_last_departure
    buffer_size = state.buffer_size
    cs, fb = state.rule is PolicyKind.COMPLETE_SHARING, state.rule is PolicyKind.FB
    end = config.horizon + 1e-12
    # sample k, due at k * interval, sees every event up to 1e-12 after it
    occupancy, interval = trace.occupancy, config.sample_interval
    steps = grid_steps(config.horizon, interval)
    sample, due = 0, 1e-12
    while events:
        time, rank, key, payload = events[0]
        if time > end:
            break
        while time > due:
            occupancy.append(state.total)
            sample += 1
            due = sample * interval + 1e-12 if sample <= steps else math.inf
        if rank == _ARRIVAL:  # key is the source
            following = next(streams[key], None)
            if following is None:
                heappop(events)
            else:
                heapreplace(events, (following, _ARRIVAL, key, payload))
            slot, qi, port, tag = payload
            # admission sees the stale copy, if any; the buffer's room is live
            stale = state.stale
            if stale is None:
                length, seen, changes = lengths[qi], state.total, state.cong_changes
            else:
                length, seen, changes = stale[0][qi], stale[1], stale[4]
            if cs:
                threshold = math.inf
                admit = seen < buffer_size
            else:
                if fb and changes != state.built_at:
                    state.refresh()
                threshold = state.alphas[slot] * (buffer_size - seen)
                admit = threshold - length > THRESHOLD_EPS
            if admit and state.total < buffer_size:
                idle = not nonempty_port[port]
                bump(qi, +1)
                src_admitted[key] += 1
                fifo[qi].append(key)
                packed += pack(time, threshold, tag, lengths[qi])
                if idle:
                    heappush(events, (time + 1.0, _COMPLETION, seq, port))
                    seq += 1
            else:
                src_dropped[key] += 1
                if time < first_drop[qi]:
                    first_drop[qi] = time
                packed += pack(time, threshold, tag | DROP, length)
        elif rank == _COMPLETION:
            # serve the round-robin-next nonempty queue of the port, skipping
            # empty ones without consuming a turn; a completion is pending
            # only while the port holds a packet
            port_qs = port_queues[payload]
            j = rr_cursor[payload]
            while not lengths[port_qs[j]]:
                j += 1
            qi = port_qs[j]
            j += 1
            rr_cursor[payload] = j - len(port_qs) if j >= 0 else j
            origin = fifo[qi].popleft()
            bump(qi, -1)
            src_departed[origin] += 1
            src_last_departure[origin] = time
            packed += pack(time, 0.0, origin << 2 | DEPART, lengths[qi])
            if nonempty_port[payload]:
                heapreplace(events, (time + 1.0, _COMPLETION, seq, payload))
                seq += 1
            else:
                heappop(events)
        else:
            heappop(events)
            if rank == _TICK:
                controller_tick(state)
                if key < ticks:
                    heappush(events, ((key + 1) * period, _TICK, key + 1, None))
            elif rank == _SYNC:
                state.sync()
                # nothing changes before the next event, so the syncs due up to
                # it would copy this state: skip to the last one due at or before it
                if events:
                    k = max(key + 1, int(events[0][0] / staleness))
                    heappush(events, (k * staleness, _SYNC, k, None))
            else:  # source on/off: bookkeeping only
                qi, tag = payload
                packed += pack(time, 0.0, tag, lengths[qi])

    # the grid allows 1e-9 of a period past the horizon, beyond ``end``: the
    # samples still due there see the final state (a tick due there would
    # precede no admission, so none fires)
    occupancy.extend(repeat(state.total, steps + 1 - sample))
    trace.final_lengths = dict(zip(queues, state.lengths))
    trace.first_drop = dict(zip(queues, state.first_drop))
    trace.occupancy_peak = state.peak
    trace.source_counts = [  # zip drops the pre-filled queues' rows
        {"admitted": a, "dropped": d, "departed": p, "last_departure": t}
        for a, d, p, t in zip(state.src_admitted, state.src_dropped, state.src_departed,
                              state.src_last_departure)
    ]
    # each origin feeds one queue, so a queue's totals sum its origins' rows
    # (a pre-filled queue's origin only departs)
    counts = trace.counts = {q: {"arrivals": 0, "admitted": 0, "dropped": 0, "departed": 0}
                             for q in queues}
    for (port, class_id, _), p, a, d in zip_longest(
            state.origins, state.src_departed, state.src_admitted, state.src_dropped, fillvalue=0):
        c = counts[trace.queue_of[port, class_id]]
        c["arrivals"] += a + d
        c["admitted"] += a
        c["dropped"] += d
        c["departed"] += p
    return trace


# -- export ------------------------------------------------------------------

THRESHOLD_CACHE_SIZE = 64  # entries of the threshold-text cache


def _trace_lines(trace: EventTrace) -> Iterator[str]:
    # equal times are adjacent (records are in time order) and thresholds
    # few; 0.0 == -0.0 prints two ways, so a zero skips both caches
    cache: dict[float, str] = {}
    last = time_text = None
    # per tag, origin << 2 | code: the origin's ",port,class," and the code's action
    prefixes = [text for port, class_id, _src in trace.origins
                for text in repeat(f",{port},{class_id},", len(ACTIONS))]
    actions = _ACTION_FIELDS * len(trace.origins)
    for time, thr, tag, qlen in RECORD.iter_unpack(trace.packed):
        if time != last or not time:
            last, time_text = time, repr(time)
        if tag & DEPART:  # DEPART and SOURCE_CHANGE carry no threshold
            thr_text = ""
        elif not thr:
            thr_text = repr(thr)
        elif (thr_text := cache.get(thr)) is None:
            if len(cache) == THRESHOLD_CACHE_SIZE:
                cache.clear()
            thr_text = cache[thr] = repr(thr)
        yield f"{time_text}{prefixes[tag]}{qlen}{actions[tag]}{thr_text}\r\n"


def write_trace_csv(trace: EventTrace, path) -> None:
    """Trace rows as CSV: time, port, class, queue_len, action, threshold
    (floats as ``repr``, no threshold on departures and source changes)."""
    write_csv(path, TRACE_COLUMNS, _trace_lines(trace))


def write_samples_csv(trace: EventTrace, path) -> None:
    """Occupancy samples as CSV: time, occupancy."""
    interval = trace.sample_interval
    rows = (f"{k * interval!r},{occ}\r\n" for k, occ in enumerate(trace.occupancy))
    write_csv(path, ("time", "occupancy"), rows)


def run_summary(trace: EventTrace) -> dict:
    """JSON-ready per-queue totals."""
    return {
        "horizon": trace.horizon,
        "queues": {
            str(q): {
                **trace.counts[q],
                "initial": trace.initial_lengths.get(q, 0),
                "final": trace.final_lengths.get(q, 0),
            }
            for q in trace.queue_ids
        },
    }


def write_run_summary(trace: EventTrace, path) -> None:
    write_json(path, run_summary(trace))
