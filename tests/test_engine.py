"""Packet engine: determinism, conservation, scheduling, policy consistency."""

import heapq
import math
import struct
import tempfile
import tracemalloc
from array import array
from collections import deque
from dataclasses import replace
from fractions import Fraction
from itertools import repeat
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from fbsim import engine
from fbsim.core import PolicyKind, QueueId, TrafficClass, write_table
from fbsim.engine import (
    RECORD,
    SOURCE_CHANGE,
    EngineInvariantError,
    EventTrace,
    SwitchState,
    run,
    write_samples_csv,
    write_trace_csv,
)
from fbsim.workloads import (
    MAX_RECORD_INT,
    Burst,
    ConfigError,
    ConstantRate,
    ScenarioConfig,
    dumps_scenario,
    loads_scenario,
    preset,
    source_stream,
)
from oracles import csv_module_bytes, derive_aggregates

F = Fraction
LOW, HIGH = 0, 1


def two_class_config(**kw):
    defaults = dict(
        buffer_size=60,
        n_ports=2,
        classes=(TrafficClass(0, F(1), LOW), TrafficClass(1, F(2), HIGH)),
        policy=PolicyKind.DYNAMIC_THRESHOLDS,
        sources=(
            ConstantRate(class_id=0, port=1, rate=F(2)),
            ConstantRate(class_id=1, port=0, rate=F(2), start=F(1, 8)),
        ),
        horizon=40.0,
    )
    defaults.update(kw)
    return ScenarioConfig(**defaults)


def tick_tables(config):
    """The alpha tables of a run of ``config`` under an FBA controller, none
    under another rule: tick 0's is ``SwitchState(config).alphas``, the table
    in force from the start, and tick k's the list the state holds after the
    k-th ``engine.controller_tick`` call.  The trace keeps no tables, so the
    tests read them from the hook (oracles.py imports no engine code)."""
    start = SwitchState(config)
    if start.rule is not PolicyKind.FBA:
        return []
    tables = [start.alphas]
    original = engine.controller_tick

    def hook(state):
        original(state)
        tables.append(state.alphas)

    engine.controller_tick = hook
    try:
        run(config)
    finally:
        engine.controller_tick = original
    return tables


def ticks(config):
    """``tick_tables(config)`` as (time, {queue: alpha}) pairs: tick k is at
    k * ``fba_period``, and a table is indexed like ``queue_ids``."""
    queue_ids = SwitchState(config).queue_ids
    return [(k * config.fba_period, dict(zip(queue_ids, table)))
            for k, table in enumerate(tick_tables(config))]


def test_zero_traffic_gives_empty_trace():
    cfg = two_class_config(sources=())
    trace = run(cfg)
    assert trace.records == []
    assert all(v == 0 for v in trace.final_lengths.values())


def test_identical_runs_are_bit_identical():
    # under FBA, so that the controller's tick tables are compared too
    cfg = replace(preset("fig5_incast"), policy=PolicyKind.FBA, fba_period=1)
    a, b = run(cfg), run(cfg)
    assert a.records == b.records
    assert a.samples == b.samples
    first = ticks(cfg)
    assert len(first) > 1
    assert first == ticks(cfg)
    assert a.final_lengths == b.final_lengths


def test_conservation_on_presets():
    for name in ("fig2", "fig4_steady", "fig4_incast", "fig5_incast"):
        run(preset(name)).verify_conservation()


def test_capacity_never_exceeded_under_complete_sharing():
    cfg = two_class_config(
        policy=PolicyKind.COMPLETE_SHARING,
        sources=(
            ConstantRate(class_id=0, port=1, rate=F(5)),
            ConstantRate(class_id=1, port=0, rate=F(5)),
        ),
    )
    trace = run(cfg)
    occupancies = [rec[6] for rec in trace.records if rec[3] != "source_change"]
    assert max(occupancies) == 60  # CS fills the buffer exactly, never over


def test_backlogged_port_is_work_conserving():
    cfg = two_class_config(sources=(ConstantRate(class_id=0, port=1, rate=F(3)),))
    trace = run(cfg)
    departures = [rec[0] for rec in trace.records if rec[3] == "depart"]
    # one service per time unit from the first admission onward
    assert len(departures) == pytest.approx(cfg.horizon, abs=1.0)
    gaps = {round(b - a, 9) for a, b in zip(departures, departures[1:])}
    assert gaps == {1.0}


def test_round_robin_shares_equally_across_five_queues():
    # five queues pre-filled on one port, no arrivals: 25 services split 5/5/5/5/5
    classes = tuple(TrafficClass(c, F(1), LOW) for c in range(5))
    cfg = ScenarioConfig(
        buffer_size=60, n_ports=1, classes=classes,
        policy=PolicyKind.COMPLETE_SHARING, sources=(),
        initial_lengths={QueueId(0, c): 10 for c in range(5)},
        horizon=25.0,
    )
    counts = run(cfg).counts
    assert [counts[QueueId(0, c)]["departed"] for c in range(5)] == [5] * 5


def test_round_robin_skips_empty_queues():
    # only 2 of 5 configured queues hold packets: each drains at 1/2
    classes = tuple(TrafficClass(c, F(1), LOW) for c in range(5))
    cfg = ScenarioConfig(
        buffer_size=60, n_ports=1, classes=classes,
        policy=PolicyKind.COMPLETE_SHARING, sources=(),
        initial_lengths={QueueId(0, 1): 20, QueueId(0, 3): 20},
        horizon=30.0,
    )
    counts = run(cfg).counts
    assert counts[QueueId(0, 1)]["departed"] == 15
    assert counts[QueueId(0, 3)]["departed"] == 15


def single_queue_config(**kw):
    defaults = dict(
        buffer_size=60, n_ports=1,
        classes=(TrafficClass(0, F(1, 2), LOW), TrafficClass(1, F(20), HIGH)),
        policy=PolicyKind.FB, queue_mode="single",
        sources=(
            ConstantRate(class_id=0, port=0, rate=F(2)),
            ConstantRate(class_id=1, port=0, rate=F(2), start=F(20)),
        ),
        horizon=60.0,
    )
    defaults.update(kw)
    return ScenarioConfig(**defaults)


def test_single_queue_mode_applies_class_thresholds_to_shared_queue():
    trace = run(single_queue_config())
    trace.verify_conservation()
    counts = trace.counts
    shared = QueueId(0, -1)
    assert counts[shared]["dropped"] > 0
    # low-class packets drop once the shared queue passes the low threshold
    # while high-class packets keep being admitted into the same queue
    low_drops = sum(1 for r in trace.records if r[3] == "drop" and r[2] == 0)
    high_admits_after = sum(
        1 for r in trace.records if r[3] == "admit" and r[2] == 1 and r[0] > 21
    )
    assert low_drops > 0 and high_admits_after > 0


def _oracle_alpha(cfg, snap, queue, class_id):
    """FB's effective alpha ``alpha * (1/N_p) * gamma`` for a packet of
    ``class_id`` arriving at ``queue``, from a snapshot, counting the
    arriving queue as congested; evaluated left to right in floats, as the
    paper writes it, so a threshold compares bitwise."""
    alpha = float(cfg.alpha_of(QueueId(queue.port, class_id)))
    joins = 0 if queue in snap.congested else 1
    if cfg.queue_mode == "single":  # one priority group, gamma = 1
        return alpha * (1.0 / (len(snap.congested) + joins)) * 1.0
    n_p = snap.congested_per_priority[cfg.class_by_id(class_id).priority_id] + joins
    port_active = sum(1 for q in snap.congested if q.port == queue.port)
    return alpha * (1.0 / n_p) * (1.0 / (port_active + joins))


def _oracle_threshold(cfg, snap, queue, class_id, fba_table):
    kind = cfg.policy
    if kind is PolicyKind.COMPLETE_SHARING:
        return math.inf
    if kind is PolicyKind.DYNAMIC_THRESHOLDS or (
        kind is PolicyKind.FBA and cfg.queue_mode == "single"
    ):
        alpha = float(cfg.alpha_of(QueueId(queue.port, class_id)))
    elif kind is PolicyKind.FBA and fba_table is not None:
        alpha = fba_table[queue]
    else:
        alpha = _oracle_alpha(cfg, snap, queue, class_id)
    return alpha * snap.remaining


def _replay(cfg, trace):
    """Replay every decision and controller tick against thresholds computed
    from a derive_aggregates snapshot rebuilt from the trace; returns how
    many admits, drops and ticks were checked.  Under a staleness s the
    snapshot is of the lengths copied just before each k * s."""
    single = cfg.queue_mode == "single"
    prios = {-1: -1} if single else {c.class_id: c.priority_id for c in cfg.classes}
    lengths = dict.fromkeys(trace.queue_ids, 0)
    for q, n in cfg.initial_lengths.items():
        lengths[QueueId(q.port, -1) if single else q] += n
    staleness = cfg.snapshot_staleness
    seen = dict(lengths) if staleness > 0 else lengths
    due = 1

    def snapshot(time):
        nonlocal seen, due
        while staleness > 0 and due * staleness <= time:
            seen = dict(lengths)
            due += 1
        return derive_aggregates(seen, prios, cfg.buffer_size, cfg.congestion_threshold)

    pending = deque(ticks(cfg))
    table = None
    checked = {"admit": 0, "drop": 0, "tick": 0}

    def check_tick():
        nonlocal table
        time, emitted = pending.popleft()
        snap = snapshot(time)
        table = {} if single else {
            q: _oracle_alpha(cfg, snap, q, q.class_id) for q in trace.queue_ids
        }
        assert emitted == table
        checked["tick"] += 1

    if pending:  # the table in force from t = 0 precedes every event
        check_tick()
    for time, port, cls, action, _qlen, thr, _occ, _src in trace.records:
        while pending and pending[0][0] < time:  # ticks follow equal-time events
            check_tick()
        queue = QueueId(port, -1 if single else cls)
        if action in ("admit", "drop"):
            snap = snapshot(time)
            expected = _oracle_threshold(cfg, snap, queue, cls, table)
            admit = (
                sum(lengths.values()) < cfg.buffer_size
                and snap.occupancy < cfg.buffer_size
                and expected - seen[queue] > 1e-9
            )
            assert thr == expected
            assert (action == "admit") == admit
            checked[action] += 1
        if action == "admit":
            lengths[queue] += 1
        elif action == "depart":
            lengths[queue] -= 1
    while pending:
        check_tick()
    return checked


_OVERRIDES = {QueueId(0, 5): F(5, 2), QueueId(1, 2): F(1, 2)}

_CS_CASE = two_class_config(
    policy=PolicyKind.COMPLETE_SHARING,
    sources=(
        ConstantRate(class_id=0, port=1, rate=F(5)),
        ConstantRate(class_id=1, port=0, rate=F(5)),
    ),
)

REPLAY_CASES = {
    "cs": _CS_CASE,
    "dt": preset("fig4_incast"),
    "fb": preset("fig5_incast"),
    "fb_single": single_queue_config(),
    "fba_period_0": replace(preset("fig5_incast"), policy=PolicyKind.FBA, fba_period=0.0),
    "fba_single": single_queue_config(policy=PolicyKind.FBA, fba_period=1.0),
    "fba_period_2": replace(preset("fig5_incast"), policy=PolicyKind.FBA, fba_period=2.0),
    "fba_congestion_threshold": replace(
        preset("fig5_incast"), policy=PolicyKind.FBA, fba_period=1.0, congestion_threshold=2
    ),
    "dt_override": replace(preset("fig4_incast"), alpha_overrides=_OVERRIDES),
    "fb_override": replace(
        preset("fig4_incast"), policy=PolicyKind.FB, alpha_overrides=_OVERRIDES
    ),
    # stalenesses at which some state change falls between a due instant
    # and the next decision, so a copy taken late would show
    "cs_stale": replace(_CS_CASE, snapshot_staleness=1.3),
    "dt_stale": replace(preset("fig4_incast"), snapshot_staleness=1.3),
    "fb_stale": replace(preset("fig5_incast"), snapshot_staleness=1.3),
    "fb_single_stale": single_queue_config(snapshot_staleness=1.1),
    "fba_stale": replace(
        preset("fig5_incast"), policy=PolicyKind.FBA, fba_period=1.0,
        congestion_threshold=2, snapshot_staleness=1.3,
    ),
}


@pytest.mark.parametrize("case", sorted(REPLAY_CASES))
def test_engine_decisions_match_the_replayed_rule(case):
    # every admission decision and FBA tick agrees exactly (thresholds
    # bitwise) with an independent computation on a rebuilt snapshot
    cfg = REPLAY_CASES[case]
    checked = _replay(cfg, run(cfg))
    assert checked["admit"] > 20 and checked["drop"] > 0
    # a controller runs only for FBA at a positive period on per-class
    # queues: at period 0 it is FB, and on a shared queue it is DT
    if cfg.policy is PolicyKind.FBA and cfg.fba_period > 0 and cfg.queue_mode == "multi":
        assert checked["tick"] == 1 + int(cfg.horizon / cfg.fba_period)
    else:
        assert checked["tick"] == 0


def test_run_calls_the_traced_layers_by_module_name(monkeypatch):
    # the loop owns the arrival and completion paths: its per-source and
    # per-queue counters equal the admit, drop and departure records, and
    # controller_tick stays a module global, called once per tick after
    # t = 0, so a wrapper placed on the module sees every tick
    cfg = replace(preset("fig5_incast"), policy=PolicyKind.FBA, fba_period=2.0)
    tick_rows = ticks(cfg)
    calls = []
    original = engine.controller_tick
    monkeypatch.setattr(engine, "controller_tick",
                        lambda *args: calls.append(args) or original(*args))
    trace = run(cfg)
    actions = [r[3] for r in trace.records]
    admits, drops, departs = (actions.count(a) for a in ("admit", "drop", "depart"))
    sources, queues = trace.source_counts, trace.counts.values()
    assert sum(row["admitted"] + row["dropped"] for row in sources) == admits + drops
    assert sum(c["arrivals"] for c in queues) == admits + drops
    assert sum(c["admitted"] for c in queues) == sum(row["admitted"] for row in sources) == admits
    assert sum(c["dropped"] for c in queues) == sum(row["dropped"] for row in sources) == drops
    assert sum(c["departed"] for c in queues) == departs
    assert len(calls) == len(tick_rows) - 1
    assert min(admits, departs, len(calls)) > 20


def test_coinciding_sources_arrive_in_source_order():
    # rate 1 and rate 2 from 0 and a rate-2 burst from 1 coincide at every
    # whole and half instant; the engine's lazy merge must replay the
    # (time, source)-sorted merge of the per-source streams exactly
    cfg = two_class_config(
        buffer_size=4,
        n_ports=1,
        sources=(
            ConstantRate(class_id=0, port=0, rate=F(1)),
            ConstantRate(class_id=1, port=0, rate=F(2)),
            Burst(class_id=0, port=0, r=F(2), duration=F(3), start=F(1)),
        ),
        horizon=12.0,
    )
    trace = run(cfg)
    got = [(r[0], r[7]) for r in trace.records if r[3] in ("admit", "drop")]
    streams = [
        zip(source_stream(s, i, cfg.seed, cfg.horizon), repeat(i)) for i, s in enumerate(cfg.sources)
    ]
    assert got == [(t, idx) for t, idx in heapq.merge(*streams) if t <= cfg.horizon]
    assert any(r[3] == "drop" for r in trace.records)
    ties = [(a, b) for a, b in zip(got, got[1:]) if a[0] == b[0]]
    assert len(ties) > 12 and all(a[1] < b[1] for a, b in ties)


def _later_first_drop(trace):
    queue = next(q for q, t in trace.first_drop.items() if t < math.inf)
    trace.first_drop[queue] += 0.5


def _higher_peak(trace):
    trace.occupancy_peak += 1


def _one_departure_less(trace):
    trace.source_counts[-1]["departed"] -= 1


def test_conservation_check_catches_counter_drift():
    trace = run(preset("fig2"))
    trace.verify_conservation()
    trace.counts[QueueId(0, 0)]["admitted"] += 1
    with pytest.raises(EngineInvariantError, match="disagree"):
        trace.verify_conservation()
    # every fact the engine keeps for metrics.compute is checked as well
    for corrupt in (_later_first_drop, _higher_peak, _one_departure_less):
        trace = run(preset("fig4_incast"))
        trace.verify_conservation()
        corrupt(trace)
        with pytest.raises(EngineInvariantError, match="disagree"):
            trace.verify_conservation()


def test_engine_snapshot_matches_incremental_counters():
    cfg = preset("fig4_incast")
    state = SwitchState(cfg)
    prios = {c.class_id: c.priority_id for c in cfg.classes}
    snap = derive_aggregates(
        dict(zip(state.queue_ids, state.lengths)), prios, cfg.buffer_size, cfg.congestion_threshold
    )
    assert snap.occupancy == state.total == 50
    assert snap.congested_per_priority[LOW] == 5


def test_fba_controller_ticks_recorded():
    cfg = replace(preset("fig5_steady"), policy=PolicyKind.FBA, fba_period=2.0)
    times = [t for t, _ in ticks(cfg)]
    assert times[0] == 0.0
    assert times[1:3] == [2.0, 4.0]
    assert len(times) == 1 + int(cfg.horizon / 2.0)


@pytest.mark.parametrize("name", ["fig5_steady", "fig5_incast"])
def test_fba_ticks_share_unchanged_tables(name):
    # a tick that sees no congestion change keeps the list in force, and on
    # these presets every congestion change between two ticks moves the
    # table, so the hook sees one list object per table change plus the
    # initial one
    tables = tick_tables(replace(preset(name), policy=PolicyKind.FBA, fba_period=2.0))
    changes = sum(a != b for a, b in zip(tables, tables[1:]))
    assert 0 < changes < len(tables) - 1
    for a, b in zip(tables, tables[1:]):
        assert (a is b) == (a == b)
    assert len({id(table) for table in tables}) == changes + 1 < len(tables)


@pytest.mark.parametrize("horizon", [0.3, 0.7, 2.3])
def test_fba_ticks_and_samples_share_one_grid(horizon):
    # tick k and sample k are both due at k * 0.1, and here the horizon over
    # the period falls a rounding error short of a whole number
    base = preset("fig5_steady")
    cfg = replace(base, policy=PolicyKind.FBA, fba_period=0.1, sample_interval=0.1,
                  horizon=horizon, sources=tuple(s for s in base.sources if s.start < horizon))
    trace = run(cfg)
    grid = [k * 0.1 for k in range(round(horizon / 0.1) + 1)]
    assert [t for t, _ in ticks(cfg)] == grid
    assert len(trace.occupancy) == len(grid)


@pytest.mark.parametrize("horizon", [2.99999999999, 2.9999999995])
def test_fba_fires_every_tick_the_grid_counts(horizon):
    # the grid counts k = 3 within 1e-9 of a period, past the event loop's
    # horizon + 1e-12: sample 3 is taken on the final state, but the fired
    # ticks stop at the loop's end, 2, since no admission would follow tick 3
    cfg = replace(preset("fig5_steady"), policy=PolicyKind.FBA, fba_period=1.0,
                  sample_interval=1.0, horizon=horizon)
    trace = run(cfg)
    assert [t for t, _ in ticks(cfg)] == [0.0, 1.0, 2.0]
    assert len(trace.occupancy) == 4
    assert _replay(cfg, trace)["tick"] == 3


def test_fba_period_beyond_horizon_keeps_initial_table():
    cfg = replace(preset("fig5_steady"), policy=PolicyKind.FBA, fba_period=1000.0)
    assert len(ticks(cfg)) == 1


def test_fba_table_converges_once_congestion_is_stable():
    cfg = replace(preset("fig5_steady"), policy=PolicyKind.FBA, fba_period=2.0)
    tail = [table for t, table in ticks(cfg) if t >= 60.0]
    assert len(tail) > 3
    assert all(table == tail[0] for table in tail)


def test_single_queue_fba_behaves_as_dt():
    base = ScenarioConfig(
        buffer_size=60, n_ports=2,
        classes=(TrafficClass(0, F(1, 2), LOW), TrafficClass(1, F(20), HIGH)),
        policy=PolicyKind.DYNAMIC_THRESHOLDS, queue_mode="single",
        sources=(
            ConstantRate(class_id=0, port=0, rate=F(2)),
            ConstantRate(class_id=1, port=1, rate=F(2), start=F(1, 8)),
        ),
        horizon=40.0,
    )
    dt = run(base)
    fba = run(replace(base, policy=PolicyKind.FBA, fba_period=1.0))
    assert dt.records == fba.records


def test_single_queue_prefill_conservation():
    # per-class initial fills aggregate into the shared per-port queue and
    # stay conserved through the run
    cfg = ScenarioConfig(
        buffer_size=60, n_ports=1,
        classes=(TrafficClass(0, F(1), LOW), TrafficClass(1, F(2), HIGH)),
        policy=PolicyKind.FB, queue_mode="single",
        sources=(ConstantRate(class_id=1, port=0, rate=F(2)),),
        initial_lengths={QueueId(0, 0): 7, QueueId(0, 1): 4},
        horizon=30.0,
    )
    trace = run(cfg)
    assert trace.initial_lengths == {QueueId(0, -1): 11}
    trace.verify_conservation()


DEPARTURE_CASES = {
    # a constant source and a burst share one queue (and drop some packets)
    "multi": ScenarioConfig(
        buffer_size=12, n_ports=2, classes=(TrafficClass(0, F(1), LOW),),
        policy=PolicyKind.DYNAMIC_THRESHOLDS,
        sources=(
            ConstantRate(class_id=0, port=0, rate=F(1)),
            Burst(class_id=0, port=0, r=F(3), duration=F(4), start=F(5, 2)),
        ),
        horizon=30.0,
    ),
    # two classes interleave in the shared queue behind a two-class pre-fill
    "single": ScenarioConfig(
        buffer_size=20, n_ports=1,
        classes=(TrafficClass(0, F(1), LOW), TrafficClass(1, F(2), HIGH)),
        policy=PolicyKind.FB, queue_mode="single",
        sources=(
            ConstantRate(class_id=0, port=0, rate=F(1, 2)),
            Burst(class_id=1, port=0, r=F(3), duration=F(4), start=F(3, 2)),
        ),
        initial_lengths={QueueId(0, 0): 3, QueueId(0, 1): 2},
        horizon=30.0,
    ),
}


@pytest.mark.parametrize("case", sorted(DEPARTURE_CASES))
def test_departures_name_their_packet(case):
    # per queue, departures are the pre-filled packets (source -1) and then
    # the admitted ones, in order, each with its class and source
    cfg = DEPARTURE_CASES[case]
    trace = run(cfg)
    queued = {q: [] for q in trace.queue_ids}
    for q, n in sorted(cfg.initial_lengths.items()):
        queued[trace.queue_of[q.port, q.class_id]] += [(q.class_id, -1)] * n
    departed = {q: [] for q in trace.queue_ids}
    for _time, port, cls, action, *_rest, source_id in trace.records:
        if action == "admit":
            queued[trace.queue_of[port, cls]].append((cls, source_id))
        elif action == "depart":
            departed[trace.queue_of[port, cls]].append((cls, source_id))
    for q in trace.queue_ids:
        assert departed[q] == queued[q][: len(departed[q])]
    sources = {source_id for packets in departed.values() for _cls, source_id in packets}
    assert sources >= {0, 1}
    assert (-1 in sources) == bool(cfg.initial_lengths)
    assert any(a == "drop" for _t, _p, _c, a, *_ in trace.records)


def test_fb_single_policy_requires_single_mode():
    text = dumps_scenario(preset("fig4_steady")).replace("kind = dt", "kind = fb_single")
    with pytest.raises(ConfigError, match="fb_single policy requires queue_mode = single"):
        loads_scenario(text)


def test_snapshot_staleness_changes_decisions():
    base = preset("fig4_incast")
    fresh = run(base)
    stale = run(replace(base, snapshot_staleness=2.0))
    stale.verify_conservation()
    occ = [r[6] for r in stale.records if r[3] != "source_change"]
    assert max(occ) <= base.buffer_size
    assert fresh.records != stale.records


def test_stale_snapshot_is_the_state_just_before_its_due_instant():
    # 3 pre-filled packets leave at 1 and 2 (and 3); the arrival at 2.5 sees
    # the copy due at 1.5, total 2, not the state after the departure at 2
    cfg = ScenarioConfig(
        buffer_size=10, n_ports=1, classes=(TrafficClass(0, F(1), LOW),),
        policy=PolicyKind.DYNAMIC_THRESHOLDS,
        sources=(Burst(class_id=0, port=0, r=F(1), duration=F(1), start=F(5, 2)),),
        initial_lengths={QueueId(0, 0): 3},
        snapshot_staleness=1.5,
        horizon=3.0,
    )
    decisions = [r for r in run(cfg).records if r[3] in ("admit", "drop")]
    assert [(r[0], r[5]) for r in decisions] == [(2.5, 8.0)]


def test_fine_staleness_syncs_only_around_events(monkeypatch):
    # the syncs due between two events would copy the same state, so their
    # number follows the events, not horizon / staleness (here 20,000)
    syncs = 0
    sync = SwitchState.sync

    def counting(self):
        nonlocal syncs
        syncs += 1
        sync(self)

    monkeypatch.setattr(SwitchState, "sync", counting)
    cfg = replace(preset("fig4_incast"), snapshot_staleness=1e-3)
    trace = run(cfg)
    assert _replay(cfg, trace)["drop"] > 0
    instants = len({r[0] for r in trace.records})
    assert syncs <= 2 * instants + 2 < cfg.horizon / cfg.snapshot_staleness


def test_fb_refreshes_its_table_only_after_a_congestion_change(monkeypatch):
    # FB's factors depend only on which queues are congested, so the table
    # is rebuilt (one factor per slot) at most once per threshold crossing
    calls = 0
    refresh = SwitchState.refresh

    def counting(self):
        nonlocal calls
        built_at = self.built_at
        changed = refresh(self)
        calls += len(self.slot) * (self.built_at != built_at)  # factors computed
        return changed

    monkeypatch.setattr(SwitchState, "refresh", counting)
    cfg = replace(preset("fig5_steady"), policy=PolicyKind.FB)
    trace = run(cfg)
    thr = cfg.congestion_threshold
    crossings = sum(
        1 for r in trace.records
        if (r[3] == "admit" and r[4] == thr + 1) or (r[3] == "depart" and r[4] == thr)
    )
    slots = cfg.n_ports * len(cfg.classes)
    decisions = sum(1 for r in trace.records if r[3] in ("admit", "drop"))
    assert 0 < calls <= (crossings + 1) * slots < decisions


def test_initial_lengths_respected():
    cfg = preset("fig4_incast")
    trace = run(cfg)
    assert trace.initial_lengths[QueueId(1, 0)] == 10
    assert trace.samples[0] == (0.0, 50)


def test_fluid_agreement_on_large_buffer():
    # packet-sim first drop of a burst vs the fluid t1, within 5%
    from fbsim import transient_scenario
    from fbsim.fluid import first_threshold_crossing

    cfg = ScenarioConfig(
        buffer_size=2000, n_ports=2,
        classes=(TrafficClass(0, F(1), LOW), TrafficClass(1, F(2), HIGH)),
        policy=PolicyKind.FB,
        sources=(
            ConstantRate(class_id=0, port=1, rate=F(2)),
            Burst(class_id=1, port=0, r=F(6), duration=F(200), start=F(1)),
        ),
        initial_lengths={QueueId(1, 0): 1000},
        horizon=220.0,
    )
    ts = transient_scenario(cfg)
    t1 = float(first_threshold_crossing(ts))
    trace = run(cfg)
    drops = [r[0] for r in trace.records if r[3] == "drop" and r[2] == 1]
    assert drops, "burst must eventually drop"
    first = drops[0] - 1.0  # relative to burst start
    assert abs(first - t1) / t1 < 0.05


def test_capacity_invariant_error_is_guarded():
    cfg = two_class_config()
    state = SwitchState(cfg)
    qi = state.queue_ids.index(QueueId(0, 1))
    with pytest.raises(EngineInvariantError):
        for _ in range(61):
            state._bump(qi, +1)


ACTIONS = ("admit", "drop", "depart", "source_change")


def trace_from_rows(records=(), occupancy=(), origins=None, **fields):
    """A trace of ``records`` view rows and ``occupancy`` samples, built
    without running a scenario.  Each row is stored with the index of its
    (port, class, source) in ``origins``, by default the rows' own in
    first-seen order; a row's occupancy is not stored, since decoding
    derives it as the running sum."""
    if origins is None:
        origins = tuple(dict.fromkeys((port, c, src) for _, port, c, *_, src in records))
    index = {origin: i for i, origin in enumerate(origins)}
    packed = bytearray().join(
        RECORD.pack(t, 0.0 if thr is None else thr,
                    index[port, c, src] << 2 | ACTIONS.index(action), qlen)
        for t, port, c, action, qlen, thr, _occ, src in records)
    return EventTrace(origins=origins, packed=packed, occupancy=array("i", occupancy), **fields)


def with_running_occupancy(rows, occupancy=0):
    """``rows`` with each occupancy replaced by the running sum of admits
    and departures from ``occupancy``, as decoding derives it."""
    out = []
    for t, port, c, action, qlen, thr, _occ, src in rows:
        occupancy += {"admit": 1, "depart": -1}.get(action, 0)
        out.append((t, port, c, action, qlen, thr, occupancy, src))
    return out


def _samples_oracle(records, interval, horizon, initial):
    """Occupancy samples with one record scan per sample instant."""
    samples, occupancy, idx = [], initial, 0
    for k in range(int(math.floor(horizon / interval + 1e-9)) + 1):
        t = k * interval
        while idx < len(records) and records[idx][0] <= t + 1e-12:
            if records[idx][3] != "source_change":
                occupancy = records[idx][6]
            idx += 1
        samples.append((t, occupancy))
    return samples


# offsets around a sample instant, on both sides of the 1e-12 rule
_OFFSETS = st.sampled_from([-2e-12, -5e-13, 0.0, 5e-13, 1e-12, 2e-12, 0.04])


@settings(max_examples=100, deadline=None)
@given(
    points=st.lists(
        st.tuples(st.integers(0, 60), _OFFSETS, st.integers(0, 1), st.integers(1, 3)),
        max_size=80,
    ),
    windows=st.lists(
        st.tuples(
            st.integers(0, 60), _OFFSETS, st.integers(1, 20), _OFFSETS,
            st.integers(0, 1), st.integers(1, 3),
        ),
        max_size=8,
    ),
    interval=st.sampled_from([0.1, 0.25, 0.3, 1.0]),
    horizon=st.floats(0.01, 6.0),
    initial=st.integers(0, 9),
)
# three sources switch on just before the sample at 0.9 while a burst starts
# just after it, and two switch off together just after the sample at 1.5
@example(
    points=[(3, 5e-13, 0, 2)],
    windows=[(3, -5e-13, 2, 1e-12, 0, 1), (3, -5e-13, 2, 1e-12, 1, 2), (3, -5e-13, 4, 0.0, 0, 3)],
    interval=0.3, horizon=5.0, initial=4,
)
def test_occupancy_samples_match_a_scan_per_instant(points, windows, interval, horizon, initial):
    # each point starts a one-unit burst of 1-3 packets on a port just around
    # a sample instant, and each window a constant source that starts and
    # stops just around sample instants, so source changes (several at one
    # instant when windows share it) straddle the 1e-12 rule too;
    # pre-filled packets depart at integer times, later departures at whole
    # units after arrivals, and the 12-packet buffer drops
    bursts = tuple(
        Burst(class_id=0, port=port, r=F(r), duration=F(1), start=F(k * interval + off))
        for k, off, port, r in points
        if 0 <= k * interval + off < horizon
    )
    constants = tuple(
        ConstantRate(class_id=0, port=port, rate=F(rate), start=F(k * interval + off),
                     stop=F((k + j) * interval + off_stop))
        for k, off, j, off_stop, port, rate in windows
        if 0 <= k * interval + off < horizon
    )
    cfg = ScenarioConfig(
        buffer_size=12, n_ports=2, classes=(TrafficClass(0, F(1), LOW),),
        policy=PolicyKind.DYNAMIC_THRESHOLDS, sources=bursts + constants, horizon=horizon,
        sample_interval=interval, initial_lengths={QueueId(0, 0): initial},
    )
    trace = run(cfg)
    assert trace.samples == _samples_oracle(trace.records, interval, horizon, initial)


# -- export ------------------------------------------------------------------

# floats whose repr uses an exponent, a negative zero and plain values
SPECIAL_FLOATS = (1e-07, 1e+16, -0.0, 0.0, 0.1, 2.5e-300, 1.7976931348623157e+308)


def _oracle_trace_rows(records):
    for time, port, class_id, action, qlen, threshold, _occ, _src in records:
        thr = "" if threshold is None else ("inf" if threshold == math.inf else repr(threshold))
        yield [repr(time), port, class_id, qlen, action, thr]


def _assert_trace_csv_matches_oracle(trace, out):
    write_trace_csv(trace, out / "trace.csv")
    assert (out / "trace.csv").read_bytes() == csv_module_bytes(
        ("time", "port", "class", "queue_len", "action", "threshold"),
        _oracle_trace_rows(trace.records))


_times = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats(allow_nan=False))
_thresholds = st.one_of(
    st.none(), st.just(math.inf), st.sampled_from(SPECIAL_FLOATS),
    st.floats(allow_nan=False, allow_infinity=False),
)
_records = st.tuples(
    _times, st.integers(0, 63), st.integers(-1, 63), st.sampled_from(ACTIONS),
    st.integers(0, 10**6), _thresholds, st.integers(0, 10**6), st.integers(-1, 99),
)
# row counts from none to a few thousand, around powers of two
_counts = st.one_of(
    st.sampled_from([0, 1, 2047, 2048, 2049, 4096, 4097]),
    st.integers(0, 6144),
)

_PINNED = [
    (t, p, c, a, q, thr, 0, 0)
    for t, thr in zip(SPECIAL_FLOATS, (None, math.inf, 1e-07, 1e+16, -0.0, 3.0, 0.1))
    for p, c, q in [(0, -1, 0), (5, 8, 1999)]
    for a in ACTIONS
]


@settings(max_examples=30, deadline=None)
@given(
    distinct=st.lists(_records, min_size=1, max_size=40),
    samples=st.lists(st.tuples(_times, st.integers(0, 10**6)), min_size=1, max_size=40),
    n=_counts,
)
@example(distinct=_PINNED, samples=[(t, 7) for t in SPECIAL_FLOATS], n=2048)
@example(distinct=_PINNED, samples=[(t, 0) for t in SPECIAL_FLOATS], n=2047)
@example(distinct=_PINNED, samples=[(t, 3) for t in SPECIAL_FLOATS], n=2049)
# a 0.0 threshold after -0.0: the two are equal as floats but print apart
@example(distinct=_PINNED + [(0.5, 1, 1, "drop", 3, 0.0, 0, 0)], samples=[(0.5, 1)],
         n=len(_PINNED) + 1)
def test_csv_writers_match_the_csv_module(distinct, samples, n):
    # sample times are k * interval, the interval the first drawn time
    trace = trace_from_rows(
        [distinct[i % len(distinct)] for i in range(n)],
        [samples[i % len(samples)][1] for i in range(n)],
        queue_ids=(),
        sample_interval=samples[0][0],
    )
    with tempfile.TemporaryDirectory() as d:
        out = Path(d)
        _assert_trace_csv_matches_oracle(trace, out)

        write_samples_csv(trace, out / "samples.csv")
        assert (out / "samples.csv").read_bytes() == csv_module_bytes(
            ("time", "occupancy"), ([repr(t), occ] for t, occ in trace.samples))


def test_trace_csv_caches_only_what_prints_alike(tmp_path):
    # the writer reuses the last time's text and keeps threshold texts in a
    # cache cleared when full: cycle more thresholds than it holds, in pairs
    # one ulp apart, three times, so evicted texts are needed again, then
    # zeros of both signs (equal as floats, printed apart) inside runs of
    # one time and as times, inf (CS) and NaN (never equal, so never a hit)
    distinct = [x for k in range(engine.THRESHOLD_CACHE_SIZE // 2 + 5)
                for x in (k * 0.37 + 1, math.nextafter(k * 0.37 + 1, math.inf))]
    cycled = [(i // 3 * 0.25, i % 6, 0, ACTIONS[i % 2], i % 50, distinct[i % len(distinct)], 0, 0)
              for i in range(3 * len(distinct))]
    signed = [(t, 0, 1, a, 3, thr, 0, 0)
              for t in (50.0, 50.5, -0.0, 0.0, -0.0)
              for thr in (-0.0, 0.0, 0.0, -0.0, 1.5)
              for a in ("admit", "drop")]
    special = [(t, 2, 1, a, 4, thr, 0, 0)
               for t in (60.0, math.nan, math.nan, 61.0)
               for thr in (math.inf, math.nan, math.nan, math.inf, -0.0)
               for a in ("drop", "admit")]
    departures = [(62.0, 1, 1, a, 0, None, 0, 0) for a in ("depart", "source_change", "admit")]
    trace = trace_from_rows(cycled + signed + special + departures + cycled, queue_ids=())
    _assert_trace_csv_matches_oracle(trace, tmp_path)


def test_real_run_trace_csv_matches_the_csv_module(tmp_path):
    # fig5_incast under FBA with twice the buffer: its decisions carry more
    # distinct thresholds than the writer's cache holds, and some come back
    # after the cache was cleared
    cfg = replace(preset("fig5_incast"), policy=PolicyKind.FBA, fba_period=1.0,
                  buffer_size=120, horizon=F(100))
    trace = run(cfg)
    thresholds = {r[5] for r in trace.records if r[3] in ("admit", "drop")}
    assert len(thresholds) > engine.THRESHOLD_CACHE_SIZE
    _assert_trace_csv_matches_oracle(trace, tmp_path)


def _export_peak(writer, *args) -> int:
    """The peak heap, in bytes, of ``writer(*args)``."""
    tracemalloc.start()
    try:
        writer(*args)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


# The writers join 256 rows per write: the 40,000 rows below peak at about
# 54 kB (trace) and 38 kB (samples).  That is one chunk's row strings, their
# join and its encoded copy, plus, for the trace, the 64-entry threshold-text
# cache, which these all-distinct thresholds keep refilling.  A write that
# large skips the text layer's pending buffer of small rows; 2048-row chunks
# would peak at 230-330 kB.  Each file is several times the bound, so
# neither can be built whole in memory.


def test_trace_export_streams_in_bounded_memory(tmp_path):
    records = [
        (i * 0.1, i % 6, i % 9, ACTIONS[i % 4], i % 50, i * 0.37, i % 2000, i % 10)
        for i in range(40_000)
    ]
    trace = trace_from_rows(records, queue_ids=())
    peak = _export_peak(write_trace_csv, trace, tmp_path / "trace.csv")
    assert (tmp_path / "trace.csv").stat().st_size > 1_000_000
    assert peak < 100_000


def test_samples_export_streams_in_bounded_memory(tmp_path):
    trace = trace_from_rows((), [i % 2000 for i in range(40_000)], queue_ids=())
    peak = _export_peak(write_samples_csv, trace, tmp_path / "samples.csv")
    assert (tmp_path / "samples.csv").stat().st_size > 500_000
    assert peak < 100_000


# write_table goes through the same writer.  The csv module's writer
# allocated a 32768-character record buffer (128 KiB) on a table's first
# row, so a 44-row table (the default analyze --curve grid) peaked at about
# 141 kB; spelled row by row, it peaks at a few kB.


def _table_rows(n):
    return ((("dt", "fb")[i % 2], i / 7, i, "case1", f"t={i}, \"x\"", None)
            for i in range(n))


def test_small_table_export_peaks_far_below_the_csv_record_buffer(tmp_path):
    header = ("scheme", "r", "n", "case", "t1", "burst")
    peak = _export_peak(write_table, tmp_path / "table.csv", header, _table_rows(44))
    assert len((tmp_path / "table.csv").read_bytes().splitlines()) == 45
    assert peak < 16_000


def test_table_export_streams_in_bounded_memory(tmp_path):
    header = ("scheme", "r", "n", "case", "t1", "burst")
    peak = _export_peak(write_table, tmp_path / "table.csv", header, _table_rows(40_000))
    assert (tmp_path / "table.csv").stat().st_size > 1_000_000
    assert peak < 100_000


# -- the packed trace --------------------------------------------------------

_ints = st.one_of(st.sampled_from([-1, 0, MAX_RECORD_INT]), st.integers(-1, MAX_RECORD_INT))
# decisions carry a threshold, inf under CS; departures and source changes
# none; the occupancy, derived on decode, is filled in by the test
_stored = st.one_of(
    st.tuples(_times, _ints, _ints, st.sampled_from(ACTIONS[:2]), _ints,
              st.one_of(st.just(math.inf), _times), st.just(0), _ints),
    st.tuples(_times, _ints, _ints, st.sampled_from(ACTIONS[2:]), _ints,
              st.none(), st.just(0), _ints),
)


def _bits(rows):
    """Rows with every float replaced by its IEEE 754 bytes."""
    return [
        tuple(struct.pack("<d", v) if isinstance(v, float) else v for v in row) for row in rows
    ]


@settings(max_examples=50, deadline=None)
@given(rows=st.lists(_stored, max_size=20))
@example(rows=[
    (t, MAX_RECORD_INT, MAX_RECORD_INT, a, MAX_RECORD_INT, thr, 0, -1)
    for t in SPECIAL_FLOATS
    for a, thr in (("admit", math.inf), ("drop", -0.0), ("depart", None), ("source_change", None))
])
def test_records_view_returns_the_stored_values_bitwise(rows):
    rows = with_running_occupancy(rows)
    assert _bits(trace_from_rows(rows, queue_ids=()).records) == _bits(rows)


def test_complete_sharing_run_at_the_largest_buffer_round_trips():
    # CS thresholds are inf, pre-filled packets depart with source -1, and
    # departures and source changes carry no threshold
    cfg = ScenarioConfig(
        buffer_size=MAX_RECORD_INT, n_ports=1, classes=(TrafficClass(0, F(1), LOW),),
        policy=PolicyKind.COMPLETE_SHARING,
        sources=(ConstantRate(class_id=0, port=0, rate=F(2), start=F(1, 2), stop=F(5)),),
        horizon=8.0, initial_lengths={QueueId(0, 0): 3},
    )
    with pytest.raises(ConfigError):
        replace(cfg, buffer_size=MAX_RECORD_INT + 1)
    trace = run(cfg)
    records = trace.records
    assert {r[5] for r in records if r[3] in ("admit", "drop")} == {math.inf}
    assert [r[7] for r in records if r[3] == "depart"][:4] == [-1, -1, -1, 0]
    assert {r[5] for r in records if r[3] in ("depart", "source_change")} == {None}
    assert sum(r[3] == "source_change" for r in records) == 2
    # the source, then the pre-filled queue, whose packets depart as -1
    assert trace.origins == ((0, 0, 0), (0, 0, -1))
    assert records == with_running_occupancy(records, 3)
    again = trace_from_rows(records, origins=trace.origins, queue_ids=(),
                            initial_lengths=trace.initial_lengths)
    assert again.packed == trace.packed and again.records == records


def test_record_is_24_bytes_and_holds_the_largest_tag():
    # origins number at most sources + pre-filled queues, each at most
    # MAX_RECORD_INT, so the largest tag still fits the unsigned 4 bytes
    assert RECORD.size == 24
    tag = (2 * MAX_RECORD_INT - 1) << 2 | SOURCE_CHANGE
    record = (1.5, 0.0, tag, MAX_RECORD_INT)
    assert RECORD.unpack(RECORD.pack(*record)) == record


@pytest.mark.parametrize("policy", [PolicyKind.DYNAMIC_THRESHOLDS, PolicyKind.FBA], ids=["dt", "fba"])
def test_trace_holds_at_most_28_bytes_per_record(policy):
    # FBA ticks every 0.1, 40 000 times, and keeps nothing per tick
    cfg = two_class_config(horizon=4000.0, sample_interval=10.0, policy=policy, fba_period=0.1)
    tracemalloc.start()
    try:
        trace = run(cfg)
        held, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    n_records = len(trace.packed) // RECORD.size
    assert n_records >= 20_000
    assert held / n_records <= 28


def test_occupancy_samples_are_4_byte_ints():
    # validation keeps every occupancy within MAX_RECORD_INT
    assert run(two_class_config()).occupancy.itemsize == 4
    trace = trace_from_rows((), [0, MAX_RECORD_INT], queue_ids=(), sample_interval=0.5)
    assert trace.occupancy.itemsize == 4
    assert trace.samples == [(0.0, 0), (0.5, MAX_RECORD_INT)]


@pytest.mark.parametrize("period", [0.1, 1.0, 2.0, 2.5])
@pytest.mark.parametrize("name", ["fig5_steady", "fig5_incast"])
def test_fba_trace_keeps_one_table_per_tick_and_no_tick_time(name, period):
    # tick k is due at exactly k * period, so ``ticks`` derives each time
    # bit for bit; the hook sees one table per tick, a list of alphas indexed
    # like queue_ids, which ``ticks`` keys by queue
    cfg = replace(preset(name), policy=PolicyKind.FBA, fba_period=period)
    rows, tables = ticks(cfg), tick_tables(cfg)
    trace = run(cfg)
    grid = [0.0] + [k * period for k in range(1, round(cfg.horizon / period) + 1)]
    assert _bits((t,) for t, _ in rows) == _bits((t,) for t in grid)
    for (_t, decoded), table in zip(rows, tables, strict=True):
        assert type(table) is list and len(table) == len(trace.queue_ids)
        assert all(type(alpha) is float for alpha in table)
        assert _bits(decoded.items()) == _bits(zip(trace.queue_ids, table, strict=True))
    # unchanged tables stay one shared list
    assert len({id(table) for table in tables}) < len(tables)
    # no trace field grows with the tick count: the records and the samples
    # have their own, and every other field is sized by the scenario
    assert len(trace.packed) == RECORD.size * len(trace.records)
    assert len(trace.occupancy) == round(cfg.horizon / cfg.sample_interval) + 1
    scenario = max(len(trace.origins), len(trace.queue_ids))
    for attr, value in vars(trace).items():
        if attr not in ("packed", "occupancy") and hasattr(value, "__len__"):
            assert len(value) <= scenario < len(rows), attr
