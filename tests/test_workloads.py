"""Sources, scenario configs, presets, sweeps, file round-trips."""

import configparser
import heapq
import math
import pickle
import random
from dataclasses import MISSING, fields, replace
from fractions import Fraction
from itertools import islice, repeat
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from fbsim.core import PolicyKind, QueueId, TrafficClass
from fbsim.engine import run
from fbsim.metrics import compute
from fbsim.fluid import (
    CaseKind, analyze_transient, classify_case, first_threshold_crossing, two_priority_incast,
)
from fbsim.workloads import (
    DEFAULT_SIZE_CDF,
    MAX_RECORD_INT,
    MAX_RUN_STEPS,
    Burst,
    ConfigError,
    ConstantRate,
    PoissonFlows,
    ScenarioConfig,
    ScenarioParseError,
    dumps_scenario,
    load_scenario,
    load_size_cdf,
    loads_scenario,
    preset,
    preset_names,
    source_stream,
    steady_omegas,
    sweep,
    transient_scenario,
    _arrival_bound,
    _read_sections,
    _read_text,
)
from oracles import affected

F = Fraction
LOW, HIGH = 0, 1
GOLDEN_SCENARIOS = Path(__file__).parent / "golden" / "scenarios"


def merged_arrivals(sources, seed, horizon):
    """(time, source index) of every source's arrivals merged by time, equal
    times in source order."""
    streams = [
        zip(source_stream(src, idx, seed, horizon), repeat(idx)) for idx, src in enumerate(sources)
    ]
    return list(heapq.merge(*streams))


class TestBuildSources:
    def test_burst_count_is_rate_times_duration(self):
        src = Burst(class_id=0, port=0, r=F(5), duration=F(4), start=F(3))
        arrivals = merged_arrivals([src], seed=1, horizon=100.0)
        assert len(arrivals) == 20
        times = [a[0] for a in arrivals]
        assert times[0] == 3.0
        assert all(3.0 <= t < 7.0 for t in times)

    def test_constant_rate_exact_intervals(self):
        src = ConstantRate(class_id=0, port=0, rate=F(2), start=F(0), stop=F(5))
        times = [a[0] for a in merged_arrivals([src], 1, 100.0)]
        assert times == [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5]

    def test_horizon_clips_open_ended_sources(self):
        src = ConstantRate(class_id=0, port=0, rate=F(1))
        assert len(merged_arrivals([src], 1, 10.0)) == 10

    def test_identical_seeds_identical_schedules(self):
        src = PoissonFlows(class_id=0, port=0, mean_interarrival=F(2))
        a = merged_arrivals([src], seed=9, horizon=200.0)
        b = merged_arrivals([src], seed=9, horizon=200.0)
        assert a == b

    def test_different_seeds_differ(self):
        src = PoissonFlows(class_id=0, port=0, mean_interarrival=F(2))
        assert merged_arrivals([src], 1, 200.0) != merged_arrivals([src], 2, 200.0)

    def test_poisson_respects_stop(self):
        src = PoissonFlows(class_id=0, port=0, mean_interarrival=F(1), stop=F(20))
        assert all(t < 20 for t, *_ in merged_arrivals([src], 3, 100.0))

    def test_constant_rate_queue_stays_short(self):
        # arrivals at the drain rate: the queue never builds up (arrivals tie
        # with services and are processed first, so the instant before each
        # service the length can touch 2, but it is back to <= 1 after)
        cfg = ScenarioConfig(
            buffer_size=60, n_ports=1, classes=(TrafficClass(0, F(1), LOW),),
            policy=PolicyKind.COMPLETE_SHARING,
            sources=(ConstantRate(class_id=0, port=0, rate=F(1)),),
            horizon=50.0,
        )
        trace = run(cfg)
        assert all(occ <= 1 for _, occ in trace.samples)
        assert max(trace.final_lengths.values()) <= 1


def _eager_poisson(src, seed, idx, horizon):
    """The Poisson schedule drawn whole by the documented recipe (one gap,
    then one size, from ``random.Random(f"{seed}:{idx}")``), then stably
    sorted by time: the order the per-source stream must reproduce lazily."""
    rng = random.Random(f"{seed}:{idx}")
    end = float(min(src.stop, F(horizon)) if src.stop is not None else horizon)
    t, spacing, drawn = float(src.start), 1.0 / float(src.flow_rate), []
    while True:
        t += -float(src.mean_interarrival) * math.log(1.0 - rng.random())
        if t >= end:
            break
        u = rng.random()
        size = next(s for s, p in DEFAULT_SIZE_CDF if u <= p)
        drawn.extend(t + j * spacing for j in range(size) if t + j * spacing < end)
    return drawn


class TestSourceStream:
    @settings(max_examples=200, deadline=None)
    @given(
        start=st.builds(F, st.integers(0, 30000), st.integers(1, 12)),
        rate=st.one_of(
            st.sampled_from([F(11, 4), F(6), F(7, 3), F(1, 10)]),
            st.builds(F, st.integers(1, 60), st.integers(1, 12)),
        ),
        span=st.builds(F, st.integers(1, 400), st.integers(1, 7)),
        kind=st.sampled_from(["stop", "horizon", "burst"]),
    )
    @example(start=F(3073, 3), rate=F(11, 4), span=F(300), kind="stop")
    @example(start=F(1025), rate=F(6), span=F(100), kind="burst")
    def test_times_are_bitwise_the_fraction_route(self, start, rate, span, kind):
        if kind == "burst":
            src, horizon = Burst(0, 0, r=rate, duration=span, start=start), float(start + 2 * span)
        elif kind == "stop":
            src, horizon = ConstantRate(0, 0, rate, start, start + span), float(start + 2 * span)
        else:
            src, horizon = ConstantRate(0, 0, rate, start), float(start + span)
        end = F(horizon) if kind == "horizon" else start + span
        expected = [float(start + F(k) / rate) for k in range(math.ceil((end - start) * rate))]
        got = list(source_stream(src, 0, 1, horizon))
        assert [t.hex() for t in got] == [t.hex() for t in expected]
        assert _arrival_bound(src, F(horizon)) == len(got)  # the cap counts the same stream

    @pytest.mark.parametrize("cdf", [
        None, ((-3, 0.25), (0, 0.5), (7, 0.75), (40, 1.0)), ((2, F(1, 3)), (5, 1)),
    ], ids=["default", "sizes_0_and_less", "exact"])
    def test_a_poisson_source_is_bounded_by_its_expected_packets(self, cdf):
        # 200 flows expected over 2000 time units, each of the CDF's exact
        # mean size (a flow of size 0 or less sends nothing); a stop ends
        # the span early
        rows = cdf or DEFAULT_SIZE_CDF
        mean = sum(max(size, 0) * (F(p) - F(below))
                   for (size, p), (_, below) in zip(rows, ((0, 0.0), *rows)))
        src = PoissonFlows(class_id=0, port=0, mean_interarrival=F(10), size_cdf=cdf)
        assert _arrival_bound(src, F(2000)) == 200 * mean
        stopped = replace(src, start=F(500), stop=F(1000))
        assert _arrival_bound(stopped, F(2000)) == 50 * mean
        if cdf is None:
            assert float(mean) == pytest.approx(11.14)

    def test_overlapping_poisson_flows_merge_in_draw_order(self):
        src = PoissonFlows(class_id=0, port=0, mean_interarrival=F(1, 2), flow_rate=F(1, 3))
        stream = list(source_stream(src, 1, 7, 300.0))
        drawn = _eager_poisson(src, 7, 1, 300.0)
        assert drawn != sorted(drawn)  # flows do overlap
        assert stream == sorted(drawn)
        schedule = merged_arrivals([ConstantRate(1, 1, F(3)), src], 7, 300.0)
        assert [t for t, idx in schedule if idx == 1] == stream

    @pytest.mark.parametrize("seed,idx,first", [
        (1, 0, ["0x1.4b66ad993e763p+1", "0x1.c1ec8c7e21aa5p+1", "0x1.cb66ad993e763p+1",
                "0x1.20f6463f10d52p+2", "0x1.60f6463f10d52p+2"]),
        (2**64 - 1, 5, ["0x1.31a97f0fc187ap-1", "0x1.2f1bab6cd99b1p+2", "0x1.6f1bab6cd99b1p+2",
                        "0x1.af1bab6cd99b1p+2", "0x1.ef1bab6cd99b1p+2"]),
    ], ids=["seed1_idx0", "seed_max_idx5"])
    def test_poisson_stream_is_pinned(self, seed, idx, first):
        # the first five packet times of one source: the stream is frozen,
        # across Python versions too
        src = PoissonFlows(class_id=0, port=0, mean_interarrival=F(2))
        times = list(islice(source_stream(src, idx, seed, 1000.0), 5))
        assert [t.hex() for t in times] == first

    def test_seed_and_index_give_distinct_streams(self):
        src = PoissonFlows(class_id=0, port=0, mean_interarrival=F(2))
        streams = {tuple(source_stream(src, idx, seed, 200.0)) for seed, idx in ((3, 0), (0, 3), (3, 1))}
        assert len(streams) == 3


class TestSizeCdf:
    def test_load_and_sample(self, tmp_path):
        path = tmp_path / "cdf.txt"
        path.write_text("# size cumprob\n2 0.5\n10 1.0\n")
        cdf = load_size_cdf(path)
        assert cdf == ((2, 0.5), (10, 1.0))

    def test_rejects_non_monotone(self, tmp_path):
        path = tmp_path / "cdf.txt"
        path.write_text("4 0.9\n2 1.0\n")
        with pytest.raises(ScenarioParseError):
            load_size_cdf(path)

    def test_rejects_incomplete(self, tmp_path):
        path = tmp_path / "cdf.txt"
        path.write_text("4 0.9\n")
        with pytest.raises(ScenarioParseError):
            load_size_cdf(path)

    @pytest.mark.parametrize("table", [
        ((2, 0.5), (8, 0.9)), ((8, 0.5), (2, 1.0)), ((2, 0.5), (8, 1.5)), (),
    ])
    def test_inline_table_checked_when_built(self, table):
        with pytest.raises(ScenarioParseError):
            PoissonFlows(class_id=0, port=0, mean_interarrival=2, size_cdf=table)

    @pytest.mark.parametrize("line", ["abc 1.0", "10 x", "10 1.0 7", "10"])
    def test_malformed_line_names_file_and_line(self, line, tmp_path):
        path = tmp_path / "cdf.txt"
        path.write_text(f"# size cumprob\n2 0.5\n{line}\n")
        with pytest.raises(ScenarioParseError) as exc:
            load_size_cdf(path)
        assert str(exc.value).startswith(f"size CDF {path} line 3: ")

    @pytest.mark.parametrize("text,where,problem", [
        ("4 0.9\n2 1.0\n", " line 2", "must be increasing"),
        ("# size cumprob\n2 0.5\n\n2 1.0\n", " line 4", "must be increasing"),
        ("2 0.5\n8 0.4\n16 1.0\n", " line 2", "must be increasing"),
        ("2 0.5\n\n8 0.9\n", " line 3", "must end at cumulative probability 1.0"),
        ("# no rows\n", "", "must end at cumulative probability 1.0"),
    ])
    def test_rule_violation_names_file_and_line(self, text, where, problem, tmp_path):
        path = tmp_path / "cdf.txt"
        path.write_text(text)
        with pytest.raises(ScenarioParseError) as exc:
            load_size_cdf(path)
        assert str(exc.value) == f"size CDF {path}{where}: {problem}"

    def test_file_table_checked_when_built(self, tmp_path):
        path = tmp_path / "cdf.txt"
        path.write_text("4 0.9\n2 1.0\n")
        with pytest.raises(ScenarioParseError):
            PoissonFlows(class_id=0, port=0, mean_interarrival=2, size_cdf=str(path))


class TestPresets:
    def test_all_presets_validate(self):
        for name in preset_names():
            preset(name)

    def test_fig2_shape(self):
        cfg = preset("fig2")
        assert cfg.buffer_size == 60
        assert {c.alpha for c in cfg.classes} == {1, 2}
        assert cfg.initial_lengths[QueueId(0, 0)] == 30

    def test_fig4_incast_shape(self):
        cfg = preset("fig4_incast")
        lows = [q for q, v in cfg.initial_lengths.items() if v == 10]
        assert len(lows) == 5 and all(q.port == 1 for q in lows)
        burst = [s for s in cfg.sources if isinstance(s, Burst)]
        assert len(burst) == 1 and burst[0].r == 5 and burst[0].port == 0

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            preset("nope")


class TestSweep:
    def test_burst_size_fractions(self):
        base = preset("fig4_incast")
        configs = sweep(base, "burst_size", [F(i, 10) for i in range(1, 10)])
        assert len(configs) == 9
        for frac, cfg in zip(range(1, 10), configs):
            burst = [s for s in cfg.sources if isinstance(s, Burst)][0]
            assert burst.r * burst.duration == F(frac, 10) * base.buffer_size
            assert cfg.classes == base.classes and cfg.horizon == base.horizon

    def test_r_axis(self):
        base = preset("fig4_incast")
        cfgs = sweep(base, "r", [2, 8])
        rates = [[s.r for s in c.sources if isinstance(s, Burst)][0] for c in cfgs]
        assert rates == [2, 8]

    def test_load_axis_scales_constant_sources(self):
        base = preset("fig4_steady")
        (cfg,) = sweep(base, "load", [F(1, 2)])
        assert all(
            s.rate == b.rate / 2
            for s, b in zip(cfg.sources, base.sources)
            if isinstance(s, ConstantRate)
        )

    def test_n_low_queues_axis(self):
        base = preset("dt_scaling")
        cfgs = sweep(base, "n_low_queues", [1, 4, 32])
        assert [c.n_ports for c in cfgs] == [2, 5, 33]
        for n, cfg in zip([1, 4, 32], cfgs):
            lows = [s for s in cfg.sources if s.class_id == 0]
            assert len(lows) == n
            assert len({s.port for s in lows}) == n

    def test_n_low_queues_axis_takes_whole_counts_only(self):
        base = preset("dt_scaling")
        assert [c.n_ports for c in sweep(base, "n_low_queues", [4.0, F(6, 2)])] == [5, 4]
        for value in (2.5, F(7, 2)):
            with pytest.raises(ConfigError, match="n_low_queues must be a whole number"):
                sweep(base, "n_low_queues", [value])

    def test_empty_values(self):
        assert sweep(preset("fig2"), "load", []) == []

    def test_incompatible_axis(self):
        with pytest.raises(ConfigError):
            sweep(preset("fig4_steady"), "r", [2])
        poisson_only = replace(preset("fig2"), sources=(
            PoissonFlows(class_id=0, port=0, mean_interarrival=F(2)),))
        with pytest.raises(ConfigError, match="load axis needs at least one constant-rate"):
            sweep(poisson_only, "load", [2])
        with pytest.raises(ConfigError):
            sweep(preset("fig2"), "bogus", [1])

    @pytest.mark.parametrize("base_name, axis, value, message", [
        ("fig4_incast", "bogus", 1, "unknown sweep axis 'bogus'; known: load, burst_size, "
                                    "n_low_queues, r"),
        ("fig4_incast", "load", 0, "load multiplier must be > 0"),
        ("fig4_incast", "burst_size", 0, "burst_size fraction must be in (0, 1]"),
        ("fig4_incast", "burst_size", F(11, 10), "burst_size fraction must be in (0, 1]"),
        ("fig4_incast", "r", -1, "burst rate must be > 0"),
        ("poisson_only", "load", 2, "load axis needs at least one constant-rate source"),
        ("fig4_steady", "burst_size", F(1, 2), "burst_size axis needs at least one burst source"),
        ("fig4_steady", "r", 2, "r axis needs at least one burst source"),
        ("dt_scaling", "n_low_queues", 0, "n_low_queues must be >= 1"),
        ("fig4_incast", "n_low_queues", 2,
         "n_low_queues axis needs exactly one low-priority class fed by one constant source"),
        ("fig4_steady", "n_low_queues", 2,
         "n_low_queues axis needs exactly one low-priority class fed by one constant source"),
    ])
    def test_each_refusal_states_its_exact_message(self, base_name, axis, value, message):
        # one message per rule and per axis, so no axis's rule drifts from its text
        if base_name == "poisson_only":
            base = replace(preset("fig2"), sources=(
                PoissonFlows(class_id=0, port=0, mean_interarrival=F(2)),))
        else:
            base = preset(base_name)
        with pytest.raises(ConfigError) as exc:
            sweep(base, axis, [value])
        assert str(exc.value) == message

    @pytest.mark.parametrize("axis", ["load", "burst_size", "r", "n_low_queues"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_values_are_refused_on_every_axis(self, axis, value):
        with pytest.raises(ConfigError, match=f"{axis} value must be finite"):
            sweep(preset("fig4_incast"), axis, [value])


def _non_default(default, values):
    return values.filter(lambda v: v != default)


_FRACS = st.builds(F, st.integers(1, 400), st.integers(1, 12))
_TIMES = st.floats(1e-3, 1e4)


@st.composite
def every_field_set(draw) -> ScenarioConfig:
    """A config with every ScenarioConfig field away from its default and a
    source of each kind, the constant one with a stop and the Poisson one
    with an inline CDF and a stop.

    The constructor must accept it, and it again with any one field set back
    to its default.  So each bound comes from values already drawn: every
    source starts before the default horizon of 100, the horizon lies in
    (100, 9e5) so the default sample interval stays under MAX_RUN_STEPS,
    both periods are at least horizon / 10**6, the buffer holds the
    initial lengths, and each source's span is at most 400, so the sources
    send fewer than MAX_RUN_STEPS packets (at most about 5.5e6)."""
    n_ports = draw(st.integers(1, 6))
    ids = draw(st.lists(st.integers(0, 40), min_size=1, max_size=4, unique=True))
    queues = st.builds(QueueId, st.integers(0, n_ports - 1), st.sampled_from(ids))
    start = st.builds(F, st.integers(0, 99), st.integers(1, 8))
    horizon = draw(st.floats(100.0, 9e5, exclude_min=True, exclude_max=True))
    periods = st.floats(max(1e-3, horizon / 10**6), 1e4)
    initial = draw(st.dictionaries(queues, st.integers(1, 100), min_size=1))

    def where():
        return draw(st.sampled_from(ids)), draw(st.integers(0, n_ports - 1))

    sizes = sorted(draw(st.sets(st.integers(1, 500), min_size=1, max_size=5)))
    probs = sorted(draw(st.lists(st.floats(1e-6, 1.0), min_size=len(sizes) - 1,
                                 max_size=len(sizes) - 1))) + [1.0]
    t0, t1 = draw(start), draw(start)
    sources = (
        ConstantRate(*where(), rate=draw(_FRACS), start=t1, stop=t1 + draw(_FRACS)),
        Burst(*where(), r=draw(_FRACS), duration=draw(_FRACS), start=draw(start)),
        PoissonFlows(*where(), mean_interarrival=draw(_FRACS), flow_rate=draw(_FRACS), start=t0,
                     stop=t0 + draw(_FRACS), size_cdf=tuple(zip(sizes, probs))),
    )
    return ScenarioConfig(
        buffer_size=draw(st.integers(sum(initial.values()), 10**6)), n_ports=n_ports,
        classes=tuple(TrafficClass(c, draw(_FRACS), draw(st.integers(0, 3))) for c in ids),
        policy=draw(st.sampled_from(PolicyKind)),
        sources=sources + tuple(draw(st.permutations(sources))[: draw(st.integers(0, 3))]),
        horizon=horizon,
        queue_mode="single",
        seed=draw(st.integers(2, 2**64 - 1)),
        congestion_threshold=draw(st.integers(1, 100)),
        fba_period=draw(_non_default(1.0, periods)),
        sample_interval=draw(_non_default(0.1, periods)),
        snapshot_staleness=draw(_TIMES),
        initial_lengths=initial,
        alpha_overrides=draw(st.dictionaries(queues, _FRACS, min_size=1)),
    )


class TestConfigFile:
    @settings(max_examples=60, deadline=None)
    @given(cfg=every_field_set())
    def test_round_trip_over_every_field(self, cfg):
        # a field left at its default would read back equal without being
        # written, so every field is set, and a field added to ScenarioConfig
        # fails here until the draw and the file format both cover it
        text = dumps_scenario(cfg)
        assert loads_scenario(text) == cfg
        assert dumps_scenario(loads_scenario(text)) == text
        for f in fields(ScenarioConfig):
            if f.default is MISSING and f.default_factory is MISSING:
                continue  # a required field the round trip above already needs
            default = f.default if f.default_factory is MISSING else f.default_factory()
            assert getattr(cfg, f.name) != default, f.name
            assert dumps_scenario(replace(cfg, **{f.name: default})) != text, f.name

    def test_round_trip_is_identity(self):
        for name in preset_names():
            cfg = preset(name)
            text = dumps_scenario(cfg)
            again = loads_scenario(text)
            assert again == cfg
            assert dumps_scenario(again) == text

    @pytest.mark.parametrize("whole,controls,override,rate", [
        (int, (20.5, 2.0, 0.5, 1.5), F(3, 2), F(9, 2)),  # the kinds the package's builders give
        (F, (F(41, 2), F(2), F(1, 2), F(3, 2)), 0.1, 4.5),
        (float, (20, 2, 1, 3), 3, 4),
    ], ids=["builders", "fraction_counts", "float_counts"])
    def test_round_trip_with_extras(self, whole, controls, override, rate):
        # an alpha override and a Poisson source with an inline CDF, and
        # every number in another kind: counts and ids as int, Fraction or
        # whole float, the run controls as float, Fraction or int, the
        # override and the rates as Fraction, float or int; the classes
        # come as a list and the policy as its text.  Each converts when
        # the config is built, so its lock reads back equal, and the
        # re-read config analyzes and runs as it does (a whole-float seed
        # once seeded the Poisson draws with "7.0" and its lock with "7")
        base = preset("fig4_incast")
        horizon, fba_period, sample_interval, staleness = controls
        cfg = replace(
            base, buffer_size=whole(90), n_ports=whole(3), seed=whole(7),
            congestion_threshold=whole(2), horizon=horizon, fba_period=fba_period,
            sample_interval=sample_interval, snapshot_staleness=staleness,
            classes=[TrafficClass(whole(c.class_id), c.alpha, whole(c.priority_id))
                     for c in base.classes],
            policy=base.policy.value,
            sources=tuple(
                replace(s, class_id=whole(s.class_id), port=whole(s.port), rate=rate)
                if isinstance(s, ConstantRate) else replace(s, port=whole(s.port), r=rate)
                for s in base.sources
            ) + (PoissonFlows(whole(0), whole(2), mean_interarrival=rate, flow_rate=rate,
                              size_cdf=((2, 0.5), (8, 1.0))),),
            initial_lengths={QueueId(whole(1), whole(c)): whole(10) for c in range(5)},
            alpha_overrides={QueueId(whole(1), whole(0)): override},
        )
        text = dumps_scenario(cfg)
        again = loads_scenario(text)
        assert again == cfg and dumps_scenario(again) == text
        assert analyze_transient(transient_scenario(again)) == analyze_transient(transient_scenario(cfg))
        assert run(again).packed == run(cfg).packed

    def test_a_policy_given_as_text_runs_as_that_policy(self):
        # "fb" once stayed a string: the engine ran it as DT, with 17 burst
        # drops, while its own lock read back as FB, with none
        cfg = replace(preset("fig5_incast"), policy="fb")
        assert cfg == loads_scenario(dumps_scenario(cfg)) == preset("fig5_incast")
        assert compute(run(cfg), cfg).per_queue["0:5"]["dropped"] == 0

    def test_fb_single_lock_loads_as_fb(self):
        # scenario.lock files written before fb_single became an alias of
        # fb say kind = fb_single; they load to the fb config
        cfg = replace(preset("fig5_incast"), queue_mode="single")
        text = dumps_scenario(cfg)
        assert "kind = fb\n" in text
        assert loads_scenario(text.replace("kind = fb\n", "kind = fb_single\n")) == cfg

    @pytest.mark.parametrize("section,first,second", [
        ("initial", "0:0 = 30", "00:0 = 7"),
        ("alpha_overrides", "1:1 = 3/2", "1:01 = 5"),
    ])
    def test_one_queue_spelled_twice_is_a_parse_error(self, section, first, second):
        text = dumps_scenario(replace(preset("fig2"), alpha_overrides={QueueId(1, 1): F(3, 2)}))
        assert f"\n{first}\n" in text
        with pytest.raises(ScenarioParseError) as exc:
            loads_scenario(text.replace(f"\n{first}\n", f"\n{first}\n{second}\n"))
        key, other = first.split()[0], second.split()[0]
        assert str(exc.value).startswith(f"[{section}]: keys {key!r} and {other!r} both name queue")

    def test_parse_error_on_garbage(self):
        with pytest.raises(ScenarioParseError):
            loads_scenario("not a scenario")
        with pytest.raises(ScenarioParseError):
            loads_scenario("[switch]\nbuffer = x\n[classes]\n[policy]\nkind = dt\n")

    def test_bad_alpha_is_a_validation_error(self):
        text = dumps_scenario(preset("fig2")).replace("alpha=1 ", "alpha=0 ")
        with pytest.raises(ConfigError):
            loads_scenario(text)

    @pytest.mark.parametrize("changes,message", [
        # each of these once built, and failed in run or in its own lock, or
        # raised AttributeError or TypeError inside the constructor
        (dict(initial_lengths={QueueId(1, 0): 2.5}), "initial_lengths: expected a whole number, got 2.5"),
        (dict(n_ports=2.5), "n_ports: expected a whole number, got 2.5"),
        (dict(buffer_size=F(121, 2)), "buffer_size: expected a whole number"),
        (dict(seed=math.nan), "seed: expected a whole number, got nan"),
        (dict(congestion_threshold="2"), "congestion_threshold: expected a whole number"),
        (dict(alpha_overrides={QueueId(1, 0): math.inf}), "alpha_overrides: cannot convert Infinity"),
        (dict(policy="nonsense"), "policy: 'nonsense' is not a valid PolicyKind"),
        (dict(classes=(object(),)), "classes: expected TrafficClass, got <object"),
        (dict(initial_lengths={(1, 0): 5}), r"initial_lengths: expected QueueId, got \(1, 0\)"),
        (dict(alpha_overrides={(1, 0): 2}), r"alpha_overrides: expected QueueId, got \(1, 0\)"),
        (dict(buffer_size=None), "buffer_size: expected a whole number, got None"),
    ], ids=["initial_length", "ports", "buffer", "seed", "threshold", "override",
            "policy", "classes", "initial_key", "override_key", "no_buffer"])
    def test_a_number_that_does_not_convert_is_refused(self, changes, message):
        with pytest.raises(ConfigError, match=message):
            replace(preset("fig4_incast"), **changes)

    def test_a_source_of_no_source_type_is_refused_when_built(self):
        # a stranger once raised AttributeError in the constructor, and a
        # duck-typed source built and was refused only when the run started
        duck = type("Duck", (), dict(class_id=0, port=0, rate=F(1), start=F(0), stop=None))()
        for stranger in (object(), duck):
            with pytest.raises(ConfigError, match="sources: expected ConstantRate or Burst or PoissonFlows, got "):
                replace(preset("fig2"), sources=(stranger,))

    def test_validation_catches_bad_references(self):
        cfg = preset("fig2")
        with pytest.raises(ConfigError):
            replace(cfg, sources=(ConstantRate(class_id=9, port=0, rate=F(1)),))
        with pytest.raises(ConfigError):
            replace(cfg, sources=(ConstantRate(class_id=0, port=7, rate=F(1)),))
        with pytest.raises(ConfigError):
            replace(cfg, initial_lengths={QueueId(0, 0): 100})
        with pytest.raises(ConfigError):
            replace(cfg, horizon=5.0)  # source starts at 10

    def test_a_checked_config_cannot_change(self):
        # the constructor keeps read-only copies of the two maps it checked:
        # five queues at 50 would put 250 packets in a 60-packet buffer
        initial, overrides = {QueueId(1, c): 10 for c in range(5)}, {QueueId(0, 5): F(3)}
        cfg = replace(preset("fig4_incast"), initial_lengths=initial, alpha_overrides=overrides)
        initial[QueueId(1, 0)] = overrides[QueueId(0, 5)] = 50
        assert cfg.initial_lengths == {QueueId(1, c): 10 for c in range(5)}
        assert cfg.alpha_overrides == {QueueId(0, 5): F(3)}
        for table in (cfg.initial_lengths, cfg.alpha_overrides):
            for change in (lambda m: m.__setitem__(QueueId(1, 0), 50),
                           lambda m: m.__delitem__(QueueId(1, 0)), lambda m: m.__ior__({}),
                           lambda m: m.update({}), lambda m: m.setdefault(QueueId(0, 0), 1),
                           lambda m: m.pop(QueueId(1, 0), None), lambda m: m.popitem(),
                           lambda m: m.clear()):
                with pytest.raises(TypeError, match="read-only"):
                    change(table)
        assert sum(cfg.initial_lengths.values()) == 50
        # a parallel sweep pickles each config
        again = pickle.loads(pickle.dumps(cfg))
        assert again == cfg and type(again.initial_lengths) is type(cfg.initial_lengths)
        with pytest.raises(TypeError, match="read-only"):
            again.alpha_overrides[QueueId(0, 5)] = F(9)


    @pytest.mark.parametrize("changes", [
        dict(sample_interval=1e-9),
        dict(sample_interval=60.0 / (MAX_RUN_STEPS + 1)),
        dict(policy=PolicyKind.FBA, fba_period=1e-9),
        dict(policy=PolicyKind.FBA, fba_period=60.0 / (MAX_RUN_STEPS + 1)),
        dict(buffer_size=MAX_RECORD_INT + 1),
        dict(n_ports=MAX_RECORD_INT + 1),
        dict(classes=preset("fig2").classes + (TrafficClass(MAX_RECORD_INT + 1, F(1), LOW),)),
        dict(sources=(ConstantRate(0, 0, F(MAX_RUN_STEPS + 1, 60)),)),
        dict(sources=(ConstantRate(0, 0, F(MAX_RUN_STEPS, 120)),) * 2 + (Burst(1, 1, F(1), F(1)),)),
        dict(sources=(PoissonFlows(0, 0, mean_interarrival=F(1, 10**6)),)),
    ], ids=["samples", "samples_at_bound", "ticks", "ticks_at_bound", "buffer", "ports", "class",
            "arrivals", "arrivals_summed", "poisson_arrivals"])
    def test_validation_bounds_what_a_run_stores(self, changes):
        # fig2 runs 60 time units; no config here is ever run
        with pytest.raises(ConfigError):
            replace(preset("fig2"), **changes)

    @pytest.mark.parametrize("changes", [
        dict(sample_interval=60.0 / (MAX_RUN_STEPS - 2)),
        dict(policy=PolicyKind.FBA, fba_period=60.0 / (MAX_RUN_STEPS - 2)),
        dict(fba_period=1e-9),  # no controller ticks under DT
        dict(buffer_size=MAX_RECORD_INT),
        dict(sources=(ConstantRate(0, 0, F(MAX_RUN_STEPS, 60)),)),
        dict(sources=(ConstantRate(0, 0, F(MAX_RUN_STEPS, 30), stop=F(30)),)),
    ], ids=["samples", "ticks", "dt_period", "buffer", "arrivals", "arrivals_to_stop"])
    def test_validation_admits_up_to_the_bounds(self, changes):
        replace(preset("fig2"), **changes)


#: The texts the fuzz test edits: the golden scenario files and the presets.
_FUZZ_TEXTS = tuple(p.read_text() for p in sorted(GOLDEN_SCENARIOS.glob("*.ini"))) + tuple(
    dumps_scenario(preset(name)) for name in preset_names())
_FUZZ_TOKENS = ("nan", "inf", "1e400", "1e-400", "9e307", "1/0", "0x10", "\u0661", "1_000", "-1",
                "=", "[")


@st.composite
def edited_scenario_texts(draw) -> str:
    """A golden scenario text or a preset's with 1-3 line edits: a token, or
    the value of a ``key=value`` token, replaced by one of _FUZZ_TOKENS, a
    line duplicated, deleted or cut, led by a space, a tab or ``;``, ended
    by ``\\r``, or a ``[DEFAULT]`` line put before it."""
    lines = draw(st.sampled_from(_FUZZ_TEXTS)).split("\n")
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        line, edit = lines[i], draw(st.sampled_from(
            ("token", "value", "duplicate", "delete", "cut", "prefix", "crlf", "default")))
        parts = line.split(" ")
        pairs = [j for j, part in enumerate(parts) if "=" in part and part != "="]
        if edit == "token":
            parts[draw(st.integers(0, len(parts) - 1))] = draw(st.sampled_from(_FUZZ_TOKENS))
            lines[i] = " ".join(parts)
        elif edit == "value" and pairs:
            j = draw(st.sampled_from(pairs))
            parts[j] = parts[j].partition("=")[0] + "=" + draw(st.sampled_from(_FUZZ_TOKENS))
            lines[i] = " ".join(parts)
        elif edit == "duplicate":
            lines.insert(i, line)
        elif edit == "delete" and len(lines) > 1:
            del lines[i]
        elif edit == "cut":
            lines[i] = line[:draw(st.integers(0, len(line)))]
        elif edit == "prefix":  # a continuation line or a comment
            lines[i] = draw(st.sampled_from((" ", "\t", ";"))) + line
        elif edit == "crlf":
            lines[i] = line + "\r"
        elif edit == "default":
            lines.insert(i, "[DEFAULT]")
    return "\n".join(lines)


@settings(max_examples=300, deadline=None)
@given(text=edited_scenario_texts())
# 9e307 / sample_interval 0.5 is inf as a float: the sample cap once took
# its floor and raised OverflowError
@example(text=(GOLDEN_SCENARIOS / "fba_period_0.ini").read_text().replace(
    "horizon = 30.0", "horizon = 9e307"))
def test_an_edited_scenario_text_loads_or_raises_a_documented_error(text):
    # a parse error (exit 2) or a validation error (exit 3), nothing else;
    # and a text that loads gives a config that reads back equal
    try:
        cfg = loads_scenario(text)
    except (ScenarioParseError, ConfigError):
        return
    assert loads_scenario(dumps_scenario(cfg)) == cfg


def _configparser_sections(text: str):
    """The oracle: ``{section: {key: value}}`` as the ConfigParser that once
    read scenario files reads ``text`` (its settings as they were), or None
    where it refuses the text."""
    parser = configparser.ConfigParser(
        delimiters=("=",), inline_comment_prefixes=("#",), interpolation=None, default_section="",
    )
    parser.optionxform = str
    try:
        parser.read_string(text)
    except configparser.Error:
        return None
    return {name: dict(parser.items(name, raw=True)) for name in parser.sections()}


def _sections_or_none(text: str):
    try:
        return _read_sections(text)
    except ScenarioParseError as exc:
        assert str(exc).startswith("bad scenario file: line ")
        return None


#: Fragments of the texts that exercise the reader's every rule.
_READER_FRAGMENTS = ("[", "]", "=", "#", ";", " ", "\t", "\n", "\r", "\x0c", "\xa0", "DEFAULT",
                     "a", "b", "1", "[a]", "\nk = v")


@st.composite
def _reader_texts(draw) -> str:
    """Fragments joined at random, or a golden or preset text with 1-3
    fragment runs put into its lines."""
    fragments = st.lists(st.sampled_from(_READER_FRAGMENTS), max_size=12).map("".join)
    if draw(st.booleans()):
        return draw(fragments)
    lines = draw(st.sampled_from(_FUZZ_TEXTS)).split("\n")
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        at = draw(st.integers(0, len(lines[i])))
        lines[i] = lines[i][:at] + draw(fragments) + lines[i][at:]
    return "\n".join(lines)


@settings(max_examples=400, deadline=None)
@given(text=_reader_texts())
@example(text="[a]\nk = v # c\n  more\n\n\t;x\n  last\n\n[b]junk\nx=y#z\n")
def test_the_reader_reads_as_configparser_did(text):
    assert _sections_or_none(text) == _configparser_sections(text)


@pytest.mark.parametrize("text,number,problem", [
    ("# c\nbuffer = 60\n[switch]\n", 2, "a key before any section"),
    ("[switch]\nbuffer = 60\n\n[switch]\n", 4, "section [switch] given twice"),
    ("[switch]\nbuffer = 60\nbuffer= 70\n", 3, "key 'buffer' given twice in [switch]"),
    ("[switch]\nbuffer 60\n", 2, "expected key = value"),
    ("[switch]\n= 60\n", 2, "expected key = value"),
])
def test_each_refusal_of_the_reader_names_its_line(text, number, problem):
    assert _configparser_sections(text) is None
    with pytest.raises(ScenarioParseError) as exc:
        loads_scenario(text)
    assert str(exc.value).startswith(f"bad scenario file: line {number}: {problem}: ")


def test_a_byte_order_mark_is_not_text_but_a_bad_byte_keeps_its_offset(tmp_path):
    cdf, bom_cdf, bad = tmp_path / "cdf.txt", tmp_path / "bom_cdf.txt", tmp_path / "bad.txt"
    cdf.write_text("# size cumprob\n2 0.5\n10 1.0\n")
    bom_cdf.write_bytes(b"\xef\xbb\xbf" + cdf.read_bytes())
    assert load_size_cdf(bom_cdf) == load_size_cdf(cdf)
    bad.write_bytes(b"[switch]\n\xff")
    with pytest.raises(ScenarioParseError, match="not UTF-8 at byte 9$"):
        _read_text(bad)


def misfit_incast(layout: str) -> ScenarioConfig:
    """fig4_incast in a layout that the fluid bridge cannot describe."""
    base = preset("fig4_incast")
    burst = next(s for s in base.sources if isinstance(s, Burst))
    if layout == "prefilled":
        return replace(base, initial_lengths={**base.initial_lengths, QueueId(0, 5): 8})
    if layout == "co_fed":
        return replace(base, sources=base.sources + (ConstantRate(5, 0, F(1), start=F(2)),))
    if layout == "burst_twice":
        return replace(base, sources=base.sources + (burst,))
    late = replace(burst, port=2, start=F(15)) if layout == "two_starts" else replace(burst, port=2, r=F(4))
    return replace(base, n_ports=3, sources=base.sources + (late,))


def assert_same_fluid_scenario(bridged, built):
    """The bridge and two_priority_incast built the same weights, drains
    and first crossing (queue ids and old fill rates may differ)."""
    assert (bridged.buffer_size, bridged.r) == (built.buffer_size, built.r)
    assert sorted((q.omega, q.gamma) for q in bridged.old) == sorted((q.omega, q.gamma) for q in built.old)
    assert [(q.omega, q.gamma, q.factor) for q in bridged.new] == \
        [(q.omega, q.gamma, q.factor) for q in built.new]
    assert first_threshold_crossing(bridged) == first_threshold_crossing(built)


class TestFluidBridges:
    @pytest.mark.parametrize("name,scheme,t1", [("fig4_incast", "dt", 2), ("fig5_incast", "fb", F(75, 8))])
    def test_both_fluid_builders_give_the_incast_presets(self, name, scheme, t1):
        built = two_priority_incast(60, 1, 2, 5, n_low_ports=1, low_queues_per_port=5, scheme=scheme)
        assert_same_fluid_scenario(transient_scenario(preset(name)), built)
        assert first_threshold_crossing(built) == t1

    @pytest.mark.parametrize("kind", [PolicyKind.DYNAMIC_THRESHOLDS, PolicyKind.FB, PolicyKind.FBA])
    def test_both_fluid_builders_agree_on_a_seeded_family(self, kind):
        # two_priority_incast's layout written as a scenario: m low classes
        # share each low port, and each new queue has a port of its own.
        # Every low queue is fed above its 1/m share of its port, so it
        # stays congested through the burst whatever rule weighs it.
        rng = random.Random(4)
        for _ in range(30):
            n_low_ports, m, n_new = rng.randint(0, 4), rng.randint(1, 3), rng.randint(1, 3)
            buffer, a_low, a_high = rng.randint(20, 200), F(rng.randint(1, 8), 4), F(rng.randint(1, 16), 4)
            r = F(rng.randint(1, 40), 4)
            lows = tuple(
                ConstantRate(class_id=c, port=n_new + p, rate=F(1, m) + F(rng.randint(1, 8), 4))
                for p in range(n_low_ports) for c in range(m)
            )
            bursts = tuple(Burst(class_id=m, port=p, r=r, duration=F(8), start=F(2)) for p in range(n_new))
            cfg = ScenarioConfig(
                buffer_size=buffer, n_ports=n_new + n_low_ports, policy=kind, horizon=20.0,
                classes=tuple(TrafficClass(c, a_low, 0) for c in range(m)) + (TrafficClass(m, a_high, 1),),
                sources=lows + bursts,
            )
            built = two_priority_incast(
                buffer, a_low, a_high, r, n_low_ports=n_low_ports, low_queues_per_port=m, n_new=n_new,
                scheme="dt" if kind is PolicyKind.DYNAMIC_THRESHOLDS else "fb",
            )
            assert_same_fluid_scenario(transient_scenario(cfg), built)

    @pytest.mark.parametrize("kind", [PolicyKind.DYNAMIC_THRESHOLDS, PolicyKind.FB, PolicyKind.FBA])
    def test_a_burst_never_raises_an_old_queues_weight(self, kind):
        # bursts land on the old queues' ports and in their priorities, so
        # under FB they cut old queues' gamma and beta; every old queue the
        # bridge builds keeps or lowers its pre-burst weight (OldQueue
        # refuses a rising one), and under FB and FBA some lower it
        rng = random.Random(35)
        lowered = 0
        for _ in range(60):
            n_ports, n_classes = rng.randint(1, 3), rng.randint(2, 4)
            classes = tuple(TrafficClass(c, F(rng.randint(1, 8), 4), rng.randint(0, 1))
                            for c in range(n_classes))
            queues = [(p, c) for p in range(n_ports) for c in range(n_classes)]
            rng.shuffle(queues)
            n_old = rng.randint(1, len(queues) - 1)
            r, start = F(rng.randint(2, 20), 2), F(rng.randint(0, 8))
            sources = tuple(ConstantRate(c, p, F(rng.randint(1, 8), 4)) for p, c in queues[:n_old])
            sources += tuple(Burst(c, p, r=r, duration=F(4), start=start)
                             for p, c in queues[n_old:n_old + rng.randint(1, len(queues) - n_old)])
            cfg = ScenarioConfig(buffer_size=rng.randint(20, 200), n_ports=n_ports, policy=kind,
                                 horizon=20.0, classes=classes, sources=sources)
            before = steady_omegas(cfg)
            for q in transient_scenario(cfg).old:
                assert before[q.queue] == q.omega_before >= q.omega
                lowered += affected(q)
        assert (lowered > 0) is (kind is not PolicyKind.DYNAMIC_THRESHOLDS)

    def test_fig4_incast_transient(self):
        ts = transient_scenario(preset("fig4_incast"))
        assert classify_case(ts) is CaseKind.CASE2
        assert first_threshold_crossing(ts) == 2
        assert sum(q.gamma for q in ts.old) == 1

    def test_fig5_incast_transient(self):
        ts = transient_scenario(preset("fig5_incast"))
        assert classify_case(ts) is CaseKind.CASE1
        assert first_threshold_crossing(ts) == F(75, 8)

    def test_fig4_steady_omegas_are_alphas(self):
        omegas = steady_omegas(preset("fig4_steady"))
        assert sorted(omegas.values()) == [1, 1, 1, 2]

    def test_fig5_steady_omegas_scaled(self):
        omegas = steady_omegas(preset("fig5_steady"))
        assert sorted(omegas.values()) == [F(1, 3), F(1, 3), F(1, 3), 2]

    def test_complete_sharing_not_analyzable(self):
        cfg = replace(preset("fig4_steady"), policy=PolicyKind.COMPLETE_SHARING)
        with pytest.raises(ConfigError):
            steady_omegas(cfg)

    def test_burst_required_for_transient(self):
        with pytest.raises(ConfigError):
            transient_scenario(preset("fig4_steady"))

    @pytest.mark.parametrize("layout,message", [
        # fig4_incast's t1 stays 2 on each of the first three layouts, while
        # the simulator's first drop at 0:5 moves from 3.8 to 2.4, 3.0, 2.6
        ("prefilled", "burst target 0:5 must start empty"),
        ("co_fed", "burst target 0:5 must start empty and be fed by its one burst only"),
        ("burst_twice", "fed by its one burst only"),
        # a late burst on port 2 would pull t1 to 10/9 with no earlier drop
        ("two_starts", "one start and one rate"),
        ("two_rates", "one start and one rate"),
    ])
    def test_layouts_outside_the_fluid_model_are_refused(self, layout, message):
        cfg = misfit_incast(layout)
        for bridge in (transient_scenario, steady_omegas):
            with pytest.raises(ConfigError, match=message):
                bridge(cfg)

    #: Low queues 0:0 and 1:0 fed at rate 2, and a burst 0:1 that shares
    #: port 0 with 0:0, so the burst halves 0:0's gamma.
    SHARED_PORT = (
        "[switch]\nbuffer = 60\nports = 3\nhorizon = 20\n\n"
        "[classes]\n0 = alpha=1 priority=0\n1 = alpha=2 priority=1\n\n"
        "[policy]\nkind = {kind}\n\n"
        "[sources]\n0 = constant class=0 port=0 rate=2\n1 = constant class=0 port=1 rate=2\n"
        "2 = burst class=1 port=0 r=4 duration=8 start=2\n"
    )

    @pytest.mark.parametrize("kind,old,new", [
        # under FB the burst halves 0:0's beta * gamma and leaves 1:0's alone
        ("fb", {QueueId(0, 0): (F(1, 4), F(1, 2), F(1, 2), 2), QueueId(1, 0): (F(1, 2), 1, F(1, 2), 2)},
         {QueueId(0, 1): (1, F(1, 2), F(1, 2))}),
        # under DT every weight is its alpha, so no old queue is affected
        ("dt", {QueueId(0, 0): (1, F(1, 2), 1, 2), QueueId(1, 0): (1, 1, 1, 2)},
         {QueueId(0, 1): (2, F(1, 2), 1)}),
    ])
    def test_pre_and_post_burst_weights(self, kind, old, new):
        ts = transient_scenario(loads_scenario(self.SHARED_PORT.format(kind=kind)))
        assert ts.r == 4 and ts.buffer_size == 60
        assert {q.queue: (q.omega, q.gamma, q.omega_before, q.fill_rate) for q in ts.old} == old
        assert {q.queue: (q.omega, q.gamma, q.factor) for q in ts.new} == new
        assert [q.queue for q in ts.old] == list(old)

    @pytest.mark.parametrize("name", [
        "fig4_incast", "fig5_incast", "fb_stale_override.ini", "fba_period_0.ini", "fba_period_2.ini",
    ])
    def test_steady_omegas_are_the_pre_burst_weights(self, name):
        cfg = load_scenario(GOLDEN_SCENARIOS / name) if name.endswith(".ini") else preset(name)
        assert steady_omegas(cfg) == {q.queue: q.omega_before for q in transient_scenario(cfg).old}
