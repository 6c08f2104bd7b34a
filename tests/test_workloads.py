"""Sources, scenario configs, presets, sweeps, file round-trips."""

import heapq
import math
import random
from dataclasses import MISSING, fields, replace
from fractions import Fraction
from itertools import islice, repeat

import pytest
from hypothesis import example, given, settings, strategies as st

from fbsim.core import QueueId, TrafficClass
from fbsim.engine import run
from fbsim.fluid import CaseKind, classify_case, first_threshold_crossing
from fbsim.policies import PolicyKind
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
    load_size_cdf,
    loads_scenario,
    preset,
    preset_names,
    source_stream,
    steady_omegas,
    sweep,
    transient_scenario,
)

F = Fraction
LOW, HIGH = 0, 1


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
            preset(name).validate()

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

    def test_empty_values(self):
        assert sweep(preset("fig2"), "load", []) == []

    def test_incompatible_axis(self):
        with pytest.raises(ConfigError):
            sweep(preset("fig4_steady"), "r", [2])
        with pytest.raises(ConfigError):
            sweep(preset("fig2"), "bogus", [1])


def _non_default(default, values):
    return values.filter(lambda v: v != default)


_FRACS = st.builds(F, st.integers(1, 400), st.integers(1, 12))
_TIMES = st.floats(1e-3, 1e4)


@st.composite
def every_field_set(draw) -> ScenarioConfig:
    """A config with every ScenarioConfig field away from its default and a
    source of each kind, the Poisson one with an inline CDF and a stop."""
    n_ports = draw(st.integers(1, 6))
    ids = draw(st.lists(st.integers(0, 40), min_size=1, max_size=4, unique=True))
    queues = st.builds(QueueId, st.integers(0, n_ports - 1), st.sampled_from(ids))
    start = st.builds(F, st.integers(0, 100), st.integers(1, 8))

    def where():
        return draw(st.sampled_from(ids)), draw(st.integers(0, n_ports - 1))

    sizes = sorted(draw(st.sets(st.integers(1, 500), min_size=1, max_size=5)))
    probs = sorted(draw(st.lists(st.floats(1e-6, 1.0), min_size=len(sizes) - 1,
                                 max_size=len(sizes) - 1))) + [1.0]
    t0 = draw(start)
    sources = (
        ConstantRate(*where(), rate=draw(_FRACS), start=draw(start)),
        Burst(*where(), r=draw(_FRACS), duration=draw(_FRACS), start=draw(start)),
        PoissonFlows(*where(), mean_interarrival=draw(_FRACS), flow_rate=draw(_FRACS), start=t0,
                     stop=t0 + draw(_FRACS), size_cdf=tuple(zip(sizes, probs))),
    )
    return ScenarioConfig(
        buffer_size=draw(st.integers(1, 10**6)), n_ports=n_ports,
        classes=tuple(TrafficClass(c, draw(_FRACS), draw(st.integers(0, 3))) for c in ids),
        policy=draw(st.sampled_from(PolicyKind)),
        sources=sources + tuple(draw(st.permutations(sources))[: draw(st.integers(0, 3))]),
        horizon=draw(_non_default(100.0, st.floats(1e-3, 1e6))),
        queue_mode="single",
        seed=draw(st.integers(2, 2**64 - 1)),
        congestion_threshold=draw(st.integers(1, 100)),
        fba_period=draw(_non_default(1.0, _TIMES)),
        sample_interval=draw(_non_default(0.1, _TIMES)),
        snapshot_staleness=draw(_TIMES),
        initial_lengths=draw(st.dictionaries(queues, st.integers(1, 100), min_size=1)),
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

    def test_round_trip_with_extras(self):
        cfg = replace(
            preset("fig2"),
            alpha_overrides={QueueId(1, 1): F(3, 2)},
            sources=preset("fig2").sources
            + (PoissonFlows(class_id=0, port=1, mean_interarrival=F(7, 2),
                            size_cdf=((2, 0.5), (8, 1.0))),),
        )
        assert loads_scenario(dumps_scenario(cfg)) == cfg

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

    def test_validation_catches_bad_references(self):
        cfg = preset("fig2")
        with pytest.raises(ConfigError):
            replace(cfg, sources=(ConstantRate(class_id=9, port=0, rate=F(1)),)).validate()
        with pytest.raises(ConfigError):
            replace(cfg, sources=(ConstantRate(class_id=0, port=7, rate=F(1)),)).validate()
        with pytest.raises(ConfigError):
            replace(cfg, initial_lengths={QueueId(0, 0): 100}).validate()
        with pytest.raises(ConfigError):
            replace(cfg, horizon=5.0).validate()  # source starts at 10


    @pytest.mark.parametrize("changes", [
        dict(sample_interval=1e-9),
        dict(sample_interval=60.0 / (MAX_RUN_STEPS + 1)),
        dict(policy=PolicyKind.FBA, fba_period=1e-9),
        dict(policy=PolicyKind.FBA, fba_period=60.0 / (MAX_RUN_STEPS + 1)),
        dict(buffer_size=MAX_RECORD_INT + 1),
        dict(n_ports=MAX_RECORD_INT + 1),
        dict(classes=preset("fig2").classes + (TrafficClass(MAX_RECORD_INT + 1, F(1), LOW),)),
    ], ids=["samples", "samples_at_bound", "ticks", "ticks_at_bound", "buffer", "ports", "class"])
    def test_validation_bounds_what_a_run_stores(self, changes):
        # fig2 runs 60 time units; no config here is ever run
        with pytest.raises(ConfigError):
            replace(preset("fig2"), **changes).validate()

    @pytest.mark.parametrize("changes", [
        dict(sample_interval=60.0 / (MAX_RUN_STEPS - 2)),
        dict(policy=PolicyKind.FBA, fba_period=60.0 / (MAX_RUN_STEPS - 2)),
        dict(fba_period=1e-9),  # no controller ticks under DT
        dict(buffer_size=MAX_RECORD_INT),
    ], ids=["samples", "ticks", "dt_period", "buffer"])
    def test_validation_admits_up_to_the_bounds(self, changes):
        replace(preset("fig2"), **changes).validate()


class TestFluidBridges:
    def test_fig4_incast_transient(self):
        ts = transient_scenario(preset("fig4_incast"))
        assert classify_case(ts) is CaseKind.CASE2
        assert first_threshold_crossing(ts) == 2
        assert ts.num_congested_ports == 1

    def test_fig5_incast_transient(self):
        ts = transient_scenario(preset("fig5_incast"))
        assert classify_case(ts) is CaseKind.CASE1
        assert first_threshold_crossing(ts) == F(75, 8)

    def test_fig4_steady_omegas_are_alphas(self):
        omegas = steady_omegas(preset("fig4_steady"))
        assert sorted(omegas.entries.values()) == [1, 1, 1, 2]

    def test_fig5_steady_omegas_scaled(self):
        omegas = steady_omegas(preset("fig5_steady"))
        assert sorted(omegas.entries.values()) == [F(1, 3), F(1, 3), F(1, 3), 2]

    def test_complete_sharing_not_analyzable(self):
        cfg = replace(preset("fig4_steady"), policy=PolicyKind.COMPLETE_SHARING)
        with pytest.raises(ConfigError):
            steady_omegas(cfg)

    def test_burst_required_for_transient(self):
        with pytest.raises(ConfigError):
            transient_scenario(preset("fig4_steady"))
