"""Command-line entry point.

Subcommands: run (simulate one scenario), sweep (a family along one axis),
analyze (fluid closed forms cross-checked by the exact fluid solver, and
burst curves), configure-alpha (alpha bounds for a target burst),
preset-list.

Exit codes: 0 success, 2 parse error (an unreadable file too), 3
validation error, 1 when a reader closes stdout early.  Every output is
reproducible from the scenario file and seed; each run directory holds
scenario.lock (the resolved config), trace.csv, samples.csv, metrics.json
and summary.json.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import functools
import json
import math
import os
import sys
from dataclasses import replace
from enum import Enum
from fractions import Fraction

from . import engine, fluid, metrics, workloads
from .workloads import ConfigError, ScenarioParseError

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3


def _jsonable(x):
    if isinstance(x, Fraction):
        return float(x)
    if isinstance(x, float) and math.isinf(x):
        return "inf"
    if isinstance(x, Enum):
        return x.value
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    return x


def _number(name: str, text: str, kind=Fraction):
    try:
        return kind(text)
    except (ValueError, ZeroDivisionError):
        raise ScenarioParseError(f"--{name.replace('_', '-')}: not a number: {text!r}") from None


def _parse_numbers(args) -> None:
    """Turn the text of the numeric flags into numbers, in place.

    The rational flags become Fractions and the comma-separated lists become
    lists; sweep ``--values`` become ints on the n_low_queues axis and
    Fractions on the others, their text kept in ``value_texts`` for the
    index.  Malformed text raises ScenarioParseError (exit code 2), while
    range checks stay with the analysis and the sweep (exit code 3).
    """
    for name in ("r", "t", "alpha_l", "alpha_h"):
        if getattr(args, name, None) is not None:
            setattr(args, name, _number(name, getattr(args, name)))
    for name, kind in (("alphas", Fraction), ("r_values", Fraction), ("counts", int)):
        if getattr(args, name, None) is not None:
            setattr(args, name, [_number(name, v, kind) for v in getattr(args, name).split(",")])
    if getattr(args, "values", None) is not None:
        kind = int if args.axis == "n_low_queues" else Fraction
        args.value_texts = [v for v in args.values.split(",") if v]
        args.values = [_number("values", v, kind) for v in args.value_texts]


def _load_config(args) -> workloads.ScenarioConfig:
    if getattr(args, "scenario", None):
        cfg = workloads.load_scenario(args.scenario)
    elif getattr(args, "preset", None):
        cfg = workloads.preset(args.preset)
    else:
        raise ConfigError("provide --scenario PATH or --preset NAME")
    if getattr(args, "seed", None) is not None:
        cfg = replace(cfg, seed=args.seed)
    if getattr(args, "fba_period", None) is not None:
        cfg = replace(cfg, fba_period=args.fba_period)
    return cfg


def _run_one(cfg: workloads.ScenarioConfig, out_dir: str, fmt: str) -> metrics.RunMetrics:
    cfg.validate()
    os.makedirs(out_dir, exist_ok=True)
    workloads.dump_scenario(cfg, os.path.join(out_dir, "scenario.lock"))
    trace = engine.run(cfg)
    engine.write_trace_csv(trace, os.path.join(out_dir, "trace.csv"))
    engine.write_samples_csv(trace, os.path.join(out_dir, "samples.csv"))
    engine.write_run_summary(trace, os.path.join(out_dir, "summary.json"))
    m = metrics.compute(trace, cfg)
    payload = metrics.to_jsonable(m)
    with open(os.path.join(out_dir, "metrics.json"), "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if fmt == "csv":
        with open(os.path.join(out_dir, "metrics.csv"), "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(("metric", "value"))
            for key in sorted(payload):
                if not isinstance(payload[key], dict):  # the nested fields live in metrics.json
                    writer.writerow((key, payload[key]))
    return m


def cmd_run(args) -> int:
    cfg = _load_config(args)
    m = _run_one(cfg, args.out, args.format)
    print(f"run complete: {args.out}")
    print(f"  admitted={m.total_admitted} dropped={m.total_drops} "
          f"occupancy_max={m.occupancy_max} throughput={m.throughput_total:.3f}")
    return EXIT_OK


def _sweep_worker(item):
    cfg, out_dir, fmt = item
    m = _run_one(cfg, out_dir, fmt)
    return metrics.to_jsonable(m)


def cmd_sweep(args) -> int:
    if args.parallel < 1:
        raise ConfigError(f"--parallel must be >= 1, got {args.parallel}")
    cfg = _load_config(args)
    configs = workloads.sweep(cfg, args.axis, args.values)
    jobs = []
    for i, sub in enumerate(configs):
        sub.validate()
        jobs.append((sub, os.path.join(args.out, f"run_{i:03d}"), args.format))
    workers = min(args.parallel, len(jobs))  # the pool forks all its workers up front
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_worker, jobs))
    else:
        results = [_sweep_worker(job) for job in jobs]
    os.makedirs(args.out, exist_ok=True)
    index = os.path.join(args.out, "index.csv")
    with open(index, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ("run", "axis", "value", "dir", "total_admitted", "total_drops",
             "burst_admitted_fraction", "throughput_total", "occupancy_p99")
        )
        for i, (value, row) in enumerate(zip(args.value_texts, results)):
            writer.writerow(
                (i, args.axis, value, f"run_{i:03d}", row["total_admitted"],
                 row["total_drops"], row["burst_admitted_fraction"],
                 row["throughput_total"], row["occupancy_p99"])
            )
    print(f"sweep complete: {len(configs)} runs -> {index}")
    return EXIT_OK


def _inline_transient(args) -> fluid.TransientScenario:
    for name in ("buffer", "alpha_l", "alpha_h", "r"):
        if getattr(args, name) is None:
            raise ConfigError(f"inline analysis needs --{name.replace('_', '-')}")
    return fluid.two_priority_incast(
        args.buffer, args.alpha_l, args.alpha_h, args.r,
        n_low_ports=args.n_low, low_queues_per_port=args.low_per_port,
        n_new=args.n_new, scheme=args.scheme,
    )


def cmd_analyze(args) -> int:
    if args.scenario or args.preset:
        cfg = _load_config(args)
        cfg.validate()
        has_burst = any(isinstance(s, workloads.Burst) for s in cfg.sources)
        if has_burst:
            ts = workloads.transient_scenario(cfg)
            result = fluid.analyze_transient(ts)
        else:
            ts = None
            result = fluid.steady_state(workloads.steady_omegas(cfg), cfg.buffer_size)
    else:
        ts = _inline_transient(args)
        result = fluid.analyze_transient(ts)

    payload = dict(vars(result))  # a copy: the keys below are added to it
    if ts is not None and args.t is not None:
        payload["alpha_bounds"] = vars(fluid.alpha_bounds_general(ts, args.t))
    if ts is not None:
        payload["ode_t1"] = min(fluid.integrate_transient(ts).first_crossing.values())

    if args.curve:
        if None in (args.alpha_l, args.alpha_h, args.buffer, args.out):
            raise ConfigError("--curve needs --buffer, --alpha-l, --alpha-h and --out")
        points = fluid.burst_absorption_curve(
            args.buffer, args.alpha_l, args.alpha_h,
            args.r_values, args.counts, scheme=args.scheme,
        )
        os.makedirs(args.out, exist_ok=True)
        fluid.curve_to_csv(points, os.path.join(args.out, "curve.csv"))
        payload["curve"] = os.path.join(args.out, "curve.csv")

    text = json.dumps(_jsonable(payload), indent=2, sort_keys=True)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        if args.format == "json":
            with open(os.path.join(args.out, "analysis.json"), "w") as fh:
                fh.write(text + "\n")
        else:
            with open(os.path.join(args.out, "analysis.csv"), "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(("key", "value"))
                flat = _jsonable(payload)
                for key in sorted(flat):
                    writer.writerow((key, json.dumps(flat[key])))
    print(text)
    return EXIT_OK


def cmd_configure_alpha(args) -> int:
    if args.buffer is None or args.r is None:
        raise ConfigError("configure-alpha needs --buffer and --r")
    r, t = args.r, args.t
    payload: dict = {"buffer": args.buffer, "r": r}
    payload["alpha_L_zero_transient"] = fluid.alpha_L_for_zero_transient(r, args.num)
    payload["num_congested_ports"] = args.num
    if t is not None:
        payload["t"] = t
        alpha_l_bound = fluid.alpha_L_for_burst(args.buffer, r, t)
        payload["alpha_L_max_for_burst"] = alpha_l_bound
        if args.alphas:
            payload["alpha_H_min"] = fluid.multi_priority_alpha_H(args.alphas, args.buffer, r, t)
            payload["lower_priority_alphas"] = args.alphas
        else:
            if args.alpha_l is not None:
                chosen = args.alpha_l
            elif isinstance(alpha_l_bound, Fraction):
                # a sound default: also satisfy the zero-transient bound
                zt = payload["alpha_L_zero_transient"]
                chosen = min(alpha_l_bound, zt) if isinstance(zt, Fraction) else alpha_l_bound
            else:
                chosen = Fraction(0)
            payload["alpha_L_used"] = chosen
            payload["alpha_H_min"] = fluid.alpha_H_for_burst(args.buffer, r, t, chosen)
    print(json.dumps(_jsonable(payload), indent=2, sort_keys=True))
    return EXIT_OK


def cmd_preset_list(args) -> int:
    for name in workloads.preset_names():
        print(f"{name:14s} {workloads.PRESET_DESCRIPTIONS[name]}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fbsim",
        description="shared-buffer switch simulator and fluid-model analyzer",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_scenario_args(p):
        p.add_argument("--scenario", help="scenario file path")
        p.add_argument("--preset", help="preset name (see preset-list)")
        p.add_argument("--seed", type=int, help="override the scenario seed")
        p.add_argument("--fba-period", dest="fba_period", type=float,
                       help="override the FBA controller period")

    p_run = sub.add_parser("run", help="simulate one scenario")
    add_scenario_args(p_run)
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--format", choices=("csv", "json"), default="json")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a scenario family along one axis")
    add_scenario_args(p_sweep)
    p_sweep.add_argument("--out", required=True)
    p_sweep.add_argument("--axis", required=True, choices=workloads.SWEEP_AXES)
    p_sweep.add_argument("--values", required=True, help="comma-separated axis values")
    p_sweep.add_argument("--parallel", type=int, default=1)
    p_sweep.add_argument("--format", choices=("csv", "json"), default="json")
    p_sweep.set_defaults(func=cmd_sweep)

    p_an = sub.add_parser("analyze", help="closed-form steady/transient analysis")
    add_scenario_args(p_an)
    p_an.add_argument("--buffer", type=int, help="buffer size in packets (inline mode)")
    p_an.add_argument("--alpha-l", dest="alpha_l", help="low-priority alpha")
    p_an.add_argument("--alpha-h", dest="alpha_h", help="high-priority alpha")
    p_an.add_argument("--r", help="burst arrival rate (inline mode)")
    p_an.add_argument("--t", help="burst duration for alpha bounds")
    p_an.add_argument("--n-low", dest="n_low", type=int, default=1,
                      help="pre-occupied low ports (inline mode)")
    p_an.add_argument("--low-per-port", dest="low_per_port", type=int, default=1)
    p_an.add_argument("--n-new", dest="n_new", type=int, default=1)
    p_an.add_argument("--scheme", choices=("fb", "dt"), default="fb")
    p_an.add_argument("--curve", action="store_true",
                      help="emit the burst-absorption curve CSV")
    p_an.add_argument("--r-values", dest="r_values",
                      default="1.5,2,3,4,6,8,12,16,24,48,96")
    p_an.add_argument("--counts", default="1,2,4,8")
    p_an.add_argument("--out", help="output directory")
    p_an.add_argument("--format", choices=("csv", "json"), default="json")
    p_an.set_defaults(func=cmd_analyze)

    p_cfg = sub.add_parser("configure-alpha", help="alpha bounds for a target burst")
    p_cfg.add_argument("--buffer", type=int, required=True)
    p_cfg.add_argument("--r", required=True)
    p_cfg.add_argument("--t", help="burst duration")
    p_cfg.add_argument("--num", type=int, default=1,
                       help="congested-port count for the zero-transient bound")
    p_cfg.add_argument("--alpha-l", dest="alpha_l", help="low alpha to plug into the high bound")
    p_cfg.add_argument("--alphas", help="comma-separated lower-priority alpha maxima")
    p_cfg.set_defaults(func=cmd_configure_alpha)

    p_list = sub.add_parser("preset-list", help="list scenario presets")
    p_list.set_defaults(func=cmd_preset_list)
    return parser


_parser = functools.cache(build_parser)  # built once per process


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        _parse_numbers(args)
        return args.func(args)
    except ScenarioParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (ConfigError, ValueError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def entry() -> None:
    try:
        code = main()
        sys.stdout.flush()  # a closed pipe raises here, not at shutdown
    except BrokenPipeError:  # Python's recipe: stdout to devnull, exit 1
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    entry()
