"""Command-line entry point.

Subcommands: run (simulate one scenario), sweep (a family along one axis),
analyze (fluid closed forms cross-checked by the exact fluid solver, and
burst curves), configure-alpha (alpha bounds for a target burst),
preset-list.

Exit codes: 0 success, 2 parse error (an unreadable file too), 3 validation error
(an ``--out`` that cannot be a directory, or a file in it that cannot be written or
removed, too), 1 when a reader closes stdout early.  Every output is reproducible
from the scenario file and seed; each run directory holds scenario.lock (the
resolved config), trace.csv, samples.csv, metrics.json and summary.json.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import replace
from fractions import Fraction

from . import engine, fluid, metrics, workloads
from .core import json_text, jsonable, write_json, write_table
from .workloads import ConfigError, ScenarioParseError

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3


def _number(name: str, text: str, kind=Fraction):
    try:
        return kind(text)
    except (ValueError, ZeroDivisionError):
        raise ScenarioParseError(f"--{name.replace('_', '-')}: not a number: {text!r}") from None


def _parse_numbers(args) -> None:
    """Turn the text of the numeric flags into numbers, in place.

    Each scalar flag becomes a Fraction, an int or a float and each list a
    list; sweep ``--values`` become ints on the n_low_queues axis and
    Fractions on the others, their text kept in ``value_texts`` for the
    index.  Malformed text raises ScenarioParseError (exit code 2), while
    range checks stay with the analysis and the sweep (exit code 3).
    """
    for name, kind in (("r", Fraction), ("t", Fraction), ("alpha_l", Fraction),
                       ("alpha_h", Fraction), ("buffer", int), ("n_low", int),
                       ("low_per_port", int), ("n_new", int), ("num", int), ("seed", int),
                       ("parallel", int), ("fba_period", float)):
        if getattr(args, name, None) is not None:
            setattr(args, name, _number(name, getattr(args, name), kind))
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
    overrides = {name: value for name in ("seed", "fba_period")
                 if (value := getattr(args, name, None)) is not None}
    return replace(cfg, **overrides) if overrides else cfg  # a config is checked once built


def _out_dir(path: str) -> None:
    """Make the output directory ``path``; a path that cannot be a
    directory (an existing file, a path through one, the empty text) is a
    ConfigError naming --out, raised before any file is written."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"--out: cannot make the directory {path!r}: "
                          f"{exc.strerror or exc}") from None


def _remove_stale(path: str) -> None:
    """Remove an earlier run's ``path``; one that cannot go is a ConfigError."""
    try:
        os.unlink(path)
    except OSError as exc:
        if not isinstance(exc, FileNotFoundError):  # no such file is nothing to remove
            raise ConfigError(f"cannot remove the stale {path!r}: {exc.strerror or exc}") from None


def _run_one(cfg: workloads.ScenarioConfig, out_dir: str, fmt: str) -> dict:
    """Run ``cfg`` into ``out_dir`` and return the metrics.json payload."""
    _out_dir(out_dir)
    workloads.dump_scenario(cfg, os.path.join(out_dir, "scenario.lock"))
    trace = engine.run(cfg)
    engine.write_trace_csv(trace, os.path.join(out_dir, "trace.csv"))
    engine.write_samples_csv(trace, os.path.join(out_dir, "samples.csv"))
    engine.write_run_summary(trace, os.path.join(out_dir, "summary.json"))
    payload = jsonable(vars(metrics.compute(trace, cfg)))
    write_json(os.path.join(out_dir, "metrics.json"), payload)
    if fmt == "csv":  # the nested fields live in metrics.json only
        write_table(os.path.join(out_dir, "metrics.csv"), ("metric", "value"), (
            (key, payload[key]) for key in sorted(payload) if not isinstance(payload[key], dict)
        ))
    else:  # an earlier csv run's table would contradict metrics.json
        _remove_stale(os.path.join(out_dir, "metrics.csv"))
    return payload


def cmd_run(args) -> int:
    m = _run_one(_load_config(args), args.out, args.format)
    print(f"run complete: {args.out}")
    print(f"  admitted={m['total_admitted']} dropped={m['total_drops']} "
          f"occupancy_max={m['occupancy_max']} throughput={m['throughput_total']:.3f}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    if args.parallel < 1:
        raise ConfigError(f"--parallel must be >= 1, got {args.parallel}")
    if not args.values:
        raise ConfigError("--values lists no value to sweep")
    cfg = _load_config(args)
    configs = workloads.sweep(cfg, args.axis, args.values)
    _out_dir(args.out)  # before the runs, so a bad --out writes nothing
    jobs = (configs, [os.path.join(args.out, f"run_{i:03d}") for i in range(len(configs))],
            [args.format] * len(configs))
    workers = min(args.parallel, len(configs))  # the pool forks all its workers up front
    if workers > 1:
        import concurrent.futures  # only a parallel sweep pays for loading it

        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_one, *jobs))
    else:
        results = list(map(_run_one, *jobs))
    index = os.path.join(args.out, "index.csv")
    columns = ("total_admitted", "total_drops", "burst_admitted_fraction",
               "throughput_total", "occupancy_p99")
    write_table(index, ("run", "axis", "value", "dir", *columns), (
        (i, args.axis, value, f"run_{i:03d}", *(row[c] for c in columns))
        for i, (value, row) in enumerate(zip(args.value_texts, results))
    ))
    print(f"sweep complete: {len(configs)} runs -> {index}")
    return EXIT_OK


def _inline_transient(args) -> fluid.TransientScenario:
    for name in ("buffer", "alpha_l", "alpha_h", "r"):
        if getattr(args, name) is None:
            raise ConfigError(f"inline analysis needs --{name.replace('_', '-')}")
    shape = dict(n_low_ports=args.n_low, low_queues_per_port=args.low_per_port,
                 n_new=args.n_new, scheme=args.scheme)  # an absent flag takes its default
    return fluid.two_priority_incast(
        args.buffer, args.alpha_l, args.alpha_h, args.r,
        **{name: value for name, value in shape.items() if value is not None},
    )


def _transient_report(ts: fluid.TransientScenario, t) -> dict:
    """``analyze``'s payload for a transient: the closed form's analysis where
    the exact solver finds the same t1, the solver's answer where not.

    ``closed_form_t1`` is always the formula's t1 and ``closed_form_valid``
    whether the solver's equals it.  Where it does not, ``t1`` and
    ``t1_per_queue`` are the solver's first crossings, ``burst_tolerance``
    is r * t1, and with ``t`` the alpha bounds, which invert the closed
    form, are reported unavailable; ``case`` stays the closed form's."""
    closed = fluid.analyze_transient(ts)
    solved = fluid.integrate_transient(ts)
    valid = solved.t1 == closed.t1
    payload = dict(vars(closed), closed_form_t1=closed.t1, closed_form_valid=valid)
    if not valid:
        payload.update(t1=solved.t1, t1_per_queue=solved.first_crossing,
                       burst_tolerance=ts.r * solved.t1)
    if t is not None:
        bounds = vars(fluid.alpha_bounds_general(ts, t))  # also refuses a t <= 0
        payload["alpha_bounds"] = bounds if valid else (
            "unavailable: the bounds invert the closed form, whose t1 the exact solver contradicts")
    return payload


def cmd_analyze(args) -> int:
    if args.scenario or args.preset:
        if args.r is not None:
            raise ConfigError("--r is the inline burst rate; a scenario's bursts set their own")
        curve_flags = ("buffer", "alpha_l", "alpha_h", "scheme")  # the --curve reads these
        for name in (*curve_flags, "n_low", "low_per_port", "n_new"):
            if getattr(args, name) is not None and not (args.curve and name in curve_flags):
                flag = f"--{name.replace('_', '-')}"
                read_by = " or the --curve" if name in curve_flags else ""
                raise ConfigError(f"{flag} sets the inline scenario{read_by}; a scenario sets its own")
        cfg = _load_config(args)
        has_burst = any(isinstance(s, workloads.Burst) for s in cfg.sources)
        if has_burst:
            payload = _transient_report(workloads.transient_scenario(cfg), args.t)
        elif args.t is not None:
            raise ConfigError("--t bounds the alphas for a burst; the scenario has none")
        else:
            steady = fluid.steady_state(workloads.steady_omegas(cfg), cfg.buffer_size)
            payload = dict(vars(steady))  # a copy: the keys below are added to it
    else:
        payload = _transient_report(_inline_transient(args), args.t)

    if args.curve:
        if None in (args.alpha_l, args.alpha_h, args.buffer, args.out):
            raise ConfigError("--curve needs --buffer, --alpha-l, --alpha-h and --out")
        points = fluid.burst_absorption_curve(
            args.buffer, args.alpha_l, args.alpha_h,
            args.r_values, args.counts, scheme=args.scheme or "fb",
        )
        _out_dir(args.out)
        fluid.curve_to_csv(points, os.path.join(args.out, "curve.csv"))
        payload["curve"] = os.path.join(args.out, "curve.csv")

    if args.out is not None:
        _out_dir(args.out)
        if args.format == "json":
            write_json(os.path.join(args.out, "analysis.json"), jsonable(payload))
        else:
            write_table(os.path.join(args.out, "analysis.csv"), ("key", "value"), (
                (key, json_text(payload[key], compact=True)) for key in sorted(payload)
            ))
        stale = "analysis.csv" if args.format == "json" else "analysis.json"
        _remove_stale(os.path.join(args.out, stale))  # an earlier run's other format
    print(json_text(payload))
    return EXIT_OK


def cmd_configure_alpha(args) -> int:
    b, r, t, num = args.buffer, args.r, args.t, args.num
    if b < 1:
        raise ConfigError(f"--buffer must be >= 1, got {b}")
    if num < 1:
        raise ConfigError(f"--num must be >= 1, got {num}")
    if t is None and (args.alpha_l is not None or args.alphas is not None):
        raise ConfigError("--alpha-l and --alphas apply only with --t")
    if args.alpha_l is not None and args.alphas is not None:
        raise ConfigError("give --alpha-l or --alphas, not both")
    if t is not None and r <= 1:
        raise ConfigError("r must exceed the port drain rate (r > 1)")
    if t is not None and jsonable(r) <= 1:  # the printed r could not be told from 1
        raise ConfigError("r must exceed the port drain rate (r > 1) as a float: it rounds to 1.0")

    def bounds(alpha_l):  # at alpha_L 0 no low port: OldQueue refuses a weight of 0
        if alpha_l < 0:
            raise ConfigError(f"the low alpha must be >= 0, got {alpha_l}")
        ts = fluid.two_priority_incast(b, alpha_l, 1, r, n_low_ports=num if alpha_l else 0)
        return fluid.alpha_bounds_general(ts, t)

    # the case bound and the frontier do not depend on alpha_L, so any
    # positive one reads them
    layout = bounds(1)
    payload: dict = {"buffer": b, "r": r, "alpha_L_zero_transient": layout.alpha_L_case_bound,
                     "num_congested_ports": num}
    if t is not None:
        payload["t"] = t
        frontier = payload["alpha_L_max_for_burst"] = layout.alpha_L_max_for_burst
        if args.alphas:
            payload["alpha_H_min"] = bounds(sum(args.alphas)).alpha_H_min
            payload["lower_priority_alphas"] = args.alphas
        else:
            if args.alpha_l is not None:
                chosen = args.alpha_l
            elif isinstance(frontier, Fraction):
                # the frontier is strict, so default to half of it, or to the
                # zero-transient bound where that is smaller
                zt = payload["alpha_L_zero_transient"]
                chosen = frontier / 2
                if isinstance(zt, Fraction) and zt < chosen:
                    chosen = zt
            else:
                chosen = Fraction(0)
            payload["alpha_L_used"] = chosen
            payload["alpha_H_min"] = bounds(chosen).alpha_H_min
    print(json_text(payload))
    return EXIT_OK


def cmd_preset_list(args) -> int:
    for name in workloads.preset_names():
        print(f"{name:14s} {workloads.PRESETS[name][1]}")
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

    def add_run_overrides(p):  # read by the simulator only, not by analyze
        p.add_argument("--seed", help="override the scenario seed")
        p.add_argument("--fba-period", dest="fba_period",
                       help="override the FBA controller period")

    p_run = sub.add_parser("run", help="simulate one scenario")
    add_scenario_args(p_run)
    add_run_overrides(p_run)
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--format", choices=("csv", "json"), default="json")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a scenario family along one axis")
    add_scenario_args(p_sweep)
    add_run_overrides(p_sweep)
    p_sweep.add_argument("--out", required=True)
    p_sweep.add_argument("--axis", required=True, choices=workloads.SWEEP_AXES)
    p_sweep.add_argument("--values", required=True, help="comma-separated axis values")
    p_sweep.add_argument("--parallel", default="1")
    p_sweep.add_argument("--format", choices=("csv", "json"), default="json")
    p_sweep.set_defaults(func=cmd_sweep)

    p_an = sub.add_parser("analyze", help="closed-form steady/transient analysis")
    add_scenario_args(p_an)
    p_an.add_argument("--buffer", help="buffer size in packets (inline mode)")
    p_an.add_argument("--alpha-l", dest="alpha_l", help="low-priority alpha")
    p_an.add_argument("--alpha-h", dest="alpha_h", help="high-priority alpha")
    p_an.add_argument("--r", help="burst arrival rate (inline mode)")
    p_an.add_argument("--t", help="burst duration for alpha bounds")
    p_an.add_argument("--n-low", dest="n_low",
                      help="pre-occupied low ports (inline mode, default 1)")
    p_an.add_argument("--low-per-port", dest="low_per_port", help="default 1")
    p_an.add_argument("--n-new", dest="n_new", help="default 1")
    p_an.add_argument("--scheme", choices=("fb", "dt"), help="default fb")
    p_an.add_argument("--curve", action="store_true",
                      help="emit the burst-absorption curve CSV")
    p_an.add_argument("--r-values", dest="r_values",
                      default="1.5,2,3,4,6,8,12,16,24,48,96")
    p_an.add_argument("--counts", default="1,2,4,8")
    p_an.add_argument("--out", help="output directory")
    p_an.add_argument("--format", choices=("csv", "json"), default="json")
    p_an.set_defaults(func=cmd_analyze)

    p_cfg = sub.add_parser("configure-alpha", help="alpha bounds for a target burst")
    p_cfg.add_argument("--buffer", required=True)
    p_cfg.add_argument("--r", required=True)
    p_cfg.add_argument("--t", help="burst duration")
    p_cfg.add_argument("--num", default="1",
                       help="congested low ports, one FB queue each, that every bound "
                            "assumes; the bounds hold on NUM or more (default 1)")
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
