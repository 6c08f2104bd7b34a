"""fbsim benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload sim_large --seed 1 --seconds 10 --trace 0

Run inside a source checkout; the package is imported from the checkout's
``src/``.  With ``--trace 0`` a run times set-up in fresh interpreters,
makes one untimed check pass, times passes for ``--seconds`` and measures
the heap in a separate tracemalloc pass; it reports the end-to-end
metrics.  With ``--trace 1`` it alternates untraced and traced passes and
reports the per-layer metrics and the tracing overhead.  A pass runs every
item of the workload once, in this one process.  The last line of standard
output is one JSON object (correct, attempted, failed, metrics); the full
record goes to ``.bench_out/``.  Timings are host seconds scaled to a
nominal CPU speed (see speed.py and README.md).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import traceback
import tracemalloc
from pathlib import Path
from time import perf_counter

import speed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_REPEATS = 7
MIN_TIMED_PASSES = 3
MEMORY_FAMILY_SAMPLE = 5

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("scenarios_per_s", "1/s"),
    ("peak_heap_mb", "MB"),
)

PER_LAYER = (  # every name is reported on every workload; 0 where unused
    ("workloads.build_sources.self_s", "s"),
    ("workloads.build_sources.arrivals", "count"),
    ("workloads.loads_scenario.self_s", "s"),
    ("workloads.transient_scenario.self_s", "s"),
    ("engine.run.self_s", "s"),
    ("engine.enqueue_arrival.self_s", "s"),
    ("engine.enqueue_arrival.calls", "count"),
    ("engine.admit_ratio", "ratio"),
    ("engine.service_port.self_s", "s"),
    ("engine.service_port.calls", "count"),
    ("engine.controller_tick.self_s", "s"),
    ("engine.controller_tick.calls", "count"),
    ("engine.EventTrace.queue_counts.self_s", "s"),
    ("engine.EventTrace.queue_counts.calls", "count"),
    ("engine.export.self_s", "s"),
    ("engine.export.bytes", "bytes"),
    ("metrics.compute.self_s", "s"),
    ("fluid.first_threshold_crossing.self_s", "s"),
    ("fluid.integrate_first_crossing.self_s", "s"),
    ("fluid.integrate_transient.self_s", "s"),
    ("fluid.integrate_transient.calls_per_solve", "count"),
    ("fluid.burst_absorption_curve.self_s", "s"),
    ("fluid.oracle_disagree_frac", "ratio"),
    ("cli.main.self_s", "s"),
    ("trace.overhead_s", "s"),
)


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description="fbsim benchmark")
    p.add_argument("--workload", required=True,
                   choices=("sim_large", "sim_family", "fluid_oracle"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-into", dest="setup_into",
                   help="only generate the inputs into this directory (set-up timing)")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("need --seed >= 0 and --seconds > 0")
    return args


def import_fbsim() -> None:
    """Import fbsim from this checkout's src/, never from anywhere else."""
    if not (SRC / "fbsim" / "__init__.py").is_file():
        raise SystemExit(f"bench: no fbsim sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import fbsim

    if Path(fbsim.__file__).resolve().parent != SRC / "fbsim":
        raise SystemExit(f"bench: imported fbsim from {fbsim.__file__}, not {SRC}")


def provenance(args) -> dict:
    import numpy

    head = ROOT / ".git" / "HEAD"
    commit = "unknown (not a git checkout)"
    if head.is_file():
        commit = head.read_text().strip()
        if commit.startswith("ref: "):
            ref = ROOT / ".git" / commit[5:]
            commit = ref.read_text().strip() if ref.is_file() else commit
    source = hashlib.sha256()
    for path in sorted((SRC / "fbsim").rglob("*.py")):
        source.update(path.relative_to(SRC).as_posix().encode())
        source.update(path.read_bytes())
    return {
        "commit": commit, "source_sha256": source.hexdigest()[:16],
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "numpy": numpy.__version__, "nproc": os.cpu_count(),
        "loadavg": os.getloadavg(),
    }


class Timings:
    """Per-item host seconds, raw and scaled to the nominal CPU speed."""

    def __init__(self) -> None:
        self.raw: dict[str, list[float]] = {}
        self.scaled: dict[str, list[float]] = {}
        self.pass_scaled: list[float] = []

    def add(self, name: str, host: float, scaled: float) -> None:
        self.raw.setdefault(name, []).append(host)
        self.scaled.setdefault(name, []).append(scaled)

    def factor(self) -> float:
        """Scaled over host seconds, over every timed call."""
        return (sum(sum(v) for v in self.scaled.values())
                / sum(sum(v) for v in self.raw.values()))


def sum_of_medians(times: dict[str, list[float]]) -> float:
    """A pass's seconds, robust to one slow pass: the sum of item medians."""
    return sum(statistics.median(v) for v in times.values())


def latency_summary(samples: list[float]) -> dict:
    """Median plus the highest of p99.9/p99/p95/p90 with >= 10 samples beyond it."""
    n = len(samples)
    out = {"n": n, "p50": statistics.median(samples)}
    ordered = sorted(samples)
    for p in (0.999, 0.99, 0.95, 0.9):
        if n * (1 - p) >= 10:
            out[f"p{p * 100:g}"] = ordered[int(p * n)]
            break
    return out


class Runner:
    """Runs passes over a workload's items and checks every output."""

    def __init__(self, cases, items, checks) -> None:
        self.cases = cases
        self.items = items
        self.checks = checks
        self.reference: dict[str, str] = {}  # output digests of the check pass
        self.stats: dict[str, dict] = {}  # exact per-item statistics

    @staticmethod
    def _call(call):
        try:
            return True, call()
        except Exception:  # a crashing call is a failed check, not a crashed run
            traceback.print_exc(file=sys.stderr)
            return False, None

    def _verify(self, item, result) -> None:
        if item.verify is not None:
            item.verify(result, self.checks)
        self.checks.expect(self.cases.fingerprint(item, result) == self.reference.get(item.name),
                           f"{item.name}: output differs from the check pass")

    def check_pass(self) -> None:
        """Untimed: every item once, with the engine's traces captured."""
        import fbsim.engine

        captured = []
        original = fbsim.engine.run

        def capture(config):
            trace = original(config)
            captured.append((config, trace))
            return trace

        fbsim.engine.run = capture
        try:
            for item in self.items:
                captured.clear()
                ok, result = self._call(item.call)
                if not self.checks.expect(ok, f"{item.name}: raised"):
                    continue
                if item.verify is not None:
                    item.verify(result, self.checks)
                self.reference[item.name] = self.cases.fingerprint(item, result)
                if item.family is not None:
                    self.stats[item.name] = {"family": item.family,
                                             **self.cases.solve_stats(result)}
                elif item.scenario_path is not None and self.checks.expect(
                        len(captured) == 1, f"{item.name}: no engine run"):
                    self.stats[item.name] = self.cases.deep_check(item, *captured[0], self.checks)
        finally:
            fbsim.engine.run = original

    def timed_pass(self, timings: Timings, tracer=None, label: str = "") -> None:
        """One pass, timed item by item; outputs are checked between items."""
        gc.collect()
        pass_scaled = 0.0
        probe = speed.SpeedProbe()
        probe.start()
        try:
            for item in self.items:
                if tracer is not None:
                    tracer.request = label + item.name
                ok, timed = self._call(lambda: probe.timed(item.call))
                if self.checks.expect(ok, f"{item.name}: raised"):
                    result, host, scaled = timed
                    timings.add(item.name, host, scaled)
                    pass_scaled += scaled
                    self._verify(item, result)
        finally:
            probe.stop()
        timings.pass_scaled.append(pass_scaled)

    def memory_pass(self) -> float:
        """Largest heap peak of one item's call, in MB; never timed.

        tracemalloc slows the fluid integrator some 25-fold, so each
        transient family contributes only its first few scenarios; their
        peaks are a few kB, far below the CLI items'."""
        peak = 0
        per_family: dict[str, int] = {}
        for item in self.items:
            if item.family is not None:
                per_family[item.family] = per_family.get(item.family, 0) + 1
                if per_family[item.family] > MEMORY_FAMILY_SAMPLE:
                    continue
            gc.collect()
            tracemalloc.start()
            try:
                ok, result = self._call(item.call)
                peak = max(peak, tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            if self.checks.expect(ok, f"{item.name}: raised"):
                self._verify(item, result)
        return peak / 1e6


def time_setup(args, work: Path, checks) -> tuple[list[float], list[float]]:
    """Fresh interpreters that import fbsim and generate the inputs:
    (host seconds, scaled seconds) of each.  A child scales its own import
    and generation; its wall time, less its probes, is scaled alike."""
    raw, scaled = [], []
    for k in range(SETUP_REPEATS):
        cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-into", str(work / f"setup{k}")]
        start = perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        wall = perf_counter() - start
        if not checks.expect(proc.returncode == 0, f"set-up exited with {proc.returncode}"):
            continue
        report = json.loads(proc.stdout)
        raw.append(wall - report["probe_s"])
        scaled.append(raw[-1] * report["scaled_s"] / report["host_s"])
    return raw, scaled


def summarize(stats: dict[str, dict], reference: dict[str, str]) -> dict:
    """Exact, timing-free outputs; a speed-only change leaves them identical."""
    digest = hashlib.sha256("".join(reference[k] for k in sorted(reference)).encode())
    out: dict = {"artifact_digest": digest.hexdigest()[:16]}
    sims = [s for s in stats.values() if "drops" in s]
    if sims:
        for key in ("drops", "admitted", "occupancy_max", "sim_events"):
            out[key] = sum(s[key] for s in sims)
        out["burst_admitted_fraction_sum"] = sum(s["burst_admitted_fraction"] for s in sims)
    for family in ("symmetric", "asymmetric"):
        solved = [s for s in stats.values() if s.get("family") == family]
        if solved:
            out[f"{family}_scenarios"] = len(solved)
            out[f"{family}_disagree"] = sum(not s["agree"] for s in solved)
    if out.get("asymmetric_scenarios"):
        out["oracle_disagree_frac"] = out["asymmetric_disagree"] / out["asymmetric_scenarios"]
    return out


def layer_metrics(tracer, n_passes: int, factor: float, overhead: float,
                  summary: dict) -> dict:
    """Per-layer values per traced pass; seconds scaled by ``factor``."""
    from spans import Stat

    def stat(name: str) -> Stat:
        return tracer.stats.get(name) or Stat()

    values = {}
    for name, _unit in PER_LAYER:
        base, _, field = name.rpartition(".")
        if field == "self_s":
            values[name] = stat(base).self_time * factor / n_passes
        elif field == "calls":
            values[name] = stat(base).calls / n_passes
    values["workloads.build_sources.arrivals"] = stat("workloads.build_sources").count / n_passes
    enqueue = stat("engine.enqueue_arrival")
    values["engine.admit_ratio"] = enqueue.count / enqueue.calls if enqueue.calls else 0.0
    values["engine.export.bytes"] = stat("engine.export").count / n_passes
    solves = stat("fluid.integrate_first_crossing").calls
    values["fluid.integrate_transient.calls_per_solve"] = (
        stat("fluid.integrate_transient").calls / solves if solves else 0.0)
    values["fluid.oracle_disagree_frac"] = summary.get("oracle_disagree_frac", 0.0)
    values["trace.overhead_s"] = overhead
    return values


def measure(args, work: Path) -> dict:
    import cases
    import spans

    record: dict = {}
    checks = cases.Checks()
    if args.trace == 0:
        setup_raw, setup_scaled = time_setup(args, work, checks)
    runner = Runner(cases, cases.build(args.workload, args.seed, str(work / "inputs")), checks)
    runner.check_pass()
    summary = summarize(runner.stats, runner.reference)
    deadline = perf_counter() + args.seconds

    if args.trace == 0:
        timings = Timings()
        while perf_counter() < deadline or len(timings.pass_scaled) < MIN_TIMED_PASSES:
            runner.timed_pass(timings)
        wall = sum_of_medians(timings.scaled)
        n_scenarios = sum(item.scenario for item in runner.items)
        values = {
            "setup_s": statistics.median(setup_scaled),
            "wall_s": wall,
            "scenarios_per_s": n_scenarios / statistics.median(timings.pass_scaled),
            "peak_heap_mb": runner.memory_pass(),
        }
        units = dict(END_TO_END)
        extra = {
            "wall_host_s": (sum_of_medians(timings.raw), "s"),
            "setup_host_s": (statistics.median(setup_raw), "s"),
            "failed_frac": (checks.failed / checks.attempted, "ratio"),
        }
        if "sim_events" in summary:
            extra["sim_events_per_s"] = (summary["sim_events"] / wall, "1/s")
        if "oracle_disagree_frac" in summary:
            extra["oracle_disagree_frac"] = (summary["oracle_disagree_frac"], "ratio")
        record.update(
            timed_passes=len(timings.pass_scaled), pass_scaled_s=timings.pass_scaled,
            speed_factor=timings.factor(), setup_host_s=setup_raw, setup_scaled_s=setup_scaled,
            item_latency_s=latency_summary([t for v in timings.scaled.values() for t in v]),
            extra_metrics={k: {"value": v, "unit": u} for k, (v, u) in extra.items()},
        )
    else:
        tracer = spans.Tracer()
        untraced, traced = Timings(), Timings()
        while perf_counter() < deadline or not traced.pass_scaled:
            runner.timed_pass(untraced)
            spans.instrument(tracer)
            try:
                runner.timed_pass(traced, tracer, label=f"pass{len(traced.pass_scaled)}/")
            finally:
                tracer.restore()
        traced_wall = sum_of_medians(traced.scaled)
        factor = traced.factor()
        overhead = traced_wall - sum_of_medians(untraced.scaled)
        values = layer_metrics(tracer, len(traced.pass_scaled), factor, overhead, summary)
        units = dict(PER_LAYER)
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans_{args.workload}_seed{args.seed}.jsonl"
        tracer.write_spans(spans_path)
        record.update(traced_passes=len(traced.pass_scaled), traced_wall_s=traced_wall,
                      untraced_wall_s=sum_of_medians(untraced.scaled), spans=spans_path.name)

    record.update(
        correct=checks.failed == 0, attempted=checks.attempted, failed=checks.failed,
        failures=checks.failures, summary=summary, items=runner.stats,
        metrics={k: {"value": values[k], "unit": units[k]} for k in units},
    )
    return record


def setup_child(args) -> int:
    """One timed set-up: import fbsim and generate the inputs."""

    def set_up() -> None:
        import_fbsim()
        import cases

        cases.build(args.workload, args.seed, args.setup_into)

    probe = speed.SpeedProbe()
    probe.start()
    try:
        start = perf_counter()
        _, host, scaled = probe.timed(set_up)
        elapsed = perf_counter() - start
    finally:
        probe.stop()
    print(json.dumps({"host_s": host, "scaled_s": scaled, "probe_s": elapsed - host}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_into:
        return setup_child(args)
    import_fbsim()
    record = {"provenance": provenance(args)}
    print("bench provenance " + json.dumps(record["provenance"], sort_keys=True))
    work = OUT / f"work-{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        record.update(measure(args, work))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    OUT.mkdir(exist_ok=True)
    path = OUT / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True, default=str)
        fh.write("\n")
    for what in record["failures"]:
        print(f"bench check failed: {what}")
    print(f"bench checks attempted={record['attempted']} failed={record['failed']}")
    print("bench statistics " + json.dumps(record["summary"], sort_keys=True))
    if "item_latency_s" in record:
        print("bench item latency (scaled) " + ", ".join(
            f"{k}={v}" if k == "n" else f"{k}={v * 1e3:.3f} ms"
            for k, v in record["item_latency_s"].items()))
    for name, m in {**record["metrics"], **record.get("extra_metrics", {})}.items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")
    print(f"bench record {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": record["correct"], "attempted": record["attempted"],
        "failed": record["failed"], "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
