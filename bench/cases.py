"""Workload inputs, the program calls of one pass, and the output checks.

``build(workload, seed, directory)`` generates a workload's inputs from the
seed (scenario files, transient families) and returns the items of one
pass.  An item is one timed call into fbsim: an in-process ``fbsim run``
or ``fbsim analyze`` through ``fbsim.cli.main``, or one transient scenario
solved by both fluid routes.  Every call goes through a module attribute
(``fluid.first_threshold_crossing``, not a from-import) so that the traced
run sees it.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction as F
from typing import Callable, Optional

import fbsim.cli
import fbsim.engine
import fbsim.fluid
import fbsim.metrics
import fbsim.workloads
from fbsim.core import QueueId

THRESHOLD_EPS = 1e-9  # the documented strict-admission tolerance


class Checks:
    """Output checks attempted and failed; failed / attempted is failed_frac."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def expect(self, ok, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)
        return bool(ok)


@dataclass
class Item:
    name: str
    call: Callable[[], object]
    scenario: bool = True  # counts toward scenarios_per_s
    out_dir: Optional[str] = None  # artifacts written by the call
    scenario_path: Optional[str] = None
    verify: Optional[Callable[[object, Checks], None]] = None  # every pass
    fb_twin: Optional[str] = None  # FB twin of an FBA period-0 scenario
    family: Optional[str] = None  # transient family of a fluid item


def quiet_cli(argv: list[str]) -> tuple[int, str]:
    """``fbsim.cli.main(argv)`` with its stdout captured: (exit code, text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = fbsim.cli.main(argv)
    return code, buf.getvalue()


def fingerprint(item: Item, result) -> str:
    """Digest of an item's result and of every artifact it wrote; the output
    directory's path is left out, so digests compare across checkouts."""
    text = repr(result)
    if item.out_dir is None:
        return hashlib.sha256(text.encode()).hexdigest()
    h = hashlib.sha256(text.replace(item.out_dir, "<out>").encode())
    for name in sorted(os.listdir(item.out_dir)):
        with open(os.path.join(item.out_dir, name), "rb") as fh:
            data = fh.read()
        h.update(name.encode())
        h.update(data.replace(item.out_dir.encode(), b"<out>"))
    return h.hexdigest()


# ---------------------------------------------------------------------------
# scenario text (the documented file format that `fbsim run --scenario` reads)
# ---------------------------------------------------------------------------


def scenario_text(
    *, buffer, ports, classes, kind, sources, horizon, seed, fba_period=1.0,
    queue_mode="multi", congestion_threshold=0, sample_interval=0.1,
    staleness=0.0, initial=None, overrides=None,
) -> str:
    """``classes`` is [(alpha, priority)]; ``sources`` are source lines
    without their index; ``initial`` / ``overrides`` map "port:class"."""
    lines = [
        "[switch]", f"buffer = {buffer}", f"ports = {ports}", f"queue_mode = {queue_mode}",
        f"congestion_threshold = {congestion_threshold}", f"horizon = {horizon!r}",
        f"seed = {seed}", f"sample_interval = {sample_interval!r}",
        f"snapshot_staleness = {staleness!r}", "", "[classes]",
    ]
    lines += [f"{c} = alpha={a} priority={p}" for c, (a, p) in enumerate(classes)]
    lines += ["", "[policy]", f"kind = {kind}", f"fba_period = {fba_period!r}", "", "[sources]"]
    lines += [f"{i} = {s}" for i, s in enumerate(sources)]
    for section, table in (("initial", initial), ("alpha_overrides", overrides)):
        if table:
            lines += ["", f"[{section}]"] + [f"{q} = {v}" for q, v in sorted(table.items())]
    return "\n".join(lines) + "\n"


def _write(directory: str, name: str, text: str) -> str:
    path = os.path.join(directory, name)
    with open(path, "w") as fh:
        fh.write(text)
    return path


def _sim_item(name: str, path: str, out_root: str, fb_twin: Optional[str] = None) -> Item:
    out_dir = os.path.join(out_root, name)
    os.makedirs(out_dir, exist_ok=True)
    argv = ["run", "--scenario", path, "--out", out_dir]
    return Item(
        name=name, call=lambda: quiet_cli(argv), out_dir=out_dir, scenario_path=path,
        verify=_exit_ok, fb_twin=fb_twin,
    )


def _exit_ok(result, checks: Checks) -> None:
    checks.expect(result[0] == 0, f"exit code {result[0]}")


# ---------------------------------------------------------------------------
# sim_large: the large case under DT, FB and FBA (period 1)
# ---------------------------------------------------------------------------


def _large_text(kind: str, seed: int) -> str:
    rng = random.Random(seed)
    starts = [F(k, 16) for k in range(8)]
    rng.shuffle(starts)
    sources = [
        f"constant class={c} port={1 + c // 2} rate=2 start={starts[c]} stop=inf"
        for c in range(8)
    ]
    sources.append("burst class=8 port=0 r=6 duration=100 start=500")
    sources.append(
        "poisson class=0 port=5 mean_interarrival=10 flow_rate=1 start=0 stop=inf cdf=default"
    )
    return scenario_text(
        buffer=2000, ports=6, classes=[(1, 0)] * 8 + [(2, 1)], kind=kind,
        sources=sources, horizon=2000.0, seed=seed, fba_period=1.0,
    )


def _build_sim_large(seed: int, directory: str) -> list[Item]:
    out_root = os.path.join(directory, "out")
    items = []
    for kind in ("dt", "fb", "fba"):
        path = _write(directory, f"large_{kind}.ini", _large_text(kind, seed))
        items.append(_sim_item(f"large_{kind}", path, out_root))
    return items


# ---------------------------------------------------------------------------
# sim_family: many small scenarios over every policy path, plus the presets
# ---------------------------------------------------------------------------

FAMILY_KINDS = ("cs", "dt", "fb", "fb_single", "fba0", "fba")
FAMILY_PER_KIND = 8
FAMILY_ARRIVALS = 300  # target arrivals per member, so seeds weigh alike
DEFAULT_CDF_MEAN = F("11.14")  # mean flow size of the shipped default CDF


def _family_member(rng: random.Random, kind: str) -> dict:
    """Keyword arguments of ``scenario_text`` for one family member."""
    ports = rng.randint(2, 4)
    n_classes = rng.randint(1, 5)
    buffer = rng.randint(40, 200)
    classes = [(F(rng.randint(1, 8), rng.choice((1, 2, 4))), rng.randint(0, 1))
               for _ in range(n_classes)]
    queues = [(p, c) for p in range(ports) for c in range(n_classes)]
    sources, rate, burst_packets = [], F(0), 0
    for c in range(n_classes):
        port = rng.randrange(ports)
        start = F(rng.randint(0, 16), 4)
        if rng.random() < 0.2:
            mean = rng.randint(2, 8)
            sources.append(f"poisson class={c} port={port} mean_interarrival={mean} "
                           f"flow_rate=1 start={start} stop=inf cdf=default")
            rate += DEFAULT_CDF_MEAN / mean
        else:
            r = F(rng.randint(2, 12), 4)
            sources.append(f"constant class={c} port={port} rate={r} start={start} stop=inf")
            rate += r
    if rng.random() < 0.5:
        r, duration = rng.randint(2, 8), rng.randint(2, 10)
        sources.append(f"burst class={rng.randrange(n_classes)} port={rng.randrange(ports)} "
                       f"r={r} duration={duration} start={rng.randint(4, 20)}")
        burst_packets = r * duration
    horizon = float(min(200, max(30, round((FAMILY_ARRIVALS - burst_packets) / rate))))
    spec = dict(
        buffer=buffer, ports=ports, classes=classes, sources=sources, horizon=horizon,
        seed=rng.randrange(1, 2**31), congestion_threshold=rng.choice((0, 0, 0, 1, 2)),
        sample_interval=rng.choice((0.1, 0.25, 0.5, 1.0)),
        staleness=rng.choice((0.5, 1.0, 2.0)) if rng.random() < 0.25 else 0.0,
        kind="fba" if kind == "fba0" else kind,
        queue_mode="single" if kind == "fb_single" else "multi",
        fba_period=0.0 if kind == "fba0" else rng.choice((0.5, 1.0, 2.0)),
    )
    if rng.random() < 1 / 3:
        p, c = rng.choice(queues)
        spec["initial"] = {f"{p}:{c}": rng.randint(1, buffer // 4)}
    if kind != "fb_single" and rng.random() < 0.25:
        p, c = rng.choice(queues)
        spec["overrides"] = {f"{p}:{c}": F(rng.randint(1, 8), 2)}
    return spec


def _build_sim_family(seed: int, directory: str) -> list[Item]:
    rng = random.Random(seed)
    out_root = os.path.join(directory, "out")
    items = []
    for i in range(FAMILY_PER_KIND):
        for kind in FAMILY_KINDS:
            spec = _family_member(rng, kind)
            name = f"family_{i}_{kind}"
            path = _write(directory, name + ".ini", scenario_text(**spec))
            twin = None
            if kind == "fba0":
                twin = _write(directory, name + "_fb.ini", scenario_text(**{**spec, "kind": "fb"}))
            items.append(_sim_item(name, path, out_root, fb_twin=twin))
    for name in fbsim.workloads.preset_names():
        path = os.path.join(directory, f"preset_{name}.ini")
        fbsim.workloads.dump_scenario(fbsim.workloads.preset(name), path)
        items.append(_sim_item(f"preset_{name}", path, out_root))
    return items


# ---------------------------------------------------------------------------
# fluid_oracle: both fluid routes on seeded transient families, plus analyze
# ---------------------------------------------------------------------------

N_SYMMETRIC = 100  # half Case-1, half Case-2 (the criterion-06 recipe)
N_ASYMMETRIC = 100  # the ROADMAP item 4 probe recipe


def _symmetric_family(rng: random.Random, n: int) -> list:
    fluid = fbsim.fluid
    done = {fluid.CaseKind.CASE1: 0, fluid.CaseKind.CASE2: 0}
    out = []
    while min(done.values()) < n // 2:
        a_low = F(rng.randint(1, 8), rng.randint(1, 4))
        a_high = F(rng.randint(1, 12), rng.randint(1, 3))
        shape = dict(n_low_ports=rng.randint(1, 6), low_queues_per_port=rng.choice([1, 1, 2, 3]),
                     n_new=rng.randint(1, 3))
        buffer = rng.randint(40, 200)
        bound = fluid.case_rate_bound(fluid.two_priority_incast(buffer, a_low, a_high, 2, **shape))
        if done[fluid.CaseKind.CASE1] <= done[fluid.CaseKind.CASE2]:
            r = 1 + (bound - 1) * F(rng.randint(10, 99), 100)
        else:
            r = bound * F(rng.randint(105, 400), 100)
        ts = fluid.two_priority_incast(buffer, a_low, a_high, r, **shape)
        case = fluid.classify_case(ts)
        if done[case] < n // 2:
            done[case] += 1
            out.append(ts)
    return out


def _asymmetric_family(rng: random.Random, n: int) -> list:
    """Old queues with unequal omega/gamma ratios, outside the closed forms'
    stated assumption: the two routes are expected to disagree on some."""
    fluid = fbsim.fluid
    out = []
    for _ in range(n):
        old = tuple(
            fluid.OldQueue(QueueId(100 + i, 0), omega=F(rng.randint(1, 12), 4),
                           gamma=F(1, rng.choice((1, 2, 3))))
            for i in range(rng.randint(2, 4))
        )
        new = (fluid.NewQueue(QueueId(0, 1), omega=F(rng.randint(1, 12), 4), gamma=F(1)),)
        out.append(fluid.TransientScenario(rng.randint(50, 200), old, new,
                                           F(rng.randint(11, 80), 10)))
    return out


def solve_both(ts) -> tuple:
    """(closed-form t1, integrator t1, integrator step)."""
    closed = fbsim.fluid.first_threshold_crossing(ts)
    ode, step = fbsim.fluid.integrate_first_crossing(ts)
    return closed, ode, step


def routes_agree(result) -> bool:
    """The criterion-06 tolerance: |ode - closed| <= max(2*step, 1e-3*closed)."""
    closed, ode, step = result
    if math.isinf(closed) or math.isinf(ode):
        return math.isinf(closed) and math.isinf(ode)
    closed = float(closed)
    return abs(ode - closed) <= max(2 * step, 1e-3 * closed)


def solve_stats(result) -> dict:
    closed, ode, step = result
    return {"closed_t1": float(closed), "ode_t1": ode, "step": step,
            "agree": routes_agree(result)}


def _check_agree(result, checks: Checks) -> None:
    checks.expect(routes_agree(result), f"fluid routes disagree: {result}")


def _check_curve(out_dir: str):
    def verify(result, checks: Checks) -> None:
        if not checks.expect(result[0] == 0, f"analyze --curve exit code {result[0]}"):
            return
        with open(os.path.join(out_dir, "curve.csv"), newline="") as fh:
            rows = list(csv.DictReader(fh))
        checks.expect(len(rows) == 44, f"curve has {len(rows)} points, want 11 rates x 4 counts")
        # criterion 09: under FB the one-low-queue state is the pointwise lower bound
        base = {row["r"]: float(row["burst_tolerance"]) for row in rows
                if row["n_low_queues"] == "1"}
        checks.expect(all(float(row["burst_tolerance"]) >= base[row["r"]] for row in rows),
                      "FB curve falls below its one-low-queue state")
    return verify


def _check_analysis(preset: str):
    def verify(result, checks: Checks) -> None:
        if not checks.expect(result[0] == 0, f"analyze {preset} exit code {result[0]}"):
            return
        payload = json.loads(result[1])
        if preset == "fig4_incast":
            checks.expect(payload["t1"] == 2, f"fig4_incast t1 {payload['t1']} != 2")
        else:  # the 40-packet burst fits under the closed-form tolerance
            checks.expect(payload["burst_tolerance"] >= 40,
                          f"fig5_incast tolerance {payload['burst_tolerance']} < 40")
    return verify


def _build_fluid_oracle(seed: int, directory: str) -> list[Item]:
    rng = random.Random(seed)
    items = [Item(f"sym_{i}", lambda ts=ts: solve_both(ts), verify=_check_agree,
                  family="symmetric")
             for i, ts in enumerate(_symmetric_family(rng, N_SYMMETRIC))]
    items += [Item(f"asym_{i}", lambda ts=ts: solve_both(ts), family="asymmetric")
              for i, ts in enumerate(_asymmetric_family(rng, N_ASYMMETRIC))]
    curve_dir = os.path.join(directory, "out", "curve")
    os.makedirs(curve_dir, exist_ok=True)
    curve_argv = ["analyze", "--buffer", str(rng.randint(300, 1000)),
                  "--alpha-l", str(F(rng.randint(1, 4), 4)), "--alpha-h", str(rng.randint(4, 24)),
                  "--r", str(rng.choice((2, 3, 4, 6))), "--curve", "--out", curve_dir]
    items.append(Item("analyze_curve", lambda: quiet_cli(curve_argv), scenario=False,
                      out_dir=curve_dir, verify=_check_curve(curve_dir)))
    for preset in ("fig4_incast", "fig5_incast"):
        argv = ["analyze", "--preset", preset]
        items.append(Item(f"analyze_{preset}", lambda argv=argv: quiet_cli(argv),
                          scenario=False, verify=_check_analysis(preset)))
    return items


def build(workload: str, seed: int, directory: str) -> list[Item]:
    """Generate the workload's inputs under ``directory``; return its items."""
    os.makedirs(directory, exist_ok=True)
    builders = {"sim_large": _build_sim_large, "sim_family": _build_sim_family,
                "fluid_oracle": _build_fluid_oracle}
    return builders[workload](seed, directory)


# ---------------------------------------------------------------------------
# check-pass checks on the traces the engine returned
# ---------------------------------------------------------------------------


def strict_admission_violations(records, buffer_size: int) -> int:
    """Decisions that break strict admission: an admit needs
    len_before < threshold - 1e-9 and room in the buffer; a drop needs the
    converse or a full buffer.  Valid only for runs without staleness,
    whose decisions see the live lengths recorded in the trace."""
    bad = 0
    for record in records:
        action, qlen, threshold, occupancy = record[3:7]
        if action == "admit":
            bad += not (qlen - 1 < threshold - THRESHOLD_EPS and occupancy <= buffer_size)
        elif action == "drop":
            bad += not (qlen >= threshold - THRESHOLD_EPS or occupancy >= buffer_size)
    return bad


def _pinned_preset(name: str, trace, checks: Checks) -> None:
    """The worked numbers, at the acceptance suite's tolerances."""
    lengths = trace.final_lengths
    if name == "preset_fig2":
        got = (lengths[QueueId(0, 0)], lengths[QueueId(1, 1)])
        checks.expect(abs(got[0] - 15) <= 1 and abs(got[1] - 30) <= 1, f"fig2 ends at {got}")
    elif name == "preset_fig4_steady":
        pinned, occ_max = fbsim.metrics.trailing_steady_lengths(trace, 20.0)
        got = [pinned[QueueId(0, 1)]] + [pinned[QueueId(p, 0)] for p in (1, 2, 3)]
        ok = all(abs(g - w) <= 1 for g, w in zip(got, (20, 10, 10, 10)))
        checks.expect(ok and abs((60 - occ_max) - 10) <= 1, f"fig4_steady pinned at {got}")
    elif name == "preset_fig4_incast":
        drops = [r for r in trace.records if r[3] == "drop" and r[2] == 5]
        checks.expect(drops and abs(drops[0][4] - 8) <= 1,
                      f"fig4_incast first burst drop at {drops[0][4] if drops else None}")
    elif name == "preset_fig5_incast":
        drops = sum(1 for r in trace.records if r[3] == "drop" and r[2] == 5)
        checks.expect(drops == 0, f"fig5_incast dropped {drops} burst packets")


def deep_check(item: Item, config, trace, checks: Checks) -> dict:
    """Checks that need the run's trace; returns the run's exact statistics."""
    try:
        trace.verify_conservation()
        problem = None
    except fbsim.engine.EngineInvariantError as exc:
        problem = str(exc)
    checks.expect(problem is None, f"{item.name}: conservation: {problem}")
    if config.snapshot_staleness == 0:
        bad = strict_admission_violations(trace.records, config.buffer_size)
        checks.expect(bad == 0, f"{item.name}: {bad} decisions break strict admission")
    if item.fb_twin is not None:
        fb = fbsim.engine.run(fbsim.workloads.load_scenario(item.fb_twin))
        same = (fb.records == trace.records and fb.samples == trace.samples
                and fb.final_lengths == trace.final_lengths)
        checks.expect(same, f"{item.name}: FBA period 0 differs from FB")
    _pinned_preset(item.name, trace, checks)
    with open(os.path.join(item.out_dir, "metrics.json")) as fh:
        m = json.load(fh)
    return {
        "drops": m["total_drops"], "admitted": m["total_admitted"],
        "burst_admitted_fraction": m["burst_admitted_fraction"],
        "occupancy_max": m["occupancy_max"],
        "sim_events": sum(1 for r in trace.records if r[3] != "source_change"),
    }
