"""Reach gate: the package keeps only what a command, a demo or the
benchmark runs.

A fresh interpreter, so that no cache or import-time call of another test
can hide a function, turns on ``sys.setprofile`` and
``threading.setprofile`` (a parallel sweep pickles its configs in the
executor's feeder thread) before it imports fbsim.  It runs ``catalogue()``
through ``cli.main``, which covers every command form, calls ``cli.entry``
once and runs each demo from a copy, and writes the code objects it entered.
Every ``def`` parsed from ``src/fbsim`` (methods, properties and nested
functions included) must have been entered, or be on ``ALLOWLIST`` with a
one-line reason.  An allowlist entry that the catalogue enters, or that no
longer names a ``def``, fails the gate too, so the list cannot go stale.
"""

import ast
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from fbsim.workloads import SWEEP_AXES, preset_names

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "fbsim"
SCENARIOS = sorted((ROOT / "tests" / "golden" / "scenarios").glob("*.ini"))
DEMOS = sorted((ROOT / "demos").glob("*.py"))

#: module.qualname -> why no command or demo enters it
ALLOWLIST = {
    "fluid.classify_case":
        "read by bench/cases.py to balance its symmetric family; goes with ROADMAP item 1",
    "fluid.case_rate_bound":
        "read by bench/cases.py to balance its symmetric family; goes with ROADMAP item 1",
    "fluid._ClosedForm.rate_bound":
        "read only through case_rate_bound, for bench/cases.py; goes with ROADMAP item 1",
    "fluid.integrate_first_crossing":
        "read by bench/cases.py solve_both and timed by bench/spans.py; goes with ROADMAP item 15",
    "engine.EventTrace.samples":
        "read by bench/cases.py's determinism check; goes with ROADMAP item 23",
    "engine.EventTrace.verify_conservation":
        "kept oracle: the rescan of the records that README's conservation promise names",
    "core.FrozenDict._refuse":
        "refusal path: no command writes to a read-only table",
}

_SWEEPS = {  # axis -> (preset, values)
    "load": ("fig5_incast", "1/2,1"),
    "burst_size": ("fig5_incast", "1/4,1/2"),
    "n_low_queues": ("dt_scaling", "1,2"),
    "r": ("fig5_incast", "3,5"),
}
#: golden scenarios outside the fluid model: complete sharing, a shared queue, two burst rates
_ANALYZE_REFUSES = {"cs_overload", "fb_single_mode", "fba_single_mode", "fba_stale_congthr"}
_INLINE = ["--buffer", "100", "--alpha-l", "1", "--alpha-h", "2", "--r", "4"]
_POISSON = ("0 = poisson class=0 port=1 mean_interarrival=3 flow_rate=1 start=0 stop=inf "
            "cdf=default")
#: README's unsafe-side example, where analyze reports the solver's t1: the
#: burst lowers every old queue's omega, and queue 3:2 closes its excess
#: before the closed form's t1
UNSAFE_SIDE = """\
[switch]
buffer = 191
ports = 4
congestion_threshold = 0
horizon = 400

[classes]
0 = alpha=2 priority=0
1 = alpha=2 priority=0
2 = alpha=1 priority=0
3 = alpha=2 priority=0

[policy]
kind = fb

[sources]
0 = constant class=0 port=1 rate=3 start=0 stop=inf
1 = constant class=1 port=2 rate=3/2 start=0 stop=inf
2 = constant class=2 port=3 rate=3 start=0 stop=inf
3 = burst class=3 port=0 r=21/5 duration=150 start=1371/10
"""


def catalogue(tmp: Path) -> list[tuple[int, list[str]]]:
    """(expected exit code, argv) of every command form, writing under ``tmp``.

    The two Poisson scenarios copy the golden DT one with its size CDF read
    from a file and given inline, which no golden scenario does; the
    unsafe-side one is a burst whose closed-form t1 the solver contradicts."""
    base = next(p for p in SCENARIOS if p.stem == "dt_poisson_stop").read_text()
    assert _POISSON in base
    (tmp / "sizes.cdf").write_text("# size cumprob\n1 0.5\n4, 1.0\n")
    cdfs = []
    for name, cdf in (("cdf_file", tmp / "sizes.cdf"), ("cdf_inline", "1:0.25,3:1.0")):
        cdfs.append(tmp / f"{name}.ini")
        cdfs[-1].write_text(base.replace(_POISSON, _POISSON.replace("default", str(cdf))))
    (tmp / "unsafe_side.ini").write_text(UNSAFE_SIDE)
    out = str(tmp / "out")
    forms = []
    for name in preset_names():
        forms += [(0, ["run", "--preset", name, "--out", out, "--format", fmt])
                  for fmt in ("csv", "json")]
        forms.append((0, ["analyze", "--preset", name]))
    for path in (*SCENARIOS, *cdfs):
        forms.append((0, ["run", "--scenario", str(path), "--out", out]))
        forms.append((3 * (path.stem in _ANALYZE_REFUSES), ["analyze", "--scenario", str(path)]))
    forms.append((0, ["run", "--preset", "fig5_incast", "--seed", "3", "--fba-period", "2",
                      "--out", out]))
    assert set(_SWEEPS) == set(SWEEP_AXES)
    for axis, (name, values) in _SWEEPS.items():
        forms.append((0, ["sweep", "--preset", name, "--axis", axis, "--values", values,
                          "--out", out, "--format", "csv"]))
    forms.append((0, ["sweep", "--preset", "fig5_incast", "--axis", "r", "--values", "3,5",
                      "--parallel", "2", "--out", out]))
    forms += [
        (0, ["analyze", *_INLINE, "--t", "3"]),
        (0, ["analyze", "--scenario", str(tmp / "unsafe_side.ini"), "--t", "3"]),
        (0, ["analyze", *_INLINE, "--scheme", "dt", "--n-low", "2", "--low-per-port", "2",
             "--n-new", "2"]),
        (0, ["analyze", *_INLINE, "--curve", "--r-values", "2,8", "--counts", "1,2",
             "--out", out]),
        (0, ["analyze", *_INLINE, "--out", out, "--format", "csv"]),
        (0, ["configure-alpha", "--buffer", "60", "--r", "4"]),
        (0, ["configure-alpha", "--buffer", "60", "--r", "4", "--t", "5"]),
        (0, ["configure-alpha", "--buffer", "60", "--r", "4", "--t", "5", "--alpha-l", "1/2"]),
        (0, ["configure-alpha", "--buffer", "60", "--r", "4", "--t", "5", "--alphas", "1,1/2"]),
        (0, ["preset-list"]),
        (3, ["run", "--preset", "no_such_preset", "--out", out]),
    ]
    return forms


#: Run in a fresh interpreter as ``python -c PROBE plan.json entered.json``.
PROBE = """
import json, runpy, sys, threading
entered = set()

def hook(frame, event, arg):
    if event == "call":
        entered.add(frame.f_code)

sys.setprofile(hook)
threading.setprofile(hook)
from fbsim import cli

plan_path, entered_path = sys.argv[1:]
with open(plan_path) as fh:
    plan = json.load(fh)
codes = [cli.main(argv) for argv in plan["argvs"]]
sys.argv = ["fbsim", "preset-list"]
try:
    cli.entry()
except SystemExit as exc:
    codes.append(exc.code)
for demo in plan["demos"]:
    runpy.run_path(demo, run_name="__main__")
sys.setprofile(None)
threading.setprofile(None)
with open(entered_path, "w") as fh:
    json.dump({"codes": codes,
               "entered": sorted({(c.co_filename, c.co_firstlineno) for c in entered})}, fh)
"""


def defs() -> dict[tuple[str, int], str]:
    """{(file, first line): "module.qualname"} of every ``def`` in the
    package; the first line is the first decorator's, as in a code object."""
    found = {}

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[str(path), first] = prefix + child.name
                walk(child, path, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, path, f"{prefix}{child.name}.")
            else:
                walk(child, path, prefix)

    for path in sorted(SRC.glob("*.py")):
        walk(ast.parse(path.read_text(encoding="utf-8")), path, f"{path.stem}.")
    return found


@pytest.fixture(scope="module")
def reach(tmp_path_factory) -> tuple[set[str], set[str]]:
    """The qualnames of the package's defs, and of those the probe entered."""
    tmp = tmp_path_factory.mktemp("reach")
    forms = catalogue(tmp)
    demos = [shutil.copy(demo, tmp) for demo in DEMOS]  # a demo writes beside itself
    (tmp / "plan.json").write_text(json.dumps({"argvs": [argv for _, argv in forms],
                                               "demos": demos}))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", PROBE, "plan.json", "entered.json"], env=env,
                          cwd=tmp, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads((tmp / "entered.json").read_text())
    assert result["codes"] == [code for code, _ in forms] + [0]
    names = defs()
    return set(names.values()), {names[key] for key in map(tuple, result["entered"])
                                 if key in names}


def test_every_def_is_reached_or_allowlisted(reach):
    names, reached = reach
    unreached = names - reached - set(ALLOWLIST)
    assert not unreached, f"no command, demo or allowlist entry reaches {sorted(unreached)}"


def test_the_allowlist_names_only_unreached_defs(reach):
    names, reached = reach
    gone, entered = set(ALLOWLIST) - names, set(ALLOWLIST) & reached
    assert not gone, f"allowlisted but no longer defined: {sorted(gone)}"
    assert not entered, f"allowlisted but reached by the catalogue: {sorted(entered)}"
