"""Golden digests: every preset's and golden scenario's run artifacts, and
the analyzer's outputs, stay byte-identical.

``golden/preset_artifacts.sha256`` holds the sha256 of every file that
``fbsim run --preset <p> --format {csv,json}`` writes, and
``golden/scenario_artifacts.sha256`` the same for each
``golden/scenarios/<s>.ini`` run with ``--scenario``.  The scenarios cover
what the presets do not: single-queue mode, FBA at periods 0 and 2, FBA on
a shared queue, FB with a stale snapshot, a congestion threshold and an
alpha override, FBA at period 1 on a snapshot synced every 1.5 with a
congestion threshold, Complete Sharing, and DT with a Poisson source, a
constant source that stops before the horizon and a burst.  ``golden/analyzer_artifacts.sha256`` holds the stdout and
every written file of the ``analyze`` and ``configure-alpha`` commands in
``ANALYZER_RUNS``: presets with alpha bounds, inline FB scenarios at a
Case-1 and a Case-2 rate, an inline DT scenario, both curve schemes, both
``configure-alpha`` forms and ``configure-alpha`` on three low ports.  A
change that moves an artifact says why in CHANGES.md before the files are
regenerated with
``PYTHONPATH=src python tests/test_golden_artifacts.py``, which prints
every entry whose digest changed, appeared or vanished, one per line.
"""

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

import pytest

from fbsim.cli import main
from fbsim.workloads import preset_names

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN = GOLDEN_DIR / "preset_artifacts.sha256"
SCENARIO_GOLDEN = GOLDEN_DIR / "scenario_artifacts.sha256"
ANALYZER_GOLDEN = GOLDEN_DIR / "analyzer_artifacts.sha256"
SCENARIOS = {p.stem: p for p in sorted((GOLDEN_DIR / "scenarios").glob("*.ini"))}
FORMATS = ("csv", "json")

_INLINE_FB = ["--buffer", "120", "--alpha-l", "1", "--alpha-h", "2",
              "--n-low", "2", "--low-per-port", "3", "--n-new", "2", "--t", "5"]
_CURVE = ["--buffer", "60", "--alpha-l", "1/2", "--alpha-h", "20", "--r", "4", "--curve"]
#: name -> argv; every ``--out`` is relative, because analysis.json records
#: the curve file's path
ANALYZER_RUNS = {
    **{
        f"{preset}_{fmt}": ["analyze", "--preset", preset, "--t", "3",
                            "--out", "out", "--format", fmt]
        for preset in ("fig4_incast", "fig5_incast")
        for fmt in FORMATS
    },
    # the case-rate bound of the inline FB scenario is 5
    "inline_fb_case1": ["analyze", *_INLINE_FB, "--r", "4", "--out", "out"],
    "inline_fb_case2": ["analyze", *_INLINE_FB, "--r", "8", "--out", "out"],
    "inline_dt": ["analyze", "--scheme", "dt", "--buffer", "100", "--alpha-l", "1",
                  "--alpha-h", "2", "--r", "4", "--t", "5", "--out", "out"],
    "curve_fb": ["analyze", *_CURVE, "--scheme", "fb", "--out", "out"],
    "curve_dt": ["analyze", *_CURVE, "--scheme", "dt", "--out", "out"],
    "configure_alpha_l": ["configure-alpha", "--buffer", "60", "--r", "4", "--t", "5",
                          "--alpha-l", "1/2"],
    "configure_alphas": ["configure-alpha", "--buffer", "60", "--r", "4", "--t", "5",
                         "--alphas", "1,1/2"],
    # three low FB ports: zero-transient bound 3/2, frontier 4, alpha_H_min 5/2
    "configure_alpha_num3": ["configure-alpha", "--buffer", "200", "--r", "6", "--t", "20",
                             "--num", "3"],
}


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def artifact_digests(source: list[str], fmt: str, out: Path) -> dict[str, str]:
    """Run one preset or scenario (``source`` is its CLI flags) into ``out``
    and digest every file written there."""
    assert main(["run", *source, "--format", fmt, "--out", str(out)]) == 0
    return {p.name: _digest(p.read_bytes()) for p in sorted(out.iterdir())}


def analyzer_digests(argv: list[str], cwd: Path) -> dict[str, str]:
    """Run one analyzer command with ``cwd`` as the working directory and
    digest its stdout and every file it writes under ``out``."""
    stdout = io.StringIO()
    previous = os.getcwd()
    os.chdir(cwd)
    try:
        with contextlib.redirect_stdout(stdout):
            assert main(argv) == 0
    finally:
        os.chdir(previous)
    out = cwd / "out"
    written = sorted(out.iterdir()) if out.exists() else []
    return {"stdout": _digest(stdout.getvalue().encode()),
            **{p.name: _digest(p.read_bytes()) for p in written}}


def golden_digests(path: Path, *run: str) -> dict[str, str]:
    """{file name: digest} recorded in ``path`` for one run, named by its
    leading entry fields (run name, and format for ``fbsim run``)."""
    prefix = "/".join(run) + "/"
    golden = {}
    for line in path.read_text().splitlines():
        digest, entry = line.split("  ")
        if entry.startswith(prefix):
            golden[entry[len(prefix):]] = digest
    return golden


def golden_changes(path: Path, written: list[str]) -> list[str]:
    """One line per entry of ``path`` whose digest ``written`` changes, adds
    or drops: ``changed``, ``appeared`` or ``vanished``, then the file and
    entry names."""
    def entries(lines):
        return {entry: digest for digest, entry in (line.split("  ") for line in lines)}

    old = entries(path.read_text().splitlines()) if path.exists() else {}
    new = entries(written)
    status = {e: "vanished" for e in old.keys() - new.keys()}
    status.update({e: "appeared" for e in new.keys() - old.keys()})
    status.update({e: "changed" for e in old.keys() & new.keys() if old[e] != new[e]})
    return [f"{status[e]}  {path.name}  {e}" for e in sorted(status)]


def runs():
    """(golden file, run name, CLI flags) of every pinned run."""
    for name in preset_names():
        yield GOLDEN, name, ["--preset", name]
    for name, path in SCENARIOS.items():
        yield SCENARIO_GOLDEN, name, ["--scenario", str(path)]


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("name", preset_names())
def test_preset_artifacts_match_golden_digests(name, fmt, tmp_path):
    got = artifact_digests(["--preset", name], fmt, tmp_path / "run")
    assert got == golden_digests(GOLDEN, name, fmt)


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_artifacts_match_golden_digests(name, fmt, tmp_path):
    golden = golden_digests(SCENARIO_GOLDEN, name, fmt)
    assert golden, f"no golden digests for {name}/{fmt}"
    got = artifact_digests(["--scenario", str(SCENARIOS[name])], fmt, tmp_path / "run")
    assert got == golden


@pytest.mark.parametrize("name", sorted(ANALYZER_RUNS))
def test_analyzer_outputs_match_golden_digests(name, tmp_path):
    golden = golden_digests(ANALYZER_GOLDEN, name)
    assert golden, f"no golden digests for {name}"
    assert analyzer_digests(ANALYZER_RUNS[name], tmp_path) == golden


if __name__ == "__main__":
    lines: dict[Path, list[str]] = {GOLDEN: [], SCENARIO_GOLDEN: [], ANALYZER_GOLDEN: []}
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        for golden, name, source in runs():
            for fmt in FORMATS:
                digests = artifact_digests(source, fmt, Path(tmp) / f"{name}_{fmt}")
                lines[golden] += [f"{d}  {name}/{fmt}/{f}" for f, d in digests.items()]
        for name, argv in ANALYZER_RUNS.items():
            cwd = Path(tmp) / f"analyze_{name}"
            cwd.mkdir()
            digests = analyzer_digests(argv, cwd)
            lines[ANALYZER_GOLDEN] += [f"{d}  {name}/{f}" for f, d in digests.items()]
    for golden, written in lines.items():
        for line in golden_changes(golden, written):
            print(line)
        golden.write_text("\n".join(written) + "\n")
        print(f"wrote {len(written)} digests to {golden}", file=sys.stderr)
