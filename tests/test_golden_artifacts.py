"""Golden digests: every preset's and golden scenario's run artifacts stay
byte-identical.

``golden/preset_artifacts.sha256`` holds the sha256 of every file that
``fbsim run --preset <p> --format {csv,json}`` writes, and
``golden/scenario_artifacts.sha256`` the same for each
``golden/scenarios/<s>.ini`` run with ``--scenario``.  The scenarios cover
what the presets do not: single-queue mode, FBA at periods 0 and 2, FBA on
a shared queue, and FB with a stale snapshot, a congestion threshold and an
alpha override.  A change that moves an artifact says why in CHANGES.md
before the files are regenerated with
``PYTHONPATH=src python tests/test_golden_artifacts.py``.
"""

import hashlib
import sys
import tempfile
from pathlib import Path

import pytest

from fbsim.cli import main
from fbsim.workloads import preset_names

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN = GOLDEN_DIR / "preset_artifacts.sha256"
SCENARIO_GOLDEN = GOLDEN_DIR / "scenario_artifacts.sha256"
SCENARIOS = {p.stem: p for p in sorted((GOLDEN_DIR / "scenarios").glob("*.ini"))}
FORMATS = ("csv", "json")


def artifact_digests(source: list[str], fmt: str, out: Path) -> dict[str, str]:
    """Run one preset or scenario (``source`` is its CLI flags) into ``out``
    and digest every file written there."""
    assert main(["run", *source, "--format", fmt, "--out", str(out)]) == 0
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


def golden_digests(path: Path, name: str, fmt: str) -> dict[str, str]:
    """{file name: digest} recorded in ``path`` for one run."""
    golden = {}
    for line in path.read_text().splitlines():
        digest, entry = line.split("  ")
        run_name, run_format, file_name = entry.split("/")
        if (run_name, run_format) == (name, fmt):
            golden[file_name] = digest
    return golden


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


if __name__ == "__main__":
    lines: dict[Path, list[str]] = {GOLDEN: [], SCENARIO_GOLDEN: []}
    with tempfile.TemporaryDirectory() as tmp:
        for golden, name, source in runs():
            for fmt in FORMATS:
                digests = artifact_digests(source, fmt, Path(tmp) / f"{name}_{fmt}")
                lines[golden] += [f"{d}  {name}/{fmt}/{f}" for f, d in digests.items()]
    for golden, written in lines.items():
        golden.write_text("\n".join(written) + "\n")
        print(f"wrote {len(written)} digests to {golden}", file=sys.stderr)
