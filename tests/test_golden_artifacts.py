"""Golden digests: every preset's run artifacts stay byte-identical.

``golden/preset_artifacts.sha256`` holds the sha256 of every file that
``fbsim run --preset <p> --format {csv,json}`` writes.  A change that moves
an artifact says why in CHANGES.md before the file is regenerated with
``PYTHONPATH=src python tests/test_golden_artifacts.py``.
"""

import hashlib
import sys
import tempfile
from pathlib import Path

import pytest

from fbsim.cli import main
from fbsim.workloads import preset_names

GOLDEN = Path(__file__).parent / "golden" / "preset_artifacts.sha256"
FORMATS = ("csv", "json")


def artifact_digests(name: str, fmt: str, out: Path) -> dict[str, str]:
    """Run one preset into ``out`` and digest every file written there."""
    assert main(["run", "--preset", name, "--format", fmt, "--out", str(out)]) == 0
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("name", preset_names())
def test_preset_artifacts_match_golden_digests(name, fmt, tmp_path):
    golden = {}
    for line in GOLDEN.read_text().splitlines():
        digest, path = line.split("  ")
        preset_name, run_format, file_name = path.split("/")
        if (preset_name, run_format) == (name, fmt):
            golden[file_name] = digest
    assert artifact_digests(name, fmt, tmp_path / "run") == golden


if __name__ == "__main__":
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        for name in preset_names():
            for fmt in FORMATS:
                digests = artifact_digests(name, fmt, Path(tmp) / f"{name}_{fmt}")
                lines += [f"{d}  {name}/{fmt}/{f}" for f, d in digests.items()]
    GOLDEN.write_text("\n".join(lines) + "\n")
    print(f"wrote {len(lines)} digests to {GOLDEN}", file=sys.stderr)
