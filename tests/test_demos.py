"""Smoke test: every narrative demo runs to completion; the incast story's
output is pinned exactly."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_all_demos_found():
    assert len(DEMOS) == 5


def _run_demo(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(demo)], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_exits_0(demo):
    _run_demo(demo)


INCAST_STDOUT = """\
DT: fluid says case=case2, first possible drop at t1=2.000 after burst onset, tolerance 10.0 packets at rate 5
    sim: first burst drop at t=3.8 with the queue holding 8 packets (threshold 6.0); 48% of the burst admitted

FB: fluid says case=case1, first possible drop at t1=9.375 after burst onset, tolerance 46.9 packets at rate 5
    sim: no burst drops; 100% admitted, drained in 40 time units

threshold race for the DT case, from the exact fluid solver:
  t= 0.0  burst queue  0.00  threshold 20.00
  t= 0.5  burst queue  2.00  threshold 17.00
  t= 1.0  burst queue  4.00  threshold 14.00
  t= 1.5  burst queue  6.00  threshold 11.00
  t= 2.0  burst queue  8.00  threshold  8.00
  t= 2.5  burst queue  8.33  threshold  8.33
  queue meets threshold at t=2.000 holding 8.0 packets
"""


def test_incast_burst_stdout_is_pinned():
    assert _run_demo(ROOT / "demos" / "incast_burst.py") == INCAST_STDOUT
