"""Smoke test: every narrative demo runs to completion; the incast,
steady-state and alpha-configuration stories' outputs are pinned exactly."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_all_demos_found():
    assert len(DEMOS) == 5


def _run_demo(demo, tmp_path):
    # a copy runs from tmp_path, so the files a demo writes next to itself
    # stay out of the checkout
    copy = shutil.copy(demo, tmp_path)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, copy], env=env, cwd=tmp_path, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_exits_0(demo, tmp_path):
    _run_demo(demo, tmp_path)


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


def test_incast_burst_stdout_is_pinned(tmp_path):
    assert _run_demo(ROOT / "demos" / "incast_burst.py", tmp_path) == INCAST_STDOUT


STEADY_STATE_STDOUT = """\
closed form, one high (alpha=2) + three lows (alpha=1), B=60
  DT: occupancy 50, remaining 10, high queue 20, lows aggregate 30
  FB: occupancy 45, remaining 15, high queue 30, lows aggregate 15

the same split, grown packet by packet in the simulator
  DT: pinned lengths high=20 lows=[11, 11, 11] remaining=10
  FB: pinned lengths high=30 lows=[6, 6, 6] remaining=15

how the DT high-queue share decays as low queues multiply (FB's stays put):
   1 low queues: DT high share 30.00   FB high share 30
   2 low queues: DT high share 24.00   FB high share 30
   4 low queues: DT high share 17.14   FB high share 30
   8 low queues: DT high share 10.91   FB high share 30
  16 low queues: DT high share  6.32   FB high share 30
  32 low queues: DT high share  3.43   FB high share 30
"""


def test_steady_state_story_stdout_is_pinned(tmp_path):
    assert _run_demo(ROOT / "demos" / "steady_state_story.py", tmp_path) == STEADY_STATE_STDOUT


ALPHA_CONFIGURATION_STDOUT = """\
target: absorb a rate-4 burst lasting 150 time units (600 packets) in a 2000-packet buffer

rate-only rule: alpha_L <= 1/2 keeps any rate-4 burst loss-free until its fair share fills
duration-aware rule: alpha_L <= 17/3 (5.67)
picking alpha_L = 17/6: need alpha_H > 69/34 (2.029)
with alpha_H = 3.044: first possible drop at t1 = 174.8 > 150 needed

packet sim against the worst case (low queue pre-filled to 1478): 100% of 600 burst packets admitted, burst queue never dropped

the same machinery scales to more priority levels: their alpha maxima simply sum into the low slot
  lower-priority alphas [1]: top priority needs alpha > 3/4
  lower-priority alphas [1, 1]: top priority needs alpha > 3/2
  lower-priority alphas [2, 1]: top priority needs alpha > 3
"""


def test_alpha_configuration_stdout_is_pinned(tmp_path):
    stdout = _run_demo(ROOT / "demos" / "alpha_configuration.py", tmp_path)
    assert stdout == ALPHA_CONFIGURATION_STDOUT
