#!/usr/bin/env python3
"""Steady-state buffer splits under DT and FB, closed form vs packet sim.

A 60-packet buffer is shared by one high-importance queue (alpha=2) and
three low-importance queues (alpha=1), each on its own port.  Dynamic
Thresholds lets the three low queues collectively out-occupy the high one;
FB divides each group's claim by its congested-queue count, so the high
queue keeps a guaranteed share no matter how many low queues pile in.
"""

from fbsim import preset, run, steady_omegas, steady_state
from fbsim.core import QueueId
from fbsim.fluid import congested_weights
from fbsim.metrics import trailing_steady_lengths

HIGH_Q = QueueId(0, 1)
LOW_QS = [QueueId(p, 0) for p in (1, 2, 3)]


def show(label, result):
    high = result.steady_thresholds[HIGH_Q]
    lows = sum(result.steady_thresholds[q] for q in LOW_QS)
    print(f"  {label}: occupancy {float(result.steady_occupancy):.0f}, "
          f"remaining {float(result.steady_remaining):.0f}, "
          f"high queue {float(high):.0f}, lows aggregate {float(lows):.0f}")


print("closed form, one high (alpha=2) + three lows (alpha=1), B=60")
show("DT", steady_state(steady_omegas(preset("fig4_steady")), 60))
show("FB", steady_state(steady_omegas(preset("fig5_steady")), 60))

print("\nthe same split, grown packet by packet in the simulator")
for name, label in (("fig4_steady", "DT"), ("fig5_steady", "FB")):
    cfg = preset(name)
    trace = run(cfg)
    pinned, occ_max = trailing_steady_lengths(trace, 20.0)
    print(f"  {label}: pinned lengths high={pinned[HIGH_Q]} "
          f"lows={[pinned[q] for q in LOW_QS]} remaining={cfg.buffer_size - occ_max}")

print("\nhow the DT high-queue share decays as low queues multiply "
      "(FB's stays put):")
for n in (1, 2, 4, 8, 16, 32):
    lows = [QueueId(1 + k, 0) for k in range(n)]
    alphas = {HIGH_Q: 2, **dict.fromkeys(lows, 1)}  # DT's weights are the alphas
    # (priority, alpha) per queue
    weights = congested_weights({HIGH_Q: (1, 2), **dict.fromkeys(lows, (0, 1))}, fb=True)
    dt = steady_state(alphas, 60).steady_thresholds[HIGH_Q]
    fb = steady_state({q: omega for q, (omega, _, _) in weights.items()}, 60).steady_thresholds[HIGH_Q]
    print(f"  {n:2d} low queues: DT high share {float(dt):5.2f}   FB high share {float(fb):.0f}")
