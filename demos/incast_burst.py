#!/usr/bin/env python3
"""A 5:1 incast hitting a buffer pre-loaded by five shared-port queues.

Five alpha=1 queues share one output port, so together they drain at only
one packet per time unit.  Under DT they hold 50 of the 60 packets; when a
rate-5 high-priority burst lands on the empty port, the buffer can neither
offer space nor free it fast enough, and the burst starts dropping after
only 8 packets.  FB prices the shared drain into each queue's threshold
(gamma = 1/5, N_low = 5), keeps the lows at 2 packets each, and absorbs the
whole burst.
"""

from bisect import bisect_right
from fractions import Fraction

from fbsim import compute, preset, run, transient_scenario
from fbsim.fluid import analyze_transient, integrate_transient

for name, label in (("fig4_incast", "DT"), ("fig5_incast", "FB")):
    cfg = preset(name)
    ts = transient_scenario(cfg)
    res = analyze_transient(ts)
    print(f"{label}: fluid says case={res.case.value}, first possible drop at "
          f"t1={float(res.t1):.3f} after burst onset, tolerance "
          f"{float(res.burst_tolerance):.1f} packets at rate {float(ts.r):.0f}")

    trace = run(cfg)
    m = compute(trace, cfg)
    drops = [r for r in trace.records if r[3] == "drop" and r[2] == 5]
    if drops:
        t, _, _, _, qlen, thr, _, _ = drops[0]
        print(f"    sim: first burst drop at t={t} with the queue holding "
              f"{qlen} packets (threshold {thr:.1f}); "
              f"{m.burst_admitted_fraction:.0%} of the burst admitted")
    else:
        print(f"    sim: no burst drops; {m.burst_admitted_fraction:.0%} admitted, "
              f"drained in {m.burst_drain_completion_time:.0f} time units")
    print()

print("threshold race for the DT case, from the exact fluid solver:")
ts = transient_scenario(preset("fig4_incast"))
traj = integrate_transient(ts, horizon=2.6)
burst_q = ts.new[0].queue


def at(t, values):
    """values at time t, exactly: the trajectory is linear between breakpoints."""
    i = min(bisect_right(traj.times, t), len(traj.times) - 1)
    a, b = traj.times[i - 1], traj.times[i]
    return values[i - 1] + (values[i] - values[i - 1]) * (t - a) / (b - a)


for t in (Fraction(k, 2) for k in range(6)):  # every half time unit
    q, thr = at(t, traj.lengths[burst_q]), at(t, traj.thresholds[burst_q])
    print(f"  t={float(t):4.1f}  burst queue {float(q):5.2f}  threshold {float(thr):5.2f}")
t1 = traj.t1
print(f"  queue meets threshold at t={float(t1):.3f} "
      f"holding {float(4 * t1):.1f} packets")
