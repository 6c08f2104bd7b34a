#!/usr/bin/env python3
"""FBA: approximating FB on DT-only hardware by re-emitting alphas.

FB's threshold differs from DT's by the factor (1/N_p) * gamma.  A
controller that periodically reads the buffer and rewrites each queue's DT
alpha as alpha_c * (1/N_p) * gamma reproduces FB exactly at the instants it
runs, and drifts in between while the congestion picture changes.  Shrink
the period to one decision and the approximation becomes exact.

The scenario: five low queues on one shared port fill an empty buffer, and
a 5:1 burst arrives at t=12.  Between ticks the lows run on alphas computed
when they were still empty (plain DT behaviour), so a slow controller lets
them bloat before the burst lands.
"""

from dataclasses import replace
from fractions import Fraction

from fbsim import PolicyKind, compute, preset, run
from fbsim.workloads import ConstantRate

base = preset("fig5_incast")
warmup = replace(
    base,
    initial_lengths={},  # lows start empty and grow under the policy
    sources=tuple(
        replace(s, start=Fraction(c, 8)) if isinstance(s, ConstantRate) else
        replace(s, start=Fraction(12))
        for c, s in enumerate(base.sources)
    ),
    horizon=60.0,
)

fb_trace = run(replace(warmup, policy=PolicyKind.FB))
fb = compute(fb_trace, warmup)
print(f"FB               : burst admitted {fb.burst_admitted_fraction:4.0%}, "
      f"p99 occupancy {fb.occupancy_p99}")

for period in (0.0, 1.0, 5.0, 20.0):
    cfg = replace(warmup, policy=PolicyKind.FBA, fba_period=period)
    trace = run(cfg)
    m = compute(trace, cfg)
    label = "every event" if period == 0 else f"period {period:g}"
    same = "= FB trace" if trace.records == fb_trace.records else "drifts between ticks"
    print(f"FBA ({label:11s}): burst admitted {m.burst_admitted_fraction:4.0%}, "
          f"p99 occupancy {m.occupancy_p99}  [{same}]")

dt_cfg = replace(warmup, policy=PolicyKind.DYNAMIC_THRESHOLDS)
dt = compute(run(dt_cfg), dt_cfg)
print(f"DT               : burst admitted {dt.burst_admitted_fraction:4.0%}, "
      f"p99 occupancy {dt.occupancy_p99}")

print("\nwith a 20-unit period the burst at t=12 still sees the alphas "
      "emitted at t=0 (an empty buffer, so plain DT values): the lows have "
      "bloated and the burst drops like DT. Faster ticks shrink that window.")
