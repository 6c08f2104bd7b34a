#!/usr/bin/env python3
"""Choosing alphas to guarantee a target burst, then proving it in the sim.

Given a burst of rate r and duration t, the closed forms bound the alphas:
the low priority's alpha must stay under B/((r-2)t) - 1 or the steady state
eats the headroom, and the high priority's alpha must exceed a matching
lower bound or its queue cannot claim space fast enough.  Any pair obeying
both makes the burst provably loss-free in the worst buffer state.
"""

from fractions import Fraction

from fbsim import compute, run
from fbsim.core import PolicyKind, QueueId, TrafficClass
from fbsim.fluid import (
    alpha_H_for_burst,
    alpha_L_for_burst,
    alpha_L_for_zero_transient,
    first_threshold_crossing,
    two_priority_incast,
)
from fbsim.workloads import Burst, ConstantRate, ScenarioConfig

B, r, t = 2000, Fraction(4), Fraction(150)

print(f"target: absorb a rate-{r} burst lasting {t} time units "
      f"({r * t} packets) in a {B}-packet buffer\n")

zero_loss = alpha_L_for_zero_transient(r, num_congested_ports=1)
print(f"rate-only rule: alpha_L <= {zero_loss} keeps any rate-{r} burst "
      "loss-free until its fair share fills")

alpha_l_max = alpha_L_for_burst(B, r, t)
print(f"duration-aware rule: alpha_L <= {alpha_l_max} ({float(alpha_l_max):.2f})")

alpha_l = alpha_l_max / 2
alpha_h_min = alpha_H_for_burst(B, r, t, alpha_l)
print(f"picking alpha_L = {alpha_l}: need alpha_H > {alpha_h_min} "
      f"({float(alpha_h_min):.3f})")

alpha_h = alpha_h_min * Fraction(3, 2)
ts = two_priority_incast(B, alpha_l, alpha_h, r)
t1 = first_threshold_crossing(ts)
print(f"with alpha_H = {float(alpha_h):.3f}: first possible drop at "
      f"t1 = {float(t1):.1f} > {t} needed\n")

prefill = int(B * alpha_l / (1 + alpha_l))
cfg = ScenarioConfig(
    buffer_size=B, n_ports=2,
    classes=(TrafficClass(0, alpha_l, 0), TrafficClass(1, alpha_h, 1)),
    policy=PolicyKind.FB,
    sources=(
        ConstantRate(class_id=0, port=1, rate=Fraction(2)),
        Burst(class_id=1, port=0, r=r, duration=t, start=Fraction(2)),
    ),
    initial_lengths={QueueId(1, 0): prefill},
    horizon=float(t) + 10,
    sample_interval=1.0,
)
m = compute(run(cfg), cfg)
burst_clean = m.first_drop_time["0:1"] == float("inf")
print(f"packet sim against the worst case (low queue pre-filled to {prefill}): "
      f"{m.burst_admitted_fraction:.0%} of {r * t} burst packets admitted, "
      f"burst queue {'never dropped' if burst_clean else 'DROPPED'}")

print("\nthe same machinery scales to more priority levels: their alpha "
      "maxima simply sum into the low slot")
from fbsim.fluid import multi_priority_alpha_H

for alphas in ([1], [1, 1], [2, 1]):
    bound = multi_priority_alpha_H(alphas, 60, 4, 5)
    print(f"  lower-priority alphas {alphas}: top priority needs alpha > {bound}")
