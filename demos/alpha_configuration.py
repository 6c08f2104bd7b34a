#!/usr/bin/env python3
"""Choosing alphas to guarantee a target burst, then proving it in the sim.

Given a burst of rate r and duration t, ``alpha_bounds_general`` bounds the
alphas on the worst-case incast: one congested low port, the burst on its
own port.  The low priority's alpha has a frontier, one rule over both
regimes.  While alpha_L <= 1/(r-2) the low queue only tracks its falling
threshold (Case-1) and the buffer fills at (r-1)/(1+alpha_L), so even an
unbounded high alpha loses the burst when B <= (r-1)t, whatever alpha_L.
Past that the low queue drains flat out (Case-2), and alpha_L must stay
under B/((r-2)t) - 1.  So no alpha_L works when B <= (r-1)t; otherwise
alpha_L < B/((r-2)t) - 1 for r > 2, with no limit for r <= 2.  The high
priority's alpha must exceed a lower bound, solved in the low alpha's own
case, or its queue cannot claim space fast enough.  Any pair obeying both
makes the burst provably loss-free in the worst buffer state.
"""

from fractions import Fraction

from fbsim import compute, run
from fbsim.core import PolicyKind, QueueId, TrafficClass
from fbsim.fluid import alpha_bounds_general, first_threshold_crossing, two_priority_incast
from fbsim.workloads import Burst, ConstantRate, ScenarioConfig

B, r, t = 2000, Fraction(4), Fraction(150)


def bounds(buffer_size, rate, duration, alpha_l):
    """The incast's alpha bounds at a low alpha; alpha_H does not enter them,
    and without a duration only the case bound is read."""
    return alpha_bounds_general(two_priority_incast(buffer_size, alpha_l, 1, rate), duration)


print(f"target: absorb a rate-{r} burst lasting {t} time units "
      f"({r * t} packets) in a {B}-packet buffer\n")

# the Case-1 boundary 1/(r-2): up to it the low queue only tracks its threshold
zero_loss = bounds(B, r, None, 1).alpha_L_case_bound
print(f"rate-only rule: alpha_L <= {zero_loss} keeps any rate-{r} burst "
      "loss-free until its fair share fills")

# the frontier does not depend on alpha_L, so any positive one reads it
alpha_l_max = bounds(B, r, t, 1).alpha_L_max_for_burst
print(f"duration-aware rule: alpha_L <= {alpha_l_max} ({float(alpha_l_max):.2f})")

alpha_l = alpha_l_max / 2
alpha_h_min = bounds(B, r, t, alpha_l).alpha_H_min
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
for alphas in ([1], [1, 1], [2, 1]):
    bound = bounds(60, 4, 5, sum(alphas)).alpha_H_min
    print(f"  lower-priority alphas {alphas}: top priority needs alpha > {bound}")
