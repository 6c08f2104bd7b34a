"""Admission policies: Complete Sharing, Dynamic Thresholds, FB, and FBA.

Every policy compares the target queue's length against a threshold:

- Complete Sharing admits while any buffer remains.
- Dynamic Thresholds caps a queue at ``alpha * (B - Q)``.
- FB scales that cap by ``1/N_p`` (congested queues of the class's priority)
  and by ``gamma`` (the queue's per-port-normalized dequeue rate), so a
  priority group cannot monopolize the buffer and slow-draining queues get
  less of it.  With ``queue_mode = single`` (scenario files may also say
  ``kind = fb_single``) FB applies per packet class on a shared per-port
  queue, with ``gamma = 1`` and ``N`` counting all congested queues.
- FBA approximates FB on DT-only hardware by periodically re-emitting DT
  alphas equal to FB's correction factors.  So DT, FB and FBA all read one
  alpha table per run: DT's never changes, FB's is refreshed before every
  decision and FBA's at each controller tick.  At period 0 FBA is
  therefore FB by construction; on a shared queue, which cannot carry
  per-class DT alphas, it is DT.

``engine.SwitchState`` resolves each run's policy to one of these rules
once and holds the table, and ``engine.enqueue_arrival`` and
``engine.controller_tick`` are the one place that acts on it; this module
holds the pieces they share.
Thresholds are real-valued, queue lengths are integers, and the admission
comparison is strict ("below the threshold") using double precision with a
1e-9 tolerance: lengths within 1e-9 of the threshold count as *not* below.
"""

from __future__ import annotations

from enum import Enum

#: Comparison tolerance for "length below threshold" in double precision.
THRESHOLD_EPS = 1e-9

#: Pseudo class id for the shared per-port queue in single-queue mode.
SHARED_QUEUE_CLASS = -1


class PolicyKind(Enum):
    COMPLETE_SHARING = "cs"
    DYNAMIC_THRESHOLDS = "dt"
    FB = "fb"
    FBA = "fba"


def below_threshold(length: int, threshold: float) -> bool:
    """Strict "length below threshold" with the documented 1e-9 tolerance."""
    return threshold - length > THRESHOLD_EPS


def fb_effective_alpha(alpha: float, n_p: int, gamma: float) -> float:
    """FB's correction of a DT alpha: ``alpha * (1/N_p) * gamma``.

    The engine builds its one alpha table for FB and FBA from this single
    expression, so the two produce bit-identical thresholds.
    """
    if n_p < 1:
        raise ValueError(f"N_p must be >= 1 (the target queue counts itself), got {n_p}")
    if not 0.0 < gamma <= 1.0:
        raise ValueError(f"gamma must be in (0, 1], got {gamma}")
    return alpha * (1.0 / n_p) * gamma
