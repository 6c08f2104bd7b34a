"""Post-process event traces into measurement vocabulary.

Covers per-queue drop/admission accounting, first-drop times, burst
absorption (admitted fraction and open-loop drain-completion time, the
query-completion proxy), per-port throughput, and occupancy statistics
(mean, nearest-rank 99th percentile over the periodic samples, true max).
``compute`` reads the facts the event loop kept on the trace, not its
records.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .core import QueueId, jsonable
from .engine import ADMIT, DEPART, EventTrace, run_summary
from .workloads import Burst, ScenarioConfig


@dataclass
class RunMetrics:
    per_queue: dict[str, dict[str, int]]
    first_drop_time: dict[str, float]
    burst_admitted_fraction: float
    burst_drain_completion_time: Optional[float]
    throughput_per_port: dict[int, float]
    occupancy_mean: float
    occupancy_p99: int
    occupancy_max: int
    partial: bool = False

    @property
    def total_drops(self) -> int:
        return sum(c["dropped"] for c in self.per_queue.values())

    @property
    def total_admitted(self) -> int:
        return sum(c["admitted"] for c in self.per_queue.values())

    @property
    def throughput_total(self) -> float:
        return sum(self.throughput_per_port.values())


def _nearest_rank(values: Sequence[int], quantile: float) -> int:
    """The nearest-rank quantile, selected without sorting every sample."""
    idx = max(0, math.ceil(quantile * len(values)) - 1)
    return heapq.nlargest(len(values) - idx, values)[-1]


def compute(trace: EventTrace, scenario: ScenarioConfig) -> RunMetrics:
    """All run metrics from the facts the engine kept on ``trace``.

    Burst packets are identified by their source, whose admitted, dropped
    and departed counts and last departure the engine keeps; the
    drain-completion time is the gap between the first burst source's start
    and the departure of the last admitted burst packet (inf, and the
    partial flag, if the run ended first).
    """
    bursts = [
        (float(s.start), row)
        for s, row in zip(scenario.sources, trace.source_counts)
        if isinstance(s, Burst)
    ]
    burst_admitted = sum(row["admitted"] for _, row in bursts)
    burst_arrivals = burst_admitted + sum(row["dropped"] for _, row in bursts)
    burst_departed = sum(row["departed"] for _, row in bursts)

    partial = False
    if not bursts:
        fraction = 1.0
        drain_time: Optional[float] = None
    else:
        fraction = burst_admitted / burst_arrivals if burst_arrivals else 1.0
        if burst_admitted == 0:
            drain_time = 0.0
        elif burst_departed < burst_admitted:
            drain_time = math.inf
            partial = True
        else:
            last_departure = max(row["last_departure"] for _, row in bursts if row["departed"])
            drain_time = last_departure - min(start for start, _ in bursts)

    departed: dict[int, int] = {}
    for q in trace.queue_ids:
        departed[q.port] = departed.get(q.port, 0) + trace.counts[q]["departed"]
    occupancies = trace.occupancy
    return RunMetrics(
        per_queue=run_summary(trace)["queues"],
        first_drop_time={str(q): t for q, t in trace.first_drop.items()},
        burst_admitted_fraction=fraction,
        burst_drain_completion_time=drain_time,
        throughput_per_port={p: departed[p] / trace.horizon for p in sorted(departed)},
        occupancy_mean=sum(occupancies) / len(occupancies) if occupancies else 0.0,
        occupancy_p99=_nearest_rank(occupancies, 0.99) if occupancies else 0,
        occupancy_max=trace.occupancy_peak,
        partial=partial,
    )


def trailing_steady_lengths(
    trace: EventTrace, window: float
) -> tuple[dict[QueueId, int], int]:
    """Pinned steady values over the run's last ``window`` time units.

    Returns per-queue maximum lengths and the maximum total occupancy seen in
    the window.  At a converged fixpoint these are the threshold-pinned
    values (instantaneous lengths dip below them between a service and the
    next refill).
    """
    t0 = trace.horizon - window
    # the state just before the window, then the highest values in it
    maxima = {q: trace.initial_lengths.get(q, 0) for q in trace.queue_ids}
    occ_max = sum(maxima.values())
    for time, _thr, port, class_id, code, qlen, occ, _src in trace.rows():
        if code != ADMIT and code != DEPART:
            continue
        q = trace.queue_of[port, class_id]
        if time < t0:
            maxima[q], occ_max = qlen, occ
        else:
            maxima[q], occ_max = max(maxima[q], qlen), max(occ_max, occ)
    return maxima, occ_max


def to_jsonable(metrics: RunMetrics) -> dict:
    """The metrics.json payload: every field plus the three totals."""
    return jsonable({
        **vars(metrics),
        "throughput_total": metrics.throughput_total,
        "total_drops": metrics.total_drops,
        "total_admitted": metrics.total_admitted,
    })
