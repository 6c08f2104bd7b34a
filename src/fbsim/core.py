"""Shared domain types for the shared-buffer switch models.

Unit conventions used throughout the package:

- The buffer capacity ``B`` is counted in packets and every packet has unit
  size.
- Time is measured in abstract time units.  Every port drains exactly one
  packet per time unit, so a rate of ``r`` means ``r`` packets per time unit
  and is the same thing as "``r`` times one port's drain rate".
- A queue is identified by the pair (port, traffic class); at most one queue
  exists per pair.

All types in this module, ``PolicyKind`` (the four admission policies a
scenario can name; their rules live in ``fbsim.engine``) among them, are
immutable value objects and safe to share across threads.  The module
also owns how a result is written out: the value-to-JSON rule
``jsonable``, the JSON text and files, and CSV tables.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Iterable, Mapping, Sequence


class CapacityError(ValueError):
    """Total queued packets exceed the buffer capacity."""


class PolicyKind(Enum):
    """An admission policy, by its scenario-file name."""

    COMPLETE_SHARING = "cs"
    DYNAMIC_THRESHOLDS = "dt"
    FB = "fb"
    FBA = "fba"


@dataclass(frozen=True)
class TrafficClass:
    """A traffic class: its admission weight alpha and its priority group."""

    class_id: int
    alpha: Fraction
    priority_id: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", Fraction(self.alpha))
        if self.alpha <= 0:
            raise ValueError(f"class {self.class_id}: alpha must be > 0, got {self.alpha}")


@dataclass(frozen=True, order=True)
class QueueId:
    """Queue identity: (port index, class id)."""

    port: int
    class_id: int

    def __str__(self) -> str:  # used in CSV/JSON keys
        return f"{self.port}:{self.class_id}"

    @staticmethod
    def parse(text: str) -> "QueueId":
        port, _, cls = text.partition(":")
        return QueueId(int(port), int(cls))


@dataclass(frozen=True)
class BufferSnapshot:
    """Instantaneous buffer state plus the aggregates the policies consume.

    ``occupancy`` is the total queued packets Q(t), ``remaining`` is
    B - Q(t).  ``congested_per_priority`` maps priority id -> N_p(t), the
    count of queues of that priority deemed congested under
    ``congestion_threshold`` (a queue is congested when its length exceeds
    the threshold; the default threshold 0 means "non-empty").
    """

    buffer_size: int
    congestion_threshold: int
    lengths: Mapping[QueueId, int]
    occupancy: int
    remaining: int
    congested_per_priority: Mapping[int, int]
    congested: frozenset[QueueId] = field(default_factory=frozenset)


def derive_aggregates(
    lengths: Mapping[QueueId, int],
    class_priorities: Mapping[int, int],
    buffer_size: int,
    congestion_threshold: int = 0,
) -> BufferSnapshot:
    """Compute a BufferSnapshot from raw per-queue lengths: the occupancy,
    the remaining space, the congested set and N_p per priority.

    Raises CapacityError if the lengths sum beyond the buffer size.
    """
    total = 0
    for q, length in lengths.items():
        if length < 0:
            raise ValueError(f"queue {q}: negative length {length}")
        if q.class_id not in class_priorities:
            raise ValueError(f"queue {q}: unknown class {q.class_id}")
        total += length
    if total > buffer_size:
        raise CapacityError(f"total occupancy {total} exceeds buffer size {buffer_size}")

    congested: set[QueueId] = {
        q for q, length in lengths.items() if length > congestion_threshold
    }
    n_per_priority: dict[int, int] = {pid: 0 for pid in set(class_priorities.values())}
    for q in congested:
        n_per_priority[class_priorities[q.class_id]] += 1

    return BufferSnapshot(
        buffer_size=buffer_size,
        congestion_threshold=congestion_threshold,
        lengths=dict(lengths),
        occupancy=total,
        remaining=buffer_size - total,
        congested_per_priority=n_per_priority,
        congested=frozenset(congested),
    )


# -- result files --------------------------------------------------------------


def jsonable(x):
    """A value as JSON sees it: a Fraction becomes a float, +-inf becomes
    "inf", an Enum its value, dict keys strings and tuples lists."""
    if isinstance(x, Fraction):
        return float(x)
    if isinstance(x, float) and math.isinf(x):
        return "inf"
    if isinstance(x, Enum):
        return x.value
    if isinstance(x, dict):
        return {str(k): jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [jsonable(v) for v in x]
    return x


def json_text(value, compact: bool = False) -> str:
    """``value`` as JSON text: indented with sorted keys, or compact (one
    line, keys in insertion order) for a table cell."""
    if compact:
        return json.dumps(jsonable(value))
    return json.dumps(jsonable(value), indent=2, sort_keys=True)


def write_json(path, value) -> None:
    """Write ``json_text(value)`` and a trailing newline to ``path``."""
    with open(path, "w") as fh:
        fh.write(json_text(value) + "\n")


def write_table(path, header: Sequence, rows: Iterable[Sequence]) -> None:
    """Write a CSV table (the csv module's default dialect): the header row,
    then every row."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
