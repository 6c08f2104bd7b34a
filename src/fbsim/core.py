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
also owns the exact-number coercion ``as_fraction`` and how a result is
written out: the value-to-JSON rule ``jsonable``, the JSON text and files,
and CSV tables.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Sequence, Union

Number = Union[int, float, Fraction]


def as_fraction(x: Number) -> Fraction:
    """``x`` as an exact Fraction; a Fraction is returned as it is."""
    return x if isinstance(x, Fraction) else Fraction(x)


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
        object.__setattr__(self, "alpha", as_fraction(self.alpha))
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
