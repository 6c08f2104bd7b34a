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
immutable value objects and safe to share across threads.  The module owns
the one field rule ``convert_fields``, which makes each field of every value
type the kind its annotation states, and how a result is written out: the
value-to-JSON rule ``jsonable`` and ``faithful_float``, the JSON text and
files, the one CSV writer ``write_csv`` and ``open_output``, the one opener.
"""

from __future__ import annotations

import collections.abc
import functools
import io
import json
import math
import os
import re
import typing
from dataclasses import dataclass
from decimal import Decimal
from enum import Enum, EnumMeta
from fractions import Fraction
from itertools import islice
from typing import Callable, Iterable, Iterator, Sequence, Union

Number = Union[int, float, Fraction]


def as_fraction(x: Number) -> Fraction:
    """``x`` as an exact Fraction; a Fraction is returned as it is."""
    return x if isinstance(x, Fraction) else Fraction(x)


def as_whole(x: Number) -> int:
    """``x`` as an int if it is a whole int, float or Fraction, else a ValueError."""
    if isinstance(x, (int, float, Fraction)) and x == x // 1:  # inf // 1 and nan // 1 are nan
        return int(x)
    raise ValueError(f"expected a whole number, got {x!r}")


class FrozenDict(dict):
    """A dict that refuses every change.  It equals a plain dict and, unlike
    ``types.MappingProxyType``, pickles (a parallel sweep pickles configs)."""

    def _refuse(self, *_args, **_kwargs):
        raise TypeError(f"{type(self).__name__} is read-only")

    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = setdefault = update = _refuse

    def __reduce__(self):
        return type(self), (dict(self),)


def _kind_rule(kind) -> Callable:
    """The converter to an annotated kind: ``int`` by ``as_whole``,
    ``Fraction`` by ``as_fraction``, ``float`` and an Enum by their
    constructors, ``Optional[X]`` as X, ``tuple[X, ...]`` item by item (a
    tuple whose items all stay is kept), ``Mapping[K, V]`` key by key and
    value by value into a FrozenDict, and any other class, or a Union of
    classes, by an instance check."""
    origin, args = typing.get_origin(kind), typing.get_args(kind)
    kinds = tuple(a for a in args if a is not type(None)) if origin is typing.Union else (kind,)
    if kind in (int, Fraction, float) or isinstance(kind, EnumMeta):
        return {int: as_whole, Fraction: as_fraction}.get(kind, kind)
    if len(kinds) == 1 and kinds[0] is not kind:
        return _kind_rule(kinds[0])
    if origin is tuple and args[1:] == (...,):
        item = _kind_rule(args[0])
        return lambda value: (value if type(value) is tuple and all(item(v) is v for v in value)
                              else tuple(map(item, value)))
    if origin is collections.abc.Mapping:
        key, item = map(_kind_rule, args)
        return lambda table: FrozenDict({key(k): item(v) for k, v in dict(table).items()})
    kinds = tuple(typing.get_origin(k) or k for k in kinds)

    def instance(value):
        if isinstance(value, kinds):
            return value
        raise ValueError(f"expected {' or '.join(k.__name__ for k in kinds)}, got {value!r}")
    return instance


@functools.cache  # each class's (field, converter, admits None), read when it is first built
def _rules(cls) -> tuple[tuple[str, Callable, bool], ...]:
    return tuple((name, _kind_rule(kind), type(None) in typing.get_args(kind))
                 for name, kind in typing.get_type_hints(cls).items())


def convert_fields(obj, **before: Callable) -> None:
    """The value types' one field rule: each field of ``obj`` becomes its
    annotated kind (``_kind_rule``), None only where that kind admits it; a
    keyword ``name=f`` passes that field, None included, through ``f``
    first.  A value that does not convert raises a ValueError, or its own
    subclass, naming the field."""
    for name, convert, optional in _rules(type(obj)):
        value = getattr(obj, name)
        try:
            if name in before:
                value = before[name](value)
            if value is None and optional:
                continue
            value = convert(value)
        except ValueError as exc:
            exc.args = (f"{name}: {exc}",)
            raise
        except (TypeError, ArithmeticError) as exc:
            raise ValueError(f"{name}: {exc}") from None
        object.__setattr__(obj, name, value)


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
        convert_fields(self)
        if self.alpha <= 0:
            raise ValueError(f"class {self.class_id}: alpha must be > 0, got {self.alpha}")


@dataclass(frozen=True, order=True)
class QueueId:
    """Queue identity: (port index, class id)."""

    port: int
    class_id: int

    def __post_init__(self) -> None:
        convert_fields(self)

    def __str__(self) -> str:  # used in CSV/JSON keys
        return f"{self.port}:{self.class_id}"

    @staticmethod
    def parse(text: str) -> "QueueId":
        port, _, cls = text.partition(":")
        return QueueId(int(port), int(cls))


# -- result files --------------------------------------------------------------


def faithful_float(x: Fraction) -> float:
    """``float(x)``, or a ValueError saying why no float is faithful to
    ``x``: no float holds it, or it is positive but rounds to 0.0."""
    try:  # the int division that float(x) does
        as_float = x.numerator / x.denominator
    except OverflowError:
        raise ValueError("too large for a float") from None
    if not as_float and x > 0:
        raise ValueError("too small for a float: it rounds to 0.0")
    return as_float


def jsonable(x):
    """A value as JSON sees it: a Fraction becomes a float, +-inf becomes
    "inf", an Enum its value, dict keys strings and tuples lists.  A
    Fraction without a faithful float is a ValueError naming it."""
    kind = type(x)
    if kind is str or kind is int or kind is bool or x is None:  # exact types: no ABC check
        return x
    if kind is float:
        return "inf" if math.isinf(x) else x
    if isinstance(x, Fraction):
        try:
            return faithful_float(x)
        except ValueError as exc:
            raise ValueError(f"{Decimal(x.numerator) / x.denominator:.3e} is {exc}") from None
    if isinstance(x, float) and math.isinf(x):
        return "inf"
    if isinstance(x, Enum):
        return x.value
    if isinstance(x, dict):
        return {str(k): jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [jsonable(v) for v in x]
    return x


_ascii = json.encoder.encode_basestring_ascii
_FLOAT_WORDS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}  # json's spelling
_SPELL = {  # each JSON leaf kind and how json spells it
    str: _ascii, int: int.__repr__, float: lambda x: _FLOAT_WORDS.get(text := float.__repr__(x), text),
    bool: {True: "true", False: "false"}.get, type(None): lambda _: "null",
}
EXPORT_CHUNK_ROWS = 256  # rows joined per text-layer write of write_csv
_ESCAPED = re.compile('["\r\n]')  # a cell holding one of these, or ",", is quoted


def _indented(x, pad: str) -> str:
    """``x``, a value that ``jsonable`` returned, as ``json.dumps(x,
    indent=2, sort_keys=True)`` spells it, each line after the first led by
    ``pad`` (a newline and the spaces of ``x``'s depth)."""
    if (spell := _SPELL.get(type(x))) is not None:
        return spell(x)
    inner = pad + "  "
    if isinstance(x, (list, tuple)):
        return "[" + inner + f",{inner}".join([_indented(v, inner) for v in x]) + pad + "]" if x else "[]"
    if isinstance(x, dict):  # jsonable made every key a str
        items = [f"{_ascii(k)}: {_indented(v, inner)}" for k, v in sorted(x.items())]
        return "{" + inner + f",{inner}".join(items) + pad + "}" if x else "{}"
    for kind, spell in _SPELL.items():  # a subclass of str, int or float
        if isinstance(x, kind):
            return spell(x)
    raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")


def json_text(value, compact: bool = False) -> str:
    """``value`` as JSON text: indented with sorted keys, as one walk
    (``json.dumps`` with ``indent`` runs the stdlib's pure-Python encoder),
    or compact (one line, keys in insertion order) for a table cell."""
    if compact:
        return json.dumps(jsonable(value))
    return _indented(jsonable(value), "\n")


class _Output(io.TextIOWrapper):
    """A text file that, on closing, cuts the file at its position."""

    def close(self) -> None:
        if not self.closed:
            try:
                self.truncate()  # flushes, then cuts at the position
            finally:
                super().close()


def open_output(path, newline=None) -> io.TextIOWrapper:
    """``path`` opened for UTF-8 text output, created if missing and written over in place,
    cut to the written length when it closes, also when the writer raised (``"w"`` would
    truncate first, and ext4's ``auto_da_alloc`` then starts a writeback at close costing
    several times a small artifact's write).  A path it cannot open is a ValueError naming it."""
    try:
        return _Output(open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb"),
                       encoding="utf-8", newline=newline)
    except OSError as exc:
        raise ValueError(f"cannot write {os.fspath(path)!r}: {exc.strerror or exc}") from None


def write_json(path, value) -> None:
    """Write ``value``, a value as ``jsonable`` returns it, to ``path`` as
    ``json_text`` spells it, with a trailing newline.  The caller converts:
    a run's metrics payload is converted once, by ``metrics.to_jsonable``."""
    with open_output(path) as fh:
        fh.write(_indented(value, "\n") + "\n")


def write_csv(path, header: Sequence, lines: Iterator[str]) -> None:
    """The one CSV writer: ``header``, then CRLF-ended rows, ``EXPORT_CHUNK_ROWS`` per write."""
    with open_output(path, newline="") as fh:
        fh.write(_csv_line(header))
        while chunk := "".join(islice(lines, EXPORT_CHUNK_ROWS)):
            fh.write(chunk)


def _csv_line(row: Sequence) -> str:
    """``row`` and its CRLF; cell by cell only if a cell may need quoting or is None."""
    line = ",".join(map(str, row))
    if not line or _ESCAPED.search(line) or line.count(",") != len(row) - 1 or None in row:
        cells = ["" if x is None else str(x) for x in row]
        line = ",".join(['"' + c.replace('"', '""') + '"' if "," in c or _ESCAPED.search(c) else c
                         for c in cells]) or ('""' if row else "")
    return line + "\r\n"


def write_table(path, header: Sequence, rows: Iterable[Sequence]) -> None:
    """Write a CSV table through ``write_csv`` in the csv module's default dialect: a cell
    is its ``str``, None empty, one holding ``,``, ``"``, CR or LF quoted with each inner
    ``"`` doubled, and a row of one empty cell ``""``; a row with no cells is a bare CRLF."""
    write_csv(path, header, map(_csv_line, rows))
