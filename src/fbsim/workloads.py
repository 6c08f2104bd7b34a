"""Scenario construction: sources, switch configs, presets, sweeps.

A ScenarioConfig fully describes one simulation: buffer size, port/queue
layout, traffic classes with their alphas and priorities, the admission
policy, open-loop sources, and run controls (horizon, seed, sampling).
Configs serialize to a sectioned text file ([switch] / [classes] /
[policy] / [sources], plus optional [initial] and [alpha_overrides]);
parse -> serialize -> parse is the identity.  Each field of a config or
source is its annotated kind (``core.convert_fields``), so a config built
from any kind of number writes a file that reads back equal to it.

This module also bridges configs into the fluid model (steady-state
weights and transient scenarios), so the analyzer and the packet engine
consume the same description.  Both bridges read one derivation: one
pass over the sources maps each queue to the sources that feed it, and
one ``fluid.congested_weights`` call weighs the pre-burst and another the
post-burst congested set.  A layout that the fluid model does not
describe is a ConfigError.
"""

from __future__ import annotations

import heapq
import itertools
import math
import random
from dataclasses import MISSING, dataclass, field, fields, replace
from fractions import Fraction
from operator import truediv
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence, Union

from .core import (PolicyKind, QueueId, TrafficClass, as_fraction, convert_fields,
                   faithful_float, open_output)
from .fluid import NewQueue, OldQueue, TransientScenario, congested_weights


class ConfigError(ValueError):
    """Scenario failed validation (CLI exit code 3)."""


class ScenarioParseError(ValueError):
    """Scenario file could not be parsed (CLI exit code 2)."""


# ---------------------------------------------------------------------------
# sources
# ---------------------------------------------------------------------------

#: Synthetic default flow-size CDF (packets, cumulative probability); replace
#: with an empirical table via load_size_cdf for measured workloads.
DEFAULT_SIZE_CDF: tuple[tuple[int, float], ...] = (
    (1, 0.30), (2, 0.50), (4, 0.65), (8, 0.78),
    (16, 0.87), (32, 0.94), (64, 0.98), (128, 1.0),
)


def _read_text(path) -> str:
    """An input file's UTF-8 text, without a leading byte-order mark; an
    unreadable file, or one that is not UTF-8, is a parse error."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().removeprefix("\ufeff")  # a byte-order mark is not text
    except OSError as exc:
        raise ScenarioParseError(f"cannot read {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise ScenarioParseError(f"cannot read {path}: not UTF-8 at byte {exc.start}") from None


def load_size_cdf(path) -> tuple[tuple[int, float], ...]:
    """Read an empirical size CDF: two columns (size, cumulative probability).
    A malformed line, or a table that breaks the CDF rule, is a parse error
    naming the file and the offending line."""
    rows: list[tuple[int, float]] = []
    numbers: list[int] = []  # the file line of each row
    for number, line in enumerate(_read_text(path).split("\n"), 1):
        parts = line.replace(",", " ").split()
        if not parts or parts[0].startswith("#"):
            continue
        try:
            if len(parts) != 2:
                raise ValueError(f"needs two columns, got {line.strip()!r}")
            rows.append((int(parts[0]), float(parts[1])))
            numbers.append(number)
        except ValueError as exc:
            raise ScenarioParseError(f"size CDF {path} line {number}: {exc}") from None
    if fault := _cdf_fault(rows):
        index, problem = fault
        where = f" line {numbers[index]}" if rows else ""
        raise ScenarioParseError(f"size CDF {path}{where}: {problem}")
    return tuple(rows)


def _cdf_fault(rows: Sequence[tuple[int, float]]) -> Optional[tuple[int, str]]:
    """The one rule for every size CDF, from a file or inline: sizes
    increase, cumulative probabilities do not decrease, and the table ends
    at 1.0.  (index of the row that breaks it, the rule broken), or None."""
    if not rows or not abs(rows[-1][1] - 1.0) <= 1e-9:  # a NaN fails both checks
        return len(rows) - 1, "must end at cumulative probability 1.0"
    for index, ((s0, p0), (s1, p1)) in enumerate(zip(rows, rows[1:]), 1):
        if not (s1 > s0 and p1 >= p0):
            return index, "must be increasing"
    return None


@dataclass(frozen=True)
class ConstantRate:
    """Packets at exact 1/rate intervals from start to stop (None = horizon)."""

    class_id: int
    port: int
    rate: Fraction
    start: Fraction = Fraction(0)
    stop: Optional[Fraction] = None

    def __post_init__(self):
        convert_fields(self)
        if self.rate <= 0 or self.start < 0:
            raise ConfigError("constant source needs rate > 0 and start >= 0")
        if self.stop is not None and self.stop <= self.start:
            raise ConfigError(f"constant source stop {self.stop} must be after its start {self.start}")


@dataclass(frozen=True)
class Burst:
    """ceil(r * duration) packets at spacing 1/r starting at ``start``.

    An n:1 incast is a single burst of rate n aimed at one queue.
    """

    class_id: int
    port: int
    r: Fraction
    duration: Fraction
    start: Fraction = Fraction(0)

    @property
    def stop(self) -> Fraction:
        return self.start + self.duration

    def __post_init__(self):
        convert_fields(self)
        if self.r <= 0 or self.duration <= 0 or self.start < 0:
            raise ConfigError("burst needs r > 0, duration > 0, start >= 0")


@dataclass(frozen=True)
class PoissonFlows:
    """Flows arriving as a Poisson process; each flow emits its sampled size
    back-to-back at ``flow_rate``.  ``size_cdf`` is None (the shipped
    default), a file path, or an inline ((size, cumprob), ...) table; a
    file is read and either table checked here, when the source is built,
    so a bad table fails before a run starts.  A path is replaced by its
    table, so the run never reads the file again and scenario.lock carries
    the table itself."""

    class_id: int
    port: int
    mean_interarrival: Fraction
    flow_rate: Fraction = Fraction(1)
    start: Fraction = Fraction(0)
    stop: Optional[Fraction] = None
    size_cdf: Union[None, str, tuple[tuple[int, float], ...]] = None

    def __post_init__(self):
        convert_fields(self, size_cdf=lambda cdf: load_size_cdf(cdf) if isinstance(cdf, str) else cdf)
        if self.mean_interarrival <= 0 or self.flow_rate <= 0 or self.start < 0:
            raise ConfigError("poisson source needs positive interarrival and flow_rate")
        if self.stop is not None and self.stop <= self.start:
            raise ConfigError(f"poisson source stop {self.stop} must be after its start {self.start}")
        if self.size_cdf is not None and (fault := _cdf_fault(self.size_cdf)):
            raise ScenarioParseError(f"size CDF {fault[1]}")


SourceSpec = Union[ConstantRate, Burst, PoissonFlows]


def _stream_end(src: SourceSpec, hz: Fraction) -> Fraction:
    """Where source ``src``'s packets end: its stop clipped to the horizon ``hz``."""
    return hz if src.stop is None else min(src.stop, hz)


def _packet_count(start: Fraction, rate: Fraction, end: Fraction) -> int:
    """ceil((end - start) * rate), at least 0, in integer arithmetic: the
    packets at spacing 1/rate from ``start`` that fall before ``end``."""
    num = (end.numerator * start.denominator - start.numerator * end.denominator) * rate.numerator
    return max(0, -(-num // (end.denominator * start.denominator * rate.denominator)))


def _rational_times(start: Fraction, rate: Fraction, end: Fraction) -> Iterator[float]:
    """float(start + k/rate) for k < _packet_count(start, rate, end), in
    integer arithmetic.

    Over the common denominator D the k-th time is (A + k*C) / D, and int/int
    true division is correctly rounded, exactly as Fraction.__float__ is, so
    every time is bitwise equal to the Fraction route."""
    spacing = 1 / rate
    denom = start.denominator * spacing.denominator
    a = start.numerator * spacing.denominator
    c = spacing.numerator * start.denominator
    numerators = range(a, a + _packet_count(start, rate, end) * c, c)
    return map(truediv, numerators, itertools.repeat(denom))


def _poisson_flows(
    src: PoissonFlows, seed: int, idx: int, end: float
) -> Iterator[tuple[float, int]]:
    """(start, size) of each flow that starts before ``end``, in draw order:
    a gap -mean * log(1 - u), then the first size whose cumulative
    probability is >= u, each u the next random() of Random(f"{seed}:{idx}")."""
    draw = random.Random(f"{seed}:{idx}").random
    cdf = src.size_cdf or DEFAULT_SIZE_CDF
    mean = float(src.mean_interarrival)
    t = float(src.start)
    while True:
        t += -mean * math.log(1.0 - draw())
        if t >= end:
            return
        u = draw()
        yield t, next(s for s, p in cdf if u <= p)


def _poisson_times(src: PoissonFlows, seed: int, idx: int, end: float) -> Iterator[float]:
    """Packet times of a Poisson flow source, in time order.

    Each flow drawn by _poisson_flows emits its packets at ``1/flow_rate``
    spacing while they fall before ``end``.  Overlapping flows are merged
    through a heap keyed (time, flow number), so equal times keep draw order.
    Flows are drawn one ahead of the packets yielded, so the heap holds just
    the flows in flight."""
    spacing = 1.0 / float(src.flow_rate)
    in_flight: list[tuple[float, int, int, float, int]] = []  # (time, flow, j, t0, size)
    flows = itertools.chain(_poisson_flows(src, seed, idx, end), [(math.inf, 0)])
    for flow, (t0, size) in enumerate(flows):
        while in_flight and in_flight[0][0] <= t0:
            pt, f, j, start, n = in_flight[0]
            j += 1
            if j < n and start + j * spacing < end:
                heapq.heapreplace(in_flight, (start + j * spacing, f, j, start, n))
            else:
                heapq.heappop(in_flight)
            yield pt
        if size > 0:
            heapq.heappush(in_flight, (t0, flow, 0, t0, size))


def source_stream(
    src: SourceSpec, idx: int, seed: int, horizon: float
) -> Iterator[float]:
    """The arrival times of source ``idx`` as bare floats, in time order,
    realized lazily.  Constant and burst times are exactly float(start +
    k/rate) for k < ceil(span * rate), the span ending at the source's stop
    clipped to the horizon; Poisson times use Random.seed and .random alone,
    whose sequence Python keeps in every version (see _poisson_flows)."""
    end = _stream_end(src, Fraction(horizon))
    if isinstance(src, ConstantRate):
        return _rational_times(src.start, src.rate, end)
    if isinstance(src, Burst):
        return _rational_times(src.start, src.r, end)
    return _poisson_times(src, seed, idx, float(end))


def _mean_flow_size(cdf: tuple[tuple[int, float], ...]) -> Fraction:
    """The exact mean of a size CDF, a flow of size 0 or less counted as 0:
    sum(p_i * (size_i - size_{i+1})), summed by parts in integers over the
    common denominator of the cumulative probabilities."""
    sizes = [max(size, 0) for size, _ in cdf] + [0]
    ratios = [p.as_integer_ratio() for _, p in cdf]
    denom = math.lcm(*(d for _, d in ratios))
    return Fraction(sum(n * (denom // d) * (size - after) for (n, d), size, after
                        in zip(ratios, sizes, sizes[1:])), denom)


def _arrival_bound(src: SourceSpec, hz: Fraction) -> Union[int, Fraction]:
    """The packets ``src`` sends before the horizon ``hz``: exactly the
    count of its stream for a constant or burst source, and for a Poisson
    source the expected flows over its span times the mean flow size."""
    end = _stream_end(src, hz)
    if isinstance(src, ConstantRate):
        return _packet_count(src.start, src.rate, end)
    if isinstance(src, Burst):
        return _packet_count(src.start, src.r, end)
    flows = (end - src.start) / src.mean_interarrival
    return flows * _mean_flow_size(src.size_cdf or DEFAULT_SIZE_CDF)


# ---------------------------------------------------------------------------
# scenario configuration
# ---------------------------------------------------------------------------

#: Most samples or FBA ticks (horizon over either period), and most packet
#: arrivals (``_arrival_bound`` summed over the sources), a valid run implies.
MAX_RUN_STEPS = 10**7
#: Largest buffer size, port or source count and class id: the trace stores
#: 4-byte ints, and a tag ``origin << 2 | code`` over at most sources +
#: buffer origins fits 4 unsigned bytes.
MAX_RECORD_INT = 2**29 - 1


def grid_steps(horizon: float, period: float) -> int:
    """The largest k with k * period at most ``horizon`` (1e-9 of a period
    of slack): the number of occupancy samples after time 0, and of FBA
    ticks, in a run."""
    return int(math.floor(horizon / period + 1e-9))


@dataclass(frozen=True)
class ScenarioConfig:
    """One simulation, checked when it is built: the constructor, and so
    ``dataclasses.replace``, ``loads_scenario``, ``preset`` and ``sweep``,
    raise ConfigError for a config that no run or analysis could use.  Each
    field becomes its annotated kind (a value that does not convert is a
    ConfigError), the two maps read-only ``FrozenDict`` copies, so a checked
    config cannot change."""

    buffer_size: int
    n_ports: int
    classes: tuple[TrafficClass, ...]
    policy: PolicyKind
    sources: tuple[SourceSpec, ...] = ()
    horizon: float = 100.0
    queue_mode: str = "multi"
    seed: int = 1
    congestion_threshold: int = 0
    fba_period: float = 1.0
    sample_interval: float = 0.1
    snapshot_staleness: float = 0.0
    initial_lengths: Mapping[QueueId, int] = field(default_factory=dict)
    alpha_overrides: Mapping[QueueId, Fraction] = field(default_factory=dict)

    def class_by_id(self, class_id: int) -> TrafficClass:
        for c in self.classes:
            if c.class_id == class_id:
                return c
        raise ConfigError(f"unknown class {class_id}")

    def alpha_of(self, queue: QueueId) -> Fraction:
        override = self.alpha_overrides.get(queue)
        return override if override is not None else self.class_by_id(queue.class_id).alpha

    def _float_fault(self) -> Optional[str]:
        """Why the first exact rational the config holds (a field of a class
        or a source, a source's stop, or an alpha override) has no faithful
        float, or None: no float holds it, or it is positive but rounds to
        0.0 (the engine divides by a Poisson source's float flow_rate)."""
        tables = [(f"class {c.class_id} ", vars(c)) for c in self.classes]
        tables += [(f"source {i} ", {**vars(src), "stop": src.stop})
                   for i, src in enumerate(self.sources)]
        tables.append(("alpha override ", self.alpha_overrides))
        for prefix, table in tables:
            for name, value in table.items():
                if isinstance(value, Fraction):
                    try:
                        faithful_float(value)
                    except ValueError as exc:
                        return f"{prefix}{name} is {exc}"
        return None

    def __post_init__(self) -> None:
        try:
            convert_fields(self)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if fault := self._float_fault():
            raise ConfigError(fault)
        if self.buffer_size < 1:
            raise ConfigError(f"buffer size must be >= 1 packet, got {self.buffer_size}")
        if not 0 <= self.seed < 2**64:
            raise ConfigError(f"seed must be in [0, 2**64), got {self.seed}")
        controls = (self.horizon, self.fba_period, self.sample_interval, self.snapshot_staleness)
        if not all(math.isfinite(v) for v in controls):
            raise ConfigError(
                "horizon, fba_period, sample_interval and snapshot_staleness must be finite"
            )
        if self.n_ports < 1:
            raise ConfigError("need at least one port")
        if not self.classes:
            raise ConfigError("need at least one traffic class")
        ids = [c.class_id for c in self.classes]
        if len(set(ids)) != len(ids):
            raise ConfigError("duplicate class ids")
        if any(i < 0 for i in ids):
            raise ConfigError("class ids must be >= 0")
        if max(self.buffer_size, self.n_ports, len(self.sources), *ids) > MAX_RECORD_INT:
            raise ConfigError(f"buffer size, ports, sources or a class id above {MAX_RECORD_INT}")
        if self.queue_mode not in ("multi", "single"):
            raise ConfigError(f"queue_mode must be multi or single, got {self.queue_mode!r}")
        if self.horizon <= 0:
            raise ConfigError("horizon must be > 0")
        if self.congestion_threshold < 0 or self.fba_period < 0 or self.snapshot_staleness < 0:
            raise ConfigError("congestion_threshold, fba_period, snapshot_staleness must be >= 0")
        if self.sample_interval <= 0:
            raise ConfigError("sample_interval must be > 0")
        periods = [self.sample_interval] + [self.fba_period] * (self.policy is PolicyKind.FBA)
        # grid_steps >= MAX_RUN_STEPS, compared before the floor: a huge
        # horizon's quotient is inf, which the floor cannot make an int
        if any(self.horizon / p + 1e-9 >= MAX_RUN_STEPS for p in periods if p):
            raise ConfigError(f"horizon implies more than {MAX_RUN_STEPS} samples or ticks")
        known = set(ids)
        for src in self.sources:
            if src.class_id not in known:
                raise ConfigError(f"source references unknown class {src.class_id}")
            if not 0 <= src.port < self.n_ports:
                raise ConfigError(f"source references invalid port {src.port}")
            if float(src.start) >= self.horizon:
                raise ConfigError(f"source start {src.start} at or beyond horizon {self.horizon}")
        hz = Fraction(self.horizon)
        if sum(_arrival_bound(src, hz) for src in self.sources) > MAX_RUN_STEPS:
            raise ConfigError(f"the sources send more than {MAX_RUN_STEPS} packets before the "
                              "horizon (a Poisson source counts its expected packets)")
        total0 = 0
        for q, length in self.initial_lengths.items():
            if q.class_id not in known or not 0 <= q.port < self.n_ports:
                raise ConfigError(f"initial length references unknown queue {q}")
            if length < 0:
                raise ConfigError(f"initial length for {q} must be >= 0")
            total0 += length
        if total0 > self.buffer_size:
            raise ConfigError(
                f"initial lengths sum to {total0} > buffer size {self.buffer_size}"
            )
        for q, alpha in self.alpha_overrides.items():
            if q.class_id not in known or not 0 <= q.port < self.n_ports:
                raise ConfigError(f"alpha override references unknown queue {q}")
            if alpha <= 0:
                raise ConfigError(f"alpha override for {q} must be > 0, got {alpha}")


# -- text format -------------------------------------------------------------
# Stated once: _SETTINGS holds the [switch] and [policy] keys, and a [classes]
# or [sources] line is its dataclass's fields in field order.  Parse and dump
# both walk these tables; a section or key they do not name, or text that
# does not convert, is a ScenarioParseError (exit 2), and a converted value
# that a constructor rejects is a ConfigError (exit 3).

#: (section, key, ScenarioConfig field, parse) in file order.  A key left
#: out takes the field's default; a field without one must be given.
_SETTINGS = (
    ("switch", "buffer", "buffer_size", int),
    ("switch", "ports", "n_ports", int),
    ("switch", "queue_mode", "queue_mode", str),
    ("switch", "congestion_threshold", "congestion_threshold", int),
    ("switch", "horizon", "horizon", float),
    ("switch", "seed", "seed", int),
    ("switch", "sample_interval", "sample_interval", float),
    ("switch", "snapshot_staleness", "snapshot_staleness", float),
    ("policy", "kind", "policy", PolicyKind),
    ("policy", "fba_period", "fba_period", float),
)
_REQUIRED = {f.name for f in fields(ScenarioConfig) if f.default is f.default_factory is MISSING}
#: Every section in file order; the last two are written only when non-empty.
_SECTIONS = ("switch", "classes", "policy", "sources", "initial", "alpha_overrides")


def _size_cdf(text: str) -> Union[str, tuple[tuple[int, float], ...]]:
    """An inline ``size:prob,...`` table, or else a file path."""
    if ":" not in text:
        return text
    return tuple((int(s), float(p)) for s, _, p in (pair.partition(":") for pair in text.split(",")))


#: Each line field other than an exact rational under its own name:
#: (key, parse, show, the text that stands for None).
_FIELD_TEXT = {
    "class_id": ("class", int, str, None),
    "port": ("port", int, str, None),
    "priority_id": ("priority", int, str, None),
    "stop": ("stop", Fraction, str, "inf"),
    "size_cdf": ("cdf", _size_cdf, lambda cdf: ",".join(f"{s}:{p!r}" for s, p in cdf), "default"),
}


def _line_format(cls, skip: int = 0) -> tuple[dict[str, tuple], frozenset[str]]:
    """({key: (field, parse, show, text of None)} in field order, the fields
    a line must give) for a line of ``cls``'s fields after the first ``skip``."""
    kept = fields(cls)[skip:]
    keys = {}
    for f in kept:
        key, *codec = _FIELD_TEXT.get(f.name, (f.name, Fraction, str, None))
        keys[key] = (f.name, *codec)
    return keys, frozenset(f.name for f in kept if f.default is MISSING)


_SOURCE_KINDS = {"constant": ConstantRate, "burst": Burst, "poisson": PoissonFlows}
_KIND_OF = {cls: kind for kind, cls in _SOURCE_KINDS.items()}
#: Each line's format, built once; a class line's own key is its class id.
_LINES = {cls: _line_format(cls) for cls in _KIND_OF} | {TrafficClass: _line_format(TrafficClass, 1)}


def _convert(parse: Callable, text: str, what: str):
    """parse(text); text that does not convert is a parse error naming ``what``."""
    try:
        return parse(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ScenarioParseError(f"{what}: {exc}") from None


def _parse_line(cls, tokens: Sequence[str], what: str, **values):
    """A ``cls`` from its ``key=value`` tokens and the given ``values``."""
    keys, required = _LINES[cls]
    for token in tokens:
        key, sep, text = token.partition("=")
        if not sep:
            raise ScenarioParseError(f"{what}: expected key=value, got {token!r}")
        if key not in keys:
            raise ScenarioParseError(f"{what}: unknown key {key!r}")
        name, parse, _, none = keys[key]
        if name in values:
            raise ScenarioParseError(f"{what}: key {key!r} given twice")
        values[name] = None if text == none else _convert(parse, text, f"{what} {key}")
    if not required <= values.keys():
        missing = [key for key, (name, *_) in keys.items() if name in required - values.keys()]
        raise ScenarioParseError(f"{what}: missing key {', '.join(map(repr, missing))}")
    try:
        return cls(**values)
    except ScenarioParseError as exc:  # a size-CDF file, read as the source is built
        raise ScenarioParseError(f"{what}: {exc}") from None
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _parse_source(key: str, text: str) -> SourceSpec:
    what = f"[sources] {key}"
    kind, *tokens = text.split() or [""]
    if kind not in _SOURCE_KINDS:
        raise ScenarioParseError(f"{what}: unknown source kind {kind!r}")
    return _parse_line(_SOURCE_KINDS[kind], tokens, what)


def _dump_line(obj) -> str:
    keys, _ = _LINES[type(obj)]
    return " ".join([
        f"{key}={none if (value := getattr(obj, name)) is None else show(value)}"
        for key, (name, _, show, none) in keys.items()
    ])


def _queue_table(section: str, items: Mapping[str, str], parse: Callable) -> dict[QueueId, object]:
    """A ``port:class = value`` section; two keys that name one queue (``1:0``
    and ``01:0``) are a parse error, like a key given twice on one line."""
    table, keys = {}, {}
    for key, text in items.items():
        q = _convert(QueueId.parse, key, f"[{section}]")
        if q in keys:
            raise ScenarioParseError(f"[{section}]: keys {keys[q]!r} and {key!r} both name queue {q}")
        keys[q] = key
        table[q] = _convert(parse, text, f"[{section}] {key}")
    return table


def _read_sections(text: str) -> dict[str, dict[str, str]]:
    """``text`` as ``{section: {key: value}}``, read as ConfigParser reads
    it with ``delimiters=("=",)``, ``inline_comment_prefixes=("#",)``, no
    interpolation or default section and keys as written (README, "Scenario
    files").  A section or key given twice, a key before any section and a
    line without ``key =`` are parse errors that name the line."""
    sections: dict[str, dict[str, list[str]]] = {}
    table = lines = None  # the open section's {key: value lines}, the open key's lines
    indent = 0  # the indent of the open key's line
    for number, line in enumerate(text.split("\n"), 1):
        stripped = line.strip()
        if not stripped or stripped[0] in "#;":
            if not stripped and lines is not None:
                lines.append("")
            continue
        cut = line.find("#")
        while cut > 0 and not line[cut - 1].isspace():
            cut = line.find("#", cut + 1)
        value = stripped if cut < 0 else line[:cut].strip()
        depth = len(line) - len(line.lstrip())
        if lines is not None and depth > indent:
            lines.append(value)
            continue
        indent, lines = depth, None
        if value[0] == "[" and (end := value.rfind("]")) > 1:  # a section header
            name = value[1:end]
            problem = f"section [{name}] given twice" if name in sections else ""
            table = sections.setdefault(name, {})
        else:
            key, sep, rest = value.partition("=")
            key = key.rstrip()
            problem = ("a key before any section" if table is None
                       else "expected key = value" if not (sep and key)
                       else f"key {key!r} given twice in [{name}]" if key in table else "")
            if not problem:
                lines = table[key] = [rest.strip()]
        if problem:
            raise ScenarioParseError(f"bad scenario file: line {number}: {problem}: {stripped!r}")
    return {name: {key: "\n".join(lines).rstrip() for key, lines in table.items()}
            for name, table in sections.items()}


def loads_scenario(text: str) -> ScenarioConfig:
    read = _read_sections(text)
    sections = {name: {} for name in _SECTIONS}
    for name, items in read.items():
        if name not in sections:
            raise ScenarioParseError(f"unknown section [{name}]")
        sections[name] = items
    if "classes" not in read:
        raise ScenarioParseError("missing section [classes]")
    alias = sections["policy"].get("kind") == "fb_single"  # FB on a shared per-port queue
    if alias:
        sections["policy"]["kind"] = PolicyKind.FB.value
    settings = {}
    for section, key, name, parse in _SETTINGS:
        text = sections[section].pop(key, None)
        if text is not None:
            settings[name] = _convert(parse, text, f"[{section}] {key}")
        elif name in _REQUIRED:
            raise ScenarioParseError(f"[{section}]: missing key {key!r}")
    for section in ("switch", "policy"):
        for key in sections[section]:
            raise ScenarioParseError(f"[{section}]: unknown key {key!r}")
    cfg = ScenarioConfig(
        classes=tuple(
            _parse_line(TrafficClass, spec.split(), f"[classes] {cid}",
                        class_id=_convert(int, cid, "[classes]"))
            for cid, spec in sections["classes"].items()
        ),
        sources=tuple(_parse_source(key, spec) for key, spec in sections["sources"].items()),
        initial_lengths=_queue_table("initial", sections["initial"], int),
        alpha_overrides=_queue_table("alpha_overrides", sections["alpha_overrides"], Fraction),
        **settings,
    )
    if alias and cfg.queue_mode != "single":
        raise ConfigError("fb_single policy requires queue_mode = single")
    return cfg


def dumps_scenario(cfg: ScenarioConfig) -> str:
    lines = {
        "classes": [f"{c.class_id} = {_dump_line(c)}" for c in cfg.classes],
        "sources": [f"{i} = {_KIND_OF[type(s)]} {_dump_line(s)}" for i, s in enumerate(cfg.sources)],
        "initial": [f"{q} = {cfg.initial_lengths[q]}" for q in sorted(cfg.initial_lengths)],
        "alpha_overrides": [f"{q} = {cfg.alpha_overrides[q]}" for q in sorted(cfg.alpha_overrides)],
    }
    for section, key, name, _ in _SETTINGS:
        value = getattr(cfg, name)
        lines.setdefault(section, []).append(f"{key} = {value.value if isinstance(value, PolicyKind) else value}")
    return "\n".join(
        f"[{section}]\n" + "".join(f"{line}\n" for line in lines[section])
        for section in _SECTIONS if lines[section] or section in _SECTIONS[:4]
    )


def load_scenario(path) -> ScenarioConfig:
    return loads_scenario(_read_text(path))


def dump_scenario(cfg: ScenarioConfig, path) -> None:
    with open_output(path) as fh:
        fh.write(dumps_scenario(cfg))


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

LOW, HIGH = 0, 1  # priority ids used by the presets


def _fig2() -> ScenarioConfig:
    # two queues on separate ports under DT: a lone alpha=1 queue settled at
    # 30 of 60 packets, then a persistent alpha=2 arrival pushes the split
    # to 15/30 with 15 remaining
    return ScenarioConfig(
        buffer_size=60, n_ports=2,
        classes=(TrafficClass(0, Fraction(1), LOW), TrafficClass(1, Fraction(2), HIGH)),
        policy=PolicyKind.DYNAMIC_THRESHOLDS,
        sources=(
            ConstantRate(class_id=0, port=0, rate=Fraction(2)),
            ConstantRate(class_id=1, port=1, rate=Fraction(4), start=Fraction(10)),
        ),
        initial_lengths={QueueId(0, 0): 30},
        horizon=60.0,
    )


def _fig4_steady() -> ScenarioConfig:
    # one alpha=2 queue and three alpha=1 queues, each on its own port, all
    # overloaded: DT settles at lengths 20/10/10/10 with 10 remaining.
    # Source phases are staggered so departures and refills interleave
    # instead of batching (batched phases settle into an offset orbit).
    return ScenarioConfig(
        buffer_size=60, n_ports=4,
        classes=(TrafficClass(0, Fraction(1), LOW), TrafficClass(1, Fraction(2), HIGH)),
        policy=PolicyKind.DYNAMIC_THRESHOLDS,
        sources=(
            ConstantRate(class_id=1, port=0, rate=Fraction(2), start=Fraction(0)),
            ConstantRate(class_id=0, port=1, rate=Fraction(2), start=Fraction(1, 8)),
            ConstantRate(class_id=0, port=2, rate=Fraction(2), start=Fraction(2, 8)),
            ConstantRate(class_id=0, port=3, rate=Fraction(2), start=Fraction(3, 8)),
        ),
        horizon=100.0,
    )


def _incast_layout(policy: PolicyKind, initial_low: int, horizon: float) -> ScenarioConfig:
    # five low classes share port 1 (draining 1/5 each); a 5:1 high-priority
    # incast hits the empty port 0 two time units in
    classes = tuple(TrafficClass(c, Fraction(1), LOW) for c in range(5)) + (
        TrafficClass(5, Fraction(2), HIGH),
    )
    return ScenarioConfig(
        buffer_size=60, n_ports=2, classes=classes, policy=policy,
        sources=tuple(
            ConstantRate(class_id=c, port=1, rate=Fraction(1), start=Fraction(c, 8))
            for c in range(5)
        ) + (Burst(class_id=5, port=0, r=Fraction(5), duration=Fraction(8), start=Fraction(2)),),
        initial_lengths={QueueId(1, c): initial_low for c in range(5)},
        horizon=horizon,
    )


def _fig4_incast() -> ScenarioConfig:
    return _incast_layout(PolicyKind.DYNAMIC_THRESHOLDS, initial_low=10, horizon=20.0)


def _fig5_steady() -> ScenarioConfig:
    return replace(_fig4_steady(), policy=PolicyKind.FB)


def _fig5_incast() -> ScenarioConfig:
    # FB caps each shared-port low queue at 2 packets here, leaving room to
    # absorb the whole 40-packet burst with zero drops (drained by t=42)
    return _incast_layout(PolicyKind.FB, initial_low=2, horizon=50.0)


def _dt_scaling() -> ScenarioConfig:
    # base for the n_low_queues sweep: one high queue, N replicated low queues
    return ScenarioConfig(
        buffer_size=60, n_ports=2,
        classes=(TrafficClass(0, Fraction(1), LOW), TrafficClass(1, Fraction(2), HIGH)),
        policy=PolicyKind.DYNAMIC_THRESHOLDS,
        sources=(
            ConstantRate(class_id=1, port=0, rate=Fraction(2)),
            ConstantRate(class_id=0, port=1, rate=Fraction(2)),
        ),
        horizon=100.0,
    )


PRESETS = {  # name -> (builder, description)
    "fig2": (_fig2,
             "two-queue DT transient: settled 30-packet queue meets a persistent 2x-alpha arrival"),
    "fig4_steady": (_fig4_steady,
                    "DT steady split across four overloaded single-queue ports (20/10/10/10)"),
    "fig4_incast": (_fig4_incast,
                    "DT 5:1 incast into a buffer pre-filled by five shared-port queues"),
    "fig5_steady": (_fig5_steady,
                    "FB steady split on the fig4 layout (high queue gets 30, lows 5 each)"),
    "fig5_incast": (_fig5_incast,
                    "FB 5:1 incast on the fig4 layout (burst absorbed without drops)"),
    "dt_scaling": (_dt_scaling,
                   "base scenario for sweeping the number of low-priority queues"),
}


def preset(name: str) -> ScenarioConfig:
    """Named scenario presets for the worked examples."""
    try:
        build, _ = PRESETS[name]
    except KeyError:
        raise ConfigError(f"unknown preset {name!r}; known: {', '.join(sorted(PRESETS))}")
    return build()


def preset_names() -> tuple[str, ...]:
    return tuple(sorted(PRESETS))


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

SWEEP_AXES = ("load", "burst_size", "n_low_queues", "r")

#: axis -> (source kind, its name in messages, value rule, its message, edit of one source)
_SOURCE_AXES = {
    "load": (ConstantRate, "constant-rate", lambda v: v > 0, "load multiplier must be > 0",
             lambda s, v, base: replace(s, rate=s.rate * v)),
    "burst_size": (Burst, "burst", lambda v: 0 < v <= 1, "burst_size fraction must be in (0, 1]",
                   lambda s, v, base: replace(s, duration=v * base.buffer_size / s.r)),
    "r": (Burst, "burst", lambda v: v > 0, "burst rate must be > 0",
          lambda s, v, base: replace(s, r=v)),
}


def sweep(base: ScenarioConfig, axis: str, values: Iterable) -> list[ScenarioConfig]:
    """One config per value, everything but the swept axis fixed.

    load: multiply every constant-rate source's rate.
    burst_size: set each burst's duration so its size is the given fraction
      of the buffer at the burst's rate.
    r: set each burst's rate.
    n_low_queues: replicate the unique lowest-alpha-priority queue (and its
      source) across that many ports.
    """
    if axis not in SWEEP_AXES:
        raise ConfigError(f"unknown sweep axis {axis!r}; known: {', '.join(SWEEP_AXES)}")
    out: list[ScenarioConfig] = []
    for value in values:
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{axis} value must be finite, got {value}")
        v = as_fraction(value)
        if axis == "n_low_queues":
            if v.denominator != 1:
                raise ConfigError(f"n_low_queues must be a whole number, got {value}")
            out.append(_with_n_low_queues(base, int(v)))
            continue
        kind, kind_name, rule, message, edit = _SOURCE_AXES[axis]
        if not rule(v):
            raise ConfigError(message)
        if not any(isinstance(s, kind) for s in base.sources):
            raise ConfigError(f"{axis} axis needs at least one {kind_name} source")
        sources = tuple(edit(s, v, base) if isinstance(s, kind) else s for s in base.sources)
        out.append(replace(base, sources=sources))
    return out


def _with_n_low_queues(base: ScenarioConfig, n: int) -> ScenarioConfig:
    if n < 1:
        raise ConfigError("n_low_queues must be >= 1")
    low_prio = min(dict.fromkeys(c.priority_id for c in base.classes),  # first seen wins a tie
                   key=lambda p: max(c.alpha for c in base.classes if c.priority_id == p))
    low_ids = {c.class_id for c in base.classes if c.priority_id == low_prio}
    low_sources = [s for s in base.sources if isinstance(s, ConstantRate) and s.class_id in low_ids]
    if len(low_ids) != 1 or len(low_sources) != 1:
        raise ConfigError(
            "n_low_queues axis needs exactly one low-priority class fed by one constant source"
        )
    template = low_sources[0]
    others = tuple(s for s in base.sources if s is not template)
    first = max((s.port + 1 for s in others), default=0)
    replicas = tuple(replace(template, port=first + i) for i in range(n))
    return replace(base, sources=others + replicas, n_ports=first + n)


# ---------------------------------------------------------------------------
# bridges into the fluid model
# ---------------------------------------------------------------------------


def _weights(cfg: ScenarioConfig, congested: Sequence[QueueId]) -> dict[QueueId, tuple]:
    """(omega, gamma, factor) per queue, taking exactly ``congested`` as
    congested; FB and FBA weigh by FB's rule, DT by the alphas alone."""
    return congested_weights(
        {q: (cfg.class_by_id(q.class_id).priority_id, cfg.alpha_of(q)) for q in congested},
        cfg.policy is not PolicyKind.DYNAMIC_THRESHOLDS,
    )


def _layout(cfg: ScenarioConfig) -> tuple[dict[QueueId, list[SourceSpec]], dict[QueueId, tuple],
                                          dict[QueueId, Burst]]:
    """One pass over the sources: the sources that feed each queue, the old
    queues' pre-burst weights and each burst target's burst.  The old queues
    are the other sources' targets and the pre-filled queues, in order of
    first appearance.  The fluid model starts each burst target empty and
    fills it from one start at one rate; any other layout is refused."""
    if cfg.queue_mode != "multi":
        raise ConfigError("fluid analysis covers the multi-queue mode only")
    if cfg.policy is PolicyKind.COMPLETE_SHARING:
        raise ConfigError("complete sharing has no thresholds to analyze")
    feeds: dict[QueueId, list[SourceSpec]] = {}
    for s in cfg.sources:
        feeds.setdefault(QueueId(s.port, s.class_id), []).append(s)
    bursts: dict[QueueId, Burst] = {}
    for q, srcs in feeds.items():
        if any(isinstance(s, Burst) for s in srcs):
            if len(srcs) > 1 or cfg.initial_lengths.get(q, 0) > 0:
                raise ConfigError(f"burst target {q} must start empty and be fed by its one burst only")
            bursts[q] = srcs[0]
    if len({(b.start, b.r) for b in bursts.values()}) > 1:
        raise ConfigError("fluid analysis needs every burst to have one start and one rate")
    filled = [q for q in sorted(cfg.initial_lengths) if cfg.initial_lengths[q] > 0]
    old = [q for q in dict.fromkeys([*feeds, *filled]) if q not in bursts]
    return feeds, _weights(cfg, old), bursts


def steady_omegas(cfg: ScenarioConfig) -> dict[QueueId, Fraction]:
    """{queue: omega} for the scenario's pre-burst congested set (FB and
    FBA use FB weights; DT uses the raw alphas)."""
    _, pre, _ = _layout(cfg)
    if not pre:
        raise ConfigError("no congested queues to analyze (no sources or initial lengths)")
    return {q: omega for q, (omega, _, _) in pre.items()}


def transient_scenario(cfg: ScenarioConfig) -> TransientScenario:
    """Map the scenario's burst event onto a fluid transient scenario.

    The old queues move from their pre-burst weights to the weights they
    share with the burst targets, the new queues; an old queue fills at
    the summed rate of its constant sources (None: fully backlogged).
    """
    feeds, pre, bursts = _layout(cfg)
    if not bursts:
        raise ConfigError("scenario has no burst source to analyze")
    post = _weights(cfg, [*pre, *bursts])
    old = []
    for q, (before, _, _) in pre.items():
        omega, gamma, _ = post[q]
        rates = [s.rate for s in feeds.get(q, ()) if isinstance(s, ConstantRate)]
        old.append(OldQueue(q, omega, gamma, before, sum(rates) if rates else None))
    new = tuple(NewQueue(q, *post[q]) for q in bursts)
    return TransientScenario(cfg.buffer_size, tuple(old), new, next(iter(bursts.values())).r)
