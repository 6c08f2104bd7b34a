"""Core types: the unit conventions, the traffic class's alpha check and the
whole-number converter; the value-to-JSON rule, the indented JSON text, the
CSV table and the output file.

The snapshot-derivation oracle and its tests live in ``tests/oracles.py``
and ``tests/test_oracles.py``."""

import enum
import json
import math
import os

import pytest
from fractions import Fraction
from hypothesis import example, given, settings, strategies as st

from fbsim import cli, core
from fbsim.core import (
    FrozenDict, PolicyKind, QueueId, TrafficClass, as_whole, json_text, jsonable, open_output,
    write_table,
)
from fbsim.workloads import ConfigError, ScenarioConfig
from oracles import csv_module_bytes
from test_golden_artifacts import ANALYZER_RUNS

LOW = 0


def test_units_convention_requires_positive_buffer():
    # the buffer is counted in whole packets; ScenarioConfig enforces B >= 1
    def config(buffer_size):
        return ScenarioConfig(
            buffer_size=buffer_size, n_ports=1, classes=(TrafficClass(0, Fraction(1), LOW),),
            policy=PolicyKind.DYNAMIC_THRESHOLDS,
        )

    config(1)
    for bad in (0, -1):
        with pytest.raises(ConfigError, match="buffer size must be >= 1 packet"):
            config(bad)


def test_traffic_class_requires_positive_alpha():
    with pytest.raises(ValueError):
        TrafficClass(0, Fraction(0), LOW)
    with pytest.raises(ValueError):
        TrafficClass(0, Fraction(-1), LOW)


@pytest.mark.parametrize("value,whole", [(60, 60), (60.0, 60), (Fraction(120, 2), 60), (-3.0, -3)])
def test_a_whole_number_of_any_kind_becomes_an_int(value, whole):
    assert type(as_whole(value)) is int and as_whole(value) == whole


@pytest.mark.parametrize("value", [60.5, Fraction(1, 2), math.inf, -math.inf, math.nan, "60"])
def test_anything_else_is_not_whole(value):
    with pytest.raises(ValueError, match="expected a whole number"):
        as_whole(value)


def test_ids_are_whole_ints():
    # a whole-float id once wrote "1.0:3" into a lock, which its reader refuses
    cls, queue = TrafficClass(0.0, 1, Fraction(2)), QueueId(1.0, Fraction(3))
    assert (cls, queue) == (TrafficClass(0, Fraction(1), 2), QueueId(1, 3))
    assert {type(v) for v in (cls.class_id, cls.priority_id, queue.port, queue.class_id)} == {int}
    assert str(queue) == "1:3"
    for build in (lambda: TrafficClass(0, 1, 0.5), lambda: QueueId(0.5, 0), lambda: QueueId(0, math.nan)):
        with pytest.raises(ValueError, match="expected a whole number"):
            build()


# -- jsonable ------------------------------------------------------------------


def _old_jsonable(x):
    """The value-to-JSON rule as it was before its exact-type shortcuts."""
    if isinstance(x, Fraction):
        return float(x)
    if isinstance(x, float) and math.isinf(x):
        return "inf"
    if isinstance(x, enum.Enum):
        return x.value
    if isinstance(x, dict):
        return {str(k): _old_jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_old_jsonable(v) for v in x]
    return x


def _same(a, b) -> bool:
    """Equal values of the same type, all the way down (nan equals nan, and
    -0.0 only -0.0)."""
    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        return list(a) == list(b) and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, float):
        return (math.isnan(a) and math.isnan(b)) or (a == b and math.copysign(1, a) == math.copysign(1, b))
    return a == b


class _Float(float):
    pass


class _Int(int):
    pass


class _Spelled(int):
    """An int that spells itself otherwise; json spells it as an int."""

    def __repr__(self):
        return "spelled"

    __str__ = __repr__


class _Level(enum.IntEnum):
    HIGH = 1


class _Tag(str, enum.Enum):
    RED = "red"


_LEAVES = ["", "text", 0, -7, 2**80, True, False, None, 0.0, -0.0, 1.5, math.inf, -math.inf,
           math.nan, _Float(2.5), _Float(math.inf), _Float(-math.inf), _Int(3), _Level.HIGH,
           _Tag.RED, PolicyKind.FB, Fraction(1, 3), Fraction(-4)]


@pytest.mark.parametrize("value", [
    *_LEAVES,
    tuple(_LEAVES),
    [list(_LEAVES), (1, (2.0, [Fraction(1, 2), (math.inf,)])), []],
    FrozenDict({QueueId(0, 1): Fraction(3, 2), "k": (math.inf, _Level.HIGH)}),
    {1: {"nested": [(None, _Tag.RED)], 2.5: FrozenDict({True: _Float(-math.inf)})}},
])
def test_jsonable_matches_the_rule_before_its_shortcuts(value):
    assert _same(jsonable(value), _old_jsonable(value))


# -- json_text ---------------------------------------------------------------


def _dumps(value) -> str:
    """The oracle: the indented JSON text as the stdlib's encoder writes it."""
    return json.dumps(jsonable(value), indent=2, sort_keys=True)


_JSON_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.text(), st.sampled_from(PolicyKind),
    st.fractions(min_value=-10**9, max_value=10**9), st.floats(),
    st.sampled_from([-0.0, math.nan, math.inf, -math.inf, 1e300, 5e-324, *_LEAVES]),
)
_JSON_KEYS = st.one_of(st.text(), st.integers(), st.fractions(min_value=-9, max_value=9),
                       st.builds(QueueId, st.integers(0, 9), st.integers(0, 9)))
_JSON_VALUES = st.recursive(_JSON_LEAVES, lambda children: st.one_of(
    st.lists(children, max_size=4), st.lists(children, max_size=4).map(tuple),
    st.dictionaries(_JSON_KEYS, children, max_size=4),
), max_leaves=12)


@settings(max_examples=150, deadline=None)
@given(value=_JSON_VALUES)
@example(value={"\u00e9\x00\n\"": [(), {}, [[]], FrozenDict({QueueId(1, 2): Fraction(1, 3)})]})
@example(value=[_Float(2.5), _Int(3), _Spelled(4), _Level.HIGH, _Tag.RED])
def test_json_text_spells_what_json_dumps_spells(value):
    assert json_text(value) == _dumps(value)


@pytest.mark.parametrize("value", [object(), [1, {2, 3}], {"k": {"nested": b"bytes"}}, {"k": range(2)}])
def test_json_text_refuses_what_json_dumps_refuses(value):
    with pytest.raises(TypeError, match="is not JSON serializable") as expected:
        _dumps(value)
    with pytest.raises(TypeError) as got:
        json_text(value)
    assert str(got.value) == str(expected.value)


@pytest.mark.parametrize("name", sorted(ANALYZER_RUNS))
def test_json_text_spells_every_golden_analyzer_payload_as_json_dumps_does(name, tmp_path, monkeypatch):
    # every indented payload an analyzer command writes or prints
    payloads = []

    def record(value, compact=False):
        if not compact:
            payloads.append(value)
        return json_text(value, compact)
    monkeypatch.setattr(core, "json_text", record)
    monkeypatch.setattr(cli, "json_text", record)
    monkeypatch.chdir(tmp_path)
    assert cli.main(ANALYZER_RUNS[name]) == 0
    assert payloads
    for value in payloads:
        assert json_text(value) == _dumps(value)


# -- open_output ---------------------------------------------------------------


def test_open_output_writes_utf8_text_and_creates_the_file(tmp_path):
    path = tmp_path / "new.txt"
    with open_output(path) as fh:
        fh.write("\u00e9\n")
    with open_output(tmp_path / "rows.csv", newline="") as fh:
        fh.write("a,b\r\n")
    assert path.read_bytes() == b"\xc3\xa9\n"
    assert (tmp_path / "rows.csv").read_bytes() == b"a,b\r\n"


def test_open_output_leaves_exactly_the_new_bytes_over_a_longer_file(tmp_path):
    path = tmp_path / "artifact.json"
    path.write_bytes(b"x" * 10_000)
    with open_output(path) as fh:
        fh.write("short\n")
    assert path.read_bytes() == b"short\n"


def test_open_output_writes_in_place_so_a_hard_link_sees_the_new_bytes(tmp_path):
    path, link = tmp_path / "a.csv", tmp_path / "b.csv"
    path.write_bytes(b"old, and longer than the new text\n")
    os.link(path, link)
    inode = path.stat().st_ino
    with open_output(path) as fh:
        fh.write("new\n")
    assert path.stat().st_ino == inode
    assert link.read_bytes() == b"new\n"


def test_open_output_cuts_the_file_where_a_raising_writer_stopped(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_bytes(b"0123456789" * 2000)
    with pytest.raises(RuntimeError):
        with open_output(path) as fh:
            fh.write("partial")
            raise RuntimeError("writer failed")
    assert path.read_bytes() == b"partial"


def test_open_output_refuses_a_directory(tmp_path):
    # a ValueError, so that the CLI exits 3 with a message naming the path
    with pytest.raises(ValueError, match=f"cannot write {str(tmp_path)!r}: Is a directory"):
        open_output(tmp_path)


# -- write_table -----------------------------------------------------------------
# The csv module is the reference here only: write_table spells each row itself.


_CELLS = st.one_of(
    st.text(alphabet=',"\r\n abXY', max_size=8), st.just(""), st.none(), st.booleans(),
    st.integers(), st.floats(), st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan]),
)
_ROWS = st.lists(st.lists(_CELLS, max_size=6).map(tuple), max_size=12)


@settings(max_examples=300, deadline=None)
@given(header=st.lists(_CELLS, max_size=6), rows=_ROWS)
# a row of one empty cell is "", of one None too; a row of two empty cells is ","
@example(header=["metric", "value"], rows=[("",), (None,), ("", ""), (None, None), ("a", None)])
# quoting: a delimiter, a quote, CR, LF, CRLF, and the comma count off by quoting alone
@example(header=["k", "v"], rows=[("a,b", 'say "hi"'), ("\r", "\n"), ("x\r\ny", ","), ('"',)])
@example(header=["x"], rows=[(True, False, 0, -7, 0.1, -0.0, math.inf, -math.inf, math.nan)])
# a row with no cells: csv writes a bare CRLF, and so does write_table
@example(header=[], rows=[(), ("a",), ()])
def test_write_table_writes_the_bytes_of_the_csv_module(header, rows, tmp_path_factory):
    path = tmp_path_factory.mktemp("table") / "t.csv"
    write_table(path, header, rows)
    assert path.read_bytes() == csv_module_bytes(header, rows)


def test_write_table_streams_rows_from_a_generator_and_writes_a_row_with_no_cells(tmp_path):
    write_table(tmp_path / "t.csv", ("a", "b"), (r for r in [(1, 2), (), ("",)]))
    assert (tmp_path / "t.csv").read_bytes() == b'a,b\r\n1,2\r\n\r\n""\r\n'


@pytest.mark.parametrize("kind", [list, tuple])
def test_write_csv_writes_a_list_or_a_tuple_of_lines_once(kind, tmp_path, monkeypatch):
    # islice restarts a list or a tuple at its head, so each chunk once
    # rewrote the first rows without end; a write past the lines fails here
    lines = kind(f"{i}\r\n" for i in range(2 * core.EXPORT_CHUNK_ROWS + 1))
    expected = "n\r\n" + "".join(lines)
    opened, written = core.open_output, []

    def capped(path, newline=None):
        fh = opened(path, newline)
        write = fh.write

        def counted(text):
            written.append(len(text))
            assert sum(written) <= len(expected), "write_csv wrote past its lines"
            return write(text)

        fh.write = counted
        return fh

    monkeypatch.setattr(core, "open_output", capped)
    core.write_csv(tmp_path / "t.csv", ("n",), lines)
    assert (tmp_path / "t.csv").read_bytes() == expected.encode()
