"""The report path every command ends with: the JSON encoder, the CSV and
text tables rendered from columns, the atomic `--out` write, and the
typed config readers.  The encoder is checked against `json.dumps` with
the report options, which stays the oracle."""

import json
import math
import os
import re
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from qdirac import cli as qcli
from qdirac._fields import number, vector
from qdirac.cli import Report, Table, _json, _render, _write_output


def _dumps(v) -> str:
    return json.dumps(v, indent=2, sort_keys=True, allow_nan=False)


def _outcome(encode, v):
    """The text, or the type and message of the error, of encoding v."""
    try:
        return encode(v)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


# --- the encoder against json.dumps --------------------------------------------------

_FLOATS = st.floats(allow_nan=False, allow_infinity=False)
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from([2**63, -2**63 - 1, 2**64 + 5, 10**30, -10**40]),
    _FLOATS,
    st.sampled_from([-0.0, 5e-324, -5e-324, 1e308, -1e308, 2.2250738585072014e-308, 1e16, 0.1]),
    _FLOATS.map(np.float64),
    st.text(),
    st.sampled_from(['"', "\\", "/", "\n\t\r\b\f\x00\x1f\x7f", "é中😀", "\ud800", "%s %r %%"]),
)
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
                            st.dictionaries(st.text(max_size=6), inner, max_size=4)),
    max_leaves=24,
)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_VALUES)
def test_encoder_writes_the_bytes_of_json_dumps(v):
    assert _json(v, "") == _dumps(v)


@pytest.mark.parametrize("v", [
    {}, [], (), [[], {}, ()], {"a": {}}, "", 0, -0.0, True, None,
    {1: "a", 2: "b"}, {1.5: 0, -0.0: 1, 5e-324: 2}, {True: 1, False: 0}, {None: 1},
    {"a": 1, "b": [1, 2.5, True, None, "x"]}, [np.float64(0.1), np.float64(-0.0)],
    {"k": [2**100, -(2**64)]}, [float(2**53), 1e22, 1e-7, 123456789.0],
], ids=repr)
def test_encoder_writes_the_bytes_of_json_dumps_on_edge_values(v):
    assert _json(v, "") == _dumps(v)


@pytest.mark.parametrize("v", [
    float("nan"), float("inf"), -math.inf, [1.0, math.nan], {"a": {"b": [math.inf]}},
    np.float64("nan"), {math.nan: 1}, {math.inf: 1},
], ids=repr)
def test_non_finite_floats_raise_jsons_value_error(v):
    want = _outcome(_dumps, v)
    assert want[0] is ValueError
    assert _outcome(lambda x: _json(x, ""), v) == want


@pytest.mark.parametrize("v", [
    np.zeros(2), np.bool_(True), np.int64(3), object(), {1, 2}, 1j, b"bytes", [1, {"a": np.zeros(1)}],
    {(1, 2): 3}, {"a": 1, 2: 3}, {None: 1, "b": 2},
], ids=repr)
def test_other_objects_raise_jsons_type_error(v):
    want = _outcome(_dumps, v)
    assert want[0] is TypeError
    assert _outcome(lambda x: _json(x, ""), v) == want


# --- tables: JSON, CSV and text from columns ---------------------------------------

def _rows_json(table: Table) -> str:
    """The JSON list of row objects, through json.dumps."""
    return _dumps([dict(zip(table.header, row)) for row in table.rows])


def _rows_csv(table: Table, cell=str) -> str:
    """The CSV section written row by row."""
    lines = [f"# section: {table.name}", ",".join(table.header)]
    lines += [",".join(map(cell, row)) for row in table.rows]
    return "\n".join(lines) + "\n"


def _repr_of_floats(v) -> str:
    """The CSV cell of earlier versions: a float's repr, any other cell's str."""
    return repr(v) if isinstance(v, float) else str(v)


def _rows_text(table: Table) -> str:
    cells = [table.header] + [[f"{v:.6e}" if isinstance(v, float) else str(v) for v in row]
                              for row in table.rows]
    widths = [max(map(len, col)) for col in zip(*cells)]
    return "".join("  ".join(c.ljust(w) for c, w in zip(row, widths)) + "\n" for row in cells)


_CELLS = st.one_of(st.integers(), _FLOATS, _FLOATS.map(np.float64), st.booleans(), st.none(), st.text(max_size=5),
                   st.lists(_FLOATS, max_size=3), st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
                   st.integers().map(np.int64))


@st.composite
def _tables(draw):
    header = draw(st.lists(st.sampled_from(["a", "b", "c", "%d", "é", "b"]), min_size=1, max_size=5))
    n = draw(st.integers(0, 4))
    # each column of one kind (as report columns are) or of mixed kinds
    columns = [draw(st.lists(draw(st.sampled_from([_CELLS, st.integers(), _FLOATS])), min_size=n, max_size=n))
               for _ in header]
    return Table("t", header, columns)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_tables())
def test_a_table_renders_its_rows_in_every_format(table):
    # an np.int64 cell raises json's TypeError
    want = _outcome(_rows_json, table)
    assert _outcome(lambda t: _json(t, ""), table) == want
    if isinstance(want, str):
        # nested at a depth, as in a report body
        assert _json({"x": [table]}, "") == _dumps({"x": [json.loads(want)]})
    assert qcli._csv_section(table) == _rows_csv(table)
    # the same bytes as before wherever no cell is a float subclass (np.float64
    # wrote its repr, np.float64(0.5), where it now writes 0.5)
    if not any(isinstance(v, float) and type(v) is not float for column in table.columns for v in column):
        assert qcli._csv_section(table) == _rows_csv(table, _repr_of_floats)
    assert qcli._text_table(table) == _rows_text(table)


def test_a_table_of_rows_holds_columns():
    table = Table.of_rows("t", ["a", "b"], [[1, 0.5], [2, 1.5], [3, 2.5]])
    assert table.columns == [(1, 2, 3), (0.5, 1.5, 2.5)]
    assert table.rows == [(1, 0.5), (2, 1.5), (3, 2.5)]
    assert table.pick("b").columns == [(0.5, 1.5, 2.5)]
    empty = Table.of_rows("t", ["a", "b"], [])
    assert empty.rows == [] and _json(empty, "") == "[]"
    assert qcli._csv_section(empty) == "# section: t\na,b\n"


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, np.float64("nan")], ids=repr)
@pytest.mark.parametrize("column", [[0.5, 1.5, None], [0.5, 1.5, 2.5]], ids=["mixed", "float"])
def test_a_non_finite_table_cell_names_its_table_column_and_row(column, bad):
    column = list(column)
    column[1] = bad
    table = Table("levels", ["n", "defect"], [[1, 2, 3], column])
    report = Report("continuity", 0, {"levels": table}, [table], "head", table)
    message = f"Out of range float values are not JSON compliant: {bad!r}"
    with pytest.raises(ValueError) as exc:
        _render(report, "json")
    assert str(exc.value) == f"table 'levels' column 'defect' row 1: {message}"


# --- the atomic --out write --------------------------------------------------------

def _temp_files(directory) -> list:
    return sorted(p.name for p in directory.iterdir() if p.name.startswith(".qdirac-"))


def test_a_missing_directory_fails_the_write_and_leaves_nothing(tmp_path):
    out = tmp_path / "missing" / "r.json"
    with pytest.raises(ValueError, match="^" + re.escape(f"cannot write --out {out}: ")):
        _write_output("{}\n", str(out))
    assert list(tmp_path.iterdir()) == []


def test_an_out_path_that_is_a_directory_fails_and_leaves_no_temp_file(tmp_path):
    out = tmp_path / "taken"
    out.mkdir()
    with pytest.raises(ValueError, match="^" + re.escape(f"cannot write --out {out}: ")):
        _write_output("{}\n", str(out))
    assert _temp_files(tmp_path) == [] and list(out.iterdir()) == []


def test_a_failed_write_removes_its_temp_file(tmp_path, monkeypatch):
    def full(fd, data):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(qcli.os, "write", full)
    out = tmp_path / "r.json"
    prefix = "^" + re.escape(f"cannot write --out {out}: ")
    with pytest.raises(ValueError, match=prefix + ".*No space left on device"):
        _write_output("{}\n", str(out))
    assert list(tmp_path.iterdir()) == []


def test_a_taken_temp_name_is_skipped(tmp_path, monkeypatch):
    first = tmp_path / f".qdirac-{os.getpid()}-0"
    first.write_text("someone else's")
    out = tmp_path / "r.json"
    _write_output("{}\n", str(out))
    assert out.read_bytes() == b"{}\n"
    assert first.read_text() == "someone else's"
    assert _temp_files(tmp_path) == [first.name]
    # every name taken: the write fails and leaves the taken files alone
    monkeypatch.setattr(qcli, "_TEMP_ATTEMPTS", 2)
    (tmp_path / f".qdirac-{os.getpid()}-1").write_text("")
    with pytest.raises(ValueError, match="^" + re.escape(f"cannot write --out {out}: ") + ".*File exists"):
        _write_output("[]\n", str(out))
    assert out.read_bytes() == b"{}\n"
    assert len(_temp_files(tmp_path)) == 2


def test_the_written_file_has_mode_0600(tmp_path):
    umask = os.umask(0o022)
    try:
        out = tmp_path / "r.json"
        out.write_text("old")
        _write_output("{}\n", str(out))
    finally:
        os.umask(umask)
    assert out.stat().st_mode & 0o777 == 0o600
    assert out.read_bytes() == b"{}\n"


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
@pytest.mark.parametrize("command, config", [
    ("continuity", {"dimension": "1+1", "levels": 3}),
    ("verify", {"box_cells": 4}),
    ("packet", {"component": 0, "mass": 1.0, "samples": [{"kvec": [0, 0, 1.0], "amplitude": 1.0}],
                "grid": {"origin": [0, 0, 0, 0], "spacing": [0.4, 1, 1, 0.5], "counts": [2, 1, 2, 3]}}),
])
def test_the_out_file_holds_the_rendered_report(tmp_path, command, config, fmt):
    cfg, out = tmp_path / "cfg.json", tmp_path / f"r.{fmt}"
    cfg.write_text(json.dumps(config))
    res = CliRunner().invoke(qcli.cli, [command, "--config", str(cfg), "--out", str(out), "--format", fmt])
    assert res.exit_code == 0, res.output
    runner = getattr(qcli, f"run_{command}")
    assert out.read_bytes() == _render(runner(config, None, 0)[1], fmt).encode("utf-8")
    assert _temp_files(tmp_path) == []


# --- the typed config readers ------------------------------------------------------

_BIG = 10**400

# value -> (number(v), number(v, integral=True)), each a value or the message it raises
READS = [
    (1.5, 1.5, "field 'f' must be an integer, got 1.5"),
    (-0.0, -0.0, 0),
    (3, 3.0, 3),
    (2**63, 9.223372036854776e18, 2**63),
    (True, "field 'f' must be a number, got True", "field 'f' must be a number, got True"),
    (False, "field 'f' must be a number, got False", "field 'f' must be a number, got False"),
    (np.bool_(True), "field 'f' must be a number, got np.True_", "field 'f' must be a number, got np.True_"),
    (np.float64(2.0), 2.0, 2),
    (np.float64(2.5), 2.5, "field 'f' must be an integer, got np.float64(2.5)"),
    (np.int64(7), 7.0, 7),
    (Fraction(3, 2), 1.5, "field 'f' must be an integer, got Fraction(3, 2)"),
    (Fraction(4, 2), 2.0, 2),
    (Decimal("1.5"), "field 'f' must be a number, got Decimal('1.5')",
     "field 'f' must be a number, got Decimal('1.5')"),
    (_BIG, f"field 'f' must be finite, got {_BIG!r}", f"field 'f' must be finite, got {_BIG!r}"),
    (-_BIG, f"field 'f' must be finite, got {-_BIG!r}", f"field 'f' must be finite, got {-_BIG!r}"),
    (math.nan, "field 'f' must be finite, got nan", "field 'f' must be finite, got nan"),
    (math.inf, "field 'f' must be finite, got inf", "field 'f' must be finite, got inf"),
    (-math.inf, "field 'f' must be finite, got -inf", "field 'f' must be finite, got -inf"),
    (np.float64(math.inf), "field 'f' must be finite, got np.float64(inf)",
     "field 'f' must be finite, got np.float64(inf)"),
    ("1.5", "field 'f' must be a number, got '1.5'", "field 'f' must be a number, got '1.5'"),
    ("3", "field 'f' must be a number, got '3'", "field 'f' must be a number, got '3'"),
    (None, "field 'f' must be a number, got None", "field 'f' must be a number, got None"),
    ([1.0], "field 'f' must be a number, got [1.0]", "field 'f' must be a number, got [1.0]"),
]


def _read(call):
    try:
        value = call()
    except ValueError as exc:
        return str(exc)
    return type(value), value


@pytest.mark.parametrize("v, want, want_integral", READS, ids=[repr(r[0])[:24] for r in READS])
def test_number_keeps_its_values_types_and_messages(v, want, want_integral):
    for integral, expected in ((False, want), (True, want_integral)):
        got = _read(lambda: number(v, "f", integral))
        if isinstance(expected, str):
            assert got == expected
        else:
            # a float, or an int when integral; the sign of a zero kept
            assert got == (type(expected), expected)
            assert math.copysign(1.0, got[1]) == math.copysign(1.0, expected)


@pytest.mark.parametrize("v, want, want_integral", READS, ids=[repr(r[0])[:24] for r in READS])
def test_vector_reads_each_entry_as_number(v, want, want_integral):
    for integral, expected in ((False, want), (True, want_integral)):
        got = _read(lambda: vector([1, v, 2.0], "v", 3, integral))
        if isinstance(expected, str):
            assert got == expected.replace("field 'f'", "field 'v[1]'")
        else:
            first = 1 if integral else 1.0
            last = 2 if integral else 2.0
            assert got == (tuple, (first, expected, last))
            assert [type(x) for x in got[1]] == [type(expected)] * 3
