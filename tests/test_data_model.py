import decimal
import functools
import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import marktau as mt
from marktau import data_model
from marktau.data_model import (
    DataError,
    ScalingRecord,
    apply_mark_scaling,
    parse_sidecar,
    scale_marks,
    validate,
)
from oracles import parse_dataset_rows, serialize_dataset, validate_rows

EXAMPLE_CSV = "y,delta,mark,a\n1.0,1,0.3,1\n2.0,0,,0\n1.5,1,0.6,0\n"


def test_parse_example_csv():
    ds = mt.parse_dataset(EXAMPLE_CSV)
    assert ds.n == 3
    assert ds.n1 == 1 and ds.n0 == 2
    assert ds.n1 / ds.n == 1 / 3
    assert ds == mt.Dataset.from_arrays(
        y=[1.0, 2.0, 1.5], delta=[1, 0, 1], mark=[0.3, math.nan, 0.6], arm=[1, 0, 0]
    )


def test_parse_accepts_crlf_and_bom():
    text = "﻿y,delta,mark,a\r\n1.0,1,0.3,1\r\n2.0,0,,0\r\n"
    ds = mt.parse_dataset(text)
    assert ds.n == 2


def test_parse_reads_lone_cr_line_ends_as_lf():
    # the command line and parse_dataset read a file by one newline rule
    assert mt.parse_dataset(EXAMPLE_CSV.replace("\n", "\r")) == mt.parse_dataset(EXAMPLE_CSV)


@pytest.mark.parametrize(
    "text, message",
    [
        ("t,delta,mark,a\n1,1,0.3,1\n", "expected header"),
        ("y,delta,mark,a\n", "no data rows"),
        ("y,delta,mark,a\nx,1,0.3,1\n", "line 2: y is not numeric"),
        ("y,delta,mark,a\n1.0,2,0.3,1\n", "line 2: delta must be 0 or 1"),
        ("y,delta,mark,a\n1.0,1,0.3,3\n", "line 2: a must be 0 or 1"),
        ("y,delta,mark,a\n1.0,1,0.3,1\n2.0,0,0.4,0\n", "line 3: mark present on a censored row"),
        ("y,delta,mark,a\n1.0,1,,1\n2.0,0,,0\n", "line 2: mark absent on an uncensored row"),
        ("y,delta,mark,a\n1.0,1,0.3\n", "line 2: expected 4 fields"),
        ("y,delta,mark,a\n1.0,1,0.3,1\n2.0,1,0.5,1\n", "empty treatment group"),
    ],
)
def test_parse_errors(text, message):
    with pytest.raises(DataError, match=message):
        mt.parse_dataset(text)


@pytest.mark.parametrize(
    "text, message",
    [
        ("y,delta,mark,a\n\n\n1.0,2,,1\n", "line 4: delta must be 0 or 1"),
        ("y,delta,mark,a\n1.0,1,0.3,1\n\n2.0,1,,0\n", "line 4: mark absent on an uncensored row"),
        ("\ny,delta,mark,a\n1.0,1,0.3,1\n2.0,0,x,0\n", "line 4: mark present on a censored row"),
        ("y,delta,mark,a\r\n\r\n1.0,1,0.3,1\r\n\r\n\r\n2.0,0,,0,\r\n",
         "line 6: expected 4 fields, got 5"),
    ],
)
def test_parse_errors_name_lines_of_the_file(text, message):
    # blank lines before and between rows count; the first line of the file is line 1
    with pytest.raises(DataError, match=message):
        mt.parse_dataset(text)


@pytest.mark.parametrize(
    "text, message",
    [
        ('y,delta,mark,a\n1.0,1,0.3,1\n"2,5",0,,0\n', "line 3: expected 4 fields, got 5"),
        ('y,delta,mark,a\n1.0,1,0.3,1\n2.0,0,"\n",0\n', "line 3: expected 4 fields, got 3"),
    ],
)
def test_quoted_comma_or_line_break_is_a_field_count_error(text, message):
    # a quoted field holding a comma or a line break is never a number; the
    # row's comma-separated fields are counted on the line where it starts
    with pytest.raises(DataError, match=message):
        mt.parse_dataset(text)


def test_parse_accepts_quoted_and_padded_fields():
    text = '"y","delta","mark","a"\n 1.0 ,"1","0.3" ,1\n"2.0"\t,0,"",\t0\n'
    assert mt.parse_dataset(text) == mt.parse_dataset("y,delta,mark,a\n1.0,1,0.3,1\n2.0,0,,0\n")


def test_serialize_round_trip_hand():
    ds = mt.parse_dataset(EXAMPLE_CSV)
    again = mt.parse_dataset(serialize_dataset(ds))
    assert again == ds


def test_dataset_with_nan_y_equals_itself():
    ds = mt.parse_dataset("y,delta,mark,a\nnan,0,,1\n1.0,0,,0\n")
    assert ds == ds
    assert ds == mt.parse_dataset("y,delta,mark,a\nnan,0,,1\n1.0,0,,0\n")
    assert ds != mt.parse_dataset("y,delta,mark,a\n2.0,0,,1\n1.0,0,,0\n")


def _arm_rows(arm: int):
    finite = st.floats(0.0, 100.0, allow_nan=False)
    row = st.tuples(finite, st.booleans(), st.floats(0.0, 1.0, allow_nan=False))
    return st.lists(row.map(lambda t: (t[0], int(t[1]), t[2] if t[1] else math.nan, arm)),
                    min_size=1, max_size=6)


@st.composite
def datasets(draw):
    # at least one row per arm, so parsing round-trips cleanly
    rows = draw(_arm_rows(1)) + draw(_arm_rows(0))
    return mt.Dataset.from_arrays(*zip(*rows))


@settings(deadline=None, max_examples=60)
@given(datasets())
def test_parse_serialize_round_trip(ds):
    assert mt.parse_dataset(serialize_dataset(ds)) == ds


# Generated CSV texts for the oracle comparison. Fields never hold a comma,
# a quote or a line break, so the package's tokeniser and the csv module read
# them alike; a quoted comma or line break has its own test above.
_NUMBERS = ("1", "1.0", "-0.0", "+1", "0.25", "3.5e-1", "1E2", "nan", "-nan", "inf", "-inf",
            "1_0")
_ZEROS_AND_ONES = ("0", "1", "0", "1", "1.0", "1e0", "0.0", "-0.0")
_JUNK = ("", "x", "1.2.3", "0x1", "1 0", "--1")


@st.composite
def _field(draw, token, broken=False):
    pad = st.sampled_from(["", "", " ", "\t", "  "])
    inner = draw(pad) + token + draw(pad)
    if broken:  # a quote after whitespace is text, never a number
        return " " + '"' + token + '"'
    if draw(st.integers(0, 4)) == 0:
        return '"' + inner + '"' + draw(pad)
    return inner


@st.composite
def _data_row(draw):
    """A well-formed row, or with probability 1/6 one broken in one way."""
    y = draw(st.one_of(st.floats(0.0, 50.0).map(repr), st.sampled_from(_NUMBERS)))
    delta = draw(st.sampled_from(_ZEROS_AND_ONES))
    arm = draw(st.sampled_from(_ZEROS_AND_ONES))
    uncensored = float(delta) == 1.0
    mark = draw(st.floats(0.0, 1.0).map(repr)) if uncensored else ""
    tokens = [y, delta, mark, arm]
    late_quote = -1
    if draw(st.integers(0, 5)) == 0:
        where = draw(st.integers(0, 3))
        fault = draw(st.sampled_from(["junk", "not binary", "count", "late quote", "mark"]))
        if fault == "junk":
            tokens[where] = draw(st.sampled_from(_JUNK))
        elif fault == "not binary":
            tokens[draw(st.sampled_from([1, 3]))] = draw(st.sampled_from(["2", "-1", "nan", "0.5"]))
        elif fault == "count":
            tokens = (tokens + ["0"])[:draw(st.sampled_from([1, 3, 5]))]
        elif fault == "late quote":
            late_quote = where
        else:
            tokens[2] = draw(st.sampled_from(["", "x", "1.2.3"] if uncensored else ["0.5", "x"]))
    return ",".join([draw(_field(t, i == late_quote)) for i, t in enumerate(tokens)])


@st.composite
def csv_texts(draw):
    header = draw(st.sampled_from(["y,delta,mark,a"] * 8 + ['"y","delta","mark","a"',
                                   " y , delta,mark ,a", "y,delta,mark", "t,delta,mark,a"]))
    rows = draw(st.lists(_data_row(), min_size=0, max_size=8))
    lines = []
    for line in [header, *rows]:
        lines += [""] * draw(st.sampled_from([0, 0, 0, 1, 2]))  # blank lines
        lines.append(line)
    ends = [draw(st.sampled_from(["\n", "\r\n"])) for _ in lines]
    text = "".join(line + end for line, end in zip(lines, ends))
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    return draw(st.sampled_from(["", "\ufeff"])) + text


def _outcome(parse, text, drop=False):
    try:
        result = parse(text, drop_missing_marks=drop)
    except DataError as exc:
        return "error", str(exc)
    ds, dropped = result if drop else (result, None)
    columns = (ds.y, ds.delta, ds.mark, ds.arm)
    return "dataset", [(c.dtype.str, c.tobytes()) for c in columns], dropped


@settings(deadline=None, max_examples=400)
@given(csv_texts())
def test_parse_matches_row_loop_oracle(text):
    # the generator blanks uncensored marks, so the flag drops rows in some texts
    expected = [_outcome(parse_dataset_rows, text, drop) for drop in (False, True)]
    for drop in (False, True):
        assert _outcome(mt.parse_dataset, text, drop) == expected[drop]
    # the per-row reader alone, as it runs on valid text the bytes reader declines
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(data_model, "_columns", lambda text, drop_missing_marks: None)
        for drop in (False, True):
            assert _outcome(mt.parse_dataset, text, drop) == expected[drop]


@pytest.mark.parametrize("row", [
    "1.0\x00,1,0.3,1",  # numpy's S dtype drops a trailing NUL, and float() fails on it
    "1.0,1,0.3\x00,1",
    "1.0\x0b,1,0.3,1",  # whitespace to str.strip and float(), a control byte to the bytes reader
    "1.0,1,\x0c0.3,1",
    "1.0,0,\x0b,1",
    '"1.0"\x0c,1,0.3,1',
    "\u0661.\u0665,1,0.3,1",  # a non-ASCII digit field that float() reads as 1.5
])
def test_bytes_the_cast_would_misread_go_to_the_row_reader(row):
    text = f"y,delta,mark,a\n{row}\n2.0,1,,0\n2.5,0,,0\n"
    for drop in (False, True):
        assert data_model._columns(text, drop) is None
        assert _outcome(mt.parse_dataset, text, drop) == _outcome(parse_dataset_rows, text, drop)


@functools.cache
def _scale_text() -> str:
    """A random 5000-row dataset, serialized; the bytes reader's separator checks
    span every row of it, while the generated texts above hold at most 8."""
    rng = np.random.default_rng(5000)
    n = 5000
    delta = (rng.random(n) < 0.6).astype(int)
    mark = np.where(delta == 1, rng.random(n), math.nan)
    return serialize_dataset(mt.Dataset.from_arrays(rng.exponential(3.0, n), delta, mark,
                                                    rng.integers(0, 2, n)))


def _every_row(text, edit):
    """``text`` with ``edit(k, fields)`` applied to the fields of every data row k."""
    header, *rows = text.rstrip("\n").split("\n")
    rows = [",".join(edit(k, row.split(","))) for k, row in enumerate(rows)]
    return "\n".join([header, *rows])


SCALE_VARIANTS = {
    "plain": lambda text: text,
    "quoted": lambda text: _every_row(text, lambda k, fields: [
        f'"{field}"' if (k + i) % 3 == 0 else field for i, field in enumerate(fields)]),
    "padded": lambda text: _every_row(text, lambda k, fields: [
        [" ", "\t", "", "  "][(k + i) % 4] + field + [" ", "", "\t"][(k * i) % 3]
        for i, field in enumerate(fields)]),
    "crlf": lambda text: text.replace("\n", "\r\n"),
    "bom": lambda text: "\ufeff" + text,
    "blank lines": lambda text: "\n" + text.replace("\n", "\n\n", 40).replace(",1\n", ",1\n\n"),
    # 17 significant digits round-trip exactly
    "exponents": lambda text: _every_row(text, lambda k, fields: [
        "+" * (k % 4 == 0) + format(float(fields[0]), ".16e"), fields[1],
        fields[2] and format(float(fields[2]), ".16e"), fields[3]]),
    "wide": lambda text: _every_row(text, lambda k, fields: [
        "0" * 280 * (k % 100 == 0) + fields[0], *fields[1:]]),
}


def _bytes_reader_only(monkeypatch):
    """Make reading a text row by row fail the test."""
    def read_rows(text, drop_missing_marks):
        raise AssertionError("read row by row, not by the bytes reader")
    monkeypatch.setattr(data_model, "_read_rows", read_rows)


@pytest.mark.parametrize("variant", SCALE_VARIANTS)
def test_parse_at_scale_matches_row_loop_oracle(variant, monkeypatch):
    text = SCALE_VARIANTS[variant](_scale_text())
    expected = [_outcome(parse_dataset_rows, text, drop) for drop in (False, True)]
    _bytes_reader_only(monkeypatch)
    for drop in (False, True):
        assert _outcome(mt.parse_dataset, text, drop) == expected[drop]
    assert mt.parse_dataset(text) == mt.parse_dataset(_scale_text())
    assert mt.parse_dataset(text, drop_missing_marks=True) == (mt.parse_dataset(text), 0)


def _peak_bytes(parse, text) -> int:
    tracemalloc.start()
    try:
        parse(text)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_one_wide_field_does_not_widen_every_row():
    # 50 fields of about 300 bytes among 5000 rows: a fixed-width array of
    # every y at that width would take 1.5 MB, and the chunked casts take
    # about a sixth of it
    plain = _peak_bytes(mt.parse_dataset, _scale_text())
    wide = _peak_bytes(mt.parse_dataset, SCALE_VARIANTS["wide"](_scale_text()))
    assert wide - plain < 600_000


def _fields_body(fields):
    """A body of one field a line after the header, and where each field starts and how long it is."""
    lengths = np.array([len(field) for field in fields])
    starts = len("y,delta,mark,a\n") + np.concatenate(([0], np.cumsum(lengths + 1)[:-1]))
    return ("y,delta,mark,a\n" + "".join(f"{field}\n" for field in fields)).encode(), starts, lengths


def _bits(values):
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


@st.composite
def _digit_strings(draw):
    """1 to 22 digits, a dot anywhere among them or none, and an optional sign."""
    digits = draw(st.text("0123456789", min_size=1, max_size=22))
    dot = draw(st.integers(-1, len(digits)))
    if dot >= 0:
        digits = digits[:dot] + "." + digits[dot:]
    return draw(st.sampled_from(["", "-", "+"])) + digits


@st.composite
def _midpoints(draw):
    """The exact decimal expansion of the midpoint above a double, or that rounded to 19
    digits, which a 64-bit significand often rounds to the midpoint itself."""
    # a random 53-bit significand: the floats strategy favours simple values
    value = math.ldexp(draw(st.integers(2**52, 2**53 - 1)), draw(st.integers(-72, 7)))
    middle = (decimal.Decimal(value) + decimal.Decimal(np.nextafter(value, math.inf))) / 2
    if draw(st.booleans()):
        middle = decimal.Context(prec=19).plus(middle)
    return format(middle, "f")


# leading zeros with 19 and with 20 digits after the dot; only ".", 19 digits is a plain decimal
_ZERO_LED = st.builds(lambda whole, digits, width: whole + "." + str(digits).zfill(width),
                      st.sampled_from(["", "0"]), st.integers(1, 10**19 - 1),
                      st.sampled_from([19, 20]))


@settings(deadline=None, max_examples=300)
@given(st.lists(st.one_of(st.floats(1e-6, 1e18).map(repr), _digit_strings(), _ZERO_LED,
                          _midpoints(),
                          st.sampled_from(["-0.0", ".5", "5.", "+1", "9007199254740993",
                                           "4503599627370497.5"])),
                min_size=1, max_size=40))
def test_floats_reads_decimals_bit_for_bit_as_float(fields):
    expected = _bits([float(field) for field in fields])
    assert _bits(data_model._floats(*_fields_body(fields))) == expected


@pytest.mark.parametrize("field", ["1.2.3", "1234567.12345678.1", "+-1", "1-", ".", "+", "-.",
                                   "1 2", "1e", "0x10", "1" * 19 + "x"])
def test_floats_fails_on_text_float_rejects(field):
    with pytest.raises(ValueError):
        float(field)
    with pytest.raises(ValueError):
        data_model._floats(*_fields_body(["2.5", field, "0.25"]))


def test_nearly_every_plain_decimal_takes_the_exact_route(monkeypatch):
    # the 17-digit shortest forms a trial file holds; a silent fall back to the cast
    # for every field would still read them right
    rng = np.random.default_rng(17)
    values = np.concatenate([rng.exponential(3.0, 10_000), rng.uniform(10.0, 100.0, 10_000)])
    fields = [repr(x) for x in values.tolist()]
    cast, counted = [], data_model._cast
    monkeypatch.setattr(data_model, "_cast", lambda body, starts, lengths: (
        cast.append(len(starts)) or counted(body, starts, lengths)))
    assert _bits(data_model._floats(*_fields_body(fields))) == _bits(values)
    if np.finfo(np.longdouble).nmant == 63:  # x87 extended precision
        assert sum(cast) <= 0.001 * len(fields)


@pytest.mark.parametrize("variant", SCALE_VARIANTS)
def test_cast_alone_reads_the_same_columns(variant, monkeypatch):
    # where np.longdouble lacks a 64-bit significand every field is cast
    text = SCALE_VARIANTS[variant](_scale_text())
    expected = _outcome(mt.parse_dataset, text)
    monkeypatch.setattr(data_model, "_extended", lambda: False)
    assert _outcome(mt.parse_dataset, text) == expected


def test_parse_checks_delta_and_a_once(monkeypatch):
    def binary_column(column, name):
        raise AssertionError("delta and a checked again")
    rows = parse_dataset_rows(_scale_text())
    monkeypatch.setattr(data_model, "_binary_column", binary_column)
    ds = mt.parse_dataset(_scale_text())
    assert ds.delta.dtype == ds.arm.dtype == np.int64 and ds == rows
    mark = apply_mark_scaling(ds, ScalingRecord(0.0, 2.0)).mark
    np.testing.assert_array_equal(mark, rows.mark / 2)


def _blank_every_50th_mark(text):
    """``text`` with the mark of every 50th uncensored row emptied, and the line numbers of those rows."""
    header, *rows = text.rstrip("\n").split("\n")
    blanked, uncensored = [], 0
    for k, row in enumerate(rows):
        fields = row.split(",")
        if fields[1] == "1":
            uncensored += 1
            if uncensored % 50 == 0:
                fields[2] = ""
                rows[k] = ",".join(fields)
                blanked.append(k + 2)  # data row k is line k + 2
    return "\n".join([header, *rows]) + "\n", blanked


def test_drop_at_scale_reads_with_one_split():
    plain, blanked = _blank_every_50th_mark(_scale_text())
    assert len(blanked) > 40
    message = f"line {blanked[0]}: mark absent on an uncensored row (delta=1)"
    # in the quoted and padded spellings a blanked mark reads "" or whitespace
    for variant in ("plain", "quoted", "padded"):
        text = SCALE_VARIANTS[variant](plain)
        assert _outcome(mt.parse_dataset, text) == ("error", message)
        assert _outcome(parse_dataset_rows, text) == ("error", message)
        expected = _outcome(parse_dataset_rows, text, True)
        with pytest.MonkeyPatch.context() as patch:
            _bytes_reader_only(patch)
            assert _outcome(mt.parse_dataset, text, True) == expected
            ds, dropped = mt.parse_dataset(text, drop_missing_marks=True)
        assert dropped == len(blanked) and ds.n == 5000 - len(blanked)


@pytest.mark.parametrize("rows, message", [
    # a row of five fields and one of three hold the right number of separators
    (["1.0,1,0.3,1,7", "0,,1"], "expected 4 fields, got 5"),
    (["1.0,1,0.3", "0.5,0,,1,1"], "expected 4 fields, got 3"),
    # a row of one field beside one of seven: every column still reads as valid
    # numbers, and only the line-break positions show the misplaced fields
    (["1.5", "0,1,0.3,2.5,1,0.4,1"], "expected 4 fields, got 1"),
    (["2.5,1,0.3,1,0,,3.5", "0"], "expected 4 fields, got 7"),
    (["1.0,1,0.3,1,7", "2.0,0,,0", "0,,1"], "expected 4 fields, got 5"),
])
@pytest.mark.parametrize("where", [0, 2500, 4999])
def test_balanced_miscounts_name_their_line(rows, message, where):
    lines = _scale_text().split("\n")
    lines[1 + where:1 + where + len(rows)] = rows  # data row k is line k + 2
    text = "\n".join(lines)
    assert _outcome(parse_dataset_rows, text)[1].startswith(f"line {where + 2}: ")
    with pytest.raises(DataError, match=f"^line {where + 2}: {message}$"):
        mt.parse_dataset(text)


@pytest.mark.parametrize("last, message", [
    ("1.0,1,0.3", "expected 4 fields, got 3"),
    ("1.0,1,0.3,1,0", "expected 4 fields, got 5"),
    ("1.0,2,,1", "delta must be 0 or 1, got '2'"),
    ("1.0,1,0.3,x", "a is not numeric: 'x'"),
    ("1.0,0,0.3,1", "mark present on a censored row (delta=0)"),
])
@pytest.mark.parametrize("end", ["", "\n", "\r\n\n"])
def test_malformed_last_row_names_its_line(last, message, end):
    lines = _scale_text().rstrip("\n").split("\n")
    text = "\n".join(lines[:-1] + [last]) + end
    with pytest.raises(DataError, match=f"^line {len(lines)}: {re.escape(message)}$"):
        mt.parse_dataset(text)
    assert _outcome(mt.parse_dataset, text) == _outcome(parse_dataset_rows, text)


def _both_arms(columns):
    arm = columns[3]
    return 1 in arm and any(a != 1 for a in arm)


@settings(deadline=None, max_examples=200)
@given(st.integers(2, 8).flatmap(lambda n: st.tuples(
    st.lists(st.sampled_from([0.0, -0.0, 1.5, 2.0, -1.0, math.nan, math.inf]),
             min_size=n, max_size=n),
    st.lists(st.sampled_from([0, 1]), min_size=n, max_size=n),
    st.lists(st.sampled_from([math.nan, 0.0, 0.5, 1.0, 1.5, -0.25, math.inf]),
             min_size=n, max_size=n),
    st.lists(st.sampled_from([0, 1]), min_size=n, max_size=n),
)).filter(_both_arms))
def test_validate_matches_row_loop_oracle(columns):
    # an arm with no rows fails when the dataset is built; see the test below
    ds = mt.Dataset.from_arrays(*columns)
    assert validate(ds) == validate_rows(ds)


@pytest.mark.parametrize("column", ["delta", "a"])
@pytest.mark.parametrize("value", [2, 0.5, -1, math.nan])
def test_from_arrays_rejects_a_value_other_than_0_or_1(column, value):
    # the int64 cast would truncate 0.5 to 0, and n0 = n - n1 would count the arm
    # a = (1, 0, 2) as two controls: tau0 came out 1.875, not 3.75
    columns = {"delta": [1, 0, 1], "a": [1, 0, 0]}
    columns[column][2] = value
    message = f"row 2: {column} must be 0 or 1, got {float(value)!r}"
    with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
        mt.Dataset.from_arrays([1.0, 2.0, 1.5], columns["delta"], [0.5, math.nan, 0.5],
                               columns["a"])


@pytest.mark.parametrize("delta, arm, message", [
    # once truncated to (0, 1) and (1, 0), and validate() reported ok
    pytest.param([0.5, 1.7], [1, 0], "row 0: delta must be 0 or 1, got 0.5",
                 id="fractional-delta"),
    pytest.param([1, 0], [1.7, 0.2], "row 0: a must be 0 or 1, got 1.7", id="fractional-a"),
])
def test_from_arrays_rejects_values_it_would_read_wrongly(delta, arm, message):
    n = len(arm)
    with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
        mt.Dataset.from_arrays([1.0] * n, delta, [0.5] * n, arm)


@pytest.mark.parametrize("arm, counts", [([1, 1], "n1=2, n0=0"), ([0, 0], "n1=0, n0=2")])
def test_from_arrays_rejects_an_empty_arm(arm, counts):
    with pytest.raises(DataError, match=rf"^empty treatment group \({counts}\)$"):
        mt.Dataset.from_arrays([1.0, 2.0], [1, 0], [0.5, math.nan], arm)


def test_scale_marks_anchor_values():
    record = scale_marks([0.074, 38.8, 77.56])
    scaled = record.apply([0.074, 38.8, 77.56])
    assert scaled[0] == 0.0
    assert scaled[2] == 1.0
    assert scaled[1] == pytest.approx((38.8 - 0.074) / (77.56 - 0.074), rel=1e-12)
    assert scaled[1] == pytest.approx(0.4998, abs=5e-4)
    assert record.vmin == 0.074 and record.vmax == 77.56
    assert not record.degenerate


@settings(deadline=None, max_examples=80)
@given(
    st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=2, max_size=30).filter(
        lambda xs: min(xs) < max(xs)
    )
)
def test_scale_marks_monotone_unit_range(raw):
    scaled = scale_marks(raw).apply(raw)
    assert np.all(scaled >= 0.0) and np.all(scaled <= 1.0)
    order = np.argsort(raw, kind="stable")
    assert np.all(np.diff(scaled[order]) >= 0.0)
    assert scaled[np.argmin(raw)] == 0.0
    assert scaled[np.argmax(raw)] == 1.0


def test_scale_marks_degenerate_warns():
    with pytest.warns(UserWarning, match="degenerate"):
        record = scale_marks([4.2, 4.2, 4.2])
    assert np.all(record.apply([4.2, 4.2, 4.2]) == 0.5)
    assert record.degenerate


def test_scale_marks_empty_errors():
    with pytest.raises(DataError, match="empty"):
        scale_marks([])


def test_apply_mark_scaling_only_touches_observed():
    ds = mt.parse_dataset("y,delta,mark,a\n1.0,1,10.0,1\n2.0,0,,0\n1.5,1,30.0,0\n")
    scaled = apply_mark_scaling(ds, scale_marks(ds.observed_marks()))
    assert scaled.mark[0] == 0.0
    assert math.isnan(scaled.mark[1])
    assert scaled.mark[2] == 1.0


def test_validate_reports_every_violation():
    ds = mt.Dataset.from_arrays(
        y=[-1.0, 2.0, 3.0, 1.0, math.inf],
        delta=[1, 0, 1, 1, 0],
        mark=[0.5, 0.25, 1.5, math.nan, math.nan],
        arm=[1, 0, 0, 1, 0],
    )
    report = validate(ds)
    assert not report.ok
    rules = {(v.row, v.rule) for v in report.violations}
    assert (0, "y >= 0") in rules
    assert (1, "mark present iff delta = 1") in rules
    assert (2, "mark in [0,1]") in rules
    assert (3, "mark present iff delta = 1") in rules
    # plain Python values in the details, in row order and rule order within a row
    assert [(v.row, v.detail) for v in report.violations] == [
        (0, "y=-1.0 must be finite and non-negative"),
        (1, "censored row carries a mark"),
        (2, "mark=1.5 (is the data scaled?)"),
        (3, "uncensored row without a mark"),
        (4, "y=inf must be finite and non-negative"),
    ]


def test_validate_clean_dataset_ok():
    report = validate(mt.parse_dataset(EXAMPLE_CSV))
    assert report.ok
    assert str(report) == "ok"


# The tests of --drop-missing-marks: parse_dataset(text, drop_missing_marks=True)
# drops an uncensored row whose mark is empty and returns (dataset, dropped).


def test_drop_incomplete_rows():
    text = "y,delta,mark,a\n1.0,1,,1\n2.0,0,,0\n1.5,1,0.6,0\n3.0,1,0.2,1\n"
    ds, dropped = mt.parse_dataset(text, drop_missing_marks=True)
    assert dropped == 1
    assert ds.n == 3


@pytest.mark.parametrize("one", ["1", "1.0", " 1 ", "1e0"])
def test_drop_incomplete_rows_reads_delta_as_a_number(one):
    text = f"y,delta,mark,a\n1.0,{one},,1\n2.0,0,,0\n1.5,{one},0.6,0\n3.0,1,0.2,1\n"
    ds, dropped = mt.parse_dataset(text, drop_missing_marks=True)
    assert dropped == 1
    assert ds.n == 3 and ds.n1 == 1


def test_drop_incomplete_rows_leaves_malformed_rows():
    # an unreadable delta is not a missing mark; strict parsing reports it
    text = "y,delta,mark,a\n1.0,yes,,1\n2.0,0,,0\n"
    with pytest.raises(DataError, match="line 2: delta is not numeric"):
        mt.parse_dataset(text, drop_missing_marks=True)


def test_drop_incomplete_rows_keeps_line_numbers():
    # nothing is rewritten, so a dropped row leaves later errors on their input lines
    text = "y,delta,mark,a\n1.0,1,,1\n2.0,0,,0\n1.5,1,0.6,7\n"
    with pytest.raises(DataError, match="line 4: a must be 0 or 1"):
        mt.parse_dataset(text, drop_missing_marks=True)


@pytest.mark.parametrize("row, message", [
    ("x,1,,7", "line 2: y is not numeric: 'x'"),
    ("1,1,,7", "line 2: a must be 0 or 1, got '7'"),
    ("1,1,,", "line 2: a is not numeric: ''"),
    ("1,1,,1,", "line 2: expected 4 fields, got 5"),
])
def test_drop_reports_a_row_with_another_fault(row, message):
    # once, such a row was dropped as a missing mark and its fault never reported
    text = f"y,delta,mark,a\n{row}\n2,0,,0\n1,1,0.5,1\n"
    with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
        mt.parse_dataset(text, drop_missing_marks=True)
    assert _outcome(parse_dataset_rows, text, True) == ("error", message)


def test_drop_of_every_row_leaves_no_data_rows():
    with pytest.raises(DataError, match="^no data rows$"):
        mt.parse_dataset("y,delta,mark,a\n1,1,,1\n\n2,1, ,0\n", drop_missing_marks=True)


def test_sidecar_parsing():
    assert parse_sidecar('{"mark_scaling": "auto"}') == "auto"
    assert parse_sidecar('{"mark_scaling": null}') is None
    scaling = parse_sidecar('{"mark_scaling": {"min": 0.0, "max": 80.0}}')
    assert scaling == ScalingRecord(vmin=0.0, vmax=80.0)
    assert parse_sidecar("{}") is None


@pytest.mark.parametrize(
    "text, message",
    [
        ("[1]", "JSON object"),
        ("{bad", "not valid JSON"),
        ('{"extra": 1}', "unknown sidecar keys"),
        # follow_up changed no result, and the key is gone
        pytest.param('{"follow_up": 4.5}', r"unknown sidecar keys: \['follow_up'\]",
                     id="follow_up-number"),
        pytest.param('{"follow_up": null, "mark_scaling": "auto"}',
                     r"unknown sidecar keys: \['follow_up'\]", id="follow_up-null"),
        ('{"mark_scaling": {"min": "a", "max": 10}}', "min must be a number"),
        ('{"mark_scaling": {"min": null, "max": 10}}', "min must be a number"),
        ('{"mark_scaling": {"min": 0, "max": [1]}}', "max must be a number"),
        pytest.param('{"mark_scaling": {"min": 0, "max": 1' + "0" * 400 + '}}',
                     "max must be a finite number", id="integer-beyond-float"),
        ('{"mark_scaling": {"min": 2.0, "max": 1.0}}', "min < max"),
        ('{"mark_scaling": "minmax"}', 'must be "auto"'),
    ],
)
def test_sidecar_errors(text, message):
    with pytest.raises(DataError, match=message):
        parse_sidecar(text)


def test_mark_interval_validation():
    with pytest.raises(DataError, match="interval"):
        mt.MarkInterval(0.9, 0.1)
    with pytest.raises(DataError, match="interval"):
        mt.MarkInterval(-0.1, 0.5)
    with pytest.raises(DataError, match="interval"):
        mt.MarkInterval(0.1, math.nan)


def test_dataset_arrays_read_only():
    ds = mt.parse_dataset(EXAMPLE_CSV)
    with pytest.raises(ValueError):
        ds.y[0] = 99.0
