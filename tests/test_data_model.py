import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import marktau as mt
from marktau.data_model import DataError

EXAMPLE_CSV = "y,delta,mark,a\n1.0,1,0.3,1\n2.0,0,,0\n1.5,1,0.6,0\n"


def test_parse_example_csv():
    ds = mt.parse_dataset(EXAMPLE_CSV)
    assert ds.n == 3
    assert ds.n1 == 1 and ds.n0 == 2
    assert ds.pi_hat == 1 / 3
    assert ds == mt.Dataset.from_arrays(
        y=[1.0, 2.0, 1.5], delta=[1, 0, 1], mark=[0.3, math.nan, 0.6], arm=[1, 0, 0]
    )
    assert ds.follow_up == 2.0  # defaults to max(y)


def test_parse_accepts_crlf_and_bom():
    text = "﻿y,delta,mark,a\r\n1.0,1,0.3,1\r\n2.0,0,,0\r\n"
    ds = mt.parse_dataset(text)
    assert ds.n == 2


def test_parse_follow_up_override():
    ds = mt.parse_dataset(EXAMPLE_CSV, follow_up=10.0)
    assert ds.follow_up == 10.0


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


def test_serialize_round_trip_hand():
    ds = mt.parse_dataset(EXAMPLE_CSV)
    again = mt.parse_dataset(mt.serialize_dataset(ds))
    assert again == ds


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
    assert mt.parse_dataset(mt.serialize_dataset(ds)) == ds


@settings(deadline=None, max_examples=60)
@given(datasets())
def test_pi_hat_is_exact_group_fraction(ds):
    assert ds.pi_hat == ds.n1 / (ds.n0 + ds.n1)


def test_scale_marks_anchor_values():
    scaled, record = mt.scale_marks([0.074, 38.8, 77.56])
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
    scaled, _ = mt.scale_marks(raw)
    assert np.all(scaled >= 0.0) and np.all(scaled <= 1.0)
    order = np.argsort(raw, kind="stable")
    assert np.all(np.diff(scaled[order]) >= 0.0)
    assert scaled[np.argmin(raw)] == 0.0
    assert scaled[np.argmax(raw)] == 1.0


def test_scale_marks_degenerate_warns():
    with pytest.warns(UserWarning, match="degenerate"):
        scaled, record = mt.scale_marks([4.2, 4.2, 4.2])
    assert np.all(scaled == 0.5)
    assert record.degenerate
    with pytest.raises(DataError, match="not invertible"):
        record.invert(scaled)


def test_scale_marks_empty_errors():
    with pytest.raises(DataError, match="empty"):
        mt.scale_marks([])


def test_scaling_record_inverts():
    scaled, record = mt.scale_marks([2.0, 5.0, 11.0])
    np.testing.assert_allclose(record.invert(scaled), [2.0, 5.0, 11.0], rtol=1e-12)


def test_apply_mark_scaling_only_touches_observed():
    ds = mt.parse_dataset("y,delta,mark,a\n1.0,1,10.0,1\n2.0,0,,0\n1.5,1,30.0,0\n")
    _, record = mt.scale_marks(ds.observed_marks())
    scaled = mt.apply_mark_scaling(ds, record)
    assert scaled.mark[0] == 0.0
    assert math.isnan(scaled.mark[1])
    assert scaled.mark[2] == 1.0
    assert scaled.follow_up == ds.follow_up


def test_validate_reports_every_violation():
    ds = mt.Dataset.from_arrays(
        y=[-1.0, 2.0, 3.0, 1.0],
        delta=[1, 0, 1, 1],
        mark=[0.5, 0.25, 1.5, math.nan],
        arm=[1, 0, 0, 1],
    )
    report = mt.validate(ds)
    assert not report.ok
    rules = {(v.row, v.rule) for v in report.violations}
    assert (0, "y >= 0") in rules
    assert (1, "mark present iff delta = 1") in rules
    assert (2, "mark in [0,1]") in rules
    assert (3, "mark present iff delta = 1") in rules


def test_validate_dataset_level_rules():
    ds = mt.Dataset.from_arrays([1.0, 2.0], [1, 1], [0.5, 0.5], [1, 1], follow_up=1.5)
    report = mt.validate(ds)
    rules = {v.rule for v in report.violations}
    assert "group sizes >= 1" in rules
    assert "follow_up >= max(y)" in rules


def test_validate_clean_dataset_ok():
    report = mt.validate(mt.parse_dataset(EXAMPLE_CSV))
    assert report.ok
    assert str(report) == "ok"


def test_drop_incomplete_rows():
    text = "y,delta,mark,a\n1.0,1,,1\n2.0,0,,0\n1.5,1,0.6,0\n3.0,1,0.2,1\n"
    filtered, dropped = mt.drop_incomplete_rows(text)
    assert dropped == 1
    ds = mt.parse_dataset(filtered)
    assert ds.n == 3


@pytest.mark.parametrize("one", ["1", "1.0", " 1 ", "1e0"])
def test_drop_incomplete_rows_reads_delta_as_a_number(one):
    text = f"y,delta,mark,a\n1.0,{one},,1\n2.0,0,,0\n1.5,{one},0.6,0\n3.0,1,0.2,1\n"
    filtered, dropped = mt.drop_incomplete_rows(text)
    assert dropped == 1
    ds = mt.parse_dataset(filtered)
    assert ds.n == 3 and ds.n1 == 1


def test_drop_incomplete_rows_leaves_malformed_rows():
    # an unreadable delta is not a missing mark; strict parsing reports it
    text = "y,delta,mark,a\n1.0,yes,,1\n2.0,0,,0\n"
    filtered, dropped = mt.drop_incomplete_rows(text)
    assert dropped == 0
    with pytest.raises(DataError, match="line 2: delta is not numeric"):
        mt.parse_dataset(filtered)


def test_sidecar_parsing():
    side = mt.parse_sidecar('{"follow_up": 4.5, "mark_scaling": "auto"}')
    assert side.follow_up == 4.5
    assert side.mark_scaling == "auto"
    side = mt.parse_sidecar('{"mark_scaling": {"min": 0.0, "max": 80.0}}')
    assert side.mark_scaling == mt.ScalingRecord(vmin=0.0, vmax=80.0)
    assert side.follow_up is None
    assert mt.parse_sidecar("{}") == mt.Sidecar()


@pytest.mark.parametrize(
    "text, message",
    [
        ("[1]", "JSON object"),
        ("{bad", "not valid JSON"),
        ('{"extra": 1}', "unknown sidecar keys"),
        ('{"follow_up": "soon"}', "must be a number"),
        ('{"mark_scaling": {"min": 2.0, "max": 1.0}}', "min < max"),
        ('{"mark_scaling": "minmax"}', 'must be "auto"'),
    ],
)
def test_sidecar_errors(text, message):
    with pytest.raises(DataError, match=message):
        mt.parse_sidecar(text)


def test_mark_interval_validation():
    with pytest.raises(DataError, match="interval"):
        mt.MarkInterval(0.9, 0.1)
    with pytest.raises(DataError, match="interval"):
        mt.MarkInterval(-0.1, 0.5)
    interval = mt.MarkInterval(0.2, 0.45)
    assert interval.contains(0.3)
    assert not interval.contains(0.5)


def test_dataset_arrays_read_only():
    ds = mt.parse_dataset(EXAMPLE_CSV)
    with pytest.raises(ValueError):
        ds.y[0] = 99.0
