"""Record types, CSV ingestion, validation, and mark scaling for marked survival data.

One row per subject: follow-up time ``y``, failure indicator ``delta``,
continuous mark (observed only at failures), and binary treatment arm.
Parsing is strict about structure; substantive range checks live in
:func:`validate`, which reports violations instead of raising.
"""

from __future__ import annotations

import csv
import io
import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DataError",
    "MarkInterval",
    "ScalingRecord",
    "Violation",
    "ValidationReport",
    "Dataset",
    "Sidecar",
    "parse_dataset",
    "serialize_dataset",
    "drop_incomplete_rows",
    "scale_marks",
    "apply_mark_scaling",
    "parse_sidecar",
]

CSV_HEADER = ("y", "delta", "mark", "a")


class DataError(ValueError):
    """Malformed input data or an invariant-violating construction."""


@dataclass(frozen=True)
class MarkInterval:
    """Mark subinterval [lower, upper] inside [0, 1] on which effects are evaluated."""

    lower: float
    upper: float

    def __post_init__(self) -> None:
        if not (
            math.isfinite(self.lower)
            and math.isfinite(self.upper)
            and 0.0 <= self.lower < self.upper <= 1.0
        ):
            raise DataError(
                "mark interval must satisfy 0 <= lower < upper <= 1, "
                f"got [{self.lower}, {self.upper}]"
            )

    def contains(self, v: float) -> bool:
        return self.lower <= v <= self.upper


@dataclass(frozen=True)
class ScalingRecord:
    """Affine map used to bring raw marks onto [0, 1]; keeps enough to invert it.

    ``degenerate`` marks the all-equal case, where every mark is sent to 0.5
    and the map is not invertible.
    """

    vmin: float
    vmax: float
    degenerate: bool = False

    def apply(self, raw):
        raw = np.asarray(raw, dtype=float)
        if self.degenerate:
            return np.full_like(raw, 0.5)
        return (raw - self.vmin) / (self.vmax - self.vmin)

    def invert(self, scaled):
        if self.degenerate:
            raise DataError("degenerate scaling (all marks equal) is not invertible")
        scaled = np.asarray(scaled, dtype=float)
        return self.vmin + scaled * (self.vmax - self.vmin)


@dataclass(frozen=True)
class Violation:
    """A single failed invariant; ``row`` is the 0-based record index, None for dataset-level."""

    row: int | None
    rule: str
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        if self.ok:
            return "ok"
        lines = []
        for v in self.violations:
            where = "dataset" if v.row is None else f"row {v.row}"
            lines.append(f"{where}: {v.rule} ({v.detail})")
        return "\n".join(lines)


@dataclass(frozen=True, eq=False)
class Dataset:
    """Immutable column store of one row per subject plus derived group counts.

    ``mark`` is NaN wherever ``delta == 0``. Arrays are read-only and share
    one index order, which is the record order used everywhere downstream.
    """

    y: np.ndarray
    delta: np.ndarray
    mark: np.ndarray
    arm: np.ndarray
    follow_up: float
    n: int
    n0: int
    n1: int
    pi_hat: float

    @classmethod
    def from_arrays(cls, y, delta, mark, arm, follow_up: float | None = None) -> "Dataset":
        y = np.asarray(y, dtype=float)
        delta = np.asarray(delta, dtype=np.int64)
        mark = np.asarray(mark, dtype=float)
        arm = np.asarray(arm, dtype=np.int64)
        if not (y.shape == delta.shape == mark.shape == arm.shape) or y.ndim != 1:
            raise DataError("y, delta, mark, a must be 1-d arrays of equal length")
        if y.size == 0:
            raise DataError("dataset has no records")
        for a in (y, delta, mark, arm):
            a.setflags(write=False)
        n = int(y.size)
        n1 = int(np.count_nonzero(arm == 1))
        n0 = n - n1
        if follow_up is None:
            follow_up = float(np.max(y))
        return cls(
            y=y, delta=delta, mark=mark, arm=arm,
            follow_up=float(follow_up), n=n, n0=n0, n1=n1, pi_hat=n1 / n,
        )

    def arm_indices(self, a: int) -> np.ndarray:
        return np.flatnonzero(self.arm == a)

    def observed_marks(self) -> np.ndarray:
        """Marks of uncensored records, in record order."""
        return self.mark[self.delta == 1]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return (
            self.follow_up == other.follow_up
            and np.array_equal(self.y, other.y)
            and np.array_equal(self.delta, other.delta)
            and np.array_equal(self.mark, other.mark, equal_nan=True)
            and np.array_equal(self.arm, other.arm)
        )


def _reads_as_one(field: str) -> bool:
    """True when ``field`` reads as the number 1, as :func:`_parse_binary` reads it."""
    try:
        return float(field) == 1.0
    except ValueError:
        return False


def _parse_binary(field: str, name: str, line_no: int) -> int:
    try:
        value = float(field)
    except ValueError:
        raise DataError(f"line {line_no}: {name} is not numeric: {field!r}") from None
    if value not in (0.0, 1.0):
        raise DataError(f"line {line_no}: {name} must be 0 or 1, got {field!r}")
    return int(value)


def parse_dataset(text: str, *, follow_up: float | None = None) -> Dataset:
    """Parse CSV with header ``y,delta,mark,a`` into a :class:`Dataset`.

    The mark field must be empty exactly on censored rows (``delta == 0``).
    Structural problems (wrong header, non-numeric fields, delta or a outside
    {0, 1}, mark presence inconsistent with delta, an empty treatment group)
    raise :class:`DataError`; range checks such as ``y >= 0`` are deferred to
    :func:`validate`. Decimal separator is ``.``; both LF and CRLF line ends
    are accepted.
    """
    text = text.lstrip("﻿")
    reader = csv.reader(io.StringIO(text, newline=""))
    rows = [row for row in reader if row]  # skip blank lines
    if not rows:
        raise DataError("empty input: missing header row")
    header = tuple(c.strip() for c in rows[0])
    if header != CSV_HEADER:
        raise DataError(f"expected header {','.join(CSV_HEADER)!r}, got {','.join(header)!r}")
    if len(rows) == 1:
        raise DataError("no data rows")

    y, delta, mark, arm = [], [], [], []
    for k, row in enumerate(rows[1:]):
        line_no = k + 2  # header is line 1
        if len(row) != 4:
            raise DataError(f"line {line_no}: expected 4 fields, got {len(row)}")
        y_f, d_f, m_f, a_f = (c.strip() for c in row)
        try:
            y_i = float(y_f)
        except ValueError:
            raise DataError(f"line {line_no}: y is not numeric: {y_f!r}") from None
        d_i = _parse_binary(d_f, "delta", line_no)
        a_i = _parse_binary(a_f, "a", line_no)
        if d_i == 1:
            if m_f == "":
                raise DataError(f"line {line_no}: mark absent on an uncensored row (delta=1)")
            try:
                m_i = float(m_f)
            except ValueError:
                raise DataError(f"line {line_no}: mark is not numeric: {m_f!r}") from None
        else:
            if m_f != "":
                raise DataError(f"line {line_no}: mark present on a censored row (delta=0)")
            m_i = math.nan
        y.append(y_i)
        delta.append(d_i)
        mark.append(m_i)
        arm.append(a_i)

    ds = Dataset.from_arrays(y, delta, mark, arm, follow_up=follow_up)
    if ds.n1 == 0 or ds.n0 == 0:
        raise DataError(f"empty treatment group (n1={ds.n1}, n0={ds.n0})")
    return ds


def serialize_dataset(dataset: Dataset) -> str:
    """Inverse of :func:`parse_dataset` up to the default follow-up time.

    Floats are written with round-trip ``repr``, so
    ``parse(serialize(parse(text)))`` reproduces the dataset exactly.
    """
    lines = [",".join(CSV_HEADER)]
    for i in range(dataset.n):
        m = dataset.mark[i]
        mark_field = "" if math.isnan(m) else repr(float(m))
        lines.append(
            f"{float(dataset.y[i])!r},{int(dataset.delta[i])},{mark_field},{int(dataset.arm[i])}"
        )
    return "\n".join(lines) + "\n"


def drop_incomplete_rows(text: str) -> tuple[str, int]:
    """Remove uncensored data rows whose mark field is empty.

    A row is uncensored when its delta field reads as the number 1 (``1``,
    ``1.0``, ``1e0``, with surrounding spaces allowed), as strict parsing
    reads it. Malformed rows stay in place for :func:`parse_dataset` to
    report. Returns the filtered CSV text and the number of rows dropped.
    Used by the CLI's complete-case switch before strict parsing.
    """
    text = text.lstrip("﻿")
    reader = csv.reader(io.StringIO(text, newline=""))
    rows = [row for row in reader if row]
    if not rows:
        raise DataError("empty input: missing header row")
    kept = [rows[0]]
    dropped = 0
    for row in rows[1:]:
        if len(row) == 4 and row[2].strip() == "" and _reads_as_one(row[1]):
            dropped += 1
            continue
        kept.append(row)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerows(kept)
    return out.getvalue(), dropped


def scale_marks(raw_marks) -> tuple[np.ndarray, ScalingRecord]:
    """Min-max scale raw marks onto [0, 1], keeping the map for later inversion.

    The observed minimum goes to 0 and the maximum to 1. If all marks are
    equal the map is degenerate: every mark goes to 0.5 and a warning is
    emitted, since no scale information exists.
    """
    raw = np.asarray(raw_marks, dtype=float)
    if raw.size == 0:
        raise DataError("cannot scale an empty set of marks")
    if not np.all(np.isfinite(raw)):
        raise DataError("marks must be finite to be scaled")
    vmin = float(np.min(raw))
    vmax = float(np.max(raw))
    if vmin == vmax:
        warnings.warn(
            "all observed marks are equal; mapping them to 0.5 (degenerate scaling)",
            stacklevel=2,
        )
        record = ScalingRecord(vmin=vmin, vmax=vmax, degenerate=True)
        return record.apply(raw), record
    record = ScalingRecord(vmin=vmin, vmax=vmax)
    return record.apply(raw), record


def apply_mark_scaling(dataset: Dataset, scaling: ScalingRecord) -> Dataset:
    """Return a copy of ``dataset`` with observed marks passed through ``scaling``."""
    mark = dataset.mark.copy()
    observed = dataset.delta == 1
    mark[observed] = scaling.apply(mark[observed])
    return Dataset.from_arrays(dataset.y, dataset.delta, mark, dataset.arm,
                               follow_up=dataset.follow_up)


def validate(dataset: Dataset) -> ValidationReport:
    """Check every dataset invariant and report violations; never raises.

    Rules use 0-based record indices. Dataset-level entries carry ``row=None``.
    """
    out: list[Violation] = []
    for i in range(dataset.n):
        y = dataset.y[i]
        d = dataset.delta[i]
        m = dataset.mark[i]
        a = dataset.arm[i]
        if not (math.isfinite(y) and y >= 0.0):
            out.append(Violation(i, "y >= 0", f"y={y!r} must be finite and non-negative"))
        if d not in (0, 1):
            out.append(Violation(i, "delta in {0,1}", f"delta={d!r}"))
        if a not in (0, 1):
            out.append(Violation(i, "a in {0,1}", f"a={a!r}"))
        mark_present = not math.isnan(m)
        if d == 1 and not mark_present:
            out.append(Violation(i, "mark present iff delta = 1", "uncensored row without a mark"))
        if d == 0 and mark_present:
            out.append(Violation(i, "mark present iff delta = 1", "censored row carries a mark"))
        if mark_present and not (math.isfinite(m) and 0.0 <= m <= 1.0):
            out.append(Violation(i, "mark in [0,1]", f"mark={m!r} (is the data scaled?)"))
    if dataset.n0 < 1 or dataset.n1 < 1:
        out.append(Violation(None, "group sizes >= 1", f"n0={dataset.n0}, n1={dataset.n1}"))
    else:
        if not 0.0 < dataset.pi_hat < 1.0:
            out.append(Violation(None, "pi_hat in (0,1)", f"pi_hat={dataset.pi_hat!r}"))
    max_y = float(np.max(dataset.y)) if dataset.n else 0.0
    if not (math.isfinite(dataset.follow_up) and dataset.follow_up >= max_y):
        out.append(Violation(
            None, "follow_up >= max(y)",
            f"follow_up={dataset.follow_up!r} < max(y)={max_y!r}",
        ))
    return ValidationReport(tuple(out))


@dataclass(frozen=True)
class Sidecar:
    """Optional JSON metadata accompanying a CSV: follow-up horizon and mark scaling.

    ``mark_scaling`` is either None (marks already on [0, 1]), the string
    ``"auto"`` (fit min-max on the observed marks), or a :class:`ScalingRecord`
    with explicit bounds.
    """

    follow_up: float | None = None
    mark_scaling: ScalingRecord | str | None = None


def parse_sidecar(text: str) -> Sidecar:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataError(f"metadata sidecar is not valid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise DataError("metadata sidecar must be a JSON object")
    unknown = set(obj) - {"follow_up", "mark_scaling"}
    if unknown:
        raise DataError(f"unknown sidecar keys: {sorted(unknown)}")
    follow_up = obj.get("follow_up")
    if follow_up is not None:
        if not isinstance(follow_up, (int, float)) or isinstance(follow_up, bool):
            raise DataError("sidecar follow_up must be a number")
        follow_up = float(follow_up)
    scaling = obj.get("mark_scaling")
    if scaling is None:
        parsed = None
    elif scaling == "auto":
        parsed = "auto"
    elif isinstance(scaling, dict) and set(scaling) == {"min", "max"}:
        vmin, vmax = float(scaling["min"]), float(scaling["max"])
        if not (math.isfinite(vmin) and math.isfinite(vmax) and vmin < vmax):
            raise DataError("sidecar mark_scaling needs finite min < max")
        parsed = ScalingRecord(vmin=vmin, vmax=vmax)
    else:
        raise DataError('sidecar mark_scaling must be "auto" or {"min": ..., "max": ...}')
    return Sidecar(follow_up=follow_up, mark_scaling=parsed)
