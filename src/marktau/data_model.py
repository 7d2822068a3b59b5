"""Record types, CSV ingestion, validation, and mark scaling for marked survival data.

One row per subject: follow-up time ``y``, failure indicator ``delta``,
continuous mark (observed only at failures), and binary treatment arm.
Parsing is strict about structure; substantive range checks live in
:func:`validate`, which reports violations instead of raising.
"""

from __future__ import annotations

import json
import math
import re
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
    "parse_dataset",
    "scale_marks",
    "apply_mark_scaling",
    "validate",
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


@dataclass(frozen=True)
class ScalingRecord:
    """Affine map used to bring raw marks onto [0, 1].

    ``degenerate`` marks the all-equal case, where every mark is sent to 0.5.
    """

    vmin: float
    vmax: float
    degenerate: bool = False

    def apply(self, raw):
        raw = np.asarray(raw, dtype=float)
        if self.degenerate:
            return np.full_like(raw, 0.5)
        return (raw - self.vmin) / (self.vmax - self.vmin)


@dataclass(frozen=True)
class Violation:
    """A single failed invariant of the record with 0-based index ``row``."""

    row: int
    rule: str
    detail: str

    def __str__(self) -> str:
        return f"row {self.row}: {self.rule} ({self.detail})"


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        if self.ok:
            return "ok"
        return "\n".join(map(str, self.violations))


def _binary_column(column: np.ndarray, name: str) -> np.ndarray:
    """A ``column`` of 0s and 1s as int64; any other value is a :class:`DataError`.

    The check comes before the cast, which would truncate 0.5 to 0 and 1.7 to 1.
    """
    bad = np.flatnonzero((column != 0.0) & (column != 1.0))
    if bad.size:
        row = int(bad[0])
        raise DataError(f"row {row}: {name} must be 0 or 1, got {column[row].item()!r}")
    return column.astype(np.int64)


def _arm_sizes(arm: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(n1, n0) of a 0/1 ``arm`` column, or of each row of a 2-d one; an empty arm fails."""
    n1 = arm.sum(axis=-1)
    n0 = arm.shape[-1] - n1
    empty = (n1 == 0) | (n0 == 0)
    if empty.any():
        k = int(np.argmax(empty))
        raise DataError(f"empty treatment group (n1={n1.flat[k]}, n0={n0.flat[k]})")
    return n1, n0


@dataclass(frozen=True, eq=False)
class Dataset:
    """Immutable column store of one row per subject plus derived group counts.

    ``mark`` is NaN wherever ``delta == 0``. Arrays are read-only and share
    one index order, which is the record order used everywhere downstream.
    ``delta`` and ``arm`` hold only 0 and 1, and both treatment arms hold at
    least one row.
    """

    y: np.ndarray
    delta: np.ndarray
    mark: np.ndarray
    arm: np.ndarray
    n: int
    n0: int
    n1: int

    @classmethod
    def from_arrays(cls, y, delta, mark, arm) -> "Dataset":
        y = np.asarray(y, dtype=float)
        delta = np.asarray(delta, dtype=float)
        mark = np.asarray(mark, dtype=float)
        arm = np.asarray(arm, dtype=float)
        if not (y.shape == delta.shape == mark.shape == arm.shape) or y.ndim != 1:
            raise DataError("y, delta, mark, a must be 1-d arrays of equal length")
        if y.size == 0:
            raise DataError("dataset has no records")
        return cls._checked(y, _binary_column(delta, "delta"), mark, _binary_column(arm, "a"))

    @classmethod
    def _checked(cls, y, delta, mark, arm) -> "Dataset":
        """The dataset of float ``y`` and ``mark`` and int64 ``delta`` and ``arm`` columns of one
        length, whose 0/1 values are already checked; they are made read-only, not copied."""
        n1, n0 = _arm_sizes(arm)
        for a in (y, delta, mark, arm):
            a.setflags(write=False)
        return cls(y=y, delta=delta, mark=mark, arm=arm, n=int(y.size), n0=int(n0),
                   n1=int(n1))

    def observed_marks(self) -> np.ndarray:
        """Marks of uncensored records, in record order."""
        return self.mark[self.delta == 1]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        # NaN equals NaN: parsing accepts a NaN y, which only validate() flags
        return all(
            np.array_equal(getattr(self, name), getattr(other, name), equal_nan=True)
            for name in ("y", "delta", "mark", "arm")
        )


# A field wrapped in double quotes on one line, as CSV writers quote it, with only whitespace (in
# bytes, spaces and tabs) after the closing quote. Quoted text holding a comma, a quote or a line
# break is left as it is: it is never a number, so it fails a check.
_QUOTED_FIELD = re.compile(r'(?:\A|(?<=[,\n]))"([^",\n]*)"[^\S\n]*(?=[,\n]|\Z)')
_QUOTED_BYTES = re.compile(rb'(?:\A|(?<=[,\n]))"([^",\n]*)"[ \t]*(?=[,\n])')
_PADDING = re.compile(rb"\A[ \t]+|(?<=[,\n])[ \t]+|[ \t]+(?=[,\n])")
_CHUNK_BYTES = 1 << 17  # the fixed-width fields cast, or the windows read, at a time
_WINDOW = 24  # the bytes that end at a plain decimal field, read as three little-endian words
_EACH = np.uint64(0x0101010101010101)  # times a byte value, that value in every byte
# item c keeps the last c bytes of a window; a gather of whole V24 items is the fastest
_LAST = np.frombuffer(b"".join(bytes(_WINDOW - c) + b"\xff" * c for c in range(_WINDOW + 1)),
                      f"V{_WINDOW}")
_POWERS = np.array([float(10**k) for k in range(20)], np.longdouble)  # each exact in a double


def _fields(row: str) -> list[str]:
    """The comma-separated fields of one row, quoted ones unwrapped and whitespace stripped."""
    if '"' in row:
        row = _QUOTED_FIELD.sub(r"\1", row)
    return [field.strip() for field in row.split(",")]


def _number(field: str, name: str, line_no: int) -> float:
    try:
        return float(field)
    except ValueError:
        raise DataError(f"line {line_no}: {name} is not numeric: {field!r}") from None


def _binary(field: str, name: str, line_no: int) -> float:
    value = _number(field, name, line_no)
    if value not in (0.0, 1.0):
        raise DataError(f"line {line_no}: {name} must be 0 or 1, got {field!r}")
    return value


def _cast(body: bytes, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The fields ``body[s:s + l]``, ascending in s, as numpy's cast of ``S{w}`` bytes reads them:
    bit for bit as ``float`` does, raising ValueError where it fails. w is the longest
    field rounded up to 8 bytes, and ``_CHUNK_BYTES`` of fields are NUL-padded at a time."""
    out = np.empty(len(starts))
    w = -(-int(lengths.max(initial=1)) // 8) * 8
    keep = np.tri(w + 1, w, -1, np.uint8)  # row l keeps the first l bytes of a window
    step = max(1, _CHUNK_BYTES // w)
    # each w-byte window of the body is one item; the last starts read theirs
    # from a padded copy of the body's last w bytes
    tail = len(body) - w
    last = int(np.searchsorted(starts, tail, "right"))
    for buffer, offset, lo, hi in ((body, 0, 0, last),
                                   (body[tail:] + bytes(w), tail, last, len(starts))):
        windows = np.ndarray((len(buffer) - w + 1,), f"S{w}", buffer, strides=(1,))
        for i in range(lo, hi, step):
            j = min(i + step, hi)
            chunk = windows[starts[i:j] - offset]
            chunk.view(np.uint8).reshape(-1, w)[:] *= np.take(keep, lengths[i:j], axis=0)
            out[i:j] = chunk
    return out


def _extended() -> bool:
    """Whether ``np.longdouble`` is x87 extended precision and computes with its whole 64-bit
    significand. Then 1 + 2**-63 keeps its last bit, the lowest bit of its storage; an x87
    control word set to 53-bit precision rounds the sum to 1."""
    one = np.longdouble(1)
    probe = np.array([one + np.ldexp(one, -63)])
    return np.finfo(np.longdouble).nmant == 63 and probe.view(np.uint16)[0] == 1


def _eight_digits(v: np.ndarray) -> np.ndarray:
    """Each word of digit bytes 0-9, the first digit in the lowest byte, as the integer they spell."""
    v = v * np.uint64(10) + (v >> np.uint64(8))  # bytes 0, 2, 4 and 6 hold two digits each
    pairs = np.uint64(0x000000FF000000FF)
    return ((v & pairs) * np.uint64(100 + (1000000 << 32))
            + ((v >> np.uint64(16)) & pairs) * np.uint64(1 + (10000 << 32))) >> np.uint64(32)


def _decimals(body: bytes, starts: np.ndarray, lengths: np.ndarray) -> tuple:
    """Each field ``body[s:s + l]`` that reads ``[+-]?digits[.digits]`` with 1 to 19 digits and
    ends ``_WINDOW`` or more bytes into the body, exactly as ``float`` reads it, and a mask of
    the other fields, whose values are left to the cast.

    The ``_WINDOW`` bytes that end with a field are read as three words, and its digits spell an
    integer M < 10**19, k <= 19 of them after the dot. The extended quotient M / 10**k of two
    operands exact in a 64-bit significand is M / 10**k correctly rounded, and it is rounded
    once more, to float64. Every midpoint between adjacent doubles has a 64-bit significand, so
    the two roundings differ from one only where the quotient lands on a midpoint; those fields
    are returned with the others.
    """
    data = np.frombuffer(body, np.uint8)
    windows = np.ndarray((len(body) - _WINDOW + 1,), f"V{_WINDOW}", body, strides=(1,))
    zeros, dots, low7, high = (np.uint64(b) * _EACH for b in (0x30, 0x1E, 0x7F, 0x80))
    out = np.empty(len(starts))
    rest = np.empty(len(starts), bool)
    step = _CHUNK_BYTES // _WINDOW
    for i in range(0, len(starts), step):
        s, l = starts[i:i + step], lengths[i:i + step]
        ends = s + l
        sign = data[s]
        negative = sign == ord("-")
        chars = l - (negative | (sign == ord("+")))  # digits and dot
        # each digit as its value 0-9, a dot as 0x1E ("." ^ "0"), and the bytes before them as 0
        v = windows[np.maximum(ends - _WINDOW, 0)].view("<u8").reshape(-1, 3)
        v ^= zeros
        v &= _LAST[np.minimum(chars, _WINDOW)].view("<u8").reshape(-1, 3)
        x = v ^ dots  # 0 in the byte of each dot
        dot = ~(((x & low7) + low7) | x | low7) >> np.uint64(7)  # 1 in the byte of each dot
        # each byte up to the dot takes the byte before it, which drops the dot
        upto = (dot << np.uint64(8)) - np.uint64(1)
        ahead = dot != 0  # a dot in this word or a later one
        ahead[:, 1] |= ahead[:, 2]
        ahead[:, 0] |= ahead[:, 1]
        upto *= ahead
        shifted = np.left_shift(v, np.uint64(8), out=x)
        shifted.reshape(-1)[1:] |= v.reshape(-1)[:-1] >> np.uint64(56)
        shifted[:, 0] &= ~np.uint64(0xFF)  # the window's first byte has none before it
        v ^= (v ^ shifted) & upto
        bad = ((v + np.uint64(0x76) * _EACH) | v) & high  # the high bit of each byte above 9
        # the dots, and the bytes up to the dot (the dot is byte ``upto_dot`` - 1 of the window)
        ndots, upto_dot = ((w[:, 0] + w[:, 1] + w[:, 2]) * _EACH >> np.uint64(56)
                           for w in (dot, upto & _EACH))
        digits = chars - (ndots > 0)
        eights = _eight_digits(v)
        whole = eights[:, 0] * np.uint64(10**16) + eights[:, 1] * np.uint64(10**8) + eights[:, 2]
        # the digits after the dot; above 19 only in fields left to the cast
        k = np.minimum((np.uint64(_WINDOW) - upto_dot) % np.uint64(_WINDOW), np.uint64(19))
        quotient = whole.astype(np.longdouble) / _POWERS[k]
        # a midpoint's 11 bits below the last bit of a double read 100 0000 0000
        low = quotient.view(np.uint16)[::quotient.itemsize // 2]
        value = out[i:i + step]
        value[:] = quotient
        np.negative(value, out=value, where=negative)
        rest[i:i + step] = ((ends < _WINDOW) | (digits < 1) | (digits > 19) | (ndots > 1)
                            | ((bad[:, 0] | bad[:, 1] | bad[:, 2]) != 0)
                            | ((low & 0x7FF) == 0x400))
    return out, rest


def _floats(body: bytes, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The fields ``body[s:s + l]``, ascending in s, bit for bit as ``float`` reads them,
    raising ValueError where it fails.

    Where :func:`_extended` holds, :func:`_decimals` converts each plain decimal field exactly,
    and :func:`_cast` reads the rest: the fields whose extended quotient lands on a midpoint,
    those with an exponent, more than 19 digits, ``nan`` or ``inf`` or other text, and those
    that end within the first ``_WINDOW`` bytes of the body.
    """
    if not _extended() or len(body) < _WINDOW:
        return _cast(body, starts, lengths)
    out, rest = _decimals(body, starts, lengths)
    rest = np.flatnonzero(rest)
    if rest.size:
        out[rest] = _cast(body, starts[rest], lengths[rest])
    return out


def _separators(data: np.ndarray) -> np.ndarray | None:
    """Where each field of the bytes ``data`` ends; None unless each line has four fields.
    Of the bytes at or below the comma a number holds only ``+``, so a control byte fails."""
    ends = np.flatnonzero(data <= ord(","))
    kinds = data[ends]
    if ord("+") in kinds:
        ends = ends[kinds != ord("+")]
        kinds = data[ends]
    if kinds.size % 4 or np.any(kinds.view(np.uint32) != np.frombuffer(b",,,\n", np.uint32)):
        return None
    return ends


def _columns(text: str, drop_missing_marks: bool) -> tuple | None:
    """The y, delta, mark and a columns of a well-formed LF-ended CSV text
    without byte-order mark, and the rows dropped; None if a check fails.

    The text is read as ASCII bytes. If :func:`_separators` fails, blank lines
    go, then quotes and padding around fields, and it is tried again. One-byte
    ``delta`` and ``a`` fields are read as digits, the others by :func:`_floats`,
    and both columns are checked to hold only 0 and 1.
    With ``drop_missing_marks``, an uncensored row with an empty mark is dropped
    instead of failing a check.
    """
    if not text.isascii():
        return None
    body = text.encode("ascii").lstrip(b"\n")
    if not body.endswith(b"\n"):
        body += b"\n"
    ends = _separators(np.frombuffer(body, np.uint8))
    if ends is None:  # a line that only quotes or padding empties is a row of one field
        body = _PADDING.sub(b"", _QUOTED_BYTES.sub(rb"\1", re.sub(rb"\n\n+", b"\n", body)))
        ends = _separators(np.frombuffer(body, np.uint8))
    if ends is None or not body.startswith((",".join(CSV_HEADER) + "\n").encode()):
        return None
    # a field starts past the separator before it; row 0 is the header
    starts = np.concatenate(([0], ends[:-1] + 1))
    lengths = np.subtract(ends, starts, out=ends).reshape(-1, 4)[1:]
    starts = starts.reshape(-1, 4)[1:]
    data = np.frombuffer(body, np.uint8)
    present = lengths[:, 2] > 0
    try:
        y = _floats(body, starts[:, 0], lengths[:, 0])
        # any byte but "0" or "1" reads as a value the 0/1 check rejects
        delta, arm = (data[starts[:, k]] - ord("0") if np.all(lengths[:, k] == 1)
                      else _floats(body, starts[:, k], lengths[:, k]) for k in (1, 3))
        values = _floats(body, starts[:, 2][present], lengths[:, 2][present])
    except ValueError:
        return None
    uncensored = delta == 1
    # bools order False < True: a mark on a censored row is present > uncensored
    misplaced = (present > uncensored) if drop_missing_marks else (present != uncensored)
    if np.any(((delta != 0) & (delta != 1)) | ((arm != 0) & (arm != 1)) | misplaced):
        return None
    mark = np.full(len(present), math.nan)
    mark[present] = values
    columns = (y, delta, mark, arm)
    if not drop_missing_marks:
        return columns, 0
    keep = present >= uncensored
    return [column[keep] for column in columns], int(np.count_nonzero(~keep))


def _read_rows(text: str, drop_missing_marks: bool) -> tuple:
    """The columns of an LF-ended CSV text read one row at a time, and the rows dropped.

    This reader alone names errors: it raises the first fault of the first
    bad row, in the order field count, ``y``, ``delta``, ``a``, then the
    mark, with the row's line of the file. It also reads the rare valid
    text that :func:`_columns` declines.
    """
    rows = [(line_no, line) for line_no, line in enumerate(text.split("\n"), 1) if line]
    if not rows:
        raise DataError("empty input: missing header row")
    header = tuple(_fields(rows[0][1]))
    if header != CSV_HEADER:
        raise DataError(f"expected header {','.join(CSV_HEADER)!r}, got {','.join(header)!r}")
    if len(rows) == 1:
        raise DataError("no data rows")
    records = []
    dropped = 0
    for line_no, row in rows[1:]:
        fields = _fields(row)
        if len(fields) != 4:
            raise DataError(f"line {line_no}: expected 4 fields, got {len(fields)}")
        y_f, d_f, m_f, a_f = fields
        y_i = _number(y_f, "y", line_no)
        d_i = _binary(d_f, "delta", line_no)
        a_i = _binary(a_f, "a", line_no)
        m_i = math.nan
        if d_i == 1:
            if m_f == "":
                if drop_missing_marks:
                    dropped += 1
                    continue
                raise DataError(f"line {line_no}: mark absent on an uncensored row (delta=1)")
            m_i = _number(m_f, "mark", line_no)
        elif m_f != "":
            raise DataError(f"line {line_no}: mark present on a censored row (delta=0)")
        records.append((y_i, d_i, m_i, a_i))
    # rows of a C-ordered array, so each column is contiguous as _columns gives it
    return np.array(records, dtype=float).reshape(-1, 4).T.copy(), dropped


def parse_dataset(text: str, *, drop_missing_marks: bool = False):
    """Parse CSV with header ``y,delta,mark,a`` into a :class:`Dataset`.

    The mark field must be empty exactly on censored rows (``delta == 0``).
    Structural problems (wrong header, wrong field count, non-numeric
    fields, delta or a outside {0, 1}, mark presence inconsistent with
    delta, an empty treatment group) raise :class:`DataError`, naming the
    first bad line by its number in the file (the first line is 1, and blank
    lines count); range checks such as ``y >= 0`` are deferred to
    :func:`validate`.
    Decimal separator is ``.``. A leading byte-order mark, LF, CRLF or lone
    CR line ends, blank lines, whitespace around fields and double quotes around a
    whole field are accepted.

    With ``drop_missing_marks`` (complete-case analysis), an uncensored row
    whose mark is empty is dropped instead of failing, when that is its only
    fault; the result is then ``(dataset, dropped)``, with ``dropped`` the
    number of rows dropped. Any other fault of such a row still fails with
    its line of the file, and a file whose every row is dropped has no data
    rows.

    A well-formed text is read as ASCII bytes: its commas and line breaks
    prove that each row has four fields, and each number is converted bit
    for bit as ``float`` converts it. A plain decimal of at most 19 digits is
    converted exactly, by integer arithmetic and one division in 64-bit
    extended precision; a field whose quotient lands on a midpoint between
    two doubles, and any other spelling of a number, goes to numpy's cast of
    fixed-width bytes. A text that fails a check, such as one with a
    non-ASCII character or a control byte other than a line break or a tab
    beside a field, is read again one row at a time, by the reader that
    alone names errors.
    """
    text = text.lstrip("\ufeff")
    if "\r" in text:  # a scan for "\r" is far cheaper than one for "\r\n"
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    columns, dropped = _columns(text, drop_missing_marks) or _read_rows(text, drop_missing_marks)
    if len(columns[0]) == 0:  # every data row was dropped
        raise DataError("no data rows")
    y, delta, mark, arm = columns  # each reader checked delta and a
    dataset = Dataset._checked(y, delta.astype(np.int64), mark, arm.astype(np.int64))
    return (dataset, dropped) if drop_missing_marks else dataset


def scale_marks(raw_marks) -> ScalingRecord:
    """The min-max map that scales raw marks onto [0, 1], kept for later inversion.

    The observed minimum goes to 0 and the maximum to 1. If all marks are
    equal the map is degenerate: every mark goes to 0.5 and a warning is
    emitted, since no scale information exists. ``record.apply(raw)`` gives
    the scaled marks.
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
    return ScalingRecord(vmin=vmin, vmax=vmax, degenerate=vmin == vmax)


def apply_mark_scaling(dataset: Dataset, scaling: ScalingRecord) -> Dataset:
    """Return a copy of ``dataset`` with observed marks passed through ``scaling``."""
    mark = dataset.mark.copy()
    observed = dataset.delta == 1
    mark[observed] = scaling.apply(mark[observed])
    return Dataset._checked(dataset.y, dataset.delta, mark, dataset.arm)


def validate(dataset: Dataset) -> ValidationReport:
    """Check every record invariant and report violations; never raises.

    Rules use 0-based record indices. Entries come in row order, and in the
    order of the rules below within a row. That ``delta`` and ``a`` hold only
    0 and 1, and that both arms hold a row, is checked when the
    :class:`Dataset` is built.
    """
    y, delta, mark = dataset.y, dataset.delta, dataset.mark
    present = ~np.isnan(mark)
    rules = (  # (rule, failing rows, the column the detail shows, detail)
        ("y >= 0", ~(np.isfinite(y) & (y >= 0.0)), y, "y={!r} must be finite and non-negative"),
        ("mark present iff delta = 1", (delta == 1) & ~present, None,
         "uncensored row without a mark"),
        ("mark present iff delta = 1", (delta == 0) & present, None,
         "censored row carries a mark"),
        ("mark in [0,1]", present & ~(np.isfinite(mark) & (mark >= 0.0) & (mark <= 1.0)), mark,
         "mark={!r} (is the data scaled?)"),
    )
    rows, which = np.nonzero(np.column_stack([failing for _, failing, _, _ in rules]))
    out: list[Violation] = []
    for i, k in zip(rows.tolist(), which.tolist()):
        rule, _, column, detail = rules[k]
        if column is not None:
            detail = detail.format(column[i].item())
        out.append(Violation(i, rule, detail))
    return ValidationReport(tuple(out))


def _json_number(value, name: str) -> float:
    """``value`` as a float when it is a JSON number; a :class:`DataError` otherwise."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise DataError(f"sidecar {name} must be a number")
    try:
        return float(value)
    except OverflowError:  # an integer beyond the float range
        raise DataError(f"sidecar {name} must be a finite number") from None


def parse_sidecar(text: str) -> ScalingRecord | str | None:
    """The mark scaling a JSON sidecar asks for.

    That is None (marks already on [0, 1]), the string ``"auto"`` (fit
    min-max on the observed marks), or a :class:`ScalingRecord` with
    explicit bounds.
    """
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataError(f"metadata sidecar is not valid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise DataError("metadata sidecar must be a JSON object")
    unknown = set(obj) - {"mark_scaling"}
    if unknown:
        raise DataError(f"unknown sidecar keys: {sorted(unknown)}")
    scaling = obj.get("mark_scaling")
    if scaling is None or scaling == "auto":
        return scaling
    if not (isinstance(scaling, dict) and set(scaling) == {"min", "max"}):
        raise DataError('sidecar mark_scaling must be "auto" or {"min": ..., "max": ...}')
    vmin = _json_number(scaling["min"], "mark_scaling min")
    vmax = _json_number(scaling["max"], "mark_scaling max")
    if not (math.isfinite(vmin) and math.isfinite(vmax) and vmin < vmax):
        raise DataError("sidecar mark_scaling needs finite min < max")
    return ScalingRecord(vmin=vmin, vmax=vmax)
