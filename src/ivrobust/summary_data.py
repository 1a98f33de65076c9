"""Summarized per-variant association data.

A :class:`SummarySet` holds, for each candidate instrument, the estimated
association with the exposure and with the outcome together with their
standard errors, stored as four read-only float64 columns beside an ``ids``
tuple. Each variant must have a unique, non-empty id, finite values and
positive standard errors (:func:`_first_fault` states these rules once).
Routines here cover CSV ingestion/serialization, orientation of variants so
exposure associations are non-negative, and per-variant ratio estimates with
delta-method variances, each working on whole columns.
"""
from __future__ import annotations

import csv
import io
import math
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import IO

import numpy as np

from .exceptions import CsvParseError, DegenerateInstrumentError

CSV_COLUMNS = ("id", "beta_x", "se_x", "beta_y", "se_y")
_VALUES = CSV_COLUMNS[1:]


@dataclass(frozen=True, init=False, eq=False, repr=False)
class SummarySet:
    """An ordered collection of variant associations, stored as columns.

    ``SummarySet(beta_x, se_x, beta_y, se_y, ids=None, harmonized=False)``
    takes four equal-length 1-d sequences; ``ids`` default to v1, v2, ....
    The set holds an ``ids`` tuple and four read-only float64 columns,
    validated once: a set has at least one variant, and the first invalid one
    raises ValueError (:func:`_first_fault`). ``harmonized`` records that every
    exposure association has been oriented to be non-negative (see
    :func:`harmonize`).
    """

    ids: tuple[str, ...]
    harmonized: bool
    _cols: tuple[np.ndarray, ...]

    def __init__(self, beta_x, se_x, beta_y, se_y, ids=None, harmonized: bool = False):
        cols = [np.array(c, dtype=float) for c in (beta_x, se_x, beta_y, se_y)]
        if len({c.shape for c in cols}) != 1 or cols[0].ndim != 1:
            raise ValueError("beta_x, se_x, beta_y, se_y must be equal-length 1-d sequences")
        j = cols[0].size
        ids = tuple(f"v{i + 1}" for i in range(j)) if ids is None else tuple(map(str, ids))
        if len(ids) != j:
            raise ValueError(f"got {len(ids)} ids for {j} variants")
        self._store(ids, cols, harmonized, check=True)

    def _store(self, ids, cols, harmonized, check: bool) -> "SummarySet":
        cols = tuple(np.asarray(c, dtype=float) for c in cols)
        for col in cols:
            col.setflags(write=False)
        # frozen: fields are set once, here, bypassing the dataclass guard
        self.__dict__.update(ids=ids, harmonized=bool(harmonized), _cols=cols)
        if check:
            if not ids:
                raise ValueError("a summary set needs at least one variant")
            fault = _first_fault(ids, cols)
            if fault is not None:
                raise ValueError(fault[1])
            if self.harmonized and np.any(cols[0] < 0.0):
                raise ValueError("harmonized set contains a negative exposure association")
        return self

    def __eq__(self, other):
        if not isinstance(other, SummarySet):
            return NotImplemented
        return (self.ids == other.ids and self.harmonized == other.harmonized
                and all(map(np.array_equal, self._cols, other._cols)))

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def j(self) -> int:
        """Number of variants."""
        return len(self.ids)

    # writable copies: changing one never alters the set
    beta_x = property(lambda self: self._cols[0].copy())
    se_x = property(lambda self: self._cols[1].copy())
    beta_y = property(lambda self: self._cols[2].copy())
    se_y = property(lambda self: self._cols[3].copy())


def _first_fault(ids, cols) -> tuple[int, str] | None:
    """Position and message of the first invalid variant; None if all are valid.

    The variant rules, checked for each variant in this order: its id is not
    an earlier variant's, its id is not empty, each value is finite (in column
    order), ``se_x > 0``, then ``se_y > 0``. The columns are checked at once,
    and a message is built only for the first faulty variant.
    """
    bad = ~np.isfinite(np.stack(cols)).all(axis=0) | (cols[1] <= 0.0) | (cols[3] <= 0.0)
    if not bad.any() and all(ids) and len(set(ids)) == len(ids):
        return None
    seen: set[str] = set()
    for k, vid in enumerate(ids):
        if vid in seen:
            return k, f"duplicate variant id {vid!r}"
        if not vid:
            return k, f"variant id must be a non-empty string, got {vid!r}"
        if bad[k]:
            values = dict(zip(_VALUES, (float(col[k]) for col in cols)))
            for name, value in values.items():
                if not math.isfinite(value):
                    return k, f"variant {vid!r}: {name} must be finite, got {value!r}"
            name = "se_x" if values["se_x"] <= 0.0 else "se_y"
            return k, f"variant {vid!r}: {name} must be > 0, got {values[name]!r}"
        seen.add(vid)
    return None


@dataclass(frozen=True)
class RatioEstimates:
    """Per-variant ratio estimates and their delta-method variances."""

    theta: np.ndarray
    variance: np.ndarray

    def __post_init__(self):
        theta = np.asarray(self.theta, dtype=float)
        variance = np.asarray(self.variance, dtype=float)
        theta.setflags(write=False)
        variance.setflags(write=False)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "variance", variance)


def harmonize(s: SummarySet) -> SummarySet:
    """Orient each variant so its exposure association is non-negative.

    Flips the sign of both associations wherever ``beta_x < 0``; a zero
    exposure association counts as positive and is left untouched. Standard
    errors are unchanged. Idempotent.
    """
    bx, se_x, by, se_y = s._cols
    flip = bx < 0.0
    # flipping keeps every column valid, so the result is stored unchecked
    return object.__new__(SummarySet)._store(
        s.ids, (np.where(flip, -bx, bx), se_x, np.where(flip, -by, by), se_y), True, False)


def ratio_estimates(s: SummarySet) -> RatioEstimates:
    """Per-variant ratio estimates beta_y / beta_x.

    The variance is the first-order delta-method value se_y**2 / beta_x**2,
    which ignores uncertainty in the exposure association. A variant with
    ``beta_x == 0``, or so close to zero that its ratio overflows, or so large
    next to ``se_y`` that its variance underflows to zero, has no ratio and
    raises :class:`DegenerateInstrumentError`.
    """
    beta_x, _, beta_y, se_y = s._cols
    zero = np.flatnonzero(beta_x == 0.0)
    if zero.size:
        raise DegenerateInstrumentError(
            f"variant {s.ids[zero[0]]!r} has a zero exposure association; no ratio estimate exists"
        )
    # an overflowing ratio raises below; an overflowing variance stays infinite
    with np.errstate(over="ignore"):
        theta = beta_y / beta_x
        variance = (se_y / beta_x) ** 2
    overflow = np.flatnonzero(~np.isfinite(theta))
    if overflow.size:
        raise DegenerateInstrumentError(
            f"variant {s.ids[overflow[0]]!r}: ratio estimate overflows; the exposure "
            "association is too close to zero"
        )
    underflow = np.flatnonzero(variance == 0.0)
    if underflow.size:
        raise DegenerateInstrumentError(
            f"variant {s.ids[underflow[0]]!r}: ratio variance underflows to zero; the "
            "exposure association is too large next to se_y"
        )
    return RatioEstimates(theta, variance)


def read_csv(source: str | Path | IO[str]) -> SummarySet:
    """Read a summary set from CSV with header ``id,beta_x,se_x,beta_y,se_y``.

    Errors carry the 1-based row number of the offending line. The header row
    must match the schema exactly (order included). A UTF-8 byte-order mark
    at the start of a file named by path is ignored.

    Two readers share the work. A seekable file named by path is first read
    block by block (:func:`_read_blocks`): numpy's C text reader splits each
    plain block of lines and converts its values with ``float``'s own
    string-to-double parse. Any input that path does not cover (a quote, a
    carriage return, a character numpy's reader strips as whitespace but
    ``float`` rejects, a block the reader rejects, an invalid variant) is
    re-read from the start by the row walker, which also reads open file
    objects and converts each value with ``float``. Both return the same set,
    and every error comes from the walker. The walker stops at the first
    wrong field count, value ``float`` rejects or field past
    ``csv.field_size_limit()``, and reports an invalid variant in the rows
    before it first.
    """
    if hasattr(source, "read"):
        return _parse_csv(source)
    with open(source, newline="", encoding="utf-8-sig") as fh:
        if fh.seekable():
            s = _read_blocks(fh)
            if s is not None:
                return s
            fh.seek(0)
        return _parse_csv(fh)


_BLOCK_CHARS = 1 << 16  # about 700 lines of 90 characters, under csv.field_size_limit()
# one CSV row: the id as a str object, then the four values
_ROW = np.dtype([("id", object)] + [(name, float) for name in _VALUES])
# a block holding one of these goes to the row walker: a quote, a carriage return, and
# the separators numpy's reader strips around a value as whitespace but float rejects
_NOT_PLAIN = ('"', "\r", "\x1c", "\x1d", "\x1e", "\x1f")


def _read_blocks(fh: IO[str]) -> SummarySet | None:
    """The plain case of :func:`read_csv`: no quotes, ``"\\n"`` line ends, five
    fields on every non-empty line, each value one numpy's reader converts and
    each variant valid; None for anything else.

    numpy's C text reader (``np.loadtxt``) splits each block of lines and
    converts its values through ``PyOS_string_to_double``, as ``float`` does,
    so the doubles are ``float``'s. A block longer than
    ``csv.field_size_limit()`` or holding one of ``_NOT_PLAIN``, and a block
    the reader rejects (a wrong field count, a bad value, or a value such as
    ``1_0`` or non-ASCII digits that ``float`` accepts), give None, and the
    row walker reads the file instead.
    """
    limit = csv.field_size_limit()
    try:
        header = fh.readline()
        if ('"' in header or "\r" in header or len(header) > limit
                or [col.strip() for col in header.split(",")] != list(CSV_COLUMNS)):
            return None
        ids: list[str] = []
        blocks: list[list[np.ndarray]] = []
        for block in _line_blocks(fh):
            if len(block) > limit or any(map(block.__contains__, _NOT_PLAIN)):
                return None
            if not block.strip("\n"):
                continue  # loadtxt warns on a block without data
            rows = np.loadtxt(io.StringIO(block), delimiter=",", dtype=_ROW, comments=None,
                              quotechar=None, ndmin=1)
            ids.extend(map(str.strip, rows["id"]))
            blocks.append([rows[name] for name in _VALUES])
    except ValueError:  # a block numpy's reader rejects, or bytes that are not UTF-8
        return None
    if not ids:
        return None
    cols = [np.concatenate(col) for col in zip(*blocks)]
    if _first_fault(ids, cols) is not None:
        return None
    return object.__new__(SummarySet)._store(tuple(ids), cols, False, check=False)


def _line_blocks(fh: IO[str]):
    # the rest of the file in pieces of about _BLOCK_CHARS that end at a line end
    carry = ""
    while chunk := fh.read(_BLOCK_CHARS):
        text = carry + chunk
        cut = text.rfind("\n") + 1
        if cut:
            yield text[:cut]
        carry = text[cut:]
    if carry:
        yield carry


def _parse_csv(fh: IO[str]) -> SummarySet:
    reader = csv.reader(fh)
    ids: list[str] = []
    lines: list[int] = []
    cols: tuple[list[float], ...] = ([], [], [], [])
    # a structural fault ends the walk; an invalid variant read before it wins
    fault = None
    try:
        header = next(reader, None)
        if header is None:
            raise CsvParseError("empty input: header row is missing")
        header = [col.strip() for col in header]
        if header != list(CSV_COLUMNS):
            missing = [c for c in CSV_COLUMNS if c not in header]
            if missing:
                raise CsvParseError(f"row 1: missing column(s) {', '.join(missing)}")
            extra = [c for c in header if c not in CSV_COLUMNS]
            if extra:
                raise CsvParseError(f"row 1: unexpected column(s) {', '.join(extra)}")
            raise CsvParseError(
                f"row 1: columns must appear in the order {','.join(CSV_COLUMNS)}"
            )
        for row in reader:
            if not row:
                continue
            if len(row) != len(CSV_COLUMNS):
                fault = (f"row {reader.line_num}: expected {len(CSV_COLUMNS)} fields, "
                         f"got {len(row)}")
                break
            try:
                for name, cell, col in zip(_VALUES, row[1:], cols):
                    col.append(float(cell))
            except ValueError:
                fault = f"row {reader.line_num}: non-numeric value {cell.strip()!r} for {name}"
                break
            ids.append(row[0].strip())
            lines.append(reader.line_num)
    except csv.Error as exc:  # a field longer than csv.field_size_limit()
        fault = f"row {reader.line_num}: {exc}"
    cols = tuple(np.array(col[:len(ids)], dtype=float) for col in cols)
    invalid = _first_fault(ids, cols)
    if invalid is not None:
        fault = f"row {lines[invalid[0]]}: {invalid[1]}"
    if fault is not None:
        raise CsvParseError(fault)
    if not ids:
        raise CsvParseError("no variants: input has a header but no data rows")
    return object.__new__(SummarySet)._store(tuple(ids), cols, False, check=False)


def write_csv(s: SummarySet, dest: str | Path | IO[str]) -> None:
    """Write a summary set as CSV; numbers round-trip through :func:`read_csv`."""
    with (nullcontext(dest) if hasattr(dest, "write")
          else open(dest, "w", newline="", encoding="utf-8")) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for vid, *values in zip(s.ids, *(col.tolist() for col in s._cols)):
            writer.writerow([vid, *map(repr, values)])
