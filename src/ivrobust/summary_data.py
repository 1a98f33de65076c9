"""Summarized per-variant association data.

A :class:`SummarySet` holds, for each candidate instrument, the estimated
association with the exposure and with the outcome together with their
standard errors, stored as four read-only float64 columns beside an ``ids``
tuple; :class:`VariantAssociation` rows are built only on request. Routines
here cover CSV ingestion/serialization, orientation of variants so exposure
associations are non-negative, and per-variant ratio estimates with
delta-method variances, each working on whole columns.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import IO

import numpy as np

from .exceptions import CsvParseError, DegenerateInstrumentError

CSV_COLUMNS = ("id", "beta_x", "se_x", "beta_y", "se_y")
_VALUES = CSV_COLUMNS[1:]


@dataclass(frozen=True)
class VariantAssociation:
    """Summary statistics for one genetic variant.

    Parameters
    ----------
    id : str
        Variant identifier, unique within a set.
    beta_x, se_x : float
        Association with the exposure and its standard error.
    beta_y, se_y : float
        Association with the outcome and its standard error.
    """

    id: str
    beta_x: float
    se_x: float
    beta_y: float
    se_y: float

    def __post_init__(self):
        if not isinstance(self.id, str) or not self.id:
            raise ValueError(f"variant id must be a non-empty string, got {self.id!r}")
        for name in ("beta_x", "se_x", "beta_y", "se_y"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise ValueError(f"variant {self.id!r}: {name} must be finite, got {value!r}")
            object.__setattr__(self, name, value)
        if self.se_x <= 0.0:
            raise ValueError(f"variant {self.id!r}: se_x must be > 0, got {self.se_x!r}")
        if self.se_y <= 0.0:
            raise ValueError(f"variant {self.id!r}: se_y must be > 0, got {self.se_y!r}")


@dataclass(frozen=True, init=False, eq=False, repr=False)
class SummarySet:
    """An ordered collection of variant associations, stored as columns.

    ``SummarySet(variants, harmonized=False)`` unpacks
    :class:`VariantAssociation` rows once; :meth:`from_arrays` takes parallel
    sequences. Either way the set holds an ``ids`` tuple and four read-only
    float64 columns, validated once. ``harmonized`` records that every
    exposure association has been oriented to be non-negative (see
    :func:`harmonize`).
    """

    ids: tuple[str, ...]
    harmonized: bool
    _cols: tuple[np.ndarray, ...]

    def __init__(self, variants, harmonized: bool = False):
        variants = tuple(variants)
        cols = [[getattr(v, name) for v in variants] for name in _VALUES]
        self._store(tuple(v.id for v in variants), cols, harmonized, check=True)

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

    @property
    def variants(self) -> tuple[VariantAssociation, ...]:
        """The rows as :class:`VariantAssociation` objects, built on demand."""
        cols = [col.tolist() for col in self._cols]
        return tuple(VariantAssociation(*row) for row in zip(self.ids, *cols))

    # writable copies: changing one never alters the set
    beta_x = property(lambda self: self._cols[0].copy())
    se_x = property(lambda self: self._cols[1].copy())
    beta_y = property(lambda self: self._cols[2].copy())
    se_y = property(lambda self: self._cols[3].copy())

    @classmethod
    def from_arrays(cls, beta_x, se_x, beta_y, se_y, ids=None,
                    harmonized: bool = False) -> "SummarySet":
        """Build a set from parallel sequences; ids default to v1, v2, ..."""
        cols = [np.array(c, dtype=float) for c in (beta_x, se_x, beta_y, se_y)]
        if len({c.shape for c in cols}) != 1 or cols[0].ndim != 1:
            raise ValueError("beta_x, se_x, beta_y, se_y must be equal-length 1-d sequences")
        j = cols[0].size
        ids = tuple(f"v{i + 1}" for i in range(j)) if ids is None else tuple(map(str, ids))
        if len(ids) != j:
            raise ValueError(f"got {len(ids)} ids for {j} variants")
        return object.__new__(cls)._store(ids, cols, harmonized, check=True)


def _first_fault(ids, cols) -> tuple[int, str] | None:
    # position and message of the first invalid variant: a repeated id first,
    # then the checks of VariantAssociation in its order; None if all valid
    bad = ~np.isfinite(np.stack(cols)).all(axis=0) | (cols[1] <= 0.0) | (cols[3] <= 0.0)
    if not bad.any() and all(ids) and len(set(ids)) == len(ids):
        return None
    seen: set[str] = set()
    for k, vid in enumerate(ids):
        if vid in seen:
            return k, f"duplicate variant id {vid!r}"
        if bad[k] or not vid:
            try:
                VariantAssociation(vid, *(float(col[k]) for col in cols))
            except ValueError as exc:
                return k, str(exc)
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
    must match the schema exactly (order included).
    """
    if hasattr(source, "read"):
        return _parse_csv(source)
    with open(source, newline="", encoding="utf-8") as fh:
        return _parse_csv(fh)


def _parse_csv(fh: IO[str]) -> SummarySet:
    reader = csv.reader(fh)
    try:
        header = next(reader)
    except StopIteration:
        raise CsvParseError("empty input: header row is missing") from None
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
    ids: list[str] = []
    lines: list[int] = []
    cols: tuple[list[float], ...] = ([], [], [], [])
    for row in reader:
        row_num = reader.line_num
        if not row:
            continue
        if len(row) != len(CSV_COLUMNS):
            _check_rows(ids, cols, lines)
            raise CsvParseError(
                f"row {row_num}: expected {len(CSV_COLUMNS)} fields, got {len(row)}")
        for name, cell, col in zip(_VALUES, row[1:], cols):
            try:
                col.append(float(cell))
            except ValueError:
                _check_rows(ids, cols, lines)
                raise CsvParseError(
                    f"row {row_num}: non-numeric value {cell.strip()!r} for {name}"
                ) from None
        ids.append(row[0].strip())
        lines.append(row_num)
    if not ids:
        raise CsvParseError("no variants: input has a header but no data rows")
    cols = tuple(np.array(col) for col in cols)
    _check_rows(ids, cols, lines)
    return object.__new__(SummarySet)._store(tuple(ids), cols, False, check=False)


def _check_rows(ids, cols, lines) -> None:
    # the first invalid row of those fully read, as a row-by-row check finds it
    fault = _first_fault(ids, [np.asarray(col[:len(ids)], dtype=float) for col in cols])
    if fault is not None:
        raise CsvParseError(f"row {lines[fault[0]]}: {fault[1]}")


def write_csv(s: SummarySet, dest: str | Path | IO[str]) -> None:
    """Write a summary set as CSV; numbers round-trip through :func:`read_csv`."""
    if hasattr(dest, "write"):
        _write_csv(s, dest)
        return
    with open(dest, "w", newline="", encoding="utf-8") as fh:
        _write_csv(s, fh)


def _write_csv(s: SummarySet, fh: IO[str]) -> None:
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for vid, *values in zip(s.ids, *(col.tolist() for col in s._cols)):
        writer.writerow([vid, *map(repr, values)])
