"""Contingency tables and the correspondence model derived from them.

A contingency table is a labeled I x J matrix of nonnegative counts. All
analyses consume the derived correspondence model: the probability matrix
P = counts / n, its margins r and c, and the residual matrix R0 = P - r c'
measuring departure from row/column independence.
"""
from __future__ import annotations

import csv
import io
import math

import numpy as np

from .errors import NumericalError, ParseError, ValidationError
from .record import Record

__all__ = [
    "ContingencyTable",
    "CorrespondenceModel",
    "parse_table",
    "serialize_table",
    "validate_table",
    "build_model",
]


class ContingencyTable(Record):
    """Labeled nonnegative count matrix.

    Attributes:
        row_labels: unique labels for the I rows.
        col_labels: unique labels for the J columns.
        counts: I x J float64 array, nonnegative, read-only.
        n: grand total of all counts (strictly positive and finite; a total
            that overflows float64 raises :class:`NumericalError`).
    """

    __slots__ = ("row_labels", "col_labels", "counts", "n")

    def __init__(self, row_labels: tuple[str, ...], col_labels: tuple[str, ...], counts: np.ndarray):
        counts = np.array(counts, dtype=np.float64, copy=True)
        if counts.ndim != 2:
            raise ValidationError("counts must be a 2-D matrix")
        row_labels = tuple(str(x) for x in row_labels)
        col_labels = tuple(str(x) for x in col_labels)
        if counts.shape != (len(row_labels), len(col_labels)):
            raise ValidationError(
                f"counts shape {counts.shape} does not match "
                f"{len(row_labels)} row and {len(col_labels)} column labels"
            )
        if counts.shape[0] < 1 or counts.shape[1] < 1:
            raise ValidationError("table must have at least one row and one column")
        if not np.all(np.isfinite(counts)):
            i, j = np.argwhere(~np.isfinite(counts))[0]
            raise ValidationError(
                f"non-finite count at row '{row_labels[i]}', column '{col_labels[j]}'"
            )
        if np.any(counts < 0):
            i, j = np.argwhere(counts < 0)[0]
            raise ValidationError(
                f"negative count at row '{row_labels[i]}', column '{col_labels[j]}'"
            )
        for axis_name, labels in (("row", row_labels), ("column", col_labels)):
            seen: set[str] = set()
            for lab in labels:
                if lab in seen:
                    raise ValidationError(f"duplicate {axis_name} label '{lab}'")
                seen.add(lab)
        with np.errstate(over="ignore"):
            total = float(counts.sum())
        if not math.isfinite(total):
            raise NumericalError("table total overflows float64 (n is not finite)")
        if total <= 0.0:
            raise ValidationError("table total is zero (n = 0)")
        self._set(row_labels, col_labels, counts, total)

    @property
    def shape(self) -> tuple[int, int]:
        return self.counts.shape

    def is_integer_valued(self) -> bool:
        return bool(np.all(self.counts == np.floor(self.counts)))

    def __repr__(self) -> str:
        i, j = self.shape
        return f"ContingencyTable({i}x{j}, n={self.n:g})"


class CorrespondenceModel(Record):
    """Probability matrix, margins and independence residuals of one table.

    Invariants (established by :func:`build_model`, not checked here):
        * P sums to 1,
        * r and c are the margins of P and strictly positive,
        * every row sum and column sum of R0 is 0 up to 1e-12.
    """

    __slots__ = ("table", "P", "r", "c", "R0")

    @property
    def shape(self) -> tuple[int, int]:
        return self.P.shape

    def __repr__(self) -> str:
        i, j = self.shape
        return f"CorrespondenceModel({i}x{j}, n={self.table.n:g})"


def parse_table(csv_text: str, delimiter: str = ",") -> ContingencyTable:
    """Parse CSV text into a :class:`ContingencyTable`.

    The first row is a header holding the J column labels; its first cell
    (usually blank or ``id``) is ignored. Every following row is a row label
    followed by J numeric cells. Raises :class:`ParseError` naming the
    offending row and column on malformed CSV; the values and labels are
    checked by :class:`ContingencyTable` (:class:`ValidationError`).
    """
    try:
        reader = csv.reader(io.StringIO(csv_text), delimiter=delimiter)
        rows = [rec for rec in reader if any(cell.strip() for cell in rec)]
    except (csv.Error, TypeError) as exc:  # TypeError: delimiter not one character
        raise ParseError(f"malformed CSV: {exc}") from exc
    if not rows:
        raise ParseError("empty table: no header row found")
    header = [cell.strip() for cell in rows[0]]
    col_labels = header[1:]
    if not col_labels:
        raise ParseError("empty table: header defines no data columns")
    if len(rows) == 1:
        raise ParseError("empty table: no data rows")

    row_labels: list[str] = []
    data: list[list[float]] = []
    for line_no, rec in enumerate(rows[1:], start=2):
        label = rec[0].strip()
        cells = rec[1:]
        if len(cells) != len(col_labels):
            raise ParseError(
                f"row '{label}' (line {line_no}) has {len(cells)} cells, "
                f"expected {len(col_labels)}"
            )
        values = []
        for j, cell in enumerate(cells):
            try:
                values.append(float(cell))
            except ValueError:
                raise ParseError(
                    f"non-numeric cell '{cell.strip()}' at row '{label}', "
                    f"column '{col_labels[j]}'"
                ) from None
        row_labels.append(label)
        data.append(values)
    return ContingencyTable(tuple(row_labels), tuple(col_labels), np.array(data))


def _format_count(value: float) -> str:
    value = float(value)
    if value == int(value) and abs(value) < 2**53:
        return str(int(value))
    return repr(value)


def serialize_table(table: ContingencyTable, delimiter: str = ",") -> str:
    """Render a table as CSV text; ``parse_table`` inverts it exactly."""
    out = io.StringIO()
    writer = csv.writer(out, delimiter=delimiter, lineterminator="\n")
    writer.writerow(("",) + table.col_labels)
    for label, row in zip(table.row_labels, table.counts):
        writer.writerow((label,) + tuple(_format_count(v) for v in row))
    return out.getvalue()


def validate_table(table: ContingencyTable) -> tuple[ContingencyTable, list[str]]:
    """Remove all-zero rows and columns.

    Every all-zero line is removed and a warning naming its label is
    returned. The returned table has strictly positive margins, which every
    downstream analysis requires.
    """
    row_zero = table.counts.sum(axis=1) == 0
    col_zero = table.counts.sum(axis=0) == 0
    if not (row_zero.any() or col_zero.any()):
        return table, []
    names = [f"row '{table.row_labels[i]}'" for i in np.flatnonzero(row_zero)]
    names += [f"column '{table.col_labels[j]}'" for j in np.flatnonzero(col_zero)]
    warnings = [f"{name} dropped (all entries zero)" for name in names]
    keep_r = np.flatnonzero(~row_zero)
    keep_c = np.flatnonzero(~col_zero)
    reduced = ContingencyTable(
        tuple(table.row_labels[i] for i in keep_r),
        tuple(table.col_labels[j] for j in keep_c),
        table.counts[np.ix_(keep_r, keep_c)],
    )
    return reduced, warnings


def build_model(table: ContingencyTable) -> CorrespondenceModel:
    """Build the correspondence model (P, margins, residuals) of a table.

    The table must have no all-zero row or column (run
    :func:`validate_table` first), so that the diagonal weight matrices
    Diag(r) and Diag(c) are positive definite. A product r_i c_j of the
    independence table that underflows to zero (a line sum far too small next
    to n, which can zero a margin itself) raises :class:`NumericalError`.
    """
    counts = table.counts
    if np.any(counts.sum(axis=1) == 0) or np.any(counts.sum(axis=0) == 0):
        raise ValidationError(
            "table has an all-zero row or column; run validate_table first"
        )
    P = counts / table.n
    r = P.sum(axis=1)
    c = P.sum(axis=0)
    if r.min() * c.min() == 0.0:
        raise NumericalError("r_i c_j underflows to 0: a line sum is too small next to n")
    R0 = P - np.outer(r, c)
    return CorrespondenceModel(table=table, P=P, r=r, c=c, R0=R0)
