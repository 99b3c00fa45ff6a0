"""Reduction of a table to the minimal representative of its equivalence class.

Two rows (or columns) with proportional entries carry the same profile, and
merging them changes neither CA nor TCA results (Nishisato's principle of
equivalent partitioning, which generalizes distributional equivalence).
Repeatedly merging proportional lines terminates in a unique smallest table,
the minimal representative; its sparsity summary is the one that
characterizes the whole equivalence class.
"""
from __future__ import annotations

import numpy as np

from .errors import NumericalError, ValidationError
from .record import Record, ValueRecord
from .table import ContingencyTable

__all__ = ["MergeStep", "ReductionTrace", "proportional", "reduce_to_minimal", "apply_grouping"]

#: Relative difference up to which two lines count as proportional.
PROPORTIONAL_TOL = 1e-9


class MergeStep(ValueRecord):
    """One merge of proportional lines; ``axis`` is "row" or "col", and the
    indices refer to the original table."""

    __slots__ = ("axis", "merged_indices", "new_label")


class ReductionTrace(Record):
    """Full provenance of a reduction.

    ``row_groups`` and ``col_groups`` partition the original row and column
    indices; entry (i, j) of ``minimal`` is the sum of the original entries
    over ``row_groups[i] x col_groups[j]``.
    """

    __slots__ = ("original", "minimal", "steps", "row_groups", "col_groups")

    @property
    def is_already_minimal(self) -> bool:
        return not self.steps


def _check_cross_products(max_abs: float, max_sum: float) -> None:
    """Refuse lines whose cross-products in ``_proportional_to`` overflow.

    Every cross-product is a line sum times an entry, so it is bounded by
    ``max_abs * max_sum``. Past the float range the products become inf and
    ``inf <= tol * inf`` would call lines with disjoint support proportional.
    """
    if not np.isfinite(max_abs * max_sum):
        raise NumericalError(
            "proportionality test overflows: largest entry times largest line sum "
            f"({max_abs:.6g} * {max_sum:.6g}) exceeds the float range; rescale the table"
        )


def _proportional_to(line, line_sum, others, other_sums, tol: float) -> np.ndarray:
    """Which rows of ``others`` are proportional to ``line``.

    Cross-multiplies, (sum other) * line against (sum line) * other, and
    allows each elementwise difference ``tol`` relative to the larger of the
    two sides. Returns one boolean per row of ``others``. Every comparison
    is elementwise, so the answer for a pair does not depend on how many
    rows are tested at once.
    """
    lhs = other_sums[:, None] * line
    rhs = line_sum * others
    return np.all(np.abs(lhs - rhs) <= tol * np.maximum(np.abs(lhs), np.abs(rhs)), axis=1)


def proportional(x, y, tol: float = PROPORTIONAL_TOL) -> bool:
    """Test whether two nonnegative vectors are proportional.

    Uses cross-multiplication, (sum y) * x == (sum x) * y, so that integer
    inputs compare exactly with ``tol=0`` and no profile division is needed.
    Each elementwise difference is allowed ``tol`` relative to the larger of
    the two sides. Raises :class:`ValidationError` on a zero-sum vector.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValidationError("vectors must be one-dimensional and of equal length")
    sx = float(x.sum())
    sy = float(y.sum())
    if sx <= 0 or sy <= 0:
        raise ValidationError("proportionality is undefined for zero-sum vectors")
    _check_cross_products(float(max(np.abs(x).max(), np.abs(y).max())), max(sx, sy))
    return bool(_proportional_to(x, sx, y[None, :], np.array([sy]), tol)[0])


def _proportional_groups(lines: np.ndarray, tol: float) -> list[list[int]]:
    """Partition line indices by transitive proportionality.

    Line i is tested against all lines after it in one vectorized call, and
    every hit joins a union-find whose roots are the smallest index of their
    group. The grouping derives from the full pairwise relation, so it does
    not depend on evaluation order.
    """
    m = lines.shape[0]
    parent = list(range(m))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    sums = lines.sum(axis=1)
    _check_cross_products(float(np.abs(lines).max()), float(sums.max()))
    for i in range(m - 1):
        near = _proportional_to(lines[i], sums[i], lines[i + 1:], sums[i + 1:], tol)
        for j in (np.flatnonzero(near) + (i + 1)).tolist():
            ri, rj = find(i), find(j)
            if ri != rj:
                parent[max(ri, rj)] = min(ri, rj)

    groups: dict[int, list[int]] = {}
    for i in range(m):
        groups.setdefault(find(i), []).append(i)
    return [groups[k] for k in sorted(groups)]


def _joined(labels: tuple[str, ...], members) -> str:
    """Label of a merged line: its members' original labels joined by "+"."""
    return "+".join(labels[i] for i in members)


def _merge_pass(lines: np.ndarray, groups: list[list[int]], axis: str, labels, steps: list):
    """Sum each class of proportional rows of ``lines`` into one row.

    ``groups[i]`` holds the original indices behind row i. Returns the new
    lines and groups, and appends one :class:`MergeStep` per merged class
    to ``steps``; ``lines`` and ``groups`` come back as given when no two
    rows are proportional.
    """
    classes = _proportional_groups(lines, PROPORTIONAL_TOL)
    if len(classes) == len(groups):
        return lines, groups
    merged_groups = []
    for cls in classes:
        members = sorted(idx for cur in cls for idx in groups[cur])
        merged_groups.append(members)
        if len(cls) > 1:
            steps.append(MergeStep(axis, tuple(members), _joined(labels, members)))
    return np.array([lines[cls].sum(axis=0) for cls in classes]), merged_groups


def reduce_to_minimal(table: ContingencyTable) -> ReductionTrace:
    """Merge proportional lines until no two rows or columns are proportional.

    Alternates full row passes and column passes (a row pass over the
    transposed table) until a fixed point: merging rows can make columns
    proportional and vice versa. Within a pass all groups merge at once; a
    merged line is labeled by joining its members' original labels with
    "+". The grand total n is preserved and the result is unique up to the
    ordering induced by the original table.
    """
    counts = table.counts
    if np.any(counts.sum(axis=1) == 0) or np.any(counts.sum(axis=0) == 0):
        raise ValidationError("table has an all-zero line; run validate_table first")

    work = counts.copy()
    row_groups: list[list[int]] = [[i] for i in range(table.shape[0])]
    col_groups: list[list[int]] = [[j] for j in range(table.shape[1])]
    steps: list[MergeStep] = []
    while True:
        shape = work.shape
        work, row_groups = _merge_pass(work, row_groups, "row", table.row_labels, steps)
        work, col_groups = _merge_pass(work.T, col_groups, "col", table.col_labels, steps)
        work = work.T
        if work.shape == shape:
            break

    minimal = ContingencyTable(
        tuple(_joined(table.row_labels, g) for g in row_groups),
        tuple(_joined(table.col_labels, g) for g in col_groups),
        work,
    )
    return ReductionTrace(
        original=table,
        minimal=minimal,
        steps=tuple(steps),
        row_groups=tuple(tuple(g) for g in row_groups),
        col_groups=tuple(tuple(g) for g in col_groups),
    )


def _index(i, name: str) -> int:
    """``i`` as a Python int; anything but a Python or NumPy integer, bools
    included, raises :class:`ValidationError`."""
    if isinstance(i, bool) or not isinstance(i, (int, np.integer)):
        raise ValidationError(f"{name} index {i!r} is not an integer")
    return int(i)


def apply_grouping(table: ContingencyTable, row_groups, col_groups) -> ContingencyTable:
    """Re-apply a saved partition, summing each group into one line.

    Both arguments must partition the row and column index ranges exactly;
    overlapping or incomplete partitions, empty groups and indices that are
    not integers raise :class:`ValidationError`.
    """
    I, J = table.shape
    row_groups = [sorted(_index(i, "row") for i in g) for g in row_groups]
    col_groups = [sorted(_index(j, "column") for j in g) for g in col_groups]
    for name, groups, size in (("row", row_groups, I), ("column", col_groups, J)):
        flat = sorted(i for g in groups for i in g)
        if flat != list(range(size)):
            raise ValidationError(f"{name} groups are not a partition of 0..{size - 1}")
        if [] in groups:
            raise ValidationError(f"{name} group {groups.index([])} is empty")
    grouped_rows = np.array([table.counts[g].sum(axis=0) for g in row_groups])
    grouped = np.array([grouped_rows[:, g].sum(axis=1) for g in col_groups]).T
    return ContingencyTable(
        tuple(_joined(table.row_labels, g) for g in row_groups),
        tuple(_joined(table.col_labels, g) for g in col_groups),
        grouped,
    )
