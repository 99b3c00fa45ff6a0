"""Sparsity summaries and classification of contingency tables.

The 7-number summary of a table combines the mean count per cell, the
percentage of zero cells, and Tukey's 5-number summary (min, Q1, median, Q3,
max) of the batch of positive counts. Classification is meaningful on the
minimal representative of the table's equivalence class, where merging has
already absorbed duplicated profiles.
"""
from __future__ import annotations

import enum

import numpy as np

from .errors import ValidationError
from .record import ValueRecord
from .table import ContingencyTable

__all__ = [
    "SparsitySummary",
    "SparsityLevel",
    "SparsityClass",
    "five_number",
    "seven_number",
    "zero_percentage_bound",
    "classify",
]


class SparsityLevel(enum.Enum):
    NON_SPARSE = "non_sparse"
    SPARSE = "sparse"
    EXTREMELY_SPARSE = "extremely_sparse"
    SPARSEST = "sparsest"


class SparsityClass(ValueRecord):
    __slots__ = ("level", "rationale")


class SparsitySummary(ValueRecord):
    """7-number sparsity summary of one table.

    ``mh1`` is the (min, Q1, median, Q3, max) summary of the positive counts;
    ``bound`` is the largest zero percentage any minimal table of this shape
    can attain, 100 * (1 - 1/min(I, J)).
    """

    __slots__ = ("ave", "pct_zero", "mh1", "bound", "size")


def _value_at_depth(sorted_batch: np.ndarray, depth: float) -> float:
    # Depth counts from 1; a fractional depth d.5 averages the two neighbors.
    lo = int(np.floor(depth)) - 1
    hi = int(np.ceil(depth)) - 1
    return 0.5 * (float(sorted_batch[lo]) + float(sorted_batch[hi]))


def five_number(batch, method: str = "hinges") -> tuple[float, float, float, float, float]:
    """(min, Q1, median, Q3, max) of a nonempty batch of positive values.

    With ``method="hinges"`` the quartiles are Tukey's hinges: the median sits
    at depth (m+1)/2 of the sorted batch and each hinge at depth
    (floor((m+1)/2) + 1)/2 from its own end, averaging two neighbors when the
    depth is fractional. ``method="interpolated"`` instead interpolates
    linearly at position 1 + p*(m-1).
    """
    xs = np.sort(np.asarray(batch, dtype=np.float64).ravel())
    if xs.size == 0:
        raise ValidationError("five_number of an empty batch")
    if method == "interpolated":
        q1, med, q3 = np.quantile(xs, [0.25, 0.5, 0.75], method="linear").tolist()
        return float(xs[0]), q1, med, q3, float(xs[-1])
    if method != "hinges":
        raise ValueError(f"unknown quantile method {method!r}")
    m = xs.size
    median = _value_at_depth(xs, (m + 1) / 2)
    hinge_depth = (np.floor((m + 1) / 2) + 1) / 2
    q1 = _value_at_depth(xs, hinge_depth)
    q3 = _value_at_depth(xs[::-1], hinge_depth)
    return float(xs[0]), q1, median, q3, float(xs[-1])


def zero_percentage_bound(n_rows: int, n_cols: int) -> float:
    """Largest zero percentage attainable by a minimal table of this shape.

    A minimal I x J table keeps at least one nonzero per line and, once rows
    and columns are permuted, at least min(I, J) structurally distinct nonzero
    cells, so at most 100 * (1 - 1/min(I, J)) percent of its cells are zero.
    The bound is attained exactly by diagonal tables.
    """
    if n_rows < 1 or n_cols < 1:
        raise ValidationError("table dimensions must be at least 1x1")
    return 100.0 * (1.0 - 1.0 / min(n_rows, n_cols))


def seven_number(table: ContingencyTable, method: str = "hinges") -> SparsitySummary:
    """7-number sparsity summary (ave, %zero, MH1) of a table."""
    counts = table.counts
    cells = counts.size
    positives = counts[counts > 0]
    return SparsitySummary(
        ave=float(table.n / cells),
        pct_zero=100.0 * float(np.count_nonzero(counts == 0)) / cells,
        mh1=five_number(positives, method=method),
        bound=zero_percentage_bound(*table.shape),
        size=table.shape,
    )


#: Gap to the zero-percentage bound (in points) below which a table counts
#: as extremely sparse. Calibrated on published abundance tables: a 266x220
#: vegetation table with a 3.2-point gap is extremely sparse, while a 796x7
#: text table with a 40.7-point gap is merely sparse.
NEAR_BOUND_GAP = 5.0

_SMALL_Q1 = 2.0
_SMALL_MEDIAN = 5.0


def classify(minimal_summary: SparsitySummary) -> SparsityClass:
    """Classify a table from the summary of its minimal representative.

    sparsest         zero percentage attains the bound for the shape
    extremely_sparse within NEAR_BOUND_GAP points of the bound, and the
                     positive counts are small (Q1 <= 2 and median <= 5)
    sparse           small positive counts (Q1 <= 2 and median <= 5)
    non_sparse       otherwise

    The bound levels need min(I, J) >= 2: every one-line table attains its 0% bound.
    """
    s = minimal_summary
    _, q1, median, _, _ = s.mh1
    gap = s.bound - s.pct_zero if min(s.size) >= 2 else np.inf
    small_counts = q1 <= _SMALL_Q1 and median <= _SMALL_MEDIAN
    if abs(gap) <= 1e-9:
        return SparsityClass(
            SparsityLevel.SPARSEST,
            f"zero percentage {s.pct_zero:.4f}% attains the bound "
            f"{s.bound:.4f}% for a {s.size[0]}x{s.size[1]} table",
        )
    if gap <= NEAR_BOUND_GAP and small_counts:
        return SparsityClass(
            SparsityLevel.EXTREMELY_SPARSE,
            f"zero percentage {s.pct_zero:.4f}% is within {NEAR_BOUND_GAP:g} points "
            f"of the bound {s.bound:.4f}%, with Q1={q1:g} <= 2 and median={median:g} <= 5",
        )
    if small_counts:
        return SparsityClass(
            SparsityLevel.SPARSE,
            f"Q1={q1:g} <= 2 and median={median:g} <= 5",
        )
    return SparsityClass(
        SparsityLevel.NON_SPARSE,
        f"positive counts are not small: Q1={q1:g}, median={median:g}",
    )
