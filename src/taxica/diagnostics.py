"""Decomposition diagnostics: contributions, explained variation, invariant
checks, and CA-vs-TCA map comparison.

Contributions are reported in the conventional per-1000 units. In CA the
contribution of a point to an axis is its share of the squared dispersion, so
each side of each axis sums to 1000. In TCA contributions are signed shares
of the dispersion itself; equivariability makes the positive parts of each
side sum to +500 and the negative parts to -500, so a single point saturates
its axis influence at |SC| = 500.
"""
from __future__ import annotations

import math

import numpy as np

from .ca import Decomposition
from .errors import NumericalError, ValidationError
from .record import Record, ValueRecord

__all__ = [
    "ContributionTable",
    "SimilarityReport",
    "CheckResult",
    "VerificationReport",
    "contributions",
    "explained_variation",
    "ca_balance",
    "verify",
    "map_similarity",
]

#: Most axes ``map_similarity`` matches: the search tries all k! pairings.
MAX_MATCHED_AXES = 9


class ContributionTable(Record):
    """Per-1000 contributions: ``row_values`` is I x k and ``col_values`` is
    J x k; rows of each array follow the table's labels, columns follow the
    decomposition's axes."""

    __slots__ = ("method", "row_values", "col_values")


class CheckResult(ValueRecord):
    __slots__ = ("name", "max_residual", "tolerance", "passed", "applicable", "note")
    _defaults = {"applicable": True, "note": ""}


class VerificationReport(ValueRecord):
    __slots__ = ("method", "checks")

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks if c.applicable)


class SimilarityReport(ValueRecord):
    """Axis-by-axis congruence between two decompositions of one table.

    ``phis[a]`` is the absolute weighted cosine between row coordinates of
    the first decomposition's axis a and its paired axis ``pairing[a]`` of
    the second (0-based); the pairing maximizes total congruence. Congruence
    is insensitive to per-axis sign flips by construction. ``verdict`` is
    "similar", "partial" or "dissimilar".
    """

    __slots__ = ("phis", "pairing", "verdict", "threshold")


def _require_axes(decomp: Decomposition) -> None:
    if not decomp.axes:
        raise ValidationError("decomposition has no axes (all dispersions zero)")


def contributions(decomp: Decomposition) -> ContributionTable:
    """Per-1000 contributions of every row and column to every axis.

    CA: C(i) = 1000 r_i f_i^2 / sigma^2 (and with c_j, g_j for columns);
    TCA: SC(i) = 1000 r_i f_i / sigma, keeping the side of the axis.
    """
    _require_axes(decomp)
    r, c = decomp.model.r, decomp.model.c
    rows, cols = [], []
    for axis in decomp.axes:
        if axis.sigma <= 0:
            raise ValidationError("contributions are undefined for a zero-dispersion axis")
        if decomp.method == "CA":
            rows.append(1000.0 * r * axis.f**2 / axis.sigma**2)
            cols.append(1000.0 * c * axis.g**2 / axis.sigma**2)
        else:
            rows.append(1000.0 * r * axis.f / axis.sigma)
            cols.append(1000.0 * c * axis.g / axis.sigma)
    return ContributionTable(
        method=decomp.method,
        row_values=np.array(rows).T,
        col_values=np.array(cols).T,
    )


def explained_variation(decomp: Decomposition) -> np.ndarray:
    """Percent of total variation carried by each axis; sums to 100.

    Both methods report squared-dispersion shares, 100 sigma_a^2 / sum_b
    sigma_b^2, computed over the decomposition's axes. Pass a full-rank
    decomposition to make the denominator the table's total variation.
    """
    _require_axes(decomp)
    s2 = decomp.sigmas ** 2
    total = s2.sum()
    if total == 0.0:
        raise NumericalError("squared dispersions underflow to 0; their shares are undefined")
    return 100.0 * s2 / total


def ca_balance(decomp: Decomposition) -> list[tuple[float, float]]:
    """Per axis, the positive-side mass sums (A, B) of rows and columns.

    A = sum of r_i f_i over f_i > 0 and B likewise for columns; centering
    makes each the negative of its own negative side. In TCA both equal
    sigma/2 (equivariability); in CA they are reported unequal as observed,
    since CA ties neither to the dispersion.
    """
    _require_axes(decomp)
    r, c = decomp.model.r, decomp.model.c
    out = []
    for axis in decomp.axes:
        a = float(np.sum(r[axis.f > 0] * axis.f[axis.f > 0]))
        b = float(np.sum(c[axis.g > 0] * axis.g[axis.g > 0]))
        out.append((a, b))
    return out


def _reconstruction_residual(decomp: Decomposition) -> float:
    model = decomp.model
    expansion = np.ones_like(model.P)
    for axis in decomp.axes:
        expansion = expansion + np.outer(axis.f, axis.g) / axis.sigma
    p_hat = np.outer(model.r, model.c) * expansion
    return float(np.max(np.abs(model.P - p_hat)))


def verify(decomp: Decomposition) -> VerificationReport:
    """Check every structural identity of a decomposition.

    Failures are report entries, never exceptions. The reconstruction
    identity needs every numerically nonzero axis, so it is marked not
    applicable on truncated decompositions.
    """
    model = decomp.model
    r, c = model.r, model.c
    axes = decomp.axes
    sig = decomp.sigmas
    checks: list[CheckResult] = []

    def add(name: str, residual: float, tol: float, applicable: bool = True, note: str = "") -> None:
        checks.append(
            CheckResult(
                name=name,
                max_residual=float(residual),
                tolerance=tol,
                passed=bool(residual <= tol) or not applicable,
                applicable=applicable,
                note=note,
            )
        )

    centering = 0.0
    for axis in axes:
        centering = max(centering, abs(float(r @ axis.f)), abs(float(c @ axis.g)))
    add("centering", centering, 1e-10)

    # Monotone dispersions are an eigenvalue property; L1 deflation does not
    # guarantee them (the deflated residual's optimum can exceed the previous
    # axis), so the ordering claim applies to CA only.
    ordering = 0.0
    if len(axes) > 1:
        ordering = max(0.0, float(np.max(sig[1:] - sig[:-1])))
    if decomp.method == "CA":
        add("axes-ordering", ordering, 1e-9)
    else:
        add(
            "axes-ordering", ordering, 1e-9, applicable=False,
            note="informational: deflation order, monotonicity not guaranteed",
        )

    if decomp.method == "CA":
        norms = 0.0
        ortho = 0.0
        transition = 0.0
        for a, axis in enumerate(axes):
            norms = max(
                norms,
                abs(float(axis.f @ (r * axis.f)) - axis.sigma**2),
                abs(float(axis.g @ (c * axis.g)) - axis.sigma**2),
            )
            for b in range(a + 1, len(axes)):
                ortho = max(
                    ortho,
                    abs(float(axis.f @ (r * axes[b].f))),
                    abs(float(axis.g @ (c * axes[b].g))),
                )
            f_from_g = (model.P @ axis.g) / r / axis.sigma
            g_from_f = (model.P.T @ axis.f) / c / axis.sigma
            transition = max(
                transition,
                float(np.max(np.abs(f_from_g - axis.f))),
                float(np.max(np.abs(g_from_f - axis.g))),
            )
        add("l2-norms", norms, 1e-9)
        add("orthogonality", ortho, 1e-9)
        add("transition", transition, 1e-9)
        sigma_range = max(0.0, float(sig.max(initial=0.0)) - 1.0, -float(sig.min(initial=0.0)))
        add("sigma-range", sigma_range, 1e-9)
    else:
        norms = 0.0
        equi = 0.0
        for axis in axes:
            norms = max(
                norms,
                abs(float(np.sum(r * np.abs(axis.f))) - axis.sigma),
                abs(float(np.sum(c * np.abs(axis.g))) - axis.sigma),
            )
            half = axis.sigma / 2.0
            pos_f = float(np.sum(r[axis.f > 0] * axis.f[axis.f > 0]))
            neg_f = -float(np.sum(r[axis.f < 0] * axis.f[axis.f < 0]))
            pos_g = float(np.sum(c[axis.g > 0] * axis.g[axis.g > 0]))
            neg_g = -float(np.sum(c[axis.g < 0] * axis.g[axis.g < 0]))
            equi = max(equi, *(abs(x - half) for x in (pos_f, neg_f, pos_g, neg_g)))
        add("l1-norms", norms, 1e-9)
        add("equivariability", equi, 1e-9)

        conj = 0.0
        for b in range(len(axes)):
            for a in range(b + 1, len(axes)):
                conj = max(
                    conj,
                    abs(float(axes[a].f @ (r * axes[b].v))),
                    abs(float(axes[a].g @ (c * axes[b].u))),
                )
        add("conjugacy", conj, 1e-9)

        quad = 0.0
        for axis, R in zip(axes, decomp._replay()):
            u_pos, u_neg = (axis.u + 1.0) / 2.0, (axis.u - 1.0) / 2.0
            v_pos, v_neg = (axis.v + 1.0) / 2.0, (axis.v - 1.0) / 2.0
            quarter = axis.sigma / 4.0
            quad = max(
                quad,
                abs(float(v_pos @ R @ u_pos) - quarter),
                abs(float(v_neg @ R @ u_neg) - quarter),
                abs(abs(float(v_neg @ R @ u_pos)) - quarter),
                abs(abs(float(v_pos @ R @ u_neg)) - quarter),
            )
        add("quadrant-balance", quad, 1e-9)

    if decomp.is_full_rank:
        add("reconstruction", _reconstruction_residual(decomp), 1e-9)
    else:
        add(
            "reconstruction", 0.0, 1e-9, applicable=False,
            note="decomposition is truncated; identity needs all nonzero axes",
        )
    return VerificationReport(method=decomp.method, checks=tuple(checks))


def _permutations(k: int) -> np.ndarray:
    """All k! permutations of range(k) as uint8 rows, in lexicographic order.

    Row block c of the table for k starts with c and continues with the
    table for k - 1 relabelled to skip c, so the rows ascend."""
    perms = np.zeros((1, 0), dtype=np.uint8)
    for n in range(1, k + 1):
        rest = perms + (perms >= np.arange(n, dtype=np.uint8)[:, None, None])
        head = np.repeat(np.arange(n, dtype=np.uint8), len(perms))[:, None]
        perms = np.hstack((head, rest.reshape(len(head), n - 1)))
    return perms


def _best_pairing(phi: np.ndarray) -> tuple[int, ...]:
    """The permutation p maximizing sum_a phi[a, p[a]], lexicographically
    first among equal sums.

    All k! sums are accumulated left to right over a, in the order Python's
    sum() adds them, so float ties fall as in a brute-force max() over
    itertools.permutations; argmax keeps the first maximum."""
    k = len(phi)
    perms = _permutations(k)
    total = phi[0][perms[:, 0]]
    for a in range(1, k):
        total += phi[a][perms[:, a]]
    return tuple(int(b) for b in perms[int(np.argmax(total))])


def map_similarity(
    d1: Decomposition,
    d2: Decomposition,
    axes: int,
    threshold: float = 0.9,
) -> SimilarityReport:
    """Compare the row maps of two decompositions of the same table.

    Congruence of a pair of axes is |f1' Dr f2| / (||f1||_Dr ||f2||_Dr).
    The first ``axes`` axes of each side are matched one-to-one so that total
    congruence is maximal. Verdict: "similar" when every paired congruence
    reaches ``threshold``, "dissimilar" when none does, "partial" otherwise.
    More than ``MAX_MATCHED_AXES`` axes or a non-finite ``threshold`` raise
    :class:`ValidationError`.
    """
    if not math.isfinite(threshold):
        raise ValidationError(f"threshold={threshold} is not finite")
    if axes > MAX_MATCHED_AXES:
        raise ValidationError(
            f"axes={axes} would search {axes}! = {math.factorial(axes)} pairings; "
            f"at most {MAX_MATCHED_AXES} axes ({math.factorial(MAX_MATCHED_AXES)} pairings) are matched"
        )
    if d1.model.shape != d2.model.shape or not np.allclose(
        d1.model.P, d2.model.P, rtol=0.0, atol=1e-12
    ):
        raise ValidationError("decompositions do not come from the same table")
    if axes < 1 or axes > min(d1.rank_used, d2.rank_used):
        raise ValidationError(
            f"axes={axes} out of range 1..{min(d1.rank_used, d2.rank_used)}"
        )
    r = d1.model.r

    def congruence(f1: np.ndarray, f2: np.ndarray) -> float:
        num = abs(float(np.sum(r * f1 * f2)))
        den = np.sqrt(float(np.sum(r * f1**2)) * float(np.sum(r * f2**2)))
        return num / den if den > 0 else 0.0

    phi = np.array(
        [
            [congruence(d1.axes[a].f, d2.axes[b].f) for b in range(axes)]
            for a in range(axes)
        ]
    )
    best_perm = _best_pairing(phi)
    phis = tuple(float(phi[a][best_perm[a]]) for a in range(axes))
    hits = sum(1 for value in phis if value >= threshold)
    verdict = "similar" if hits == axes else ("partial" if hits > 0 else "dissimilar")
    return SimilarityReport(
        phis=phis, pairing=tuple(best_perm), verdict=verdict, threshold=threshold
    )
