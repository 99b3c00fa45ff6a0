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


def _columns(decomp: Decomposition, field: str) -> np.ndarray:
    """Every axis's ``field`` vector as one column: I x k for f, v; J x k for g, u."""
    n = decomp.model.shape[field in ("g", "u")]
    return np.array([getattr(axis, field) for axis in decomp.axes]).reshape(-1, n).T


def _side_masses(w: np.ndarray, X: np.ndarray) -> np.ndarray:
    """The w-weighted sums of each column's positive (row 0) and negative (row 1) entries."""
    return np.array([np.einsum("i,ia->a", w, np.where(keep, X, 0.0)) for keep in (X > 0, X < 0)])


def _max_abs(*residuals: np.ndarray) -> float:
    """Largest |entry| over all the arrays, 0.0 if they are empty; NaN propagates."""
    return float(np.max([np.max(np.abs(x), initial=0.0) for x in residuals], initial=0.0))


def contributions(decomp: Decomposition) -> ContributionTable:
    """Per-1000 contributions of every row and column to every axis.

    CA: C(i) = 1000 r_i f_i^2 / sigma^2 (and with c_j, g_j for columns);
    TCA: SC(i) = 1000 r_i f_i / sigma, keeping the side of the axis.
    """
    _require_axes(decomp)
    if np.any(decomp.sigmas <= 0):
        raise ValidationError("contributions are undefined for a zero-dispersion axis")
    F, G, sig = _columns(decomp, "f"), _columns(decomp, "g"), decomp.sigmas
    if decomp.method == "CA":
        # Python's float power, not x * x: the two differ in the last bit
        # for about one value in a thousand, and these digits are printed.
        F, G, sig = F**2, G**2, np.array([axis.sigma**2 for axis in decomp.axes])
    r, c = decomp.model.r[:, None], decomp.model.c[:, None]
    return ContributionTable(
        method=decomp.method,
        row_values=1000.0 * r * F / sig,
        col_values=1000.0 * c * G / sig,
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
    a = _side_masses(decomp.model.r, _columns(decomp, "f"))[0]
    b = _side_masses(decomp.model.c, _columns(decomp, "g"))[0]
    return list(zip(a.tolist(), b.tolist()))


def verify(decomp: Decomposition) -> VerificationReport:
    """Check every structural identity of a decomposition.

    Failures are report entries, never exceptions. The reconstruction
    identity needs every numerically nonzero axis, so it is marked not
    applicable on truncated decompositions.

    Each identity is checked over all axes at once, with the axes' f, g, u,
    v as the columns of F, G, U, V. CA: the diagonal of the Grams F' Dr F
    and G' Dc G checks the l2-norms, their strict upper triangle
    orthogonality. TCA: the strict lower triangle of F' Dr V and G' Dc U
    checks conjugacy, axis a against the sign vectors of each earlier axis
    b < a. Every product is an ``np.einsum``, which sums in an order fixed
    by numpy, not by the BLAS kernel or thread count.
    """
    P, r, c = decomp.model.P, decomp.model.r, decomp.model.c
    sig = decomp.sigmas
    F, G = _columns(decomp, "f"), _columns(decomp, "g")
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

    sides = ((r, F), (c, G))
    add("centering", _max_abs(*(np.einsum("i,ia->a", w, X) for w, X in sides)), 1e-10)

    # Monotone dispersions are an eigenvalue property; L1 deflation does not
    # guarantee them (the deflated residual's optimum can exceed the previous
    # axis), so the ordering claim applies to CA only.
    ordering = float(np.max(sig[1:] - sig[:-1], initial=0.0))
    if decomp.method == "CA":
        add("axes-ordering", ordering, 1e-9)
    else:
        add(
            "axes-ordering", ordering, 1e-9, applicable=False,
            note="informational: deflation order, monotonicity not guaranteed",
        )

    if decomp.method == "CA":
        grams = [np.einsum("ia,ib->ab", X, w[:, None] * X) for w, X in sides]
        add("l2-norms", _max_abs(*(np.diag(gram) - sig**2 for gram in grams)), 1e-9)
        add("orthogonality", _max_abs(*(np.triu(gram, 1) for gram in grams)), 1e-9)
        f_from_g = np.einsum("ij,ja->ia", P, G) / r[:, None] / sig
        g_from_f = np.einsum("ij,ia->ja", P, F) / c[:, None] / sig
        add("transition", _max_abs(f_from_g - F, g_from_f - G), 1e-9)
        add("sigma-range", _max_abs(np.clip(sig, 0.0, 1.0) - sig), 1e-9)
    else:
        masses = np.array([_side_masses(w, X) for w, X in sides])  # side, sign, axis
        add("l1-norms", _max_abs(masses[:, 0] - masses[:, 1] - sig), 1e-9)
        add("equivariability", _max_abs(np.abs(masses) - sig / 2.0), 1e-9)
        signs = (_columns(decomp, "v"), _columns(decomp, "u"))
        conj = [np.einsum("ia,ib->ab", X, w[:, None] * S) for (w, X), S in zip(sides, signs)]
        add("conjugacy", _max_abs(*(np.tril(m, -1) for m in conj)), 1e-9)

        quad = []
        for axis, R in zip(decomp.axes, decomp._replay()):
            # Q[s, t] = v_s' R u_t over the halves (x + 1) / 2 (s = 0) and (x - 1) / 2
            # (s = 1) of each sign vector x: sigma/4 on the diagonal, -sigma/4 off it.
            U, V = (np.stack((x + 1.0, x - 1.0), axis=1) / 2.0 for x in (axis.u, axis.v))
            Q = np.einsum("ia,ib->ab", V, np.einsum("ij,jb->ib", R, U))
            quad += [np.diag(Q) - axis.sigma / 4.0, np.abs(np.diag(Q[::-1])) - axis.sigma / 4.0]
        add("quadrant-balance", _max_abs(*quad), 1e-9)

    if decomp.is_full_rank:
        p_hat = np.outer(r, c) * (1.0 + np.einsum("ia,ja->ij", F / sig, G))
        add("reconstruction", _max_abs(P - p_hat), 1e-9)
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
