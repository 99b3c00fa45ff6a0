"""Classical correspondence analysis.

CA decomposes the independence residuals of a contingency table under the
chi-square metric. The pipeline is: form the Pearson residual matrix
S = Dr^{-1/2} (P - r c') Dc^{-1/2}, eigendecompose the smaller of S'S or SS',
turn eigenvectors into principal coordinates, and carry the other side over
with the barycentric transition formulas. Row coordinates f and column
coordinates g satisfy, per axis with dispersion sigma:

    f' Dr 1 = g' Dc 1 = 0          (centering)
    f' Dr f = g' Dc g = sigma^2    (weighted L2 norms)

and distinct axes are Dr- / Dc-orthogonal.
"""
from __future__ import annotations

from typing import Optional

import numpy as np

from .errors import NumericalError, ValidationError
from .record import Record
from .table import CorrespondenceModel

__all__ = ["Axis", "Decomposition", "pearson_residuals", "symmetric_eigen", "ca_decompose"]

#: Axes whose dispersion falls below this fraction of the leading one are
#: treated as numerical zeros and discarded.
RANK_CUTOFF = 1e-12

#: Eigenpair residual allowed by ``symmetric_eigen``, relative to ||A||.
EIGEN_TOL = 1e-10


class Axis(Record):
    """One principal axis: coordinates, dispersion and normed axis vectors.

    For CA, u = g/sigma and v = f/sigma are the standard coordinates; for
    TCA, u and v are the +-1 sign vectors the axis was built from.
    """

    __slots__ = ("f", "g", "sigma", "u", "v")


def _deflate(R: np.ndarray, r: np.ndarray, c: np.ndarray, axis: Axis) -> np.ndarray:
    """R less the rank-one term Dr f g' Dc / sigma that ``axis`` carries."""
    return R - np.outer(r * axis.f, c * axis.g) / axis.sigma


class Decomposition(Record):
    """Axes of a CA or TCA decomposition of one correspondence model.

    ``method`` is "CA" or "TCA". Axes appear in extraction order:
    nonincreasing dispersion for CA, and deflation order for TCA (typically,
    but provably not always, monotone: the optimum over a deflated residual
    can exceed the previous axis).
    ``solutions`` (TCA only) stores per-axis solver metadata.
    ``is_full_rank`` tells whether every numerically nonzero axis is present,
    which is what the data reconstruction identity requires. ``rank_used``
    and ``residuals`` are derived from the axes on each read.
    """

    __slots__ = ("method", "axes", "model", "is_full_rank", "solutions")
    _defaults = {"is_full_rank": True, "solutions": None}

    @property
    def rank_used(self) -> int:
        return len(self.axes)

    @property
    def residuals(self) -> Optional[tuple[np.ndarray, ...]]:
        """TCA only (None for CA): the residual each axis was solved on, R0
        first, replayed bit for bit with ``tca_decompose``'s deflation."""
        return tuple(self._replay()) if self.method == "TCA" else None

    def _replay(self):
        """Yield each TCA axis's residual in turn, R0 first, and none past the last."""
        r, c = self.model.r, self.model.c
        R = self.model.R0
        for a in range(len(self.axes)):
            if a:
                R = _deflate(R, r, c, self.axes[a - 1])
            yield R

    @property
    def sigmas(self) -> np.ndarray:
        return np.array([axis.sigma for axis in self.axes])

    def __repr__(self) -> str:
        return f"Decomposition({self.method}, rank={self.rank_used})"


def pearson_residuals(model: CorrespondenceModel) -> np.ndarray:
    """Matrix of Pearson residuals, S = Dr^{-1/2} (P - r c') Dc^{-1/2}."""
    return model.R0 / np.sqrt(np.outer(model.r, model.c))


def _round_robin(n: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Round-robin tournament on indices 0..n-1: n-1 rounds (n even) of n/2
    disjoint pairs (p, q) with p < q, covering every pair exactly once.
    Each round is returned as its index arrays P and Q.

    Odd n is padded with a dummy index n whose pairs are dropped. Index 0
    stays put while the others rotate one place per round (the circle method
    behind the parallel Jacobi ordering of Brent & Luk).
    """
    m = n + n % 2
    players = list(range(m))
    rounds = []
    for _ in range(m - 1):
        pairs = sorted(
            (min(p, q), max(p, q))
            for p, q in zip(players[: m // 2], players[::-1])
            if p < n and q < n
        )
        if pairs:
            P, Q = (np.array(side, dtype=np.intp) for side in zip(*pairs))
            rounds.append((P, Q))
        players = [players[0], players[-1], *players[1:-1]]
    return rounds


def _off_norm(a: np.ndarray) -> float:
    return np.sqrt(2.0 * float(np.sum(np.triu(a, 1) ** 2)))


def symmetric_eigen(A) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric PSD matrix, sorted descending.

    Jacobi rotations in round-robin order, capped at 100 sweeps: each sweep
    is n-1 rounds of disjoint (p, q) pairs. A round is one row rotation of
    the n x 2n array [a | V'] (the rows of a and the columns of V together)
    and one column rotation of a. Raises :class:`ValidationError` for non-square,
    non-finite or non-symmetric input (max |A - A'| > 1e-12 max |A|), and
    :class:`NumericalError` if the off-diagonal mass has not vanished after
    100 sweeps or if any eigenpair misses the residual contract
    ||A x - lam x|| <= EIGEN_TOL * ||A||. Round-off eigenvalues in
    [-EIGEN_TOL * ||A||, 0) are clamped to 0; anything more negative is
    rejected as not PSD. Returns ``(lam, V)`` with unit-norm eigenvectors in
    the columns of ``V``.

    The rotation loop uses elementwise updates only (no BLAS), so results are
    bit-identical regardless of BLAS threading.
    """
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValidationError("matrix must be square")
    n = A.shape[0]
    if n == 0:
        return np.empty(0), np.empty((0, 0))
    if not np.all(np.isfinite(A)):
        raise ValidationError("matrix has non-finite entries")
    if np.max(np.abs(A - A.T)) > 1e-12 * np.max(np.abs(A)):
        raise ValidationError("matrix is not symmetric within 1e-12 of max |A|")

    a = 0.5 * (A + A.T)
    V = np.eye(n)
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(a))
    if not np.isfinite(norm):
        raise NumericalError("matrix norm overflows")
    if norm == 0.0:
        return np.zeros(n), V

    # B = [a | V'], so one row rotation turns the rows of a and the columns
    # of V. Rows P and then Q of B take c x - s y with x the row itself and
    # y its partner: coefficients [c; c] and [s; -s] over the index arrays
    # [P; Q] and [Q; P]. Since (-s) y is exact and x - (-z) = x + z, the Q
    # rows get s x_P + c x_Q bit for bit, as in a separate update.
    B = np.hstack((a, V))
    a = B[:, :n]
    diag = a.diagonal()  # a read-only view that follows a
    skip = 1e-18 * norm
    rounds = [(P, Q, np.concatenate((P, Q)), np.concatenate((Q, P))) for P, Q in _round_robin(n)]
    sweeps = 0
    while not _off_norm(a) <= 1e-14 * norm:
        if sweeps == 100:
            raise NumericalError("Jacobi eigensolver did not converge within 100 sweeps")
        sweeps += 1
        for P, Q, PQ, QP in rounds:
            apq = a[P, Q]
            rotate = np.abs(apq) > skip
            if np.count_nonzero(rotate) < rotate.size:
                P, Q, apq = P[rotate], Q[rotate], apq[rotate]
                if P.size == 0:
                    continue
                PQ, QP = np.concatenate((P, Q)), np.concatenate((Q, P))
            theta = (diag[Q] - diag[P]) / (2.0 * apq)
            t = np.where(theta < 0, -1.0, 1.0) / (np.abs(theta) + np.sqrt(1.0 + theta * theta))
            t = np.concatenate((t, -t))  # (-t)^2 = t^2 and (-t) c = -(t c) exactly
            c = 1.0 / np.sqrt(1.0 + t * t)
            s = t * c
            B[PQ] = c[:, None] * B[PQ] - s[:, None] * B[QP]
            a[:, PQ] = c * a[:, PQ] - s * a[:, QP]

    lam = np.diag(a).copy()
    order = np.argsort(-lam, kind="stable")
    lam = lam[order]
    V = B[order, n:].T

    if lam[-1] < -EIGEN_TOL * norm:
        raise NumericalError(f"matrix is not PSD: eigenvalue {lam[-1]:.3e}")
    residual = np.max(np.abs(A @ V - V * lam))
    if not residual <= EIGEN_TOL * norm:
        raise NumericalError(
            f"eigenpair residual {residual:.3e} exceeds {EIGEN_TOL:g} * ||A||"
        )
    return np.clip(lam, 0.0, None), V


def _orient(g: np.ndarray, f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Make the largest-magnitude column coordinate positive (ties: lowest
    # index, via argmax); flipping one side flips both.
    if g[int(np.argmax(np.abs(g)))] < 0:
        return -g, -f
    return g, f


def axes_requested(max_axes: Optional[int], I: int, J: int) -> int:
    """Number of axes to extract from an I x J table: ``max_axes``, checked
    against 1..min(I, J) - 1, or that maximal rank when it is None."""
    k_max = min(I, J) - 1
    if max_axes is None:
        return k_max
    if not 1 <= max_axes <= k_max:
        raise ValidationError(f"max_axes={max_axes} out of range 1..{k_max} for a {I}x{J} table")
    return max_axes


def ca_decompose(model: CorrespondenceModel, max_axes: Optional[int] = None) -> Decomposition:
    """Correspondence analysis of a model, strongest axes first.

    Eigendecomposes the smaller of S'S and SS' and recovers the other side's
    principal coordinates through the transition formulas (the barycentric
    relations between row and column scores). Axes with dispersion below
    ``RANK_CUTOFF`` times the leading dispersion are dropped, as are axes
    indistinguishable from rank-deficiency noise at working precision
    (eigenvalues below dim * eps relative to the leading one, whose
    eigenvectors would mix with the structural null space). CA eigenvalues
    are at most 1, so a leading one below dim * eps is rounding in the
    residuals of a table of proportional lines, and no axis is kept. ``max_axes``
    defaults to the maximal possible rank, min(I, J) - 1.
    """
    I, J = model.shape
    k = axes_requested(max_axes, I, J)

    # Rows and columns play symmetric roles: a table with more columns than
    # rows is solved as its transpose, whose f and g are this table's g and f.
    transposed = J > I
    S, P, r, c = pearson_residuals(model), model.P, model.r, model.c
    if transposed:
        S, P, r, c = S.T, P.T, c, r

    # Not S.T @ S: at some shapes BLAS splits that sum by thread, and the bits vary.
    lam, X = symmetric_eigen(np.einsum("ki,kj->ij", S, S))
    sigma = np.sqrt(lam)
    # The weight direction is an exact null vector of S; residual null-space
    # contamination of near-zero axes gets amplified by 1/sigma^2 in the
    # transition identities, so project it out analytically.
    trivial = np.sqrt(c)
    trivial = trivial / np.linalg.norm(trivial)
    X = X - np.outer(trivial, trivial @ X)
    norms = np.linalg.norm(X, axis=0)
    X = X / np.where(norms > 0, norms, 1.0)

    noise_floor = np.sqrt(max(I, J) * np.finfo(np.float64).eps)
    cutoff = max(RANK_CUTOFF, noise_floor)
    n_nonzero = 0
    for a in range(min(I, J) - 1):
        if sigma[0] < noise_floor or sigma[a] < cutoff * sigma[0]:
            break
        n_nonzero += 1
    n_keep = min(k, n_nonzero)

    axes = []
    for a in range(n_keep):
        s_a = float(sigma[a])
        g = s_a * X[:, a] / np.sqrt(c)
        f = (P @ g) / r / s_a
        if transposed:
            f, g = g, f
        g, f = _orient(g, f)
        axes.append(Axis(f=f, g=g, sigma=s_a, u=g / s_a, v=f / s_a))

    return Decomposition(
        method="CA",
        axes=tuple(axes),
        model=model,
        is_full_rank=(n_keep == n_nonzero),
    )
