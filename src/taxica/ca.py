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

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import NumericalError, ValidationError
from .table import CorrespondenceModel

__all__ = ["Axis", "Decomposition", "pearson_residuals", "symmetric_eigen", "ca_decompose"]

#: Axes whose dispersion falls below this fraction of the leading one are
#: treated as numerical zeros and discarded.
RANK_CUTOFF = 1e-12


@dataclass(frozen=True, eq=False)
class Axis:
    """One principal axis: coordinates, dispersion and normed axis vectors.

    For CA, u = g/sigma and v = f/sigma are the standard coordinates; for
    TCA, u and v are the +-1 sign vectors the axis was built from.
    """

    f: np.ndarray
    g: np.ndarray
    sigma: float
    u: np.ndarray
    v: np.ndarray

    def __post_init__(self) -> None:
        for arr in (self.f, self.g, self.u, self.v):
            arr.setflags(write=False)


@dataclass(frozen=True, eq=False)
class Decomposition:
    """Axes of a CA or TCA decomposition of one correspondence model.

    Axes appear in extraction order: nonincreasing dispersion for CA, and
    deflation order for TCA (typically, but provably not always, monotone:
    the optimum over a deflated residual can exceed the previous axis).
    ``residuals`` (TCA only) stores the residual matrix each axis was
    extracted from; ``solutions`` (TCA only) stores per-axis solver metadata.
    ``is_full_rank`` tells whether every numerically nonzero axis is present,
    which is what the data reconstruction identity requires.
    """

    method: str  # "CA" or "TCA"
    axes: tuple[Axis, ...]
    rank_used: int
    model: CorrespondenceModel
    is_full_rank: bool = True
    residuals: Optional[tuple[np.ndarray, ...]] = None
    solutions: Optional[tuple] = None

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


def symmetric_eigen(A, tol: float = 1e-10) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric PSD matrix, sorted descending.

    Jacobi rotations in round-robin order, capped at 100 sweeps: each sweep
    is n-1 rounds of disjoint (p, q) pairs, and each round is applied as one
    vectorized step. Raises :class:`ValidationError` for non-square,
    non-finite or non-symmetric input (max |A - A'| > 1e-12 max |A|), and
    :class:`NumericalError` if the off-diagonal mass has not vanished after
    100 sweeps or if any eigenpair misses the residual contract
    ||A x - lam x|| <= tol * ||A||. Round-off eigenvalues in
    [-tol * ||A||, 0) are clamped to 0; anything more negative is rejected
    as not PSD. Returns ``(lam, V)`` with unit-norm eigenvectors in the
    columns of ``V``.

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

    rounds = _round_robin(n)
    sweeps = 0
    while not _off_norm(a) <= 1e-14 * norm:
        if sweeps == 100:
            raise NumericalError("Jacobi eigensolver did not converge within 100 sweeps")
        sweeps += 1
        for P, Q in rounds:
            apq = a[P, Q]
            rotate = np.abs(apq) > 1e-18 * norm
            if not rotate.all():
                P, Q, apq = P[rotate], Q[rotate], apq[rotate]
                if P.size == 0:
                    continue
            theta = (a[Q, Q] - a[P, P]) / (2.0 * apq)
            t = np.where(theta != 0, np.sign(theta), 1.0)
            t = t / (np.abs(theta) + np.sqrt(1.0 + theta * theta))
            cth = 1.0 / np.sqrt(1.0 + t * t)
            sth = t * cth
            c, s = cth[:, None], sth[:, None]
            rp, rq = a[P, :], a[Q, :]
            a[P, :] = c * rp - s * rq
            a[Q, :] = s * rp + c * rq
            cp, cq = a[:, P], a[:, Q]
            a[:, P] = cth * cp - sth * cq
            a[:, Q] = sth * cp + cth * cq
            vp, vq = V[:, P], V[:, Q]
            V[:, P] = cth * vp - sth * vq
            V[:, Q] = sth * vp + cth * vq

    lam = np.diag(a).copy()
    order = np.argsort(-lam, kind="stable")
    lam = lam[order]
    V = V[:, order]

    if lam[-1] < -tol * norm:
        raise NumericalError(f"matrix is not PSD: eigenvalue {lam[-1]:.3e}")
    residual = np.max(np.abs(A @ V - V * lam))
    if not residual <= tol * norm:
        raise NumericalError(
            f"eigenpair residual {residual:.3e} exceeds {tol:g} * ||A||"
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
        raise ValidationError(
            f"max_axes={max_axes} out of range 1..{k_max} for a {I}x{J} table"
        )
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
    k_max = min(I, J) - 1
    k = axes_requested(max_axes, I, J)

    S = pearson_residuals(model)
    r, c, P = model.r, model.c, model.P

    if J <= I:
        lam, X = symmetric_eigen(S.T @ S)
        trivial = np.sqrt(c)
    else:
        lam, X = symmetric_eigen(S @ S.T)
        trivial = np.sqrt(r)
    sigma = np.sqrt(lam)
    # The weight direction is an exact null vector of S; residual null-space
    # contamination of near-zero axes gets amplified by 1/sigma^2 in the
    # transition identities, so project it out analytically.
    trivial = trivial / np.linalg.norm(trivial)
    X = X - np.outer(trivial, trivial @ X)
    norms = np.linalg.norm(X, axis=0)
    X = X / np.where(norms > 0, norms, 1.0)

    noise_floor = np.sqrt(max(I, J) * np.finfo(np.float64).eps)
    cutoff = max(RANK_CUTOFF, noise_floor)
    n_nonzero = 0
    for a in range(min(k_max, sigma.size)):
        if sigma.size == 0 or sigma[0] < noise_floor or sigma[a] < cutoff * sigma[0]:
            break
        n_nonzero += 1
    n_keep = min(k, n_nonzero)

    axes = []
    for a in range(n_keep):
        s_a = float(sigma[a])
        x = X[:, a]
        if J <= I:
            g = s_a * x / np.sqrt(c)
            f = (P @ g) / r / s_a
        else:
            f = s_a * x / np.sqrt(r)
            g = (P.T @ f) / c / s_a
        g, f = _orient(g, f)
        axes.append(Axis(f=f, g=g, sigma=s_a, u=g / s_a, v=f / s_a))

    return Decomposition(
        method="CA",
        axes=tuple(axes),
        rank_used=len(axes),
        model=model,
        is_full_rank=(n_keep == n_nonzero),
    )
