"""Taxicab correspondence analysis: L1 principal axes of the residual matrix.

Each taxicab axis is a +-1 sign vector u maximizing ||R u||_1 over the
residual correspondence matrix R. That objective equals max_{u,v} v' R u over
sign vectors on both sides, and also four times the cut norm of R (the
largest absolute submatrix sum), which is what makes the dispersion split
into four equal quadrant sums. Finding the maximizer is a Grothendieck-type
combinatorial problem: small sides are enumerated exactly, large ones use a
multi-start alternating ascent.

Per axis with dispersion sigma, the principal coordinates satisfy the
weighted L1 norms sum_i r_i |f_i| = sum_j c_j |g_j| = sigma, and their
positive and negative halves each carry exactly sigma/2 (equivariability).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .ca import RANK_CUTOFF, Axis, Decomposition, axes_requested
from .errors import ValidationError
from .table import CorrespondenceModel

__all__ = [
    "TcaAxisSolution",
    "tca_axis_exact",
    "tca_axis_iterative",
    "tca_decompose",
    "cut_norm_bruteforce",
    "diagonal_sigma1",
]

#: Largest min(I, J) for which an axis is solved by exact enumeration:
#: 2^(20-1) candidates per axis.
EXACT_THRESHOLD = 20

#: Dimension cap for the cut-norm oracle (2^min(I,J) subset sums).
CUT_NORM_MAX_DIM = 15

#: Length cap for the diagonal subset-sum enumeration.
DIAGONAL_MAX_LEN = 25

#: Candidates scored per chunk of the sign enumerations: 2^11 columns keep
#: the I x chunk score buffer cache-sized (2 MB at I = 120).
_ENUM_CHUNK_BITS = 11
_ENUM_CHUNK = 1 << _ENUM_CHUNK_BITS


def sign_vector(x: np.ndarray) -> np.ndarray:
    """Componentwise sign with the deterministic tie rule sign(0) = +1."""
    return np.where(np.asarray(x) < 0, -1.0, 1.0)


@dataclass(frozen=True, eq=False)
class TcaAxisSolution:
    """One solved taxicab axis.

    ``objective`` is ||R u||_1, the axis dispersion. ``v`` is sign(R u) with
    zeros mapped to +1. ``starts_tried`` counts enumerated candidates for the
    exact solver and restarts for the iterative one.
    """

    u: np.ndarray
    v: np.ndarray
    objective: float
    solver: str  # "exact" or "iterative"
    starts_tried: int
    converged: bool

    def __post_init__(self) -> None:
        self.u.setflags(write=False)
        self.v.setflags(write=False)


def _enumerate_best(R: np.ndarray) -> tuple[float, np.ndarray, int]:
    """Maximize ||R w||_1 over sign vectors w with w[0] = +1.

    Returns (objective, w, candidates). Candidate m encodes components
    2..dim: bit (dim-1-j) of m gives component j, 0 meaning +1, so ascending
    m is ascending lexicographic order with +1 < -1. The first strict
    maximum wins ties, so the result is the lexicographically smallest
    maximizer.

    Candidates are scored in chunks of ``_ENUM_CHUNK`` consecutive m into
    preallocated buffers. Within a chunk only the low ``_ENUM_CHUNK_BITS``
    bits of m vary, so the low rows of the sign block are built once and the
    high rows are refilled with one constant each per chunk. Each objective
    is still one gemm element per cell and a row-by-row column sum, so it is
    the same float as in a one-shot ``np.abs(R @ signs).sum(axis=0)``.
    """
    I, dim = R.shape
    total = 1 << (dim - 1)
    width = min(total, _ENUM_CHUNK)
    low = min(dim - 1, _ENUM_CHUNK_BITS)
    high = dim - low  # rows 0..high-1 are constant within a chunk
    ms = np.arange(width, dtype=np.int64)
    signs = np.empty((dim, width))
    signs[high:, :] = 1.0 - 2.0 * ((ms >> np.arange(low - 1, -1, -1)[:, None]) & 1)
    shifts = np.arange(high - 2, -1, -1)
    buf = np.empty((I, width))
    objs = np.empty(width)
    best_obj = -np.inf
    best_w = None
    for chunk in range(total // width):
        signs[:high, :] = np.concatenate(([1.0], 1.0 - 2.0 * ((chunk >> shifts) & 1)))[:, None]
        np.matmul(R, signs, out=buf)
        np.abs(buf, out=buf)
        np.add.reduce(buf, axis=0, out=objs)
        i = int(np.argmax(objs))
        if objs[i] > best_obj:
            best_obj = float(objs[i])
            best_w = signs[:, i].copy()
    return best_obj, best_w, total


def tca_axis_exact(R) -> TcaAxisSolution:
    """Exact taxicab axis of R by enumerating signs on the smaller dimension.

    The objective is symmetric under global sign flips, so only the
    half-sphere with first component +1 is enumerated; ties resolve to the
    lexicographically smallest sign vector (+1 before -1). Enumerating the
    row side instead of the column side is sound because
    max_u ||R u||_1 = max_{u,v} v' R u = max_v ||R' v||_1.
    """
    R = np.asarray(R, dtype=np.float64)
    I, J = R.shape
    if min(I, J) > EXACT_THRESHOLD:
        raise ValidationError(
            f"min(I, J) = {min(I, J)} exceeds the exact enumeration threshold "
            f"{EXACT_THRESHOLD}; use tca_axis_iterative"
        )
    if J <= I:
        _, u, tried = _enumerate_best(R)
    else:
        _, v_enum, tried = _enumerate_best(R.T)
        u = sign_vector(R.T @ v_enum)
    v = sign_vector(R @ u)
    objective = float(np.abs(R @ u).sum())
    return TcaAxisSolution(
        u=u, v=v, objective=objective, solver="exact", starts_tried=tried, converged=True
    )


def _lex_less(u: np.ndarray, w: np.ndarray) -> bool:
    """Whether sign vector u precedes w lexicographically, +1 before -1."""
    diff = np.flatnonzero(u != w)
    return diff.size > 0 and u[diff[0]] > 0


def _signed_products(X: np.ndarray, M: np.ndarray, tol: np.ndarray):
    """Signs of the rows x of X @ M, each equal to ``sign_vector(M.T @ x)``,
    and the mask of their -1 entries.

    A gemm entry can differ from the matching gemv entry in the last bits,
    which flips a sign only where the exact value is zero up to rounding.
    Rows with an entry within ``tol`` of zero are recomputed as ``M.T @ x``
    on a contiguous copy of x, so every row is the per-vector result.
    """
    Y = X @ M
    for a in np.flatnonzero((np.abs(Y) <= tol).any(axis=1)):
        Y[a] = M.T @ X[a].copy()
    negative = Y < 0
    return np.where(negative, -1.0, 1.0), negative


def tca_axis_iterative(R) -> TcaAxisSolution:
    """Heuristic taxicab axis by alternating sign ascent from every column.

    Each start j seeds v = sign(R e_j) and alternates u = sign(R' v),
    v = sign(R u); the objective never decreases and the state space is
    finite, so every start stops at its first (u, v) state that repeats any
    earlier one, keeping that u. The best fixed point over all J starts is
    returned, ties going to the lexicographically smallest u. The result is
    a lower bound for the exact objective.

    All starts advance in lockstep, one gemm per half-step, and a start
    leaves the batch once it stops. Each entry of M x over a +-1 vector x
    lies within gamma_n sum_k |M_ik| of its exact value in any summation
    order (n = I for R' v, J for R u; gamma_n < (n + 2) eps / 2), so two
    orders can disagree on its sign only where both are within twice that
    of zero. A start with an entry within 2 (n + 2) eps sum_k |M_ik| of zero
    is recomputed with the per-start gemv, so results are bit-identical to
    running each start alone, whatever order the BLAS sums in.
    """
    R = np.asarray(R, dtype=np.float64)
    I, J = R.shape
    eps = np.finfo(np.float64).eps
    abs_R = np.abs(R)
    tol_u = 2.0 * (I + 2) * eps * abs_R.sum(axis=0)
    tol_v = 2.0 * (J + 2) * eps * abs_R.sum(axis=1)
    V = sign_vector(R.T)  # row j: the seed v of start j
    active = np.arange(J)
    # (u < 0, v < 0) of every start after every step, packed 8 signs a byte
    history = np.empty((8, J, (J + I + 7) // 8), dtype=np.uint8)
    final_neg = np.empty((J, J), dtype=np.bool_)  # u < 0 where each start stopped
    step = 0
    while active.size:
        U, u_neg = _signed_products(V, R, tol_u)  # u = sign(R' v)
        V, v_neg = _signed_products(U, R.T, tol_v)  # v = sign(R u)
        state = np.packbits(np.concatenate((u_neg, v_neg), axis=1), axis=1)
        if step == history.shape[0]:
            history = np.concatenate((history, np.empty_like(history)))
        done = (history[:step, active] == state).all(axis=2).any(axis=0)
        history[step, active] = state
        final_neg[active[done]] = u_neg[done]
        active, V = active[~done], V[~done]
        step += 1

    best_obj, best_u = None, None
    scored: set[bytes] = set()
    for neg in final_neg:
        if neg.tobytes() in scored:
            continue  # an equal u scores equal and never displaces the best
        scored.add(neg.tobytes())
        u = np.where(neg, -1.0, 1.0)
        objective = float(np.abs(R @ u).sum())
        if (
            best_u is None
            or objective > best_obj
            or (objective == best_obj and _lex_less(u, best_u))
        ):
            best_obj, best_u = objective, u
    v = sign_vector(R @ best_u)
    return TcaAxisSolution(
        u=best_u, v=v, objective=best_obj, solver="iterative", starts_tried=J, converged=True
    )


def tca_decompose(model: CorrespondenceModel, max_axes: Optional[int] = None) -> Decomposition:
    """Taxicab correspondence analysis by residual deflation.

    Per axis alpha, solve for the sign vector u on the current residual R,
    set f = Dr^{-1} R u, v = sign(f), g = Dc^{-1} R' v and
    sigma = sum_i r_i |f_i|, then deflate R by the rank-one term
    Dr f g' Dc / sigma. The axis solver is exact while min(I, J) is at most
    ``EXACT_THRESHOLD`` and the multi-start ascent beyond. Deflation stops
    early once sigma falls below ``RANK_CUTOFF`` times the first dispersion.
    """
    I, J = model.shape
    k_max = min(I, J) - 1
    k = axes_requested(max_axes, I, J)

    r, c = model.r, model.c
    exact = min(I, J) <= EXACT_THRESHOLD
    R = model.R0.copy()

    axes: list[Axis] = []
    residuals: list[np.ndarray] = []
    solutions: list[TcaAxisSolution] = []
    sigma_1 = None
    exhausted = False
    for _ in range(k):
        sol = tca_axis_exact(R) if exact else tca_axis_iterative(R)
        sigma = sol.objective
        if sigma_1 is None:
            sigma_1 = sigma
        if sigma_1 == 0.0 or sigma < RANK_CUTOFF * sigma_1:
            exhausted = True
            break
        f = (R @ sol.u) / r
        g = (R.T @ sol.v) / c
        axes.append(Axis(f=f, g=g, sigma=sigma, u=sol.u, v=sol.v))
        residuals.append(R)
        solutions.append(sol)
        R = R - np.outer(r * f, c * g) / sigma

    for mat in residuals:
        mat.setflags(write=False)
    return Decomposition(
        method="TCA",
        axes=tuple(axes),
        rank_used=len(axes),
        model=model,
        is_full_rank=exhausted or len(axes) == k_max,
        residuals=tuple(residuals),
        solutions=tuple(solutions),
    )


def cut_norm_bruteforce(R, max_dim: int = CUT_NORM_MAX_DIM) -> float:
    """Cut norm of R: the largest |sum of R over S x T| over index subsets.

    Enumerates all subsets T of the smaller dimension; for fixed T the best S
    simply collects the positive (or the negative) partial sums, so the whole
    search is exact at 2^min(I,J) candidates instead of 2^(I+J).
    """
    R = np.asarray(R, dtype=np.float64)
    I, J = R.shape
    if min(I, J) > max_dim:
        raise ValidationError(
            f"cut norm enumeration limited to min(I, J) <= {max_dim}, got {min(I, J)}"
        )
    M = R if J <= I else R.T
    dim = M.shape[1]
    best = 0.0
    for start in range(0, 1 << dim, _ENUM_CHUNK):
        ms = np.arange(start, min(start + _ENUM_CHUNK, 1 << dim), dtype=np.int64)
        members = ((ms[None, :] >> np.arange(dim)[:, None]) & 1).astype(np.float64)
        sums = M @ members
        pos = np.where(sums > 0, sums, 0.0).sum(axis=0)
        neg = np.where(sums < 0, -sums, 0.0).sum(axis=0)
        best = max(best, float(pos.max()), float(neg.max()))
    return best


def _subset_sums(values: np.ndarray) -> np.ndarray:
    sums = np.zeros(1)
    for x in values:
        sums = np.concatenate([sums, sums + x])
    return sums


def diagonal_sigma1(p, max_len: int = DIAGONAL_MAX_LEN) -> float:
    """First taxicab dispersion of a diagonal table with cell masses p.

    For a diagonal correspondence matrix the axis objective reduces to a
    subset-sum form: sigma_1 = max over subsets S of 4 s (1 - s) with
    s = sum of p over S. It equals 1 exactly when some subset of the masses
    sums to one half. Solved by meet-in-the-middle enumeration; the achievable
    s nearest one half is optimal because 4 s (1 - s) peaks there.
    """
    p = np.asarray(p, dtype=np.float64).ravel()
    if p.size == 0 or np.any(p <= 0):
        raise ValidationError("masses must be strictly positive")
    if abs(float(p.sum()) - 1.0) > 1e-9:
        raise ValidationError(f"masses must sum to 1, got {float(p.sum()):.12g}")
    if p.size > max_len:
        raise ValidationError(
            f"subset enumeration limited to {max_len} masses, got {p.size}"
        )
    half = p.size // 2
    sums_a = _subset_sums(p[:half])
    sums_b = np.sort(_subset_sums(p[half:]))
    idx = np.searchsorted(sums_b, 0.5 - sums_a)
    best = 0.0
    for shift in (0, -1):
        j = np.clip(idx + shift, 0, sums_b.size - 1)
        s = sums_a + sums_b[j]
        best = max(best, float(np.max(4.0 * s * (1.0 - s))))
    return best
