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

from typing import Optional

import numpy as np

from .ca import RANK_CUTOFF, Axis, Decomposition, _deflate, axes_requested
from .errors import ValidationError
from .record import Record
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

_EPS = float(np.finfo(np.float64).eps)


def sign_vector(x: np.ndarray) -> np.ndarray:
    """Componentwise sign with the deterministic tie rule sign(0) = +1."""
    return np.where(np.asarray(x) < 0, -1.0, 1.0)


class TcaAxisSolution(Record):
    """One solved taxicab axis.

    ``objective`` is ||R u||_1, the axis dispersion. ``v`` is sign(R u) with
    zeros mapped to +1. ``solver`` is "exact" or "iterative". ``starts_tried``
    counts enumerated candidates for the exact solver and restarts for the
    iterative one.
    """

    __slots__ = ("u", "v", "objective", "solver", "starts_tried", "converged")


def _solution(R: np.ndarray, u: np.ndarray, solver: str, starts: int) -> TcaAxisSolution:
    """The solution of sign vector u on R: v = sign(R u) and the objective
    ||R u||_1, both from one product."""
    Ru = R @ u
    return TcaAxisSolution(u, sign_vector(Ru), float(np.abs(Ru).sum()), solver, starts, converged=True)


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
    return _solution(R, u, "exact", tried)


def _lex_less(u: np.ndarray, w: np.ndarray) -> bool:
    """Whether sign vector u precedes w lexicographically, +1 before -1."""
    diff = np.flatnonzero(u != w)
    return diff.size > 0 and u[diff[0]] > 0


def _guarded_product(X: np.ndarray, M: np.ndarray, tol: np.ndarray) -> np.ndarray:
    """X @ M whose rows x have the signs of the per-vector ``M.T @ x``.

    A gemm entry can differ from the matching gemv entry in the last bits,
    which flips a sign only where the exact value is zero up to rounding.
    Rows with an entry within ``tol`` of zero are recomputed as ``M.T @ x``
    on a contiguous copy of x, so every row is the per-vector result.
    """
    Y = X @ M
    near = np.abs(Y) <= tol
    if np.count_nonzero(near):
        for a in near.any(axis=1).nonzero()[0]:
            Y[a] = M.T @ X[a].copy()
    return Y


def _rescore_margin(I: int, J: int, abs_total: float) -> float:
    """How far below the best one-product objective of an I x J matrix R
    with sum|R| = ``abs_total`` an end point may score and still be the
    per-vector winner: 2 (I + J + 5) eps sum|R|.

    Each entry of R u over a +-1 vector u lies within gamma_J a_i of its
    exact value in any summation order (a_i = sum_k |R_ik|), and summing the
    I absolute values adds a relative gamma_(I-1), so both the one-product
    and the per-vector objective lie within delta = (I + J + 4) eps/2 sum|R|
    of ||R u||_1 (gamma_n < (n + 2) eps / 2, and ||R u||_1 <= sum|R|). The
    per-vector winner therefore scores at least the best one-product value
    less 4 delta; the remaining 2 eps sum|R| cover the rounding of that
    subtraction and of sum|R| itself.
    """
    return 2.0 * (I + J + 5) * _EPS * abs_total


def _best_end_point(R: np.ndarray, U: np.ndarray, abs_total: float) -> np.ndarray:
    """Best +-1 row u of U: the largest ``float(np.abs(R @ u).sum())``, ties
    going to the lexicographically smallest u.

    All rows are scored in one product, as the row sums of |U R'|. Only the
    rows within ``_rescore_margin`` of the best of those are scored again
    with the per-vector expression, each distinct u once, so the winner is
    that of scoring every row alone.
    """
    approx = np.abs(U @ R.T).sum(axis=1)
    near = (approx >= approx.max() - _rescore_margin(*R.shape, abs_total)).nonzero()[0]
    best_obj, best_u = None, None
    scored: set[bytes] = set()
    for i in near:
        if U[i].tobytes() in scored:
            continue  # an equal u scores equal and never displaces the best
        scored.add(U[i].tobytes())
        u = U[i].copy()
        objective = float(np.abs(R @ u).sum())
        if (
            best_u is None
            or objective > best_obj
            or (objective == best_obj and _lex_less(u, best_u))
        ):
            best_obj, best_u = objective, u
    return best_u


def tca_axis_iterative(R) -> TcaAxisSolution:
    """Heuristic taxicab axis by alternating sign ascent from every column.

    Each start j seeds v = sign(R e_j) and alternates u = sign(R' v),
    v = sign(R u); the objective never decreases and the state space is
    finite, so every start stops at its first (u, v) state that repeats any
    earlier one, keeping that u. The best fixed point over all J starts is
    returned, ties going to the lexicographically smallest u (see
    ``_best_end_point``). The result is a lower bound for the exact
    objective.

    All starts advance in lockstep, one gemm per half-step, and a start
    leaves the batch once it stops. Each entry of M x over a +-1 vector x
    lies within gamma_n sum_k |M_ik| of its exact value in any summation
    order (n = I for R' v, J for R u; gamma_n < (n + 2) eps / 2), so two
    orders can disagree on its sign only where both are within twice that
    of zero. A start with an entry within 2 (n + 2) eps sum_k |M_ik| of zero
    is recomputed with the per-start gemv, so results are bit-identical to
    running each start alone, whatever order the BLAS sums in. So v is a
    function of u, and a state repeats exactly when its u does: each start
    keeps only its u, packed into 64-bit words, and is tested for a repeat
    right after the u half-step, so a start that stops skips the v product.
    """
    R = np.asarray(R, dtype=np.float64)
    I, J = R.shape
    abs_R = np.abs(R)
    col_abs = abs_R.sum(axis=0)
    tol_u = 2.0 * (I + 2) * _EPS * col_abs
    tol_v = 2.0 * (J + 2) * _EPS * abs_R.sum(axis=1)
    words = (J + 63) // 64
    key = np.uint64 if words == 1 else np.dtype((np.void, 8 * words))
    negative = np.zeros((J, 64 * words), dtype=np.bool_)  # u < 0, padded to whole words
    history = np.empty((16, J), dtype=key)  # history[t, a]: packed u of active start a at step t
    V = sign_vector(R.T)  # row j: the seed v of start j
    ends = []  # u of the starts that stopped, in batches
    step = 0
    while True:
        n = V.shape[0]
        u_neg = np.less(_guarded_product(V, R, tol_u), 0.0, out=negative[:n, :J])
        U = np.where(u_neg, -1.0, 1.0)  # u = sign(R' v)
        keys = np.packbits(negative[:n], axis=1).view(key)[:, 0]
        done = np.logical_or.reduce(history[:step] == keys)
        if step == history.shape[0]:
            history = np.concatenate((history, np.empty_like(history)))
        history[step] = keys
        step += 1
        stopped = np.count_nonzero(done)
        if stopped:
            ends.append(U.compress(done, axis=0))
            if stopped == n:
                break
            keep = ~done
            U, history = U.compress(keep, axis=0), history.compress(keep, axis=1)
        V = np.where(_guarded_product(U, R.T, tol_v) < 0, -1.0, 1.0)  # v = sign(R u)

    best_u = _best_end_point(R, np.concatenate(ends), float(col_abs.sum()))
    return _solution(R, best_u, "iterative", J)


def tca_decompose(model: CorrespondenceModel, max_axes: Optional[int] = None) -> Decomposition:
    """Taxicab correspondence analysis by residual deflation.

    Per axis alpha, solve for the sign vector u on the current residual R,
    set f = Dr^{-1} R u, v = sign(f), g = Dc^{-1} R' v and
    sigma = sum_i r_i |f_i|, then deflate R by the rank-one term
    Dr f g' Dc / sigma. The axis solver is exact while min(I, J) is at most
    ``EXACT_THRESHOLD`` and the multi-start ascent beyond. Deflation stops
    early once sigma falls below ``RANK_CUTOFF`` times the first dispersion.
    No axis is kept when the first dispersion is within the rounding level
    of R0 = P - r c', 2 (I + J + 2) eps sum(P): then R0 is the rounding
    left of a table of proportional lines, as in ``ca_decompose``'s dim *
    eps rule. (A floor relative to sum|R0| would never apply, as sigma_1 is
    at least sum|R0| / sqrt(2 min(I, J)).)
    """
    I, J = model.shape
    k_max = min(I, J) - 1
    k = axes_requested(max_axes, I, J)

    r, c = model.r, model.c
    exact = min(I, J) <= EXACT_THRESHOLD
    R = model.R0
    noise_floor = 2 * (I + J + 2) * np.finfo(np.float64).eps * float(model.P.sum())

    axes: list[Axis] = []
    solutions: list[TcaAxisSolution] = []
    sigma_1 = None
    exhausted = False
    for _ in range(k):
        sol = tca_axis_exact(R) if exact else tca_axis_iterative(R)
        sigma = sol.objective
        if sigma_1 is None:
            sigma_1 = sigma
        if sigma_1 <= noise_floor or sigma < RANK_CUTOFF * sigma_1:
            exhausted = True
            break
        axis = Axis(f=(R @ sol.u) / r, g=(R.T @ sol.v) / c, sigma=sigma, u=sol.u, v=sol.v)
        axes.append(axis)
        solutions.append(sol)
        R = _deflate(R, r, c, axis)

    return Decomposition(
        method="TCA",
        axes=tuple(axes),
        model=model,
        is_full_rank=exhausted or len(axes) == k_max,
        solutions=tuple(solutions),
    )


def cut_norm_bruteforce(R) -> float:
    """Cut norm of R: the largest |sum of R over S x T| over index subsets.

    Enumerates all subsets T of the smaller dimension; for fixed T the best S
    simply collects the positive (or the negative) partial sums, so the whole
    search is exact at 2^min(I,J) candidates instead of 2^(I+J).
    """
    R = np.asarray(R, dtype=np.float64)
    I, J = R.shape
    if min(I, J) > CUT_NORM_MAX_DIM:
        raise ValidationError(
            f"cut norm enumeration limited to min(I, J) <= {CUT_NORM_MAX_DIM}, got {min(I, J)}"
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


def diagonal_sigma1(p) -> float:
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
    if p.size > DIAGONAL_MAX_LEN:
        raise ValidationError(
            f"subset enumeration limited to {DIAGONAL_MAX_LEN} masses, got {p.size}"
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
