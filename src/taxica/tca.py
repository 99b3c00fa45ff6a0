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

from .ca import RANK_CUTOFF, Decomposition, _deflate, axes_requested
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

#: Candidates per chunk of the sign enumerations, and per batch the exact
#: enumeration hands to ``_best_end_point``: 2^11 columns keep the I x chunk
#: float32 screen blocks cache-sized (1 MB each at I = 120).
_ENUM_CHUNK_BITS = 11
_ENUM_CHUNK = 1 << _ENUM_CHUNK_BITS

_EPS = float(np.finfo(np.float64).eps)
_U32 = 2.0**-24  # unit roundoff of float32


def sign_vector(x: np.ndarray) -> np.ndarray:
    """Componentwise sign with the deterministic tie rule sign(0) = +1."""
    # -2 b + 1 over the bool b = x < 0, exact since False * -2.0 = -0.0 and
    # -0.0 + 1.0 = +1.0, and several times faster than np.where.
    signs = np.asarray(np.multiply(np.less(x, 0.0), -2.0))  # an array also for 0-d x
    signs += 1.0
    return signs


class TcaAxisSolution(Record):
    """One solved taxicab axis.

    ``objective`` is ||R u||_1, the axis dispersion. ``v`` is sign(R u) with
    zeros mapped to +1. ``solver`` is "exact" or "iterative". ``starts_tried``
    counts enumerated candidates for the exact solver and restarts for the
    iterative one.
    """

    __slots__ = ("u", "v", "objective", "solver", "starts_tried", "converged")


def _axis_matrix(R) -> np.ndarray:
    """R as a float64 array, refused unless it is a finite nonempty 2-D matrix."""
    R = np.asarray(R, dtype=np.float64)
    if R.ndim != 2 or R.size == 0:
        raise ValidationError(f"R must be a nonempty 2-D matrix, got shape {R.shape}")
    if not np.all(np.isfinite(R)):
        raise ValidationError("R has non-finite entries")
    return R


def _solution(R: np.ndarray, u: np.ndarray, solver: str, starts: int) -> TcaAxisSolution:
    """The solution of sign vector u on R: v = sign(R u) and the objective
    ||R u||_1, both from one product."""
    Ru = np.einsum("ij,j->i", R, u)
    return TcaAxisSolution(u, sign_vector(Ru), float(np.abs(Ru).sum()), solver, starts, converged=True)


def _enumerate_best(R: np.ndarray) -> tuple[float, np.ndarray, int]:
    """Maximize ||R w||_1 over sign vectors w with w[0] = +1.

    Returns (objective, w, candidates). Candidate m encodes components
    2..dim: bit (dim-1-j) of m gives component j, 0 meaning +1, so ascending
    m is ascending lexicographic order with +1 < -1. The objective is the
    per-vector float ``_solution`` reports, and the lexicographically
    smallest of the w that reach its largest value wins.

    The float32 screen (see ``_screen``) keeps the candidates that can be
    the float64 maximum, in ascending m; when float32 cannot bound R, every
    candidate is kept. The kept ones go to ``_best_end_point`` in batches of
    ``_ENUM_CHUNK``, and the first strict maximum over the batches wins, so
    one function picks the winner of both solvers. Let delta32 and delta64
    bound how far the float32 and the float64 score of any candidate lie
    from its exact ||R w||_1, the float64 one in any summation order. A
    per-vector winner w* then has a float32 score of at least
    ||R w*||_1 - delta32 >= (float64 score of w*) - delta64 - delta32, and
    the float32 winner d scores at most ||R d||_1 + delta32 <=
    (float64 score of d) + delta64 + delta32, which is at most that of w*
    plus delta64 + delta32. So every per-vector winner is kept by a screen
    that keeps the candidates within 2 (delta32 + delta64) of the float32
    maximum, and ``_best_end_point``'s own margin keeps it in its batch.
    """
    low_signs, chunk_signs = _sign_blocks(R.shape[1])
    width = low_signs.shape[1]
    total = chunk_signs.shape[1] * width
    kept = _screen(R, low_signs, chunk_signs)
    if kept is None:
        kept = np.arange(total)
    abs_total = float(np.abs(R).sum())
    best_obj, best_w = -np.inf, None
    for start in range(0, kept.size, _ENUM_CHUNK):
        m = kept[start : start + _ENUM_CHUNK]
        signs = np.hstack((chunk_signs.T[m // width], low_signs.T[m % width]))
        obj, w = _best_end_point(R, signs, abs_total)
        if obj > best_obj:
            best_obj, best_w = obj, w
    return best_obj, best_w, total


def _sign_blocks(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """The two blocks of the half-sphere sign layout: ``low_signs``, the
    rows high..dim-1 of the ``_ENUM_CHUNK`` (or fewer) candidates of a
    chunk, and ``chunk_signs``, whose column c holds rows 0..high-1 of
    chunk c (row 0 is always +1)."""
    total = 1 << (dim - 1)
    low = min(dim - 1, _ENUM_CHUNK_BITS)
    high = dim - low
    ms = np.arange(min(total, _ENUM_CHUNK), dtype=np.int64)
    low_signs = 1.0 - 2.0 * ((ms >> np.arange(low - 1, -1, -1)[:, None]) & 1)
    chunks = np.arange(total >> low, dtype=np.int64)
    chunk_signs = np.ones((high, chunks.size))
    chunk_signs[1:, :] = 1.0 - 2.0 * ((chunks >> np.arange(high - 2, -1, -1)[:, None]) & 1)
    return low_signs, chunk_signs


def _gamma32(n: int) -> float:
    """Higham's gamma_n = n u / (1 - n u) for float32 (u = 2^-24); inf once
    n u reaches 1."""
    nu = n * _U32
    return nu / (1.0 - nu) if nu < 1.0 else np.inf


def _screen(R: np.ndarray, low_signs: np.ndarray, chunk_signs: np.ndarray):
    """The candidates m that a float32 pass cannot rule out as a float64
    maximum of ``_enumerate_best``, in ascending order; None when float32
    cannot bound R.

    R is cast to float32 once. Per axis, L = ``R32[:, high:] @ low_signs``
    and H = ``R32[:, :high] @ chunk_signs`` are formed once, and candidate
    (m, c) scores sum_i |L_im + H_ic| = 2 sum_i max(L_im, -H_ic)
    - sum_i L_im + sum_i H_ic, so each chunk costs one ``np.maximum`` and
    one ones-vector product (two passes over an I x width block, where abs
    of a sum takes three). The signs are exact in float32, every product
    with them or with ones is exact, so are max, negation and doubling, and
    an addition whose result is subnormal is exact (gradual underflow). With
    u = 2^-24, A = sum|R|, n = dim and Higham's gamma_k = k u / (1 - k u)
    (Accuracy and Stability of Numerical Algorithms, 2002, section 3.1):

    - the cast gives |R32_ij - R_ij| <= u |R_ij| + 2^-150, the last term for
      entries below float32's normal range, so the exact score of R32 lies
      within u A + I n 2^-150 of that of R, and sum|R32| <= A32 =
      (1 + u) A + I n 2^-150;
    - each entry of L and H is a sum of at most n exact terms, within
      gamma_(n-1) times the sum of their absolute values of its exact
      value, so, summed over the rows, the computed terms
      2 max(L, -H) - L + H of one candidate lie within 3 gamma_(n-1) A32 of
      those of R32, and T = sum_i (|L_im| + |H_ic|) <= (1 + gamma_(n-1)) A32;
    - the three column sums (the first doubled) add at most
      3 gamma_(I-1) T, and the subtraction and addition that combine them
      3 u (2 + u) (1 + gamma_(I-1)) T.

    So the float32 score of every candidate lies within
    delta32 = u A + I n 2^-150 + 3 gamma_(n-1) A32
    + 3 (gamma_(I-1) + u (2 + u) (1 + gamma_(I-1))) T of ||R w||_1. The
    float64 score, summed in any order, lies within delta64 =
    (I + n + 4) eps/2 A (see ``_rescore_margin``), and
    ``_rescore_margin(I, n, A)`` is 4 delta64 + 2 eps A. A candidate is kept
    when its float32 score is within 2 delta32 + ``_rescore_margin`` of the
    float32 maximum, which is 2 (delta32 + delta64) plus slack for the
    float64 rounding of A, of delta32 and of that threshold. There is no
    screen when A is not below 2^125 (this includes every R whose float32
    cast is not finite), since a float32 value, up to about 4 A, could then
    overflow, or when delta32 is not finite (n u or I u reaching 1). The
    two I x width float32 blocks are one allocation: freed, it raises
    glibc's dynamic mmap threshold above its own size, so the next axis
    takes it from the heap instead of fresh pages.
    """
    I, n = R.shape
    abs_total = float(np.abs(R).sum())
    g_n, g_i = _gamma32(n - 1), _gamma32(I - 1)
    underflow = I * n * 2.0**-150
    abs_total32 = (1.0 + _U32) * abs_total + underflow
    terms = (1.0 + g_n) * abs_total32
    delta32 = (
        _U32 * abs_total + underflow + 3.0 * g_n * abs_total32
        + 3.0 * (g_i + _U32 * (2.0 + _U32) * (1.0 + g_i)) * terms
    )
    if not (abs_total < 2.0**125 and delta32 < np.inf):
        return None
    R32 = R.astype(np.float32)
    high, chunks = chunk_signs.shape
    width = low_signs.shape[1]
    low_part, buf = np.empty((2, I, width), dtype=np.float32)
    np.matmul(R32[:, high:], low_signs.astype(np.float32), out=low_part)
    high_part = R32[:, :high] @ chunk_signs.astype(np.float32)
    neg_high = np.ascontiguousarray(-high_part.T)
    ones = np.ones(I, dtype=np.float32)
    objs = np.empty((chunks, width), dtype=np.float32)
    for chunk in range(chunks):
        np.maximum(low_part, neg_high[chunk, :, None], out=buf)
        np.matmul(ones, buf, out=objs[chunk])
    objs *= 2.0
    objs -= ones @ low_part
    objs += (ones @ high_part)[:, None]
    # a float64 threshold, so the float32 scores are compared exactly
    threshold = np.float64(float(objs.max()) - 2.0 * delta32 - _rescore_margin(I, n, abs_total))
    return np.flatnonzero(objs >= threshold)


def tca_axis_exact(R) -> TcaAxisSolution:
    """Exact taxicab axis of R by enumerating signs on the smaller dimension.

    The objective is symmetric under global sign flips, so only the
    half-sphere with first component +1 is enumerated; ties resolve to the
    lexicographically smallest sign vector (+1 before -1). Enumerating the
    row side instead of the column side is sound because
    max_u ||R u||_1 = max_{u,v} v' R u = max_v ||R' v||_1. Raises
    :class:`ValidationError` unless R is a finite nonempty 2-D matrix.
    """
    R = _axis_matrix(R)
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
        u = sign_vector(np.einsum("ij,i->j", R, v_enum))
    return _solution(R, u, "exact", tried)


def _guarded_product(X: np.ndarray, M: np.ndarray, tol: np.ndarray) -> np.ndarray:
    """X @ M whose rows x have the signs of ``np.einsum("k,kj->j", x, M)``.

    A gemm entry can differ from the einsum entry in the last bits, which
    flips a sign only where the exact value is zero up to rounding. Rows
    with an entry within ``tol`` of zero are recomputed with the einsum, so
    every row is the per-vector result.
    """
    Y = X @ M
    near = np.abs(Y) <= tol
    if np.count_nonzero(near):
        for a in near.any(axis=1).nonzero()[0]:
            Y[a] = np.einsum("k,kj->j", X[a], M)
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


def _best_end_point(R: np.ndarray, U: np.ndarray, abs_total: float) -> tuple[float, np.ndarray]:
    """Best +-1 row u of U and its objective: the largest ||R u||_1 as
    ``_solution`` sums it, ties going to the lexicographically smallest u
    (+1 before -1). Both solvers pick their winner here.

    All rows are scored in one product, as the row sums of |U R'|. The
    distinct rows within ``_rescore_margin`` of the best of those are sorted
    by their bytes and scored again in one ``np.einsum`` block whose row m
    sums |R u_m| as ``_solution`` does, element for element and bit for bit,
    and the first maximum wins, so the winner is that of scoring every row
    alone.
    """
    approx = np.abs(U @ R.T).sum(axis=1)
    # "not below", so that inf - inf (sum|R| overflowed) keeps every row
    near = U[~(approx < approx.max() - _rescore_margin(*R.shape, abs_total))]
    # +1.0 and -1.0 differ only in the sign-bit byte, so bytes sort +1 first
    keys = sorted({u.tobytes() for u in near})
    rows = np.frombuffer(b"".join(keys)).reshape(len(keys), U.shape[1])
    objectives = np.abs(np.einsum("ij,mj->mi", R, rows)).sum(axis=1)
    best = int(np.argmax(objectives))
    return float(objectives[best]), rows[best].copy()


def tca_axis_iterative(R) -> TcaAxisSolution:
    """Heuristic taxicab axis by alternating sign ascent from every column.

    Each start j seeds v = sign(R e_j) and alternates u = sign(R' v),
    v = sign(R u); the objective never decreases and the state space is
    finite, so every start stops at its first (u, v) state that repeats any
    earlier one, keeping that u. The best fixed point over all J starts is
    returned, ties going to the lexicographically smallest u, by the same
    function as in the exact enumeration (see ``_best_end_point``). The
    result is a lower bound for the exact objective.

    All starts advance in lockstep, one gemm per half-step, and a start
    leaves the batch once it stops. Each entry of M x over a +-1 vector x
    lies within gamma_n sum_k |M_ik| of its exact value in any summation
    order (n = I for R' v, J for R u; gamma_n < (n + 2) eps / 2), so two
    orders can disagree on its sign only where both are within twice that
    of zero. A start with an entry within 2 (n + 2) eps sum_k |M_ik| of zero
    is recomputed with the per-vector einsum, so results are bit-identical
    to running each start alone, whatever order the BLAS sums in. So v is a
    function of u, and a state repeats exactly when its u does: each start
    keeps only its u, packed into 64-bit words, and is tested for a repeat
    right after the u half-step, so a start that stops skips the v product.
    Raises :class:`ValidationError` unless R is a finite nonempty 2-D matrix.
    """
    R = _axis_matrix(R)
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
        U = np.multiply(u_neg, -2.0)  # u = sign(R' v), as sign_vector forms it
        U += 1.0
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
        V = sign_vector(_guarded_product(U, R.T, tol_v))  # v = sign(R u)

    _, best_u = _best_end_point(R, np.concatenate(ends), float(col_abs.sum()))
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

    # Axis a fills row a of each C-ordered block; the blocks are cut to the
    # axes kept, and their transposes are the decomposition's columns.
    f_rows, v_rows, g_rows, u_rows = (np.empty((k, n)) for n in (I, I, J, J))
    solutions: list[TcaAxisSolution] = []
    exhausted = False
    for a in range(k):
        sol = tca_axis_exact(R) if exact else tca_axis_iterative(R)
        sigma = sol.objective
        sigma_1 = solutions[0].objective if solutions else sigma
        if sigma_1 <= noise_floor or sigma < RANK_CUTOFF * sigma_1:
            exhausted = True
            break
        f_rows[a], g_rows[a] = np.einsum("ij,j->i", R, sol.u) / r, np.einsum("ij,i->j", R, sol.v) / c
        u_rows[a], v_rows[a] = sol.u, sol.v
        solutions.append(sol)
        R = _deflate(R, r, c, f_rows[a], g_rows[a], sigma)

    n = len(solutions)
    F, G, U, V = (rows[:n].T for rows in (f_rows, g_rows, u_rows, v_rows))
    sigmas = np.array([sol.objective for sol in solutions])
    return Decomposition("TCA", F, G, U, V, sigmas, model, exhausted or n == k_max, tuple(solutions))


def cut_norm_bruteforce(R) -> float:
    """Cut norm of R: the largest |sum of R over S x T| over index subsets.

    Enumerates all subsets T of the smaller dimension; for fixed T the best S
    simply collects the positive (or the negative) partial sums, so the whole
    search is exact at 2^min(I,J) candidates instead of 2^(I+J). Raises
    :class:`ValidationError` unless R is a finite nonempty 2-D matrix with
    min(I, J) at most ``CUT_NORM_MAX_DIM``.
    """
    R = _axis_matrix(R)
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
