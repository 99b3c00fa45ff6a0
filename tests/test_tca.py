import platform
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.testing import assert_allclose

from taxica import (
    ValidationError,
    build_model,
    cut_norm_bruteforce,
    diagonal_sigma1,
    tca_axis_exact,
    tca_axis_iterative,
    tca_decompose,
    verify,
)

from taxica.tca import (
    _ENUM_CHUNK,
    EXACT_THRESHOLD,
    _enumerate_best,
    _rescore_margin,
    _screen,
    _sign_blocks,
    sign_vector,
)

from helpers import cli_env, enumerate_oracle, half_sphere_signs, make_table, random_tables


def _enumeration_case(rows, dim, kind, seed):
    rng = np.random.default_rng(seed)
    if kind == "rank1":  # small integer factors: many exactly tied objectives
        return np.outer(rng.integers(-2, 3, rows), rng.integers(-2, 3, dim)) / 7.0
    if kind == "ternary":  # entries -1, 0, 1: ties between unrelated sign vectors
        return rng.integers(-1, 2, (rows, dim)).astype(np.float64)
    R = rng.normal(size=(rows, dim))
    if kind == "sparse":
        R *= rng.random((rows, dim)) < 0.3
        R -= R.mean(axis=0)
        R -= R.mean(axis=1, keepdims=True)
    elif kind == "zero-columns":
        R[:, rng.choice(dim, size=max(1, dim // 3), replace=False)] = 0.0
    return R


#: Inputs both axis solvers and the cut-norm oracle refuse, with the refusal
#: they must give. Without the check, the all-NaN matrix ended in a bare
#: numpy ValueError and the infinite entry in objective inf with
#: RuntimeWarnings. ``cut_norm_bruteforce`` returned 0.0 for the all-NaN
#: matrix and for no columns, inf with a RuntimeWarning for the infinite
#: entry, and a bare ValueError for the vector.
BAD_AXIS_MATRICES = [
    (np.full((3, 3), np.nan), "non-finite"),
    ([[1.0, np.inf], [0.0, 1.0]], "non-finite"),
    (np.zeros(4), "2-D"),
    (np.zeros((3, 0)), "nonempty"),
]
BAD_AXIS_IDS = ["all-nan", "infinite-entry", "vector", "no-columns"]


#: Float arrays of up to two dimensions, some empty, that draw +-0.0, NaN,
#: infinities and subnormals often; int arrays, float32 vectors and scalars.
SIGN_INPUTS = st.one_of(
    hnp.arrays(
        np.float64,
        hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=6),
        elements=st.one_of(
            st.sampled_from([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324]),
            st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
        ),
    ),
    hnp.arrays(np.int64, hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=6)),
    hnp.arrays(np.float32, st.integers(0, 8), elements=st.floats(width=32)),
    st.one_of(st.integers(-3, 3), st.floats(allow_nan=True)).map(np.asarray),
)


class TestSignVector:
    @given(SIGN_INPUTS, st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_matches_the_where_form_bit_for_bit(self, x, as_list):
        if as_list:
            x = x.tolist()
        got, want = sign_vector(x), np.where(np.asarray(x) < 0, -1.0, 1.0)
        assert type(got) is type(want) and (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()

    def test_zero_is_plus_one_and_never_negative_zero(self):
        got = sign_vector([-0.0, 0.0, -1e-320, np.nan, -3])
        assert got.tolist() == [1.0, 1.0, -1.0, 1.0, -1.0]
        assert not np.signbit(got[:2]).any()


class TestAxisExact:
    def test_toy_minimal(self, toy_minimal):
        sol = tca_axis_exact(build_model(toy_minimal).R0)
        assert sol.u.tolist() == [1, -1]
        assert sol.objective == pytest.approx(24 / 49, abs=1e-14)
        assert sol.solver == "exact"
        assert sol.converged

    def test_zero_matrix(self):
        sol = tca_axis_exact(np.zeros((3, 4)))
        assert sol.objective == 0
        assert sol.u.tolist() == [1, 1, 1, 1]  # lexicographically smallest
        assert sol.v.tolist() == [1, 1, 1]

    def test_diagonal_with_balanced_split(self, diag_12346):
        sol = tca_axis_exact(build_model(diag_12346).R0)
        assert sol.objective == pytest.approx(1.0, abs=1e-12)

    def test_transpose_symmetry(self):
        rng = np.random.default_rng(2)
        R = rng.normal(size=(4, 6))
        R -= R.mean(axis=1, keepdims=True)
        R -= R.mean(axis=0, keepdims=True)
        assert tca_axis_exact(R).objective == pytest.approx(
            tca_axis_exact(R.T).objective, abs=1e-12
        )

    def test_dimension_cap(self):
        with pytest.raises(ValidationError, match="threshold"):
            tca_axis_exact(np.zeros((25, 30)))

    @pytest.mark.parametrize("R, match", BAD_AXIS_MATRICES, ids=BAD_AXIS_IDS)
    def test_refuses_a_matrix_that_is_not_finite_and_2d(self, R, match):
        with pytest.raises(ValidationError, match=match):
            tca_axis_exact(R)

    @pytest.mark.parametrize("solver", [tca_axis_exact, tca_axis_iterative])
    def test_objective_past_the_float_range(self, solver):
        # sum|R| overflows, so the rescoring margin is inf and the threshold
        # inf - inf; every end point must stay a candidate, or none is left
        R = np.array([[1e308, -1e308, 1.0], [1e308, 1e308, 2.0], [3.0, 1.0, 1e308]])
        with np.errstate(over="ignore", invalid="ignore"):
            solution = solver(R)
        assert (solution.u.tolist(), solution.objective) == ([1.0, 1.0, 1.0], np.inf)

    def test_sign_invariant_v(self, rodents_table):
        R0 = build_model(rodents_table).R0
        sol = tca_axis_exact(R0)
        assert_allclose(sol.v, np.where(R0 @ sol.u < 0, -1.0, 1.0))


class TestEnumerateBest:
    """The screened enumeration against the per-vector oracle, bit for bit.

    The chunk is 2^11 candidates, so dim 12 fills exactly one chunk, dim 11
    half of one and dim 13 two."""

    @pytest.mark.parametrize("kind", ["gauss", "sparse", "zero-columns", "rank1", "ternary"])
    @pytest.mark.parametrize(
        "rows, dim",
        [(rows, dim) for rows in (2, 3, 5, 40) for dim in (1, 2, 5, 11, 12, 13)]
        + [(2, 16), (4, 15), (3, 14)]
        + [(rows, dim) for rows in (120, 400) for dim in (6, 12)],
    )
    def test_matches_one_shot_oracle(self, rows, dim, kind):
        R = _enumeration_case(rows, dim, kind, seed=1000 * rows + 10 * dim + len(kind))
        objective, w, tried = _enumerate_best(R)
        expected_objective, expected_w, expected_tried = enumerate_oracle(R)
        assert objective == expected_objective
        assert w.tolist() == expected_w.tolist()
        assert tried == expected_tried == 2 ** (dim - 1)

    def test_ties_go_to_lex_first_candidate_across_chunks(self):
        # Rows a, b give ||R u||_1 = max(|(a+b) u|, |(a-b) u|), so exactly
        # u = sign(a+b) and u = sign(a-b) tie at 14. They differ in
        # components 1 and 2, which select the chunk; +1 < -1 puts
        # sign(a+b) first.
        plus = np.ones(14)
        plus[2] = -1.0
        minus = np.ones(14)
        minus[1] = -1.0
        R = np.vstack([(plus + minus) / 2, (plus - minus) / 2])
        objective, w, _ = _enumerate_best(R)
        assert objective == 14.0
        assert w.tolist() == plus.tolist()

    @pytest.mark.parametrize("rows, cols", [(80, 16), (120, 15), (100, 15), (15, 100)])
    def test_matches_one_shot_oracle_on_workload_residuals(self, rows, cols):
        # The residuals of the first three axes of a seeded count table with
        # 80% zeros, at the shapes whose half-sphere spans 8 or 16 chunks.
        rng = np.random.default_rng(rows * cols)
        counts = rng.poisson(3.0, (rows, cols)) * (rng.random((rows, cols)) < 0.2)
        counts[:, 0] += 1
        counts[0, :] += 1
        decomp = tca_decompose(build_model(make_table(counts)), max_axes=3)
        for R in decomp.residuals:
            R = R if cols <= rows else R.T
            objective, w, tried = _enumerate_best(R)
            expected_objective, expected_w, expected_tried = enumerate_oracle(R)
            assert objective == expected_objective
            assert w.tolist() == expected_w.tolist()
            assert tried == expected_tried

    def test_sixth_axis_of_a_count_table_is_the_per_vector_maximizer(self):
        # The last axis of a seeded 13x7 table: the sign vector below and
        # [1, -1, -1, 1, -1, 1, -1] tie but for rounding, and this one
        # scores 1 ulp higher as _solution sums it.
        rng = np.random.default_rng(91)
        counts = rng.poisson(3.0, (13, 7)) * (rng.random((13, 7)) < 0.3)
        counts[:, 0] += 1
        counts[0, :] += 1
        sixth = tca_decompose(build_model(make_table(counts))).solutions[5]
        assert sixth.u.tolist() == [1, 1, -1, 1, -1, 1, -1]
        assert sixth.objective == 0.11416893844166522

    @pytest.mark.parametrize(
        "scale, screened",
        [(1.0, True), (1e-41, True), (1e-47, True), (1e37, False), (1e39, False)],
        ids=["normal", "float32-subnormal", "below-float32", "sum-beyond-float32", "beyond-float32"],
    )
    def test_matches_oracle_at_the_edges_of_float32(self, scale, screened):
        # 1e-41 casts to float32 subnormals with a few bits left, 1e-47 to
        # zero; at 1e37 the cast is finite but sum|R| is past 2^125, and at
        # 1e39 the cast overflows, so both hand every candidate to
        # _best_end_point.
        R = _enumeration_case(40, 14, "gauss", seed=7) * scale
        assert (_screen(R, *_sign_blocks(14)) is not None) == screened
        objective, w, _ = _enumerate_best(R)
        expected_objective, expected_w, _ = enumerate_oracle(R)
        assert objective == expected_objective
        assert w.tolist() == expected_w.tolist()

    def test_subnormal_entries_break_integer_ties(self):
        # Integer entries tie many candidates exactly; perturbations far
        # below float32's normal range decide the float64 winner, and are
        # lost in every float32 sum.
        rng = np.random.default_rng(8)
        R = rng.integers(-1, 2, (30, 15)) + 1e-40 * rng.normal(size=(30, 15))
        objective, w, _ = _enumerate_best(R)
        expected_objective, expected_w, _ = enumerate_oracle(R)
        assert objective == expected_objective
        assert w.tolist() == expected_w.tolist()

    def test_all_zero_matrix_keeps_every_chunk(self):
        # every candidate of the 4 chunks ties at 0
        assert _screen(np.zeros((5, 14)), *_sign_blocks(14)).tolist() == list(range(4 * _ENUM_CHUNK))
        objective, w, tried = _enumerate_best(np.zeros((5, 14)))
        assert (objective, w.tolist(), tried) == (0.0, [1.0] * 14, 2**13)

    @pytest.mark.parametrize(
        "seed, scale", [(0, 1.0), (1, 1.0), (7, 1.0), (1, 1e-43), (2, 1e-43), (3, 1e-43)]
    )
    def test_near_tie_inside_the_float32_margin(self, seed, scale):
        # The best two candidates of different aligned blocks of 64, 1e-9
        # apart in float64: far below float32's resolution. Seeds picked so
        # that a screen keeping only the float32 maximum picks the wrong one, and
        # at scale 1e-43 (float32 subnormals of a few bits) also one without
        # the underflow term of delta32.
        R, first, second = _near_tie(seed)
        R *= scale
        assert {first, second} <= set(_screen(R, *_sign_blocks(14)).tolist())
        objective, w, _ = _enumerate_best(R)
        expected_objective, expected_w, _ = enumerate_oracle(R)
        assert objective == expected_objective
        assert w.tolist() == expected_w.tolist()


#: Child process for the page-fault test: three exact axes of one seeded
#: 100x15 residual, printing the minor page faults of the third.
THIRD_CALL_FAULTS = """
import resource
import numpy as np
from taxica import ContingencyTable, build_model
from taxica.tca import _enumerate_best
rng = np.random.default_rng(1500)
counts = rng.poisson(3.0, (100, 15)) * (rng.random((100, 15)) < 0.2)
counts[:, 0] += 1
counts[0, :] += 1
labels = [f"r{i}" for i in range(100)], [f"c{j}" for j in range(15)]
R = build_model(ContingencyTable(*labels, counts.astype(float))).R0
_enumerate_best(R)
_enumerate_best(R)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
_enumerate_best(R)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(
    not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
    reason="pins glibc's dynamic mmap threshold",
)
def test_screened_axes_reuse_heap_blocks():
    # _screen allocates its two I x width float32 blocks as one block,
    # which raises glibc's mmap threshold above its size when freed, so
    # from the third call on it comes from the heap; as two separate blocks
    # each call mapped fresh pages (368 minor faults). A fresh process,
    # since blocks left by other tests would hide the difference.
    proc = subprocess.run(
        [sys.executable, "-c", THIRD_CALL_FAULTS], capture_output=True, env=cli_env("1")
    )
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")
    assert int(proc.stdout) == 0


def _near_tie(seed, rows=60, dim=14, gap=1e-9):
    """A Gaussian R whose best candidate ``first`` and the best candidate
    ``second`` outside its aligned block of 64 (``window``) differ by
    ``gap`` relative: one entry in a row where both have the same sign, and
    a column where they differ, moves the gap by twice its change."""
    rng = np.random.default_rng(seed)
    R = rng.normal(size=(rows, dim))
    signs = half_sphere_signs(dim)
    scores = np.abs(R @ signs).sum(axis=0)
    first = int(np.argmax(scores))
    window = np.arange(scores.size) // 64
    second = int(np.argmax(np.where(window == first // 64, -np.inf, scores)))
    w1, w2 = signs[:, first], signs[:, second]
    j = int(np.flatnonzero(w1 != w2)[0])
    s1 = np.sign(R @ w1)
    i = int(np.flatnonzero(s1 == np.sign(R @ w2))[0])
    R[i, j] -= (scores[first] - scores[second] - gap * scores[first]) / (2 * w1[j] * s1[i])
    return R, first, second


def _ascent_end_points(R):
    """One start at a time: seed v = sign(R e_j), alternate half-steps, each
    the per-vector ``np.einsum`` of ``tca``, until a (u, v) state repeats.
    Returns (objective, u, steps) of every start, where steps counts its u
    half-steps, the last one included."""
    ends = []
    for j in range(R.shape[1]):
        v = sign_vector(R[:, j])
        seen = set()
        while True:
            u = sign_vector(np.einsum("ij,i->j", R, v))
            v = sign_vector(np.einsum("ij,j->i", R, u))
            state = u.tobytes() + v.tobytes()
            if state in seen:
                break
            seen.add(state)
        ends.append((float(np.abs(np.einsum("ij,j->i", R, u)).sum()), u, len(seen) + 1))
    return ends


def _ascent_oracle(R):
    """The best end point of the per-start ascent (ties: lex first u, +1
    before -1, which is the largest u as a list of numbers)."""
    objective, u, _ = max(_ascent_end_points(R), key=lambda end: (end[0], end[1].tolist()))
    return objective, u


def _assert_matches_ascent_oracle(R):
    sol = tca_axis_iterative(R)
    objective, u = _ascent_oracle(R)
    assert sol.objective == objective
    assert sol.u.tolist() == u.tolist()
    assert sol.v.tolist() == sign_vector(np.einsum("ij,j->i", R, u)).tolist()
    assert sol.starts_tried == R.shape[1]


#: 21x24 counts, one digit per cell. Several row and column sums of R0 over
#: sign vectors cancel exactly, and with OpenBLAS 0.3.31 on x86-64 (its
#: default, Sandybridge and Prescott kernels) a gemm over all starts at once
#: rounds some of them to the other side of zero than the per-start einsum
#: does, so the ascent picks another axis unless the rounding guard
#: recomputes those starts. Other BLAS builds may round alike; the test then
#: checks the same equality without needing the guard.
PINNED_ASCENT_TABLE = """
000100010120301000001000 000000000000000000021000 000000000100000000000000
000000000000000000000001 400020000000000000010000 000000000000100000001000
000010000000000000000000 020000000002000000000000 000000002100000000000000
001000000000000000000000 000000100000010000012000 000000000000000000000010
000001300000000000000000 000000000000000000001000 000300000040000000000000
000200002000000001100000 300110001020000010000120 000002000001000000100000
100000000200000200000000 002100000010000000000000 400002000100000000500000
"""


@st.composite
def sparse_iterative_tables(draw):
    """Poisson(0.5-1) counts with 85-95% zeros and 21-60 lines a side,
    some with repeated rows or columns; no empty line."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows, cols = draw(st.integers(21, 60)), draw(st.integers(21, 60))
    lam = draw(st.floats(0.5, 1.0))
    zero_frac = draw(st.floats(0.85, 0.95))
    counts = rng.poisson(lam, (rows, cols)) * (rng.random((rows, cols)) > zero_frac)
    for i in np.flatnonzero(counts.sum(axis=1) == 0):
        counts[i, rng.integers(cols)] = 1
    for j in np.flatnonzero(counts.sum(axis=0) == 0):
        counts[rng.integers(rows), j] = 1
    repeat_rows, repeat_cols = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    counts = np.vstack([counts, counts[rng.integers(0, rows, repeat_rows)]])
    counts = np.hstack([counts, counts[:, rng.integers(0, cols, repeat_cols)]])
    return counts


class TestAscentOracle:
    """The lockstep ascent against the per-start loop, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(counts=sparse_iterative_tables())
    def test_matches_per_start_ascent(self, counts):
        decomp = tca_decompose(build_model(make_table(counts)), max_axes=3)
        assert all(sol.solver == "iterative" for sol in decomp.solutions)
        for residual in decomp.residuals:
            _assert_matches_ascent_oracle(residual)

    def test_pinned_table_needs_the_rounding_guard(self):
        counts = [[int(d) for d in line] for line in PINNED_ASCENT_TABLE.split()]
        R0 = build_model(make_table(counts)).R0
        assert R0.shape == (21, 24)
        _assert_matches_ascent_oracle(R0)

    def test_ascent_longer_than_the_initial_history(self):
        # The lockstep ascent keeps 16 steps of u history and doubles it when
        # a start goes on. The residual of axis 51 of this seeded 120x60
        # table (60% zeros) has a start that needs 19 steps.
        rng = np.random.default_rng(2)
        counts = rng.poisson(6.0, size=(120, 60)) * (rng.random((120, 60)) > 0.6)
        counts[:, 0] += 1
        counts[0, :] += 1
        R = tca_decompose(build_model(make_table(counts)), max_axes=51).residuals[50]
        assert max(steps for _, _, steps in _ascent_end_points(R)) > 16
        _assert_matches_ascent_oracle(R)

    def test_transposed_and_zero_matrices(self):
        rng = np.random.default_rng(5)
        R = rng.integers(-2, 3, (30, 23)).astype(np.float64)
        for M in (R, R.T, np.zeros((22, 25)), np.asfortranarray(R)):
            _assert_matches_ascent_oracle(M)

    @pytest.mark.parametrize("case", ["counts", "ternary"])
    def test_exactly_tied_end_points(self, case):
        # Tables with duplicated columns. Negating u negates every term of
        # R u, so u and -u score exactly alike (the counts case); with entries
        # -1, 0, 1 the objectives are integers, and unrelated end points tie
        # as well (the ternary case). The re-score and the lexicographic rule
        # pick among them.
        rng = np.random.default_rng(0 if case == "counts" else 3)
        if case == "counts":
            counts = rng.poisson(0.8, (24, 22)) * (rng.random((24, 22)) > 0.8)
            counts[:, 0] += 1
            counts[0, :] += 1
            R = build_model(make_table(np.hstack([counts, counts[:, rng.integers(0, 22, 4)]]))).R0
        else:
            base = rng.integers(-1, 2, (25, 14)).astype(np.float64)
            R = np.hstack([base, base[:, rng.integers(0, 14, 8)]])
        ends = _ascent_end_points(R)
        best = max(objective for objective, _, _ in ends)
        tied = {u.tobytes(): u for objective, u, _ in ends if objective == best}
        assert len(tied) >= 2
        negated = all(any((u == -w).all() for w in tied.values()) for u in tied.values())
        assert negated == (case == "counts")
        _assert_matches_ascent_oracle(R)

    @pytest.mark.parametrize("case", [(70, 72), (40, 130), "block"])
    def test_u_keys_of_several_words(self, case):
        # J > 64, so each u takes two or three 64-bit words. In the block
        # case the first 64 columns (a rank-one block) settle at the first
        # step while the last 32 still move, so a key that lost its second
        # word would stop every start early.
        if case == "block":
            rng = np.random.default_rng(1)
            R = np.zeros((60, 96))
            R[:20, :64] = np.outer(rng.normal(size=20), rng.normal(size=64))
            R[20:, 64:] = rng.normal(size=(40, 32))
        else:
            rng = np.random.default_rng(case[1])
            counts = rng.poisson(0.7, case) * (rng.random(case) > 0.85)
            counts[:, 0] += 1
            counts[0, :] += 1
            R = build_model(make_table(counts)).R0
        _assert_matches_ascent_oracle(R)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        rows=st.integers(1, 60),
        cols=st.integers(1, 60),
        spread=st.integers(0, 12),
    )
    def test_one_product_objectives_within_the_margin(self, seed, rows, cols, spread):
        # Entries spanning 10^spread in magnitude with centred lines, so R u
        # cancels; every end point and as many random sign vectors are scored
        # by the one product and one at a time. Each value lies within delta
        # of the exact norm, so the two differ by at most 2 delta, which is
        # less than half the re-score margin.
        rng = np.random.default_rng(seed)
        R = rng.normal(size=(rows, cols)) * 10.0 ** rng.uniform(-spread, 0, (rows, cols))
        R -= R.mean(axis=0)
        R -= R.mean(axis=1, keepdims=True)
        ends = np.array([u for _, u, _ in _ascent_end_points(R)])
        U = np.vstack([ends, np.where(rng.random(ends.shape) < 0.5, -1.0, 1.0)])
        one_product = np.abs(U @ R.T).sum(axis=1)
        per_vector = np.array([float(np.abs(R @ u.copy()).sum()) for u in U])
        half_margin = _rescore_margin(rows, cols, float(np.abs(R).sum())) / 2
        assert np.all(np.abs(one_product - per_vector) <= half_margin)


class TestAxisIterative:
    def test_rank_one_positive_matrix(self):
        a = np.array([1.0, 2.0, 0.5])
        b = np.array([3.0, 1.0, 2.0, 4.0])
        sol = tca_axis_iterative(np.outer(a, b))
        assert sol.u.tolist() == [1, 1, 1, 1]
        assert sol.objective == pytest.approx(a.sum() * b.sum(), rel=1e-12)
        assert sol.starts_tried == 4

    def test_equal_objectives_go_to_lexicographically_first_u(self):
        # The three starts reach u = (+,-,+), (-,+,+) and (+,+,+), all with
        # objective 6; the last start's u comes first lexicographically.
        R = np.array([[-1.0, 2.0, -2.0], [0.0, 1.0, 2.0], [0.0, -1.0, -1.0]])
        sol = tca_axis_iterative(R)
        assert sol.objective == 6.0
        assert sol.u.tolist() == [1, 1, 1]

    def test_matches_exact_on_datasets(self, tv_table, rodents_table):
        for table, expected in ((tv_table, None), (rodents_table, 0.478)):
            R0 = build_model(table).R0
            exact = tca_axis_exact(R0)
            heuristic = tca_axis_iterative(R0)
            assert heuristic.objective == pytest.approx(exact.objective, abs=1e-12)
            if expected is not None:
                assert heuristic.objective == pytest.approx(expected, abs=1e-3)

    @pytest.mark.parametrize("R, match", BAD_AXIS_MATRICES, ids=BAD_AXIS_IDS)
    def test_refuses_a_matrix_that_is_not_finite_and_2d(self, R, match):
        with pytest.raises(ValidationError, match=match):
            tca_axis_iterative(R)

    def test_never_exceeds_exact(self):
        for table in random_tables(30, seed=1234):
            R0 = build_model(table).R0
            assert (
                tca_axis_iterative(R0).objective
                <= tca_axis_exact(R0).objective + 1e-12
            )


class TestTcaDecompose:
    def test_diag_12346_dispersions(self, diag_12346):
        decomp = tca_decompose(build_model(diag_12346))
        assert_allclose(decomp.sigmas, [1, 0.875, 0.85714, 0.18750], atol=1e-5)

    def test_diag_12345_dispersions(self, diag_12345):
        decomp = tca_decompose(build_model(diag_12345))
        assert_allclose(decomp.sigmas, [0.99556, 0.95714, 0.95522, 0.17778], atol=1e-5)

    def test_rodents_dispersions(self, rodents_tca):
        expected = [0.478, 0.422, 0.347, 0.138, 0.120, 0.091, 0.061, 0.010]
        assert_allclose(rodents_tca.sigmas, expected, atol=1e-3)

    def test_tv_dispersions_regression(self, tv_tca):
        expected = [0.355921, 0.164413, 0.075080, 0.042141, 0.034088, 0.008708]
        assert_allclose(tv_tca.sigmas, expected, atol=1e-6)

    def test_solver_metadata(self, rodents_tca):
        assert rodents_tca.solutions is not None
        assert all(sol.solver == "exact" for sol in rodents_tca.solutions)
        assert rodents_tca.solutions[0].starts_tried == 2**8

    def test_residuals_stored_per_axis(self, tv_tca):
        assert tv_tca.residuals is not None
        assert len(tv_tca.residuals) == tv_tca.rank_used
        model = tv_tca.model
        assert_allclose(tv_tca.residuals[0], model.R0)

    @pytest.mark.parametrize("shape", [(9, 8), (30, 24)], ids=["exact", "iterative"])
    def test_residuals_replay_the_deflation(self, rodents_table, shape):
        rng = np.random.default_rng(11)
        counts = rng.poisson(2.0, shape) * (rng.random(shape) > 0.5) + np.eye(*shape)
        model = build_model(rodents_table if shape == (9, 8) else make_table(counts))
        decomp = tca_decompose(model)
        r, c = model.r, model.c
        R, expected = model.R0, []
        for axis in decomp.axes:
            expected.append(R)
            R = R - (r * axis.f)[:, None] * (c * axis.g) / axis.sigma
        assert len(decomp.residuals) == len(expected) == decomp.rank_used > 1
        solve = tca_axis_exact if min(shape) <= EXACT_THRESHOLD else tca_axis_iterative
        for axis, got, want in zip(decomp.axes, decomp.residuals, expected):
            assert np.array_equal(got, want)
            # each residual is the one its axis was solved on, bit for bit
            sol = solve(got)
            assert sol.objective == axis.sigma and np.array_equal(sol.u, axis.u)

    def test_holds_no_residual_copies(self):
        # 39 iterative axes of a 300x40 table: one I x J residual per axis
        # would be 39 I J doubles; the axes and solutions take about 2.6.
        rng = np.random.default_rng(3)
        counts = rng.poisson(3.0, (300, 40)) * (rng.random((300, 40)) > 0.5) + 1.0
        model = build_model(make_table(counts))
        tracemalloc.start()
        try:
            decomp = tca_decompose(model)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert decomp.solutions[0].solver == "iterative"
        assert decomp.rank_used == 39
        assert held < 8 * 300 * 40 * 8

    def test_forced_iterative_agrees_on_toy(self, toy_minimal):
        exact = tca_decompose(build_model(toy_minimal))
        assert exact.solutions[0].solver == "exact"
        for residual, sigma in zip(exact.residuals, exact.sigmas):
            assert tca_axis_iterative(residual).objective == pytest.approx(sigma, abs=1e-12)

    def test_solver_follows_the_smaller_side(self):
        # Exact up to min(I, J) = EXACT_THRESHOLD, the ascent one line beyond.
        rng = np.random.default_rng(7)
        for side, solver in ((EXACT_THRESHOLD, "exact"), (EXACT_THRESHOLD + 1, "iterative")):
            counts = rng.poisson(3.0, size=(side + 1, side)).T + 1.0
            decomp = tca_decompose(build_model(make_table(counts)), max_axes=1)
            assert decomp.solutions[0].solver == solver

    def test_max_axes_validation(self, tv_table):
        model = build_model(tv_table)
        with pytest.raises(ValidationError, match="out of range"):
            tca_decompose(model, max_axes=99)
        truncated = tca_decompose(model, max_axes=2)
        assert truncated.rank_used == 2
        assert not truncated.is_full_rank

    def test_independence_table_has_no_axes(self):
        model = build_model(make_table(10.0 * np.outer([0.3, 0.7], [0.5, 0.5])))
        decomp = tca_decompose(model)
        assert decomp.rank_used == 0

    @pytest.mark.parametrize(
        "counts",
        [
            [[5, 6], [10, 12]],
            [[1, 3, 7], [3, 9, 21], [2, 6, 14]],
            np.outer(np.arange(1.0, 31.0), [0.3, 1.7, 2.9, 0.1, 5.3, 1.1]),
        ],
    )
    def test_proportional_lines_have_no_axes(self, counts):
        # R0 is rounding noise; before the rank floor, the first table kept
        # an axis of sigma 8.3e-17 with contributions -333 / -667.
        decomp = tca_decompose(build_model(make_table(counts)))
        assert decomp.rank_used == 0 and decomp.is_full_rank

    def test_dispersions_need_not_decrease(self):
        # L1 deflation can leave a residual whose optimum beats the first
        # axis; every structural identity still holds, axis by axis.
        table = make_table([[0, 0, 0, 1], [0, 2, 2, 0], [0, 0, 2, 0], [1, 1, 1, 0]])
        decomp = tca_decompose(build_model(table))
        assert_allclose(decomp.sigmas, [0.48, 8 / 15, 0.4], atol=1e-12)
        assert decomp.sigmas[1] > decomp.sigmas[0]
        for axis, residual in zip(decomp.axes, decomp.residuals):
            assert axis.sigma == pytest.approx(
                4 * cut_norm_bruteforce(residual), abs=1e-12
            )
        assert verify(decomp).passed

    def test_all_invariants_on_datasets(self, tv_tca, rodents_tca, diag_12346):
        for decomp in (tv_tca, rodents_tca, tca_decompose(build_model(diag_12346))):
            report = verify(decomp)
            assert report.passed, [
                (c.name, c.max_residual) for c in report.checks if not c.passed
            ]


class TestCutNorm:
    def test_zero_matrix(self):
        assert cut_norm_bruteforce(np.zeros((4, 5))) == 0

    def test_toy_minimal(self, toy_minimal):
        cut = cut_norm_bruteforce(build_model(toy_minimal).R0)
        assert cut == pytest.approx(6 / 49, abs=1e-14)

    def test_four_cut_equals_axis_objective(self):
        rng = np.random.default_rng(77)
        for _ in range(20):
            R = rng.normal(size=(5, 6))
            R -= R.mean(axis=1, keepdims=True)
            R -= R.mean(axis=0, keepdims=True)
            assert 4 * cut_norm_bruteforce(R) == pytest.approx(
                tca_axis_exact(R).objective, abs=1e-10
            )

    def test_dimension_cap(self):
        with pytest.raises(ValidationError, match="limited"):
            cut_norm_bruteforce(np.zeros((16, 16)))

    @pytest.mark.parametrize("R, match", BAD_AXIS_MATRICES, ids=BAD_AXIS_IDS)
    def test_refuses_a_matrix_that_is_not_finite_and_2d(self, R, match):
        with pytest.raises(ValidationError, match=match):
            cut_norm_bruteforce(R)


class TestDiagonalSigma1:
    def test_balanced_subset_reaches_one(self):
        assert diagonal_sigma1(np.array([1, 2, 3, 4, 6]) / 16) == pytest.approx(
            1.0, abs=1e-14
        )

    def test_near_balanced_masses(self):
        got = diagonal_sigma1(np.array([1, 2, 3, 4, 5]) / 15)
        assert got == pytest.approx(224 / 225, abs=1e-14)

    def test_two_point_mass(self):
        assert diagonal_sigma1([6 / 7, 1 / 7]) == pytest.approx(24 / 49, abs=1e-14)

    def test_agrees_with_decomposition(self, diag_12346, diag_12345):
        for table in (diag_12346, diag_12345):
            model = build_model(table)
            sigma1 = tca_decompose(model).sigmas[0]
            assert diagonal_sigma1(model.r) == pytest.approx(sigma1, abs=1e-9)

    def test_input_validation(self):
        with pytest.raises(ValidationError, match="sum to 1"):
            diagonal_sigma1([0.2, 0.2])
        with pytest.raises(ValidationError, match="positive"):
            diagonal_sigma1([1.0, 0.0])
        with pytest.raises(ValidationError, match="limited"):
            diagonal_sigma1(np.full(30, 1 / 30))

    def test_matches_exhaustive_enumeration(self):
        rng = np.random.default_rng(9)
        masses = rng.random(8)
        masses /= masses.sum()
        best = 0.0
        for mask in range(1 << 8):
            s = masses[[i for i in range(8) if mask >> i & 1]].sum()
            best = max(best, 4 * s * (1 - s))
        assert diagonal_sigma1(masses) == pytest.approx(best, abs=1e-12)
