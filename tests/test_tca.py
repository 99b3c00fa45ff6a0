import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
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

from taxica.tca import EXACT_THRESHOLD, _enumerate_best, _lex_less, sign_vector

from helpers import make_table, random_tables


def _enumerate_oracle(R):
    """One-shot enumeration: every half-sphere sign vector in one gemm,
    lex order (+1 < -1, first component +1), first argmax."""
    dim = R.shape[1]
    ms = np.arange(1 << (dim - 1))
    low = 1.0 - 2.0 * ((ms >> np.arange(dim - 2, -1, -1)[:, None]) & 1)
    signs = np.vstack([np.ones(ms.size), low])
    objs = np.abs(R @ signs).sum(axis=0)
    i = int(np.argmax(objs))
    return objs[i], signs[:, i], ms.size


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

    def test_sign_invariant_v(self, rodents_table):
        R0 = build_model(rodents_table).R0
        sol = tca_axis_exact(R0)
        assert_allclose(sol.v, np.where(R0 @ sol.u < 0, -1.0, 1.0))


class TestEnumerateBest:
    """The chunked enumeration against the one-shot oracle, bit for bit.

    The chunk is 2^11 candidates, so dim 12 fills exactly one chunk, dim 11
    half of one and dim 13 two."""

    @pytest.mark.parametrize("kind", ["gauss", "sparse", "zero-columns", "rank1", "ternary"])
    @pytest.mark.parametrize(
        "rows, dim",
        [(rows, dim) for rows in (2, 3, 5, 40) for dim in (1, 2, 5, 11, 12, 13)]
        + [(2, 16), (4, 15), (3, 14)],
    )
    def test_matches_one_shot_oracle(self, rows, dim, kind):
        R = _enumeration_case(rows, dim, kind, seed=1000 * rows + 10 * dim + len(kind))
        objective, w, tried = _enumerate_best(R)
        expected_objective, expected_w, expected_tried = _enumerate_oracle(R)
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


def _ascent_oracle(R):
    """One start at a time: seed v = sign(R e_j), alternate gemv half-steps
    until a (u, v) state repeats, keep the best u (ties: lex first)."""
    best_obj, best_u = None, None
    for j in range(R.shape[1]):
        v = sign_vector(R[:, j])
        seen = set()
        while True:
            u = sign_vector(R.T @ v)
            v = sign_vector(R @ u)
            state = u.tobytes() + v.tobytes()
            if state in seen:
                break
            seen.add(state)
        objective = float(np.abs(R @ u).sum())
        if (
            best_u is None
            or objective > best_obj
            or (objective == best_obj and _lex_less(u, best_u))
        ):
            best_obj, best_u = objective, u
    return best_obj, best_u


def _assert_matches_ascent_oracle(R):
    sol = tca_axis_iterative(R)
    objective, u = _ascent_oracle(R)
    assert sol.objective == objective
    assert sol.u.tolist() == u.tolist()
    assert sol.v.tolist() == sign_vector(R @ u).tolist()
    assert sol.starts_tried == R.shape[1]


#: 21x24 counts, one digit per cell. Several row and column sums of R0 over
#: sign vectors cancel exactly, and with OpenBLAS 0.3.31 on x86-64 a gemm
#: over all starts at once rounds some of them to the other side of zero
#: than the per-start gemv does, so the ascent picks another axis unless
#: the rounding guard recomputes those starts. Other BLAS builds may round
#: alike; the test then checks the same equality without needing the guard.
PINNED_ASCENT_TABLE = """
002000000000000000001300 000000011000000030000101 000000000000000010000010
000000000000000000010000 110000000000000000004200 000000000000100000000000
000002001000000100000001 000000010000000000000000 010010000000010010000100
000001000000010002000000 100000100010000000000100 000000000100000000000000
000002000001000000000003 000110000001000010000000 000000000000100002200000
000000000200000000010000 000002010000012000101100 010000200000000001000010
000000000200000000100001 000100000051100000002000 100000000001000100000000
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

    def test_transposed_and_zero_matrices(self):
        rng = np.random.default_rng(5)
        R = rng.integers(-2, 3, (30, 23)).astype(np.float64)
        for M in (R, R.T, np.zeros((22, 25)), np.asfortranarray(R)):
            _assert_matches_ascent_oracle(M)


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
