import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from taxica import (
    NumericalError,
    ValidationError,
    build_model,
    ca_decompose,
    pearson_residuals,
    symmetric_eigen,
    verify,
)
from taxica.ca import _off_norm, _round_robin

from helpers import make_table, max_abs_diff_up_to_sign


class TestPearsonResiduals:
    def test_independence_gives_zero(self):
        model = build_model(make_table(12.0 * np.outer([0.25, 0.75], [0.5, 0.5])))
        assert_allclose(pearson_residuals(model), 0, atol=1e-15)

    def test_toy_minimal_closed_form(self, toy_minimal):
        S = pearson_residuals(build_model(toy_minimal))
        root6 = np.sqrt(6.0)
        expected = np.array([[1 / 7, -root6 / 7], [-root6 / 7, 6 / 7]])
        assert_allclose(S, expected, atol=1e-14)

    def test_frobenius_norm_equals_total_inertia(self, tv_table, tv_ca):
        S = pearson_residuals(build_model(tv_table))
        assert np.sum(S * S) == pytest.approx(np.sum(tv_ca.sigmas**2), rel=1e-12)


class TestSymmetricEigen:
    def test_identity(self):
        lam, V = symmetric_eigen(np.eye(3))
        assert_allclose(lam, [1, 1, 1])
        assert_allclose(V @ V.T, np.eye(3), atol=1e-14)

    def test_textbook_2x2(self):
        lam, V = symmetric_eigen(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert_allclose(lam, [3, 1], atol=1e-12)
        assert max_abs_diff_up_to_sign(V[:, 0], np.array([1, 1]) / np.sqrt(2)) < 1e-12
        assert max_abs_diff_up_to_sign(V[:, 1], np.array([1, -1]) / np.sqrt(2)) < 1e-12

    def test_diagonal_table_cross_product_spectrum(self, diag_12346):
        S = pearson_residuals(build_model(diag_12346))
        lam, _ = symmetric_eigen(S.T @ S)
        assert_allclose(lam, [1, 1, 1, 1, 0], atol=1e-9)

    def test_descending_order_and_residual_contract(self):
        rng = np.random.default_rng(11)
        B = rng.normal(size=(8, 8))
        A = B.T @ B
        lam, V = symmetric_eigen(A)
        assert np.all(np.diff(lam) <= 1e-12)
        assert np.max(np.abs(A @ V - V * lam)) <= 1e-10 * np.linalg.norm(A)
        assert_allclose(V.T @ V, np.eye(8), atol=1e-12)

    def test_rejects_non_symmetric(self):
        with pytest.raises(ValidationError, match="not symmetric"):
            symmetric_eigen(np.array([[1.0, 2.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("shape", [(2, 3), (4,)])
    def test_rejects_non_square(self, shape):
        with pytest.raises(ValidationError, match="must be square"):
            symmetric_eigen(np.ones(shape))

    def test_empty_matrix_has_no_eigenpairs(self):
        lam, V = symmetric_eigen(np.empty((0, 0)))
        assert lam.shape == (0,) and V.shape == (0, 0)

    def test_large_scale_round_off_asymmetry_is_accepted(self):
        # eigenvalues up to 3e6: round-off leaves an asymmetry far above 1e-12
        # in absolute terms but far below it relative to max |A|
        Q, _ = np.linalg.qr(np.random.default_rng(7).normal(size=(6, 6)))
        lam_in = np.array([3e6, 1e6, 2e5, 5e3, 10.0, 0.5])
        A = (Q * lam_in) @ Q.T
        asym = np.max(np.abs(A - A.T))
        assert 1e-12 < asym <= 1e-12 * np.max(np.abs(A))
        lam, _ = symmetric_eigen(A)
        assert_allclose(lam, lam_in, rtol=0, atol=1e-10 * np.linalg.norm(A))

    def test_small_scale_relative_asymmetry_is_rejected(self):
        # a Gram matrix of scale 1.3e-7 whose asymmetry (3.7e-6 of max |A|) is
        # below 1e-12 in absolute terms
        B = np.random.default_rng(8).normal(size=(8, 6))
        A = B.T @ B
        A *= 1.3e-7 / np.max(np.abs(A))
        A[0, 1] += 3.7e-6 * 1.3e-7
        assert np.max(np.abs(A - A.T)) < 1e-12
        with pytest.raises(ValidationError, match="not symmetric"):
            symmetric_eigen(A)

    def test_rejects_indefinite(self):
        with pytest.raises(NumericalError, match="not PSD"):
            symmetric_eigen(np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_zero_matrix(self):
        lam, V = symmetric_eigen(np.zeros((4, 4)))
        assert_allclose(lam, 0)
        assert_allclose(V, np.eye(4))

    def test_pinned_1x1(self):
        lam, V = symmetric_eigen(np.array([[4.0]]))
        assert lam.tolist() == [4.0]
        assert V.tolist() == [[1.0]]

    def test_pinned_2x2_diagonal_is_sorted_without_rotation(self):
        lam, V = symmetric_eigen(np.diag([1.0, 3.0]))
        assert lam.tolist() == [3.0, 1.0]
        assert V.tolist() == [[0.0, 1.0], [1.0, 0.0]]

    def test_pinned_2x2_rank_one(self):
        lam, V = symmetric_eigen(np.array([[4.0, 2.0], [2.0, 1.0]]))
        assert_allclose(lam, [5.0, 0.0], atol=1e-14)
        assert max_abs_diff_up_to_sign(V[:, 0], np.array([2.0, 1.0]) / np.sqrt(5)) < 1e-15
        assert max_abs_diff_up_to_sign(V[:, 1], np.array([1.0, -2.0]) / np.sqrt(5)) < 1e-15

    def test_pinned_3x3_path_laplacian(self):
        A = np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]])
        lam, V = symmetric_eigen(A)
        root2 = np.sqrt(2.0)
        assert_allclose(lam, [2 + root2, 2.0, 2 - root2], atol=1e-14)
        expected = [
            np.array([1.0, -root2, 1.0]) / 2,
            np.array([1.0, 0.0, -1.0]) / root2,
            np.array([1.0, root2, 1.0]) / 2,
        ]
        for a, x in enumerate(expected):
            assert max_abs_diff_up_to_sign(V[:, a], x) < 1e-14

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_2x2(self, value):
        with pytest.raises(ValidationError, match="non-finite"):
            symmetric_eigen(np.array([[1.0, value], [value, 1.0]]))

    def test_rejects_nan_pair_before_sweeping(self):
        B = np.random.default_rng(5).normal(size=(50, 48))
        A = B.T @ B
        A[3, 17] = A[17, 3] = np.nan
        with pytest.raises(ValidationError, match="non-finite"):
            symmetric_eigen(A)

    def test_rejects_overflowing_norm(self):
        with pytest.raises(NumericalError, match="overflows"):
            symmetric_eigen(np.array([[1e200, 1e199], [1e199, 1e200]]))


class TestCaDecompose:
    def test_toy_minimal_closed_form(self, toy_minimal):
        decomp = ca_decompose(build_model(toy_minimal))
        assert decomp.rank_used == 1
        axis = decomp.axes[0]
        assert axis.sigma == pytest.approx(1.0, abs=1e-12)
        expected_f = np.array([np.sqrt(1 / 6), -np.sqrt(6)])
        assert max_abs_diff_up_to_sign(axis.f, expected_f) < 1e-12
        r = build_model(toy_minimal).r
        assert float(axis.f @ (r * axis.f)) == pytest.approx(1.0, abs=1e-12)

    def test_diagonal_table_unit_dispersions(self, diag_12346, diag_12345):
        for table in (diag_12346, diag_12345):
            decomp = ca_decompose(build_model(table))
            assert_allclose(decomp.sigmas, np.ones(4), atol=1e-9)

    def test_tv_explained_variation_values(self, tv_ca):
        # exact spectrum of the printed 13x7 table; cumulative two-axis
        # share is 92.40%
        shares = 100 * tv_ca.sigmas**2 / np.sum(tv_ca.sigmas**2)
        assert shares[0] == pytest.approx(70.6413, abs=1e-3)
        assert shares[1] == pytest.approx(21.7569, abs=1e-3)
        assert shares[:2].sum() == pytest.approx(92.398, abs=2e-3)

    def test_rodents_dispersions(self, rodents_ca):
        expected = [0.864, 0.678, 0.536, 0.391, 0.189, 0.157, 0.107, 0.045]
        assert_allclose(rodents_ca.sigmas, expected, atol=1e-3)

    def test_axes_sorted_and_in_unit_interval(self, tv_ca, rodents_ca):
        for decomp in (tv_ca, rodents_ca):
            sig = decomp.sigmas
            assert np.all(np.diff(sig) <= 1e-12)
            assert np.all(sig <= 1 + 1e-9) and np.all(sig >= 0)

    def test_max_axes_validation(self, tv_table):
        model = build_model(tv_table)
        with pytest.raises(ValidationError, match="out of range"):
            ca_decompose(model, max_axes=0)
        with pytest.raises(ValidationError, match="out of range"):
            ca_decompose(model, max_axes=7)
        truncated = ca_decompose(model, max_axes=2)
        assert truncated.rank_used == 2
        assert not truncated.is_full_rank

    def test_sign_convention_largest_column_coordinate_positive(self, tv_ca):
        for axis in tv_ca.axes:
            assert axis.g[int(np.argmax(np.abs(axis.g)))] > 0

    def test_standard_coordinates(self, tv_ca):
        for axis in tv_ca.axes:
            assert_allclose(axis.u, axis.g / axis.sigma)
            assert_allclose(axis.v, axis.f / axis.sigma)

    def test_wide_table_solves_row_side(self):
        # J > I exercises the SS' branch plus the g-from-f transition
        rng = np.random.default_rng(5)
        table = make_table(rng.integers(0, 9, size=(3, 7)) + 1)
        report = verify(ca_decompose(build_model(table)))
        assert report.passed

    def test_independence_table_has_no_axes(self):
        model = build_model(make_table(40.0 * np.outer([0.5, 0.5], [0.2, 0.8])))
        decomp = ca_decompose(model)
        assert decomp.rank_used == 0
        assert decomp.is_full_rank

    def test_all_invariants_on_datasets(self, tv_ca, rodents_ca):
        for decomp in (tv_ca, rodents_ca):
            report = verify(decomp)
            assert report.passed, [
                (c.name, c.max_residual) for c in report.checks if not c.passed
            ]

    def test_near_null_trailing_axis_keeps_transition_identity(self):
        # this table has a genuine trailing axis at sigma/sigma1 ~ 3.6e-4;
        # without projecting eigenvectors against the exact null direction
        # of S, null-space contamination pushes its transition residual to
        # ~6e-7, far past the 1e-9 contract
        counts = [
            [1, 0, 1, 1, 4, 1, 1, 0],
            [2, 5, 0, 1, 1, 2, 0, 3],
            [0, 1, 0, 2, 1, 2, 2, 2],
            [1, 1, 1, 0, 1, 2, 0, 1],
            [3, 2, 4, 4, 0, 2, 3, 2],
            [2, 0, 2, 3, 2, 1, 0, 2],
            [4, 3, 5, 0, 1, 3, 0, 3],
            [2, 3, 2, 1, 2, 2, 0, 6],
        ]
        decomp = ca_decompose(build_model(make_table(counts)))
        assert decomp.sigmas[-1] < 1e-3 * decomp.sigmas[0]
        report = verify(decomp)
        transition = next(c for c in report.checks if c.name == "transition")
        assert transition.passed, transition.max_residual


def _jacobi_oracle(A):
    """``symmetric_eigen``'s sweeps with each round's row, column and V
    updates applied one after the other. Returns (lam, V, masked, empty):
    the pairs skipped as already zero and the rounds left with no pair."""
    a = 0.5 * (A + A.T)
    n = a.shape[0]
    V = np.eye(n)
    norm = float(np.linalg.norm(a))
    masked = empty = 0
    if norm == 0.0:
        return np.zeros(n), V, masked, empty
    rounds = _round_robin(n)
    for _ in range(100):
        if _off_norm(a) <= 1e-14 * norm:
            break
        for P, Q in rounds:
            apq = a[P, Q]
            rotate = np.abs(apq) > 1e-18 * norm
            masked += int(np.count_nonzero(~rotate))
            P, Q, apq = P[rotate], Q[rotate], apq[rotate]
            if P.size == 0:
                empty += 1
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
    return np.clip(lam[order], 0.0, None), V[:, order], masked, empty


def _gram_case(kind: str, n: int, seed: int) -> np.ndarray:
    """Gram matrix of order n of a seeded table: the CA cross product S'S of
    a random table, or T'T of a table T with proportional columns (rank
    deficient) or of a block-diagonal one (whole rounds already zero)."""
    rng = np.random.default_rng(seed)
    rows = n + int(rng.integers(1, 6))
    T = rng.poisson(rng.uniform(0.5, 6.0), (rows, n)).astype(float)
    T[:, 0] += 1.0
    T[0, :] += 1.0
    if kind == "random":
        S = pearson_residuals(build_model(make_table(T)))
        return S.T @ S
    if kind == "proportional":
        for j in range(1, n):
            if rng.random() < 0.5:
                T[:, j] = T[:, int(rng.integers(j))] * int(rng.integers(1, 4))
    else:
        block = rng.integers(0, max(1, n // 2), n)  # block of each column
        T *= rng.integers(0, max(1, n // 2), rows)[:, None] == block
    return T.T @ T


def _assert_bit_equal(got, want):
    assert got.shape == want.shape
    assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()


class TestJacobiOracle:
    """One row rotation of [a | V'] per round against the separate updates."""

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 10])
    @pytest.mark.parametrize("kind", ["random", "proportional", "block"])
    def test_matches_separate_updates(self, kind, n, seed):
        A = _gram_case(kind, n, seed)
        lam, V = symmetric_eigen(A)
        lam_ref, V_ref, _, _ = _jacobi_oracle(A)
        _assert_bit_equal(lam, lam_ref)
        _assert_bit_equal(V, V_ref)

    def test_cases_mask_pairs_and_empty_rounds(self):
        # the proportional and block cases reach the masked-pair branch, and
        # the block case also whole rounds with nothing to rotate
        stats = {
            kind: np.sum([_jacobi_oracle(_gram_case(kind, 10, seed))[2:] for seed in range(5)], axis=0)
            for kind in ("proportional", "block")
        }
        assert stats["proportional"][0] > 0
        assert stats["block"][0] > 0 and stats["block"][1] > 0
