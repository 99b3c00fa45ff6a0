"""Property-based suites for the structural invariants."""
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from taxica import (
    build_model,
    ca_decompose,
    five_number,
    parse_table,
    proportional,
    reduce_to_minimal,
    serialize_table,
    seven_number,
    symmetric_eigen,
    tca_axis_exact,
    tca_decompose,
    verify,
)

from taxica.errors import NumericalError
from taxica.reduction import _check_cross_products, _proportional_to, _proportional_groups
from taxica.tca import _enumerate_best, _solution

from helpers import enumerate_oracle, half_sphere_signs, make_table


@st.composite
def count_matrices(draw, max_side=6, max_count=20):
    n_rows = draw(st.integers(2, max_side))
    n_cols = draw(st.integers(2, max_side))
    cells = draw(
        st.lists(
            st.integers(0, max_count),
            min_size=n_rows * n_cols,
            max_size=n_rows * n_cols,
        )
    )
    counts = np.array(cells, dtype=float).reshape(n_rows, n_cols)
    assume(np.all(counts.sum(axis=1) > 0) and np.all(counts.sum(axis=0) > 0))
    return counts


@st.composite
def reducible_matrices(draw):
    """Count matrices with proportional lines: every row and then every
    column of a small base, plus repeats, at integer multiples in shuffled
    order, so reduction has rows and columns to merge."""
    counts = draw(count_matrices(max_side=4, max_count=9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    for _ in range(2):
        m = counts.shape[0]
        which = rng.permutation(np.concatenate([np.arange(m), rng.integers(0, m, draw(st.integers(0, 5)))]))
        counts = (counts[which] * rng.integers(1, 4, which.size)[:, None]).T
    return counts


@st.composite
def psd_matrices(draw, parity):
    """Symmetric PSD matrices of odd or even size 1-40: full-rank Gram
    matrices, rank-deficient ones, and spectra with repeated eigenvalues."""
    n = 2 * draw(st.integers(1 - parity, 20 - parity)) + parity
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["gram", "low_rank", "repeated"]))
    if kind == "repeated":
        lam = np.array(draw(st.lists(st.sampled_from([0.0, 1.0, 2.5]), min_size=n, max_size=n)))
        Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        A = (Q * lam) @ Q.T
        return 0.5 * (A + A.T)
    rank = n + 2 if kind == "gram" else draw(st.integers(0, n - 1))
    B = rng.normal(size=(rank, n))
    return B.T @ B


@st.composite
def enumeration_matrices(draw):
    """Matrices of 12-16 columns, whose sign half-sphere spans one to 16
    chunks: Gaussian, sparse with centred lines (residual-like), and small
    integers (exact ties), at unit scale, in float32's subnormal range, or
    beyond float32's largest value."""
    rows = draw(st.integers(2, 24))
    dim = draw(st.integers(12, 16))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["gauss", "sparse", "integer"]))
    if kind == "integer":
        R = rng.integers(-2, 3, (rows, dim)).astype(np.float64)
    else:
        R = rng.normal(size=(rows, dim))
    if kind == "sparse":
        R *= rng.random((rows, dim)) < 0.2
        R -= R.mean(axis=0)
        R -= R.mean(axis=1, keepdims=True)
    return R * draw(st.sampled_from([1.0, 1.0, 1e-41, 1e39]))


def _tie_matrix(M):
    """R = [M; M with columns 1 and 2 swapped]. A sign vector w and w with
    components 1 and 2 swapped give the same entries of R w, in another
    order, so their exact objectives tie and rounding alone can part them."""
    swap = [0, 2, 1, *range(3, M.shape[1])]
    return np.vstack([M, M[:, swap]])


@st.composite
def tie_matrices(draw):
    """``_tie_matrix`` of a Gaussian M of 2-6 rows and 3-8 columns, at most
    twice as many columns as rows (so the exact solver enumerates the
    columns), each row scaled by its own power of ten."""
    rows = draw(st.integers(2, 6))
    cols = draw(st.integers(3, min(8, 2 * rows)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return _tie_matrix(rng.normal(size=(rows, cols)) * 10.0 ** rng.integers(-4, 4, size=(rows, 1)))


def _seeded_tie_matrix():
    rng = np.random.default_rng(21)
    return _tie_matrix(rng.normal(size=(5, 4)) * 10.0 ** rng.integers(-4, 4, size=(5, 1)))


@st.composite
def positive_batches(draw):
    return draw(st.lists(st.integers(1, 500), min_size=1, max_size=40))


class TestSymmetricEigenProperties:
    @pytest.mark.parametrize("parity", [0, 1])
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_lapack_and_keeps_contract(self, parity, data):
        A = data.draw(psd_matrices(parity))
        n = A.shape[0]
        norm = np.linalg.norm(A)
        lam, V = symmetric_eigen(A)
        assert np.all(np.diff(lam) <= 0)
        assert np.max(np.abs(lam - np.linalg.eigvalsh(A)[::-1]), initial=0.0) <= 1e-10 * norm
        assert np.max(np.abs(V.T @ V - np.eye(n))) <= 1e-12
        assert np.max(np.abs(A @ V - V * lam)) <= 1e-10 * norm


class TestTableProperties:
    @given(count_matrices())
    @settings(max_examples=60, deadline=None)
    def test_residual_margins_vanish(self, counts):
        model = build_model(make_table(counts))
        assert abs(model.P.sum() - 1) <= 1e-12
        assert np.max(np.abs(model.R0.sum(axis=0))) <= 1e-12
        assert np.max(np.abs(model.R0.sum(axis=1))) <= 1e-12

    @given(count_matrices(), st.sampled_from([2, 3, 5, 10, 16]))
    @settings(max_examples=40, deadline=None)
    def test_scale_invariance_is_exact_for_integer_tables(self, counts, k):
        base = build_model(make_table(counts))
        scaled = build_model(make_table(k * counts))
        assert np.array_equal(base.P, scaled.P)
        assert np.array_equal(base.R0, scaled.R0)

    @given(count_matrices())
    @settings(max_examples=40, deadline=None)
    def test_parse_serialize_round_trip(self, counts):
        table = make_table(counts)
        again = parse_table(serialize_table(table))
        assert again.row_labels == table.row_labels
        assert again.col_labels == table.col_labels
        assert np.array_equal(again.counts, table.counts)


class TestFiveNumberProperties:
    @given(positive_batches(), st.randoms())
    @settings(max_examples=50, deadline=None)
    def test_permutation_invariance(self, batch, rng):
        shuffled = list(batch)
        rng.shuffle(shuffled)
        for method in ("hinges", "interpolated"):
            assert five_number(shuffled, method=method) == five_number(
                batch, method=method
            )

    @given(positive_batches())
    @settings(max_examples=50, deadline=None)
    def test_appending_max_never_decreases_any_quantile(self, batch):
        before = five_number(batch)
        after = five_number(batch + [max(batch)])
        assert all(b2 >= b1 for b1, b2 in zip(before, after))

    @given(
        st.lists(
            st.integers(1, 500) | st.floats(1e-300, 1e300, allow_nan=False, allow_infinity=False),
            min_size=1,
            max_size=60,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_interpolated_quartiles_are_the_bits_of_np_quantile(self, batch):
        quartiles = np.quantile(np.sort(batch), [0.25, 0.5, 0.75], method="linear").tolist()
        assert list(five_number(batch, method="interpolated")[1:4]) == quartiles

    @given(positive_batches())
    @settings(max_examples=50, deadline=None)
    def test_order_statistics_are_ordered(self, batch):
        lo, q1, med, q3, hi = five_number(batch)
        assert lo <= q1 <= med <= q3 <= hi


class TestEnumerationProperties:
    @given(enumeration_matrices())
    @settings(max_examples=40, deadline=None)
    def test_screened_enumeration_matches_the_one_shot_oracle(self, R):
        objective, w, tried = _enumerate_best(R)
        expected_objective, expected_w, expected_tried = enumerate_oracle(R)
        assert objective == expected_objective
        assert w.tolist() == expected_w.tolist()
        assert tried == expected_tried

    @given(tie_matrices())
    # [1, 1, -1, 1] and [1, -1, 1, 1] tie exactly; one scores 2 ulp higher
    # as _solution sums it.
    @example(_seeded_tie_matrix())
    @settings(max_examples=200, deadline=None)
    def test_exact_axis_is_the_first_per_vector_maximizer(self, R):
        signs = np.ascontiguousarray(half_sphere_signs(R.shape[1]).T)
        objectives = [_solution(R, w, "exact", 0).objective for w in signs]
        best = max(objectives)
        solution = tca_axis_exact(R)
        assert solution.objective == best
        assert solution.u.tolist() == signs[objectives.index(best)].tolist()
        assert _enumerate_best(R)[0] == best


class TestProportionalityProperties:
    @given(
        st.lists(st.integers(0, 9), min_size=2, max_size=6),
        st.integers(1, 7),
        st.integers(1, 7),
    )
    @settings(max_examples=60, deadline=None)
    def test_integer_scalings_are_transitively_proportional(self, base, k1, k2):
        x = np.array(base, dtype=float)
        assume(x.sum() > 0)
        assert proportional(x, k1 * x, tol=0.0)
        assert proportional(k1 * x, k2 * x, tol=0.0)

    @given(count_matrices())
    @settings(max_examples=30, deadline=None)
    def test_reduction_idempotent_and_mass_preserving(self, counts):
        table = make_table(counts)
        trace = reduce_to_minimal(table)
        assert trace.minimal.n == table.n
        assert reduce_to_minimal(trace.minimal).is_already_minimal
        i0, j0 = table.shape
        i1, j1 = trace.minimal.shape
        assert table.n / (i0 * j0) <= trace.minimal.n / (i1 * j1) + 1e-12
        assert table.counts.max() <= trace.minimal.counts.max() + 1e-12

    @given(count_matrices())
    @settings(max_examples=30, deadline=None)
    def test_zero_share_of_minimal_never_exceeds_bound(self, counts):
        minimal = reduce_to_minimal(make_table(counts)).minimal
        s = seven_number(minimal)
        assert s.pct_zero <= s.bound + 1e-12

    @given(count_matrices())
    @settings(max_examples=30, deadline=None)
    def test_scaling_the_table_scales_the_summary(self, counts):
        base = seven_number(make_table(counts))
        scaled = seven_number(make_table(4.0 * counts))
        assert scaled.ave == pytest.approx(4 * base.ave, rel=1e-12)
        assert scaled.pct_zero == base.pct_zero
        assert scaled.mh1 == tuple(4 * v for v in base.mh1)


def full_pair_scan(lines: np.ndarray, tol: float) -> list[list[int]]:
    """Reference for ``_proportional_groups``: line i tested against every
    later line, whatever its zero pattern, into the same union-find."""
    m = lines.shape[0]
    parent = list(range(m))

    def find(a: int) -> int:
        while parent[a] != a:
            a = parent[a]
        return a

    sums = lines.sum(axis=1)
    _check_cross_products(lines, sums)
    for i in range(m - 1):
        near = _proportional_to(lines[i], sums[i], lines[i + 1 :], sums[i + 1 :], tol)
        for j in (np.flatnonzero(near) + (i + 1)).tolist():
            ri, rj = find(i), find(j)
            if ri != rj:
                parent[max(ri, rj)] = min(ri, rj)
    groups: dict[int, list[int]] = {}
    for i in range(m):
        groups.setdefault(find(i), []).append(i)
    return [groups[k] for k in sorted(groups)]


@st.composite
def tiny_reducible_matrices(draw):
    """``reducible_matrices`` scaled into the low normal range (entries near
    2^-500, so entry times line sum stays normal), with one entry nudged by
    a relative 0 to 4e-9, across ``PROPORTIONAL_TOL``."""
    counts = draw(reducible_matrices())
    scale = draw(st.floats(1.0, 2.0)) * 2.0 ** draw(st.integers(-505, -480))
    lines = counts * scale
    i, j = draw(st.integers(0, lines.shape[0] - 1)), draw(st.integers(0, lines.shape[1] - 1))
    lines[i, j] *= 1.0 + draw(st.sampled_from([0.0, 5e-10, 1e-9, 2e-9, 4e-9]))
    return lines


class TestBucketedProportionalGroups:
    """The zero-pattern buckets find the groups of the full pair scan."""

    @given(reducible_matrices())
    @settings(max_examples=60, deadline=None)
    def test_reducible_tables(self, counts):
        for lines in (counts, counts.T):
            assert _proportional_groups(lines, 1e-9) == full_pair_scan(lines, 1e-9)

    @given(tiny_reducible_matrices())
    @settings(max_examples=60, deadline=None)
    def test_tiny_normal_range_entries(self, lines):
        for side in (lines, lines.T):
            try:
                want = full_pair_scan(side, 1e-9)
            except NumericalError:
                with pytest.raises(NumericalError):
                    _proportional_groups(side, 1e-9)
            else:
                assert _proportional_groups(side, 1e-9) == want


class TestDecompositionProperties:
    @given(count_matrices(max_side=5, max_count=12))
    @settings(max_examples=25, deadline=None)
    def test_every_invariant_holds_for_both_methods(self, counts):
        model = build_model(make_table(counts))
        for decomp in (ca_decompose(model), tca_decompose(model)):
            report = verify(decomp)
            assert report.passed, [
                (c.name, c.max_residual) for c in report.checks if not c.passed
            ]


def _projector(X, w, sigmas):
    """The Dw-orthogonal projector X diag(sigmas)^-2 X' Dw onto the columns
    of X, whose column a has Dw-norm sigmas[a]."""
    return (X / sigmas) @ (X / sigmas).T * w


class TestTransposeEquivariance:
    """Transposing a table swaps the roles of rows and columns: each example
    runs a table and its transpose, so both orientations of the code."""

    @given(count_matrices(max_side=9))
    # four dispersions equal to 1, which the two orientations give other bases
    @example(np.array([[1, 1, 0, 0, 0, 0], [0, 0, 0, 0, 0, 1], [0, 0, 0, 1, 0, 0],
                       [0, 0, 0, 0, 1, 0], [0, 0, 1, 0, 0, 0]], dtype=float))
    @settings(max_examples=60, deadline=None)
    def test_ca_of_the_transpose_swaps_f_and_g(self, counts):
        # A square table is solved as given in both orientations, so tied
        # dispersions (a permutation table) may get different bases.
        assume(counts.shape[0] != counts.shape[1])
        model = build_model(make_table(counts))
        d = ca_decompose(model)
        dt = ca_decompose(build_model(make_table(counts.T)))
        assert dt.rank_used == d.rank_used
        np.testing.assert_allclose(dt.sigmas, d.sigmas, rtol=1e-12, atol=0.0)
        # Tied dispersions fix only the span of their axes, and a non-square
        # table's Gram is summed in another order for its transpose, so each
        # tie group is compared by the weighted projector onto its columns.
        s = d.sigmas
        bounds = [0, *(np.flatnonzero(np.diff(s) < -1e-9 * s[:1]) + 1).tolist(), len(s)]
        for lo, hi in zip(bounds, bounds[1:]):
            sides = ((dt.F[:, lo:hi], d.G[:, lo:hi], model.c), (dt.G[:, lo:hi], d.F[:, lo:hi], model.r))
            if hi - lo == 1:
                got, want, _ = sides[0]
                sign = 1.0 if np.abs(got - want).max() <= np.abs(got + want).max() else -1.0
                pairs = [(sign * got, want) for got, want, _ in sides]
            else:
                pairs = [tuple(_projector(X, w, s[lo:hi]) for X in (got, want)) for got, want, w in sides]
            for got, want in pairs:
                assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @given(reducible_matrices())
    @settings(max_examples=60, deadline=None)
    def test_reduction_of_the_transpose_swaps_the_groups(self, counts):
        rows = [f"r{i}" for i in range(counts.shape[0])]
        cols = [f"c{j}" for j in range(counts.shape[1])]
        trace = reduce_to_minimal(make_table(counts, rows, cols))
        trace_t = reduce_to_minimal(make_table(counts.T, cols, rows))
        assert (trace_t.row_groups, trace_t.col_groups) == (trace.col_groups, trace.row_groups)
        assert trace_t.minimal.row_labels == trace.minimal.col_labels
        assert trace_t.minimal.col_labels == trace.minimal.row_labels
        assert np.array_equal(trace_t.minimal.counts, trace.minimal.counts.T)
