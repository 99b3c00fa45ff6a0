import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from taxica import (
    Axis,
    NumericalError,
    ValidationError,
    build_model,
    ca_balance,
    ca_decompose,
    contributions,
    explained_variation,
    map_similarity,
    reduce_to_minimal,
    tca_decompose,
    verify,
)

from taxica.diagnostics import MAX_MATCHED_AXES, CheckResult, _best_pairing

from helpers import assert_row_matches_up_to_sign, make_table, stacked_decomposition

TV_C1 = [24, 83, 106, 45, 40, 1, 700]
TV_C2 = [128, 285, 63, 181, 330, 2, 11]
TV_SC1 = [-28, -96, -165, -137, -73, -2, 500]
TV_SC2 = [-82, -235, -173, 222, 278, -10, 0]


def _loop_contributions(decomp):
    """Reference: contributions built one axis at a time."""
    r, c = decomp.model.r, decomp.model.c
    rows, cols = [], []
    for axis in decomp.axes:
        if decomp.method == "CA":
            rows.append(1000.0 * r * axis.f**2 / axis.sigma**2)
            cols.append(1000.0 * c * axis.g**2 / axis.sigma**2)
        else:
            rows.append(1000.0 * r * axis.f / axis.sigma)
            cols.append(1000.0 * c * axis.g / axis.sigma)
    return np.array(rows).T, np.array(cols).T


def _loop_verify(decomp):
    """Reference: ``verify`` with one dot product per axis and per pair of
    axes, in the same check order, tolerances, applicability and notes."""
    model = decomp.model
    r, c = model.r, model.c
    axes = decomp.axes
    sig = decomp.sigmas
    checks = []

    def add(name, residual, tol, applicable=True, note=""):
        passed = bool(residual <= tol) or not applicable
        checks.append(CheckResult(name, float(residual), tol, passed, applicable, note))

    centering = 0.0
    for axis in axes:
        centering = max(centering, abs(float(r @ axis.f)), abs(float(c @ axis.g)))
    add("centering", centering, 1e-10)
    ordering = 0.0
    if len(axes) > 1:
        ordering = max(0.0, float(np.max(sig[1:] - sig[:-1])))
    if decomp.method == "CA":
        add("axes-ordering", ordering, 1e-9)
    else:
        note = "informational: deflation order, monotonicity not guaranteed"
        add("axes-ordering", ordering, 1e-9, applicable=False, note=note)

    if decomp.method == "CA":
        norms = ortho = transition = 0.0
        for a, axis in enumerate(axes):
            norms = max(
                norms,
                abs(float(axis.f @ (r * axis.f)) - axis.sigma**2),
                abs(float(axis.g @ (c * axis.g)) - axis.sigma**2),
            )
            for b in range(a + 1, len(axes)):
                ortho = max(
                    ortho,
                    abs(float(axis.f @ (r * axes[b].f))),
                    abs(float(axis.g @ (c * axes[b].g))),
                )
            f_from_g = (model.P @ axis.g) / r / axis.sigma
            g_from_f = (model.P.T @ axis.f) / c / axis.sigma
            transition = max(
                transition,
                float(np.max(np.abs(f_from_g - axis.f))),
                float(np.max(np.abs(g_from_f - axis.g))),
            )
        add("l2-norms", norms, 1e-9)
        add("orthogonality", ortho, 1e-9)
        add("transition", transition, 1e-9)
        sigma_range = max(0.0, float(sig.max(initial=0.0)) - 1.0, -float(sig.min(initial=0.0)))
        add("sigma-range", sigma_range, 1e-9)
    else:
        norms = equi = 0.0
        for axis in axes:
            norms = max(
                norms,
                abs(float(np.sum(r * np.abs(axis.f))) - axis.sigma),
                abs(float(np.sum(c * np.abs(axis.g))) - axis.sigma),
            )
            pos_f = float(np.sum(r[axis.f > 0] * axis.f[axis.f > 0]))
            neg_f = -float(np.sum(r[axis.f < 0] * axis.f[axis.f < 0]))
            pos_g = float(np.sum(c[axis.g > 0] * axis.g[axis.g > 0]))
            neg_g = -float(np.sum(c[axis.g < 0] * axis.g[axis.g < 0]))
            equi = max(equi, *(abs(x - axis.sigma / 2.0) for x in (pos_f, neg_f, pos_g, neg_g)))
        add("l1-norms", norms, 1e-9)
        add("equivariability", equi, 1e-9)
        conj = 0.0
        for b in range(len(axes)):
            for a in range(b + 1, len(axes)):
                conj = max(
                    conj,
                    abs(float(axes[a].f @ (r * axes[b].v))),
                    abs(float(axes[a].g @ (c * axes[b].u))),
                )
        add("conjugacy", conj, 1e-9)
        quad = 0.0
        for axis, R in zip(axes, decomp.residuals):
            u_pos, u_neg = (axis.u + 1.0) / 2.0, (axis.u - 1.0) / 2.0
            v_pos, v_neg = (axis.v + 1.0) / 2.0, (axis.v - 1.0) / 2.0
            quarter = axis.sigma / 4.0
            quad = max(
                quad,
                abs(float(v_pos @ R @ u_pos) - quarter),
                abs(float(v_neg @ R @ u_neg) - quarter),
                abs(abs(float(v_neg @ R @ u_pos)) - quarter),
                abs(abs(float(v_pos @ R @ u_neg)) - quarter),
            )
        add("quadrant-balance", quad, 1e-9)

    if decomp.is_full_rank:
        expansion = np.ones_like(model.P)
        for axis in axes:
            expansion = expansion + np.outer(axis.f, axis.g) / axis.sigma
        p_hat = np.outer(r, c) * expansion
        add("reconstruction", float(np.max(np.abs(model.P - p_hat))), 1e-9)
    else:
        note = "decomposition is truncated; identity needs all nonzero axes"
        add("reconstruction", 0.0, 1e-9, applicable=False, note=note)
    return checks


@pytest.fixture(scope="module")
def sparse_80x48():
    """A seeded 80x48 table with about 75% zeros and no empty line."""
    rng = np.random.default_rng(80)
    counts = (1.0 + rng.poisson(4.0, (80, 48))) * (rng.random((80, 48)) >= 0.75)
    counts[np.arange(80), np.arange(80) % 48] += 1.0
    return build_model(make_table(counts))


@pytest.fixture(scope="module")
def corrupted_ca(toy_minimal):
    """The CA of the reduced toy table with its row coordinates scaled by 1.05."""
    good = ca_decompose(build_model(toy_minimal))
    axis = good.axes[0]
    bad_axis = Axis(f=axis.f * 1.05, g=axis.g.copy(), sigma=axis.sigma, u=axis.u.copy(), v=axis.v.copy())
    return stacked_decomposition("CA", (bad_axis,), good.model, is_full_rank=True)


class TestContributions:
    def test_matches_the_per_axis_reference_bit_for_bit(
        self, tv_ca, tv_tca, rodents_ca, rodents_tca, sparse_80x48
    ):
        for decomp in (
            tv_ca, tv_tca, rodents_ca, rodents_tca,
            ca_decompose(sparse_80x48), tca_decompose(sparse_80x48),
        ):
            contrib = contributions(decomp)
            rows, cols = _loop_contributions(decomp)
            for got, want in ((contrib.row_values, rows), (contrib.col_values, cols)):
                assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_tv_ca_column_contributions(self, tv_ca, tv_table):
        contrib = contributions(tv_ca)
        cols = {lab: contrib.col_values[j] for j, lab in enumerate(tv_table.col_labels)}
        assert cols["dontknow"][0] == pytest.approx(700, abs=1)
        assert cols["bad"][1] == pytest.approx(330, abs=1)
        assert_allclose(contrib.col_values[:, 0], TV_C1, atol=1)
        assert_allclose(contrib.col_values[:, 1], TV_C2, atol=1)

    def test_tv_tca_signed_contributions(self, tv_tca, tv_table):
        contrib = contributions(tv_tca)
        j = tv_table.col_labels.index("dontknow")
        assert abs(contrib.col_values[j, 0]) == pytest.approx(500, abs=1)
        assert contrib.col_values[j, 1] == pytest.approx(0, abs=1)
        assert_row_matches_up_to_sign(contrib.col_values[:, 0], TV_SC1, atol=1)
        assert_row_matches_up_to_sign(contrib.col_values[:, 1], TV_SC2, atol=1)

    def test_rodents_ca_dominant_species(self, rodents_ca, rodents_table):
        contrib = contributions(rodents_ca)
        cols = {lab: contrib.col_values[j] for j, lab in enumerate(rodents_table.col_labels)}
        assert cols["rod2"][0] == pytest.approx(750, abs=1)
        assert cols["rod1"][1] == pytest.approx(854, abs=1)

    def test_ca_contributions_sum_to_1000(self, tv_ca, rodents_ca):
        for decomp in (tv_ca, rodents_ca):
            contrib = contributions(decomp)
            assert_allclose(contrib.row_values.sum(axis=0), 1000, rtol=1e-9)
            assert_allclose(contrib.col_values.sum(axis=0), 1000, rtol=1e-9)
            assert np.all(contrib.row_values > 0 - 1e-12)
            assert np.all(contrib.row_values < 1000 + 1e-9)

    def test_tca_halves_sum_to_plus_minus_500(self, tv_tca, rodents_tca):
        for decomp in (tv_tca, rodents_tca):
            contrib = contributions(decomp)
            for values in (contrib.row_values, contrib.col_values):
                assert np.all(values >= -500 - 1e-6)
                assert np.all(values <= 500 + 1e-6)
                pos = np.where(values > 0, values, 0).sum(axis=0)
                neg = np.where(values < 0, values, 0).sum(axis=0)
                assert_allclose(pos, 500, atol=1e-6)
                assert_allclose(neg, -500, atol=1e-6)

    def test_requires_axes(self):
        model = build_model(make_table(8.0 * np.outer([0.5, 0.5], [0.5, 0.5])))
        with pytest.raises(ValidationError, match="no axes"):
            contributions(ca_decompose(model))

    @pytest.mark.parametrize("method", ["CA", "TCA"])
    def test_zero_dispersion_axis_refused(self, tv_table, method):
        model = build_model(tv_table)
        I, J = model.shape
        axis = Axis(np.zeros(I), np.zeros(J), 0.0, np.ones(J), np.ones(I))
        with pytest.raises(ValidationError, match="zero-dispersion axis"):
            contributions(stacked_decomposition(method, (axis,), model))


class TestExplainedVariation:
    def test_tv_ca_shares(self, tv_ca):
        shares = explained_variation(tv_ca)
        assert shares[0] == pytest.approx(70.64, abs=0.01)
        assert shares[1] == pytest.approx(21.76, abs=0.01)
        assert shares.sum() == pytest.approx(100, abs=1e-9)

    def test_tv_tca_shares(self, tv_tca):
        shares = explained_variation(tv_tca)
        assert shares[0] == pytest.approx(78.0, abs=0.2)
        assert shares[1] == pytest.approx(16.7, abs=0.2)
        assert shares[:2].sum() == pytest.approx(94.7, abs=0.2)

    def test_single_axis_table(self, toy_minimal):
        shares = explained_variation(ca_decompose(build_model(toy_minimal)))
        assert_allclose(shares, [100.0])

    def test_empty_decomposition_raises(self):
        model = build_model(make_table(8.0 * np.outer([0.5, 0.5], [0.5, 0.5])))
        with pytest.raises(ValidationError):
            explained_variation(ca_decompose(model))

    def test_dispersions_whose_squares_underflow_raise(self):
        # tca_decompose keeps no axis this far below the rounding level of
        # R0, so the one axis of a 2x2 table gets sigma = 1e-300 by hand.
        model = build_model(make_table([[3, 1], [1, 3]]))
        (axis,) = tca_decompose(model).axes
        tiny = Axis(f=axis.f * 1e-300, g=axis.g * 1e-300, sigma=1e-300, u=axis.u, v=axis.v)
        decomp = stacked_decomposition("TCA", (tiny,), model)
        with pytest.raises(NumericalError, match="underflow"):
            explained_variation(decomp)


class TestCaBalance:
    def test_positive_side_mirrors_negative_side(self, tv_ca):
        r, c = tv_ca.model.r, tv_ca.model.c
        for axis, (a, b) in zip(tv_ca.axes, ca_balance(tv_ca)):
            neg = -float(np.sum(r[axis.f < 0] * axis.f[axis.f < 0]))
            assert a == pytest.approx(neg, abs=1e-9)

    def test_tca_axes_are_equivariable(self, tv_tca):
        for axis, (a, b) in zip(tv_tca.axes, ca_balance(tv_tca)):
            assert a == pytest.approx(axis.sigma / 2, abs=1e-9)
            assert b == pytest.approx(axis.sigma / 2, abs=1e-9)

    def test_ca_sides_differ_in_general(self, tv_ca):
        a, b = ca_balance(tv_ca)[0]
        assert abs(a - b) > 1e-3


class TestVerify:
    def test_passes_on_all_dataset_decompositions(
        self, tv_ca, tv_tca, rodents_ca, rodents_tca
    ):
        for decomp in (tv_ca, tv_tca, rodents_ca, rodents_tca):
            assert verify(decomp).passed

    def test_detects_corrupted_coordinates(self, corrupted_ca):
        report = verify(corrupted_ca)
        assert not report.passed
        failing = {c.name for c in report.checks if not c.passed}
        assert "reconstruction" in failing

    def test_quadrant_balance_on_a_hand_built_decomposition(self, tv_tca):
        # Flipping every axis keeps each quadrant sum; the residuals are
        # replayed from the flipped axes, which deflate the same terms.
        flipped = stacked_decomposition(
            "TCA",
            tuple(Axis(f=-a.f, g=-a.g, sigma=a.sigma, u=-a.u, v=-a.v) for a in tv_tca.axes),
            tv_tca.model,
            is_full_rank=tv_tca.is_full_rank,
        )
        report = verify(flipped)
        quad = next(c for c in report.checks if c.name == "quadrant-balance")
        assert quad.applicable and quad.passed
        assert report.passed

    @pytest.mark.parametrize("method", ["CA", "TCA"])
    def test_decomposition_without_axes(self, method):
        # proportional rows: both methods keep no axis, and the identities
        # hold over an empty set of axes
        model = build_model(make_table([[5, 6], [10, 12]], ["a", "b"]))
        decomp = (ca_decompose if method == "CA" else tca_decompose)(model)
        assert decomp.axes == () and decomp.is_full_rank
        report = verify(decomp)
        assert [c.name for c in report.checks] == [c.name for c in _loop_verify(decomp)]
        assert len(report.checks) == 7
        for check in report.checks[:-1]:
            assert check.max_residual == 0.0, check.name
        assert report.checks[-1].name == "reconstruction"
        assert report.checks[-1].max_residual == pytest.approx(5.6e-17, abs=1e-18)
        assert report.passed

    def test_matches_the_loop_reference(
        self, tv_table, rodents_table, tv_ca, tv_tca, rodents_ca, rodents_tca,
        sparse_80x48, corrupted_ca,
    ):
        truncated = [
            decompose(build_model(table), max_axes=2)
            for table in (tv_table, rodents_table)
            for decompose in (ca_decompose, tca_decompose)
        ]
        for decomp in (
            tv_ca, tv_tca, rodents_ca, rodents_tca, *truncated,
            ca_decompose(sparse_80x48), tca_decompose(sparse_80x48), corrupted_ca,
        ):
            for got, want in zip(verify(decomp).checks, _loop_verify(decomp), strict=True):
                assert (got.name, got.tolerance, got.passed, got.applicable, got.note) == (
                    want.name, want.tolerance, want.passed, want.applicable, want.note
                )
                assert abs(got.max_residual - want.max_residual) <= 1e-15, got.name

    def test_truncated_decomposition_skips_reconstruction(self, tv_table):
        decomp = ca_decompose(build_model(tv_table), max_axes=2)
        report = verify(decomp)
        recon = next(c for c in report.checks if c.name == "reconstruction")
        assert not recon.applicable
        assert report.passed  # remaining checks still hold


class TestMapSimilarity:
    def test_pairing_search_capped(self, tv_ca):
        with pytest.raises(ValidationError, match="10! = 3628800 pairings"):
            map_similarity(tv_ca, tv_ca, axes=10)

    def test_self_comparison(self, tv_ca):
        report = map_similarity(tv_ca, tv_ca, axes=2)
        assert report.verdict == "similar"
        assert_allclose(report.phis, [1, 1], atol=1e-12)
        assert report.pairing == (0, 1)

    def test_tv_maps_agree(self, tv_ca, tv_tca):
        report = map_similarity(tv_ca, tv_tca, axes=2)
        assert report.verdict == "similar"
        assert all(phi >= 0.9 for phi in report.phis)

    def test_rodents_maps_disagree(self, rodents_ca, rodents_tca):
        report = map_similarity(rodents_ca, rodents_tca, axes=2)
        assert report.verdict == "dissimilar"
        assert all(phi < 0.9 for phi in report.phis)

    def test_partial_verdict_with_tuned_threshold(self, rodents_ca, rodents_tca):
        # first-axis congruence is ~0.75, second ~0.09
        report = map_similarity(rodents_ca, rodents_tca, axes=2, threshold=0.5)
        assert report.verdict == "partial"

    def test_sign_flip_invariance(self, tv_ca, tv_tca):
        flipped_axes = tuple(
            Axis(f=-a.f, g=-a.g, sigma=a.sigma, u=-a.u, v=-a.v) for a in tv_tca.axes
        )
        flipped = stacked_decomposition(
            "TCA", flipped_axes, tv_tca.model, is_full_rank=tv_tca.is_full_rank
        )
        base = map_similarity(tv_ca, tv_tca, axes=2)
        alt = map_similarity(tv_ca, flipped, axes=2)
        assert_allclose(alt.phis, base.phis, atol=1e-12)
        assert alt.verdict == base.verdict

    def test_reduction_invariance_of_verdict(self, rodents_table):
        minimal = reduce_to_minimal(rodents_table).minimal
        model_n, model_m = build_model(rodents_table), build_model(minimal)
        verdict_n = map_similarity(
            ca_decompose(model_n), tca_decompose(model_n), axes=2
        ).verdict
        verdict_m = map_similarity(
            ca_decompose(model_m), tca_decompose(model_m), axes=2
        ).verdict
        assert verdict_n == verdict_m == "dissimilar"

    def test_mismatched_tables_rejected(self, tv_ca, rodents_tca):
        with pytest.raises(ValidationError, match="same table"):
            map_similarity(tv_ca, rodents_tca, axes=2)

    def test_axes_out_of_range(self, tv_ca, tv_tca):
        with pytest.raises(ValidationError, match="out of range"):
            map_similarity(tv_ca, tv_tca, axes=7)

    @pytest.mark.parametrize("threshold", [float("nan"), float("inf")])
    def test_non_finite_threshold_rejected(self, tv_ca, tv_tca, threshold):
        with pytest.raises(ValidationError, match="not finite"):
            map_similarity(tv_ca, tv_tca, axes=2, threshold=threshold)


def _loop_congruence(d1, d2, k):
    """The k x k congruence matrix built one pair of axes at a time, each
    entry from its own ``np.sum`` calls: the reference for map_similarity."""
    r = d1.model.r

    def congruence(f1, f2):
        den = np.sqrt(float(np.sum(r * f1**2)) * float(np.sum(r * f2**2)))
        return abs(float(np.sum(r * f1 * f2))) / den if den > 0 else 0.0

    return np.array([[congruence(a.f, b.f) for b in d2.axes[:k]] for a in d1.axes[:k]])


def _brute_force_pairing(phi):
    k = len(phi)
    return max(
        itertools.permutations(range(k)),
        key=lambda perm: sum(phi[a][perm[a]] for a in range(k)),
    )


@st.composite
def congruence_matrices(draw):
    """k x k matrices, k <= 7: uniform in [0, 1], or drawn from a small set
    of values so that many pairings tie exactly ({0, 1/4, 1/2, 1}) or tie
    up to the rounding of their sums ({0.1, 0.2, 0.3, 0.6, 0.7})."""
    k = draw(st.integers(1, 7))
    values = draw(st.sampled_from([None, (0.0, 0.25, 0.5, 1.0), (0.1, 0.2, 0.3, 0.6, 0.7)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.random((k, k)) if values is None else rng.choice(values, (k, k))


#: Pairings (0, 1, 2) and (2, 0, 1) have the same exact sum, 2; added left
#: to right the first rounds higher, added right to left the second does.
ROUNDING_TIE = np.array([[0.7, 0.3, 0.6], [0.7, 0.7, 0.1], [0.2, 0.7, 0.6]])


class TestPairingSearch:
    """The vectorized pairing search against the itertools brute force."""

    @settings(max_examples=150, deadline=None)
    @given(phi=congruence_matrices())
    @example(phi=ROUNDING_TIE)
    def test_matches_brute_force(self, phi):
        pairing = _best_pairing(phi)
        expected = _brute_force_pairing(phi)
        assert pairing == expected
        k = len(phi)
        assert [phi[a][pairing[a]] for a in range(k)] == [phi[a][expected[a]] for a in range(k)]

    @pytest.fixture(scope="class")
    def decomps_12(self):
        rng = np.random.default_rng(12)
        model = build_model(make_table(rng.poisson(3.0, (15, 12)) + 1))
        return ca_decompose(model), tca_decompose(model)

    @pytest.fixture(scope="class", params=[75.0, 10.0], ids=["sparse", "dense"])
    def decomps_80x48(self, request):
        """CA and the first 9 TCA axes of a seeded 80x48 table, the shape of
        the ``compare --axes 8`` benchmark calls, at 75% or 10% zeros."""
        rng = np.random.default_rng(int(request.param))
        counts = (1.0 + rng.poisson(4.0, (80, 48))) * (rng.random((80, 48)) >= request.param / 100)
        counts[np.arange(80), np.arange(80) % 48] += 1.0
        model = build_model(make_table(counts))
        return ca_decompose(model), tca_decompose(model, max_axes=MAX_MATCHED_AXES)

    def test_map_similarity_matches_brute_force(self, decomps_12):
        d_ca, d_tca = decomps_12
        for k in range(1, 8):
            phi = _loop_congruence(d_ca, d_tca, k)
            expected = _brute_force_pairing(phi)
            report = map_similarity(d_ca, d_tca, axes=k)
            assert report.pairing == expected
            assert report.phis == tuple(float(phi[a][expected[a]]) for a in range(k))

    def test_map_similarity_matches_the_loop_reference_at_80x48(self, decomps_80x48):
        d_ca, d_tca = decomps_80x48
        for k in range(1, MAX_MATCHED_AXES + 1):
            phi = _loop_congruence(d_ca, d_tca, k)
            expected = _best_pairing(phi)
            report = map_similarity(d_ca, d_tca, axes=k)
            assert report.pairing == expected
            assert report.phis == tuple(float(phi[a][expected[a]]) for a in range(k))

    def test_nine_axes_run_and_ten_raise(self, decomps_12):
        d_ca, d_tca = decomps_12
        assert min(d_ca.rank_used, d_tca.rank_used) >= MAX_MATCHED_AXES + 1
        report = map_similarity(d_ca, d_tca, axes=MAX_MATCHED_AXES)
        assert sorted(report.pairing) == list(range(MAX_MATCHED_AXES))
        with pytest.raises(ValidationError, match="10! = 3628800 pairings"):
            map_similarity(d_ca, d_tca, axes=MAX_MATCHED_AXES + 1)
