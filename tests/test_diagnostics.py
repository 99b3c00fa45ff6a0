import numpy as np
import pytest
from numpy.testing import assert_allclose

from taxica import (
    Axis,
    Decomposition,
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

from helpers import assert_row_matches_up_to_sign, make_table

TV_C1 = [24, 83, 106, 45, 40, 1, 700]
TV_C2 = [128, 285, 63, 181, 330, 2, 11]
TV_SC1 = [-28, -96, -165, -137, -73, -2, 500]
TV_SC2 = [-82, -235, -173, 222, 278, -10, 0]


class TestContributions:
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

    def test_detects_corrupted_coordinates(self, toy_minimal):
        good = ca_decompose(build_model(toy_minimal))
        bad_axis = Axis(
            f=good.axes[0].f * 1.05,
            g=good.axes[0].g.copy(),
            sigma=good.axes[0].sigma,
            u=good.axes[0].u.copy(),
            v=good.axes[0].v.copy(),
        )
        corrupted = Decomposition(
            method="CA",
            axes=(bad_axis,),
            rank_used=1,
            model=good.model,
            is_full_rank=True,
        )
        report = verify(corrupted)
        assert not report.passed
        failing = {c.name for c in report.checks if not c.passed}
        assert "reconstruction" in failing

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
        flipped = Decomposition(
            method="TCA",
            axes=flipped_axes,
            rank_used=tv_tca.rank_used,
            model=tv_tca.model,
            is_full_rank=tv_tca.is_full_rank,
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
