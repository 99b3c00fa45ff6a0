import numpy as np
import pytest

from taxica import (
    SparsityLevel,
    SparsitySummary,
    ValidationError,
    classify,
    five_number,
    reduce_to_minimal,
    seven_number,
    zero_percentage_bound,
)

from helpers import make_table


class TestFiveNumber:
    def test_worked_example_batch(self):
        assert five_number([1, 2, 2, 4, 1, 2, 3, 6]) == (1, 1.5, 2, 3.5, 6)

    def test_merged_batch(self):
        assert five_number([6, 12, 1, 2]) == (1, 1.5, 4, 9, 12)

    def test_singleton(self):
        assert five_number([5]) == (5, 5, 5, 5, 5)

    def test_pair(self):
        assert five_number([3, 18]) == (3, 3, 10.5, 18, 18)

    def test_empty_batch(self):
        with pytest.raises(ValidationError, match="empty"):
            five_number([])

    def test_interpolated_mode(self):
        batch = [1, 2, 3, 4]
        assert five_number(batch, method="hinges") == (1, 1.5, 2.5, 3.5, 4)
        lo, q1, med, q3, hi = five_number(batch, method="interpolated")
        assert (lo, med, hi) == (1, 2.5, 4)
        assert q1 == pytest.approx(1.75)
        assert q3 == pytest.approx(3.25)

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            five_number([1, 2], method="nearest")

    def test_permutation_invariant(self):
        rng = np.random.default_rng(3)
        batch = rng.integers(1, 50, size=17).astype(float)
        for method in ("hinges", "interpolated"):
            base = five_number(batch, method=method)
            assert five_number(rng.permutation(batch), method=method) == base

    def test_monotone_when_duplicating_the_max(self):
        batch = [1.0, 4.0, 2.0, 9.0, 9.0, 3.0]
        before = five_number(batch)
        after = five_number(batch + [max(batch)])
        assert all(b2 >= b1 for b1, b2 in zip(before, after))


class TestSevenNumber:
    def test_toy_table(self, toy_table):
        s = seven_number(toy_table)
        assert s.ave == 1.3125
        assert s.pct_zero == 50
        assert s.mh1 == (1, 1.5, 2, 3.5, 6)
        assert s.bound == 75
        assert s.size == (4, 4)

    def test_toy_minimal(self, toy_minimal):
        s = seven_number(toy_minimal)
        assert s.ave == 5.25
        assert s.pct_zero == 50
        assert s.mh1 == (3, 3, 10.5, 18, 18)
        assert s.bound == 50

    def test_intermediate_row_merge(self):
        s = seven_number(make_table([[6, 12, 0, 0], [0, 0, 1, 2]]))
        assert s.ave == 2.625
        assert s.pct_zero == 50
        assert s.mh1 == (1, 1.5, 4, 9, 12)

    def test_tv_table(self, tv_table):
        s = seven_number(tv_table)
        assert s.ave == pytest.approx(55.81, abs=0.005)
        assert s.pct_zero == 0

    def test_scaling(self, toy_table):
        base = seven_number(toy_table)
        scaled = seven_number(make_table(3.0 * toy_table.counts))
        assert scaled.ave == 3 * base.ave
        assert scaled.pct_zero == base.pct_zero
        assert scaled.mh1 == tuple(3 * v for v in base.mh1)


class TestZeroPercentageBound:
    def test_square_2x2(self):
        assert zero_percentage_bound(2, 2) == 50

    def test_large_wide(self):
        assert round(zero_percentage_bound(285, 220), 4) == 99.5455

    def test_very_tall(self):
        assert round(zero_percentage_bound(7097, 7), 4) == 85.7143

    def test_degenerate_dimensions(self):
        with pytest.raises(ValidationError):
            zero_percentage_bound(0, 3)

    def test_never_violated_on_reduced_random_tables(self):
        from helpers import random_tables

        for table in random_tables(15, seed=42):
            minimal = reduce_to_minimal(table).minimal
            s = seven_number(minimal)
            assert s.pct_zero <= s.bound + 1e-12


class TestClassify:
    def test_diagonal_minimal_is_sparsest(self, toy_minimal):
        verdict = classify(seven_number(toy_minimal))
        assert verdict.level is SparsityLevel.SPARSEST
        assert "bound" in verdict.rationale

    @pytest.mark.parametrize(
        "counts, level",
        [
            ([[5, 6], [10, 12]], SparsityLevel.NON_SPARSE),  # proportional rows
            ([[1, 2, 3]], SparsityLevel.NON_SPARSE),
            ([[1, 1]], SparsityLevel.SPARSE),
        ],
    )
    def test_one_line_minimal_is_classified_by_its_counts(self, counts, level):
        # Its zero-percentage bound is 0%, which every one-line table attains.
        minimal = reduce_to_minimal(make_table(counts)).minimal
        assert minimal.shape == (1, 1)
        verdict = classify(seven_number(minimal))
        assert verdict.level is level
        assert "bound" not in verdict.rationale

    def test_vegetation_like_summary_is_extremely_sparse(self):
        # 266 x 220 abundance matrix: 96.3% zeros against a 99.5% bound
        summary = SparsitySummary(
            ave=0.28,
            pct_zero=96.3,
            mh1=(1, 1, 1, 7, 97),
            bound=zero_percentage_bound(266, 220),
            size=(266, 220),
        )
        assert classify(summary).level is SparsityLevel.EXTREMELY_SPARSE

    def test_tv_minimal_is_non_sparse(self, tv_table):
        minimal = reduce_to_minimal(tv_table).minimal
        verdict = classify(seven_number(minimal))
        assert verdict.level is SparsityLevel.NON_SPARSE

    def test_rodents_minimal_is_sparse(self, rodents_table):
        minimal = reduce_to_minimal(rodents_table).minimal
        s = seven_number(minimal)
        assert s.pct_zero == pytest.approx(58.7, abs=0.05)
        assert s.mh1[1] == 2 and s.mh1[2] == 4.5
        verdict = classify(s)
        assert verdict.level is SparsityLevel.SPARSE

    def test_far_from_bound_with_small_counts_is_sparse_only(self):
        # 796 x 7 text matrix: 45% zeros is far below the 85.7% bound
        summary = SparsitySummary(
            ave=3.59,
            pct_zero=45.0,
            mh1=(1, 1, 2, 4, 2740),
            bound=zero_percentage_bound(796, 7),
            size=(796, 7),
        )
        assert classify(summary).level is SparsityLevel.SPARSE
