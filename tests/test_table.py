import numpy as np
import pytest
from numpy.testing import assert_allclose

from taxica import (
    ContingencyTable,
    NumericalError,
    ParseError,
    ValidationError,
    build_model,
    parse_table,
    serialize_table,
    validate_table,
)

from helpers import make_table


class TestParse:
    def test_toy_4x4(self, toy_table):
        assert toy_table.shape == (4, 4)
        assert toy_table.n == 21
        assert toy_table.row_labels == ("r1", "r2", "r3", "r4")
        assert toy_table.counts[3].tolist() == [3, 6, 0, 0]

    def test_minimal_1x1(self):
        table = parse_table("a,x\nr1,5")
        assert table.shape == (1, 1)
        assert table.n == 5
        assert table.col_labels == ("x",)

    def test_tv_totals(self, tv_table):
        assert tv_table.shape == (13, 7)
        assert tv_table.n == 5079
        assert_allclose(
            tv_table.counts.sum(axis=0), [153, 457, 1243, 1110, 576, 157, 1383]
        )

    def test_custom_delimiter(self):
        table = parse_table(";a;b\nr1;1;2", delimiter=";")
        assert table.counts.tolist() == [[1, 2]]

    @pytest.mark.parametrize("delimiter", ["", ";;"])
    def test_delimiter_must_be_one_character(self, delimiter):
        with pytest.raises(ParseError, match="1-character"):
            parse_table(",a,b\nr1,1,2", delimiter=delimiter)

    def test_wrong_cell_count(self):
        with pytest.raises(ParseError, match="row 'r1'.*expected 2"):
            parse_table(",a,b\nr1,1\nr2,2,3")

    def test_non_numeric_cell(self):
        with pytest.raises(ParseError, match="row 'r2', column 'b'"):
            parse_table(",a,b\nr1,1,2\nr2,3,oops")

    # float() reads both: "1_000" as 1000.0 and the Arabic-Indic digits as 12.0.
    @pytest.mark.parametrize("cell", ["1_000", "\u0661\u0662"], ids=["digit-separator", "non-ascii-digits"])
    def test_cell_only_float_reads_refused(self, cell):
        with pytest.raises(ParseError, match=f"non-numeric cell '{cell}' at row 'r2', column 'b'"):
            parse_table(f",a,b\nr1,1,2\nr2,3,{cell}")

    def test_non_ascii_whitespace_around_a_number(self):
        # The stripped text is what must be ASCII; no-break spaces around it are padding.
        assert parse_table(",a,b\nr1,\u00a012\u00a0,2").counts.tolist() == [[12, 2]]

    def test_negative_entry(self):
        with pytest.raises(ValidationError, match="negative.*row 'r1', column 'a'"):
            parse_table(",a,b\nr1,-1,2")

    def test_non_finite_entry(self):
        with pytest.raises(ValidationError, match="non-finite"):
            parse_table(",a,b\nr1,nan,2")

    def test_duplicate_row_label(self):
        with pytest.raises(ValidationError, match="duplicate row label 'r1'"):
            parse_table(",a,b\nr1,1,2\nr1,3,4")

    def test_duplicate_col_label(self):
        with pytest.raises(ValidationError, match="duplicate column label 'a'"):
            parse_table(",a,a\nr1,1,2")

    def test_empty_input(self):
        with pytest.raises(ParseError, match="empty"):
            parse_table("")

    def test_header_only(self):
        with pytest.raises(ParseError, match="no data rows"):
            parse_table(",a,b\n")

    def test_no_columns(self):
        with pytest.raises(ParseError, match="no data columns"):
            parse_table("id\nr1")

    def test_all_zero_table_is_rejected(self):
        with pytest.raises(ValidationError, match="n = 0"):
            parse_table(",a,b\nr1,0,0\nr2,0,0")


class TestSerializeRoundTrip:
    def test_integer_table(self, toy_table):
        text = serialize_table(toy_table)
        again = parse_table(text)
        assert again.row_labels == toy_table.row_labels
        assert again.col_labels == toy_table.col_labels
        assert np.array_equal(again.counts, toy_table.counts)

    def test_real_valued_table(self):
        table = make_table([[0.5, 2.25], [1e-3, 7.125]])
        again = parse_table(serialize_table(table))
        assert np.array_equal(again.counts, table.counts)

    def test_labels_needing_quotes(self):
        table = ContingencyTable(("a,b", 'say "hi"'), ("x", "y"), np.eye(2) + 1)
        again = parse_table(serialize_table(table))
        assert again.row_labels == table.row_labels


class TestValidate:
    def test_drop_zero_row(self):
        table = make_table([[1, 0], [0, 2], [0, 0]])
        cleaned, warnings = validate_table(table)
        assert cleaned.shape == (2, 2)
        assert len(warnings) == 1 and "row 'r3'" in warnings[0]

    def test_drop_interleaved_zero_rows_and_columns(self):
        table = make_table(
            [[0, 1, 0, 2], [0, 0, 0, 0], [0, 3, 0, 4], [0, 0, 0, 0]]
        )
        cleaned, warnings = validate_table(table)
        assert cleaned.row_labels == ("r1", "r3")
        assert cleaned.col_labels == ("c2", "c4")
        assert cleaned.counts.tolist() == [[1, 2], [3, 4]]
        assert warnings == [
            "row 'r2' dropped (all entries zero)",
            "row 'r4' dropped (all entries zero)",
            "column 'c1' dropped (all entries zero)",
            "column 'c3' dropped (all entries zero)",
        ]

    def test_already_valid(self):
        table = make_table([[1, 0], [0, 2]])
        cleaned, warnings = validate_table(table)
        assert cleaned is table
        assert warnings == []

    def test_construction_rejects_duplicates_and_negatives(self):
        with pytest.raises(ValidationError, match="duplicate row label"):
            make_table([[1, 2], [3, 4]], row_labels=("a", "a"))
        with pytest.raises(ValidationError, match="negative count"):
            make_table([[1, -2], [3, 4]])

    @pytest.mark.parametrize(
        "rows, cols, counts, message",
        [
            (("a",), ("x",), [1.0], "must be a 2-D matrix"),
            (("a",), ("x", "y"), [[1.0], [2.0]], r"\(2, 1\) does not match 1 row"),
            ((), ("x",), np.zeros((0, 1)), "at least one row and one column"),
        ],
    )
    def test_construction_rejects_bad_shapes(self, rows, cols, counts, message):
        with pytest.raises(ValidationError, match=message):
            ContingencyTable(rows, cols, counts)

    def test_construction_rejects_overflowing_total(self):
        # every count is finite, but their sum exceeds the float64 range
        with pytest.raises(NumericalError, match="not finite"):
            make_table([[1e308, 1e308], [1e308, 5e307]])


class TestBuildModel:
    def test_toy_minimal_residuals(self, toy_minimal):
        model = build_model(toy_minimal)
        assert_allclose(model.r, [6 / 7, 1 / 7])
        assert_allclose(model.c, [6 / 7, 1 / 7])
        expected_r0 = np.array([[6 / 49, -6 / 49], [-6 / 49, 6 / 49]])
        assert_allclose(model.R0, expected_r0, atol=1e-15)

    def test_independence_table_has_zero_residuals(self):
        r = np.array([0.2, 0.3, 0.5])
        c = np.array([0.1, 0.9])
        model = build_model(make_table(60.0 * np.outer(r, c)))
        assert_allclose(model.R0, 0, atol=1e-15)

    def test_tv_column_masses(self, tv_table):
        model = build_model(tv_table)
        assert_allclose(
            model.c, np.array([153, 457, 1243, 1110, 576, 157, 1383]) / 5079
        )

    def test_margins_sum_to_one_and_r0_margins_vanish(self, rodents_table):
        model = build_model(rodents_table)
        assert abs(model.P.sum() - 1) < 1e-12
        assert np.max(np.abs(model.R0.sum(axis=0))) < 1e-12
        assert np.max(np.abs(model.R0.sum(axis=1))) < 1e-12

    def test_requires_positive_margins(self):
        table = make_table([[1, 0], [0, 2], [0, 0]])
        with pytest.raises(ValidationError, match="validate"):
            build_model(table)

    @pytest.mark.parametrize(
        "counts",
        [
            [[3, 5e-324, 5], [4, 0, 3], [10, 0, 1e308]],  # c_2 = 5e-324 / n = 0
            [[0, 0, 1], [0, 0, 1], [1, 1e308, 0]],  # r_1 c_1 = 1e-308 * 1e-308 = 0
        ],
    )
    def test_underflowing_independence_term_is_a_numerical_error(self, counts):
        with pytest.raises(NumericalError, match="underflows"):
            build_model(make_table(counts))

    @pytest.mark.parametrize("k", [2, 3, 10])
    def test_scale_invariance_exact_for_integer_tables(self, toy_table, k):
        model = build_model(toy_table)
        scaled = build_model(make_table(k * toy_table.counts))
        assert np.array_equal(model.P, scaled.P)
        assert np.array_equal(model.r, scaled.r)
        assert np.array_equal(model.c, scaled.c)
        assert np.array_equal(model.R0, scaled.R0)
