from xml.dom import minidom
from xml.sax import saxutils

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taxica import (
    ValidationError,
    build_model,
    ca_decompose,
    emit_svg_biplot,
    explained_variation,
    tca_decompose,
)
from taxica.svg import _escape

from helpers import make_table


class TestSvgBiplot:
    def test_byte_identical_for_same_decomposition(self, tv_tca):
        assert emit_svg_biplot(tv_tca, 1, 2) == emit_svg_biplot(tv_tca, 1, 2)

    def test_well_formed_xml_with_all_points(self, tv_tca, tv_table):
        svg = emit_svg_biplot(tv_tca, 1, 2)
        minidom.parseString(svg)
        assert svg.count("<circle") == len(tv_table.row_labels)
        assert svg.count("<polygon") == len(tv_table.col_labels)
        for label in tv_table.col_labels:
            assert f">{label}</text>" in svg

    def test_axis_captions_carry_explained_percentages(self, tv_tca):
        svg = emit_svg_biplot(tv_tca, 1, 2)
        expl = explained_variation(tv_tca)
        assert f"Axis 1 ({expl[0]:.1f}%)" in svg
        assert f"Axis 2 ({expl[1]:.1f}%)" in svg

    def test_unknown_category_sits_at_axis_one_extreme(self, tv_tca, tv_table):
        # the dontknow response dominates the first taxicab axis
        g1 = np.abs(tv_tca.axes[0].g)
        assert tv_table.col_labels[int(np.argmax(g1))] == "dontknow"

    def test_rating_scale_is_graded_along_axis_two(self, tv_tca, tv_table):
        ratings = ["excellent", "verygood", "good", "average", "bad"]
        g2 = [tv_tca.axes[1].g[tv_table.col_labels.index(lab)] for lab in ratings]
        diffs = np.diff(g2)
        assert np.all(diffs > 0) or np.all(diffs < 0)

    def test_same_axis_twice_rejected(self, toy_minimal):
        decomp = ca_decompose(build_model(toy_minimal))
        with pytest.raises(ValidationError, match="distinct"):
            emit_svg_biplot(decomp, 1, 1)

    def test_axis_out_of_range(self, toy_minimal):
        decomp = ca_decompose(build_model(toy_minimal))
        with pytest.raises(ValidationError, match="out of range"):
            emit_svg_biplot(decomp, 1, 2)

    def test_blank_labels_fall_back_to_indices(self):
        table = make_table(
            [[5, 1, 1], [1, 4, 1], [1, 1, 6]],
            row_labels=("", "x", " "),
            col_labels=("a", "b", "c"),
        )
        svg = emit_svg_biplot(tca_decompose(build_model(table)), 1, 2)
        assert ">1</text>" in svg and ">3</text>" in svg

    def test_labels_are_escaped(self):
        table = make_table(
            [[5, 1, 2], [1, 4, 1], [2, 2, 7]],
            row_labels=("a<b", "c&d", "e>f"),
            col_labels=("a&lt;b", "q\"u'o", "z"),
        )
        svg = emit_svg_biplot(ca_decompose(build_model(table)), 1, 2)
        assert ">a&lt;b</text>" in svg and ">c&amp;d</text>" in svg
        assert ">e&gt;f</text>" in svg
        # an already escaped label is escaped again; quotes stay as they are
        assert ">a&amp;lt;b</text>" in svg
        assert ">q\"u'o</text>" in svg
        texts = minidom.parseString(svg).getElementsByTagName("text")
        labels = {node.firstChild.data for node in texts}
        assert {"a<b", "c&d", "e>f", "a&lt;b", "q\"u'o"} <= labels


@given(st.text(st.sampled_from("&<>;\"'alt") | st.characters()))
@settings(max_examples=300, deadline=None)
def test_escape_matches_saxutils(text):
    assert _escape(text) == saxutils.escape(text)
