import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from taxica import (
    NumericalError,
    ValidationError,
    apply_grouping,
    build_model,
    ca_decompose,
    proportional,
    reduce_to_minimal,
    tca_decompose,
)
from taxica.reduction import _proportional_groups

from helpers import load_table, make_table, random_tables


class TestProportional:
    def test_scaled_vectors(self):
        assert proportional([1, 2, 0, 0], [3, 6, 0, 0])

    def test_identical_vectors(self):
        assert proportional([1, 2], [1, 2])

    def test_disjoint_support(self):
        assert not proportional([1, 2, 0, 0], [0, 0, 1, 2])

    def test_integer_inputs_exact_with_zero_tolerance(self):
        assert proportional([2, 4, 6], [3, 6, 9], tol=0.0)
        assert not proportional([2, 4, 6], [3, 6, 10], tol=0.0)

    def test_overflowing_cross_products_rejected(self):
        with pytest.raises(NumericalError, match="overflows"):
            proportional([1e200, 0.0], [0.0, 1e200])
        with pytest.raises(NumericalError, match="overflows"):
            reduce_to_minimal(make_table([[1e200, 0], [0, 1e200], [1, 1]]))

    def test_underflowing_cross_products_rejected(self):
        # 1e-170 * 1e-170 rounds to 0, and 0 <= tol * 0 would accept lines
        # with different support.
        with pytest.raises(NumericalError, match="underflows.*rescale the table"):
            proportional([1e-170, 0.0], [0.0, 1e-170])
        with pytest.raises(NumericalError, match="underflows.*rescale the table"):
            reduce_to_minimal(make_table([[1e-170, 0], [0, 1e-170], [1e-170, 1e-170]]))

    def test_cross_products_in_the_normal_range_reduce(self):
        # Cross-products of 1e-300 are normal floats, so the scan still tells
        # supports apart and merges only the proportional rows.
        trace = reduce_to_minimal(make_table([[1e-150, 0], [0, 1e-150], [2e-150, 0], [1e-150, 1e-150]]))
        assert trace.minimal.counts.tolist() == [[3e-150, 0.0], [0.0, 1e-150], [1e-150, 1e-150]]
        assert trace.row_groups == ((0, 2), (1,), (3,))
        assert trace.col_groups == ((0,), (1,))
        assert trace.minimal.row_labels == ("r1+r3", "r2", "r4")
        assert not proportional([1e-150, 0.0], [0.0, 1e-150])

    def test_zero_sum_vector_rejected(self):
        with pytest.raises(ValidationError, match="zero-sum"):
            proportional([0, 0], [1, 2])

    @pytest.mark.parametrize("x, y", [([1, 2], [1, 2, 3]), ([[1, 2]], [[1, 2]])])
    def test_vectors_of_other_shapes_rejected(self, x, y):
        with pytest.raises(ValidationError, match="one-dimensional and of equal length"):
            proportional(x, y)


class TestReduceToMinimal:
    def test_worked_4x4_example(self, toy_table):
        trace = reduce_to_minimal(toy_table)
        assert trace.minimal.shape == (2, 2)
        assert trace.minimal.counts.tolist() == [[18, 0], [0, 3]]
        assert trace.row_groups == ((0, 1, 3), (2,))
        assert trace.col_groups == ((0, 1), (2, 3))
        assert trace.minimal.row_labels == ("r1+r2+r4", "r3")
        assert [s.axis for s in trace.steps] == ["row", "col", "col"]
        assert trace.steps[0].merged_indices == (0, 1, 3)
        assert trace.steps[0].new_label == "r1+r2+r4"

    def test_tv_is_already_minimal(self, tv_table):
        trace = reduce_to_minimal(tv_table)
        assert trace.minimal.shape == (13, 7)
        assert trace.is_already_minimal

    def test_rodents_reduces_to_21x9(self, rodents_table):
        trace = reduce_to_minimal(rodents_table)
        assert trace.minimal.shape == (21, 9)
        merged = sorted(g for g in trace.row_groups if len(g) > 1)
        # sites holding only the second species, and sites holding only the first
        assert merged == [(6, 7, 10, 14, 15, 21, 24), (16, 23)]
        assert trace.col_groups == tuple((j,) for j in range(9))

    def test_idempotent(self, toy_table):
        minimal = reduce_to_minimal(toy_table).minimal
        again = reduce_to_minimal(minimal)
        assert again.is_already_minimal
        assert np.array_equal(again.minimal.counts, minimal.counts)

    def test_total_preserved_and_summary_inequalities(self, toy_table, rodents_table):
        for table in (toy_table, rodents_table):
            trace = reduce_to_minimal(table)
            assert trace.minimal.n == table.n
            i0, j0 = table.shape
            i1, j1 = trace.minimal.shape
            assert i1 <= i0 and j1 <= j0
            assert table.n / (i0 * j0) <= trace.minimal.n / (i1 * j1) + 1e-12
            assert table.counts.max() <= trace.minimal.counts.max() + 1e-12

    def test_requires_validated_table(self):
        with pytest.raises(ValidationError, match="all-zero"):
            reduce_to_minimal(make_table([[1, 0], [0, 0]]))

    def test_merging_rows_can_unlock_column_merges(self, toy_table):
        # the 4x4 example needs a column pass after the row pass, twice over
        trace = reduce_to_minimal(toy_table)
        axes_in_order = [s.axis for s in trace.steps]
        assert axes_in_order[0] == "row" and "col" in axes_in_order

    def test_spectrum_invariance(self, rodents_table):
        minimal = reduce_to_minimal(rodents_table).minimal
        ca_n = ca_decompose(build_model(rodents_table))
        ca_m = ca_decompose(build_model(minimal))
        assert ca_n.rank_used == ca_m.rank_used
        assert_allclose(ca_n.sigmas, ca_m.sigmas, atol=1e-9)
        tca_n = tca_decompose(build_model(rodents_table))
        tca_m = tca_decompose(build_model(minimal))
        assert_allclose(tca_n.sigmas, tca_m.sigmas, atol=1e-9)

    def test_unmerged_line_coordinates_survive_reduction(self, rodents_table):
        trace = reduce_to_minimal(rodents_table)
        ca_n = ca_decompose(build_model(rodents_table))
        ca_m = ca_decompose(build_model(trace.minimal))
        keep = [(k, g[0]) for k, g in enumerate(trace.row_groups) if len(g) == 1]
        for axis in range(3):
            f_m = np.array([ca_m.axes[axis].f[k] for k, _ in keep])
            f_n = np.array([ca_n.axes[axis].f[i] for _, i in keep])
            diff = min(np.max(np.abs(f_m - f_n)), np.max(np.abs(f_m + f_n)))
            assert diff <= 1e-9

    def test_unique_up_to_permutation(self, toy_table):
        rng = np.random.default_rng(7)

        def keyed_entries(table):
            trace = reduce_to_minimal(table)
            entries = {}
            for i, row_label in enumerate(trace.minimal.row_labels):
                for j, col_label in enumerate(trace.minimal.col_labels):
                    key = (
                        frozenset(row_label.split("+")),
                        frozenset(col_label.split("+")),
                    )
                    entries[key] = trace.minimal.counts[i, j]
            return entries

        base = keyed_entries(toy_table)
        for _ in range(5):
            rp = rng.permutation(toy_table.shape[0])
            cp = rng.permutation(toy_table.shape[1])
            permuted = make_table(
                toy_table.counts[np.ix_(rp, cp)],
                row_labels=[toy_table.row_labels[i] for i in rp],
                col_labels=[toy_table.col_labels[j] for j in cp],
            )
            assert keyed_entries(permuted) == base

    def test_random_tables_reduce_consistently(self):
        for table in random_tables(10, seed=99):
            trace = reduce_to_minimal(table)
            assert trace.minimal.n == table.n
            assert reduce_to_minimal(trace.minimal).is_already_minimal


def brute_force_groups(lines: np.ndarray, tol: float) -> list[list[int]]:
    """Connected components of the pair relation ``proportional`` defines,
    built from every pair one at a time; each component lists its members in
    increasing order and the components are ordered by their first member."""
    m = lines.shape[0]
    neighbours = [
        [j for j in range(m) if j != i and proportional(lines[i], lines[j], tol)]
        for i in range(m)
    ]
    seen: set[int] = set()
    groups = []
    for start in range(m):
        if start in seen:
            continue
        component, stack = {start}, [start]
        while stack:
            for j in neighbours[stack.pop()]:
                if j not in component:
                    component.add(j)
                    stack.append(j)
        seen |= component
        groups.append(sorted(component))
    return groups


@st.composite
def planted_integer_lines(draw):
    """Integer lines that are integer multiples of a few base profiles."""
    n_cols = draw(st.integers(1, 6))
    n_base = draw(st.integers(1, 4))
    bases = draw(
        st.lists(
            st.lists(st.integers(0, 5), min_size=n_cols, max_size=n_cols),
            min_size=n_base,
            max_size=n_base,
        )
    )
    picks = draw(
        st.lists(
            st.tuples(st.integers(0, n_base - 1), st.integers(1, 4)),
            min_size=1,
            max_size=24,
        )
    )
    lines = np.array([[k * v for v in bases[b]] for b, k in picks], dtype=float)
    assume(np.all(lines.sum(axis=1) > 0))
    return lines


TOL = 1e-6


@st.composite
def weighted_float_lines(draw):
    """Float-weighted multiples of a few base profiles, each entry nudged by
    a relative amount on the order of ``TOL``, so that pairs of lines sit on
    both sides of the tolerance and chains that are not transitive occur."""
    n_cols = draw(st.integers(1, 5))
    n_base = draw(st.integers(1, 3))
    bases = draw(
        st.lists(
            st.lists(st.integers(0, 9), min_size=n_cols, max_size=n_cols),
            min_size=n_base,
            max_size=n_base,
        )
    )
    nudges = st.sampled_from([k * 0.4 * TOL for k in range(-4, 5)])
    rows = draw(
        st.lists(
            st.tuples(
                st.integers(0, n_base - 1),
                st.floats(0.1, 50.0),
                st.lists(nudges, min_size=n_cols, max_size=n_cols),
            ),
            min_size=1,
            max_size=20,
        )
    )
    lines = np.array(
        [
            [w * v * (1.0 + e) for v, e in zip(bases[b], nudge)]
            for b, w, nudge in rows
        ]
    )
    assume(np.all(lines.sum(axis=1) > 0))
    return lines


class TestProportionalGroups:
    @given(planted_integer_lines(), st.sampled_from([0.0, 1e-9]))
    @settings(max_examples=80, deadline=None)
    def test_integer_lines_match_brute_force(self, lines, tol):
        assert _proportional_groups(lines, tol) == brute_force_groups(lines, tol)

    @given(weighted_float_lines())
    @settings(max_examples=80, deadline=None)
    def test_float_lines_match_brute_force(self, lines):
        assert _proportional_groups(lines, TOL) == brute_force_groups(lines, TOL)

    def test_non_transitive_chain_is_one_group(self):
        # a ~ b and b ~ c within the tolerance, but a and c differ by more
        a = [1.0, 1.0]
        b = [1.0, 1.0 + 1.5 * TOL]
        c = [1.0, 1.0 + 3.0 * TOL]
        assert proportional(a, b, TOL) and proportional(b, c, TOL)
        assert not proportional(a, c, TOL)
        # a line merged into an earlier one must still be tested against the rest
        lines = np.array([a, b, [5.0, 0.0], c])
        assert _proportional_groups(lines, TOL) == [[0, 1, 3], [2]]


class TestApplyGrouping:
    def test_identity_partition(self, toy_table):
        identity = apply_grouping(
            toy_table,
            [(i,) for i in range(4)],
            [(j,) for j in range(4)],
        )
        assert np.array_equal(identity.counts, toy_table.counts)
        assert identity.row_labels == toy_table.row_labels

    def test_worked_example_groups(self, toy_table):
        grouped = apply_grouping(toy_table, [(0, 1, 3), (2,)], [(0, 1), (2, 3)])
        assert grouped.counts.tolist() == [[18, 0], [0, 3]]

    def test_total_collapse(self, toy_table):
        collapsed = apply_grouping(
            toy_table, [tuple(range(4))], [(j,) for j in range(4)]
        )
        assert collapsed.shape == (1, 4)
        assert_allclose(collapsed.counts[0], toy_table.counts.sum(axis=0))

    def test_overlapping_partition_rejected(self, toy_table):
        with pytest.raises(ValidationError, match="not a partition"):
            apply_grouping(toy_table, [(0, 1), (1, 2, 3)], [(j,) for j in range(4)])

    def test_incomplete_partition_rejected(self, toy_table):
        with pytest.raises(ValidationError, match="not a partition"):
            apply_grouping(toy_table, [(0, 1)], [(j,) for j in range(4)])

    @pytest.mark.parametrize(
        "row_groups, col_groups, match",
        [
            ([(0, 1), (), (2, 3)], [(j,) for j in range(4)], "row group 1 is empty"),
            ([(i,) for i in range(4)], [(0, 1, 2, 3), ()], "column group 1 is empty"),
        ],
        ids=["row", "column"],
    )
    def test_empty_group_rejected(self, toy_table, row_groups, col_groups, match):
        # the index ranges are covered exactly, so only the empty group is wrong
        with pytest.raises(ValidationError, match=match):
            apply_grouping(toy_table, row_groups, col_groups)

    @pytest.mark.parametrize("index", [1.7, True, 1.0, np.float64(1.0), "1"])
    @pytest.mark.parametrize("axis", ["row", "column"])
    def test_non_integer_index_rejected(self, toy_table, axis, index):
        # int() makes each of these line 1, which the partition check alone
        # would accept
        groups = [(0, index), (2,), (3,)]
        identity = [(k,) for k in range(4)]
        row_groups, col_groups = (groups, identity) if axis == "row" else (identity, groups)
        with pytest.raises(ValidationError, match=f"{axis} index .* is not an integer"):
            apply_grouping(toy_table, row_groups, col_groups)

    @pytest.mark.parametrize(
        "col_labels, counts, minimal_labels",
        [
            (("a", "b", "a+b"), [[1, 2, 5], [2, 4, 1], [3, 6, 2]], ("a+b#2", "a+b")),
            (("a", "b+c", "a+b", "c"), [[1, 2, 1, 2], [2, 4, 1, 2], [3, 6, 5, 10]], ("a+b+c", "a+b+c#2")),
            (("a+b#2", "a", "b", "a+b"), [[1, 1, 2, 5], [1, 2, 4, 1], [9, 3, 6, 2]], ("a+b#2", "a+b#3", "a+b")),
        ],
        ids=["merged-vs-unmerged", "merged-vs-merged", "suffix-taken"],
    )
    def test_trace_groups_give_the_minimal_labels(self, col_labels, counts, minimal_labels):
        table = make_table(counts, col_labels=col_labels)
        trace = reduce_to_minimal(table)
        labels = trace.minimal.col_labels
        assert labels == minimal_labels
        assert apply_grouping(table, trace.row_groups, trace.col_groups).col_labels == labels
        final = {g: lab for g, lab in zip(trace.col_groups, labels)}
        assert all(step.new_label == final[step.merged_indices] for step in trace.steps)

    def test_numpy_integer_indices_accepted(self, toy_table):
        grouped = apply_grouping(
            toy_table, [np.array([0, 1, 3]), (np.int64(2),)], [(np.uint8(0), 1), (2, 3)]
        )
        assert grouped.counts.tolist() == [[18, 0], [0, 3]]
