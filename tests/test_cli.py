import argparse
import contextlib
import csv
import io
import json
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import taxica
from taxica import NumericalError, build_model, cli, parse_table, reduce_to_minimal
from taxica.cli import _dumps, run_cli
from taxica.entry import build_parser

from helpers import DATA_DIR, cli_env, load_table

TOY = str(DATA_DIR / "toy_4x4.csv")
TV = str(DATA_DIR / "tv_programs.csv")
RODENTS = str(DATA_DIR / "rodents.csv")


def run_json(capsys, argv):
    code = run_cli(argv)
    out = capsys.readouterr().out
    assert code == 0, out
    return json.loads(out)


class TestSummarize:
    def test_toy_table_text(self, capsys):
        assert run_cli(["summarize", "--input", TOY]) == 0
        out = capsys.readouterr().out
        assert "1.3125" in out and "50.0000" in out
        assert "1.5" in out and "3.5" in out
        assert "sparsest" in out

    def test_json_payload(self, capsys):
        payload = run_json(capsys, ["summarize", "--input", TOY, "--format", "json"])
        assert payload["schema"] == 1
        assert payload["sparsity"]["N"]["ave"] == 1.3125
        assert payload["sparsity"]["N"]["mh1"]["q3"] == 3.5
        assert payload["sparsity"]["M"]["rows"] == 2
        assert payload["reduction"]["minimal_size"] == [2, 2]
        assert payload["sparsity"]["classification"]["level"] == "sparsest"

    def test_interpolated_quantiles(self, capsys):
        payload = run_json(
            capsys,
            ["summarize", "--input", RODENTS, "--format", "json",
             "--quantile", "interpolated"],
        )
        assert payload["sparsity"]["N"]["mh1"]["median"] == 5


class TestReduce:
    def test_minimal_csv_comes_first(self, capsys):
        assert run_cli(["reduce", "--input", TOY]) == 0
        out = capsys.readouterr().out
        csv_part = "\n".join(out.splitlines()[:3]) + "\n"
        minimal = parse_table(csv_part)
        assert minimal.counts.tolist() == [[18, 0], [0, 3]]
        assert minimal.row_labels == ("r1+r2+r4", "r3")
        trace = json.loads(out[out.index("{"):])
        assert trace["trace"]["minimal_size"] == [2, 2]

    def test_json_round_trips_minimal_table(self, capsys):
        payload = run_json(capsys, ["reduce", "--input", TOY, "--format", "json"])
        minimal = parse_table(payload["minimal_csv"])
        assert minimal.counts.tolist() == [[18, 0], [0, 3]]
        assert payload["trace"]["row_groups"] == [[0, 1, 3], [2]]
        assert payload["trace"]["steps"][0]["new_label"] == "r1+r2+r4"


class TestEngines:
    def test_ca_payload(self, capsys):
        payload = run_json(capsys, ["ca", "--input", TV, "--axes", "2"])
        ca = payload["ca"]
        assert ca["rank_used"] == 6
        assert len(ca["sigmas"]) == 6
        assert len(ca["axes"]) == 2
        assert ca["explained_pct"][0] == pytest.approx(70.64, abs=0.01)
        dk = payload["input"]["col_labels"].index("dontknow")
        assert ca["axes"][0]["col_contributions"][dk] == pytest.approx(700, abs=1)

    def test_tca_payload_with_solver_metadata(self, capsys):
        payload = run_json(capsys, ["tca", "--input", RODENTS, "--axes", "2"])
        tca = payload["tca"]
        assert tca["sigmas"][0] == pytest.approx(0.478, abs=1e-3)
        assert tca["axes"][0]["solver"]["name"] == "exact"
        assert tca["axes"][0]["solver"]["converged"] is True
        assert tca["is_full_rank"] is True
        assert tca["explained_pct"]  # present for all axes

    def test_json_round_trips_losslessly(self, capsys):
        code = run_cli(["tca", "--input", TV, "--format", "json"])
        out = capsys.readouterr().out
        assert code == 0
        assert json.dumps(json.loads(out), indent=2) + "\n" == out

    def test_reduced_flag_preserves_dispersions(self, capsys):
        full = run_json(capsys, ["tca", "--input", RODENTS])
        reduced = run_json(capsys, ["tca", "--input", RODENTS, "--reduced"])
        assert reduced["input"]["rows"] == 21
        assert_allclose(
            np.array(full["tca"]["sigmas"]),
            np.array(reduced["tca"]["sigmas"]),
            atol=1e-9,
        )

    def test_table_format(self, capsys):
        assert run_cli(["ca", "--input", TOY, "--format", "table"]) == 0
        out = capsys.readouterr().out
        assert "sigma=1.0000" in out
        assert "r1+r2" not in out  # unreduced input keeps original labels

    def test_axes_out_of_range(self, capsys):
        assert run_cli(["ca", "--input", TV, "--axes", "9"]) == 2
        assert "out of range" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["ca", "tca", "compare"])
    @pytest.mark.parametrize("axes", ["9", "0"])
    def test_axes_error_names_the_flag(self, capsys, command, axes):
        assert run_cli([command, "--input", TV, "--axes", axes]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --axes {axes} out of range 1..6 for a 13x7 table\n"

    def test_proportional_lines_have_no_axis(self, capsys, tmp_path):
        path = tmp_path / "proportional.csv"
        path.write_text(",x,y\na,5,6\nb,10,12\n")
        for method in ("ca", "tca"):
            payload = run_json(capsys, [method, "--input", str(path)])[method]
            assert (payload["rank_used"], payload["sigmas"], payload["axes"]) == (0, [], [])
        assert run_cli(["compare", "--input", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: the 2x2 table has no axis: its lines are proportional up to rounding\n"
        )


class TestCompareAndVerify:
    def test_tv_similar(self, capsys):
        payload = run_json(capsys, ["compare", "--input", TV, "--axes", "2"])
        assert payload["similarity"]["verdict"] == "similar"
        phis = [axis["phi"] for axis in payload["similarity"]["axes"]]
        assert all(phi >= 0.9 for phi in phis)

    def test_rodents_dissimilar(self, capsys):
        payload = run_json(capsys, ["compare", "--input", RODENTS, "--axes", "2"])
        assert payload["similarity"]["verdict"] == "dissimilar"

    def test_phi_threshold_flag(self, capsys):
        payload = run_json(
            capsys,
            ["compare", "--input", RODENTS, "--axes", "2", "--phi-threshold", "0.5"],
        )
        assert payload["similarity"]["verdict"] == "partial"

    def test_rank_one_table_defaults_to_one_axis(self, capsys, tmp_path):
        diagonal = tmp_path / "diag.csv"
        diagonal.write_text(",a,b\nr1,1,0\nr2,0,1\n")
        for path in (TOY, str(diagonal)):
            payload = run_json(capsys, ["compare", "--input", path])
            assert len(payload["ca"]["sigmas"]) == 1
            assert len(payload["similarity"]["axes"]) == 1
            assert payload["similarity"]["verdict"] == "similar"

    def test_explicit_axes_beyond_rank_match_the_rank(self, capsys):
        # --axes is checked against the shape, as for ca and tca, which
        # report the rank's axes when asked for more.
        payload = run_json(capsys, ["compare", "--input", TOY, "--axes", "2"])
        assert len(payload["similarity"]["axes"]) == 1
        assert payload["similarity"]["verdict"] == "similar"
        assert run_json(capsys, ["ca", "--input", TOY, "--axes", "2"])["ca"]["rank_used"] == 1

    def test_axes_beyond_pairing_cap_rejected(self, capsys, tmp_path):
        assert run_cli(["compare", "--input", write_wide_table(tmp_path), "--axes", "10"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --axes 10 out of range 1..9 for a 60x44 table\n"

    @pytest.mark.parametrize(
        "shape, axes, top",
        [((80, 48), "0", 9), ((80, 48), "10", 9), ((80, 48), "48", 9), ((13, 7), "7", 6)],
    )
    def test_axes_outside_the_shape_are_refused_before_decomposing(
        self, capsys, monkeypatch, tmp_path, shape, axes, top
    ):
        path = TV if shape == (13, 7) else write_count_table(tmp_path, *shape, zeros=0.75, seed=11)
        built = []

        def counting_build_model(table):
            built.append(table.shape)
            return build_model(table)

        monkeypatch.setattr(cli, "build_model", counting_build_model)
        assert run_cli(["compare", "--input", path, "--axes", axes]) == 2
        I, J = shape
        assert capsys.readouterr().err == f"error: --axes {axes} out of range 1..{top} for a {I}x{J} table\n"
        assert built == []

    @pytest.mark.parametrize("command", ["compare", "verify"])
    def test_both_methods_share_one_model(self, capsys, monkeypatch, command):
        built = []

        def counting_build_model(table):
            built.append(table.shape)
            return build_model(table)

        monkeypatch.setattr(cli, "build_model", counting_build_model)
        assert run_cli([command, "--input", TV]) == 0
        assert built == [(13, 7)]

    def test_compare_table_format(self, capsys):
        assert run_cli(["compare", "--input", TV, "--format", "table"]) == 0
        assert capsys.readouterr().out == (
            "verdict: similar (threshold 0.9)\n"
            "  CA axis 1 ~ TCA axis 1: phi=0.9972\n"
            "  CA axis 2 ~ TCA axis 2: phi=0.9918\n"
        )

    def test_verify_table_format(self, capsys):
        assert run_cli(["verify", "--input", TV, "--format", "table"]) == 0
        lines = capsys.readouterr().out.splitlines()
        # Most residuals are at the rounding level, so only their format is pinned.
        heads = [re.sub(r"max_residual=\d\.\d{3}e[-+]\d\d", "max_residual=", line) for line in lines]
        assert "  axes-ordering     n/a   max_residual=0.000e+00  tol=1e-09" in lines
        assert heads == [
            "CA: pass",
            "  centering         pass  max_residual=  tol=1e-10",
            "  axes-ordering     pass  max_residual=  tol=1e-09",
            "  l2-norms          pass  max_residual=  tol=1e-09",
            "  orthogonality     pass  max_residual=  tol=1e-09",
            "  transition        pass  max_residual=  tol=1e-09",
            "  sigma-range       pass  max_residual=  tol=1e-09",
            "  reconstruction    pass  max_residual=  tol=1e-09",
            "TCA: pass",
            "  centering         pass  max_residual=  tol=1e-10",
            "  axes-ordering     n/a   max_residual=  tol=1e-09",
            "  l1-norms          pass  max_residual=  tol=1e-09",
            "  equivariability   pass  max_residual=  tol=1e-09",
            "  conjugacy         pass  max_residual=  tol=1e-09",
            "  quadrant-balance  pass  max_residual=  tol=1e-09",
            "  reconstruction    pass  max_residual=  tol=1e-09",
        ]

    def test_verify_all_checks_pass(self, capsys):
        payload = run_json(capsys, ["verify", "--input", RODENTS])
        assert payload["ca"]["passed"] and payload["tca"]["passed"]
        names = {c["name"] for c in payload["tca"]["checks"]}
        assert {"equivariability", "quadrant-balance", "conjugacy"} <= names


class TestPlot:
    def test_svg_to_file(self, capsys, tmp_path):
        out_path = tmp_path / "map.svg"
        assert (
            run_cli(
                ["plot", "--input", TV, "--method", "tca", "--output", str(out_path)]
            )
            == 0
        )
        svg = out_path.read_text()
        assert svg.startswith("<?xml") and "<svg" in svg

    def test_identical_axes_fail(self, capsys):
        code = run_cli(["plot", "--input", TV, "--axis-x", "1", "--axis-y", "1"])
        assert code == 2
        assert "distinct" in capsys.readouterr().err

    @pytest.fixture
    def built(self, monkeypatch):
        """The shapes of the tables ``cli.build_model`` is called on."""
        built = []

        def counting_build_model(table):
            built.append(table.shape)
            return build_model(table)

        monkeypatch.setattr(cli, "build_model", counting_build_model)
        return built

    @pytest.mark.parametrize("flag, axis", [("--axis-x", "0"), ("--axis-y", "60")])
    def test_axis_outside_the_shape_is_refused_before_decomposing(
        self, capsys, built, tmp_path, flag, axis
    ):
        path = write_count_table(tmp_path, 80, 48, zeros=0.6, seed=11)
        assert run_cli(["plot", "--input", path, "--method", "tca", flag, axis]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {flag} {axis} out of range 1..47 for a 80x48 table\n"
        assert built == []

    @pytest.mark.parametrize(
        "axes, err",
        [
            (("2", "2"), "error: a biplot needs two distinct axes\n"),
            (("48", "48"), "error: --axis-x 48 out of range 1..47 for a 80x48 table\n"),
        ],
        ids=["equal", "equal-and-out-of-range"],
    )
    def test_equal_axes_are_refused_before_decomposing(self, capsys, built, tmp_path, axes, err):
        path = write_count_table(tmp_path, 80, 48, zeros=0.6, seed=11)
        argv = ["plot", "--input", path, "--method", "tca", "--axis-x", axes[0], "--axis-y", axes[1]]
        assert run_cli(argv) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", err)
        assert built == []

    def test_axis_beyond_the_rank_is_refused_by_the_biplot(self, capsys):
        # The toy table is 4x4 of rank 1: axis 2 is within the shape.
        assert run_cli(["plot", "--input", TOY]) == 2
        assert capsys.readouterr().err == "error: axis 2 out of range 1..1\n"


class TestErrorsAndWarnings:
    def test_missing_input_file(self, capsys):
        assert run_cli(["summarize", "--input", "no_such_file.csv"]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_unknown_flag(self, capsys):
        assert run_cli(["summarize", "--input", TOY, "--bogus"]) == 2

    def test_missing_subcommand(self, capsys):
        assert run_cli([]) == 2

    def test_negative_entry(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text(",a,b\nr1,-1,2\n")
        assert run_cli(["summarize", "--input", str(bad)]) == 2
        assert "negative" in capsys.readouterr().err

    def test_non_integer_warning(self, capsys, tmp_path):
        path = tmp_path / "real.csv"
        path.write_text(",a,b\nr1,1.5,2\nr2,3,4\n")
        assert run_cli(["summarize", "--input", str(path)]) == 0
        assert "non-integer" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["ca", "tca", "summarize", "reduce"])
    def test_overflowing_total_exits_3(self, capsys, tmp_path, command):
        path = tmp_path / "huge.csv"
        path.write_text(",a,b\nr1,1e308,1e308\nr2,1e308,5e307\n")
        assert run_cli([command, "--input", str(path), "--format", "json"]) == 3
        captured = capsys.readouterr()
        assert "NaN" not in captured.out and "Infinity" not in captured.out
        assert "numerical error" in captured.err

    @pytest.mark.parametrize("argv", [["reduce"], ["summarize"], ["tca", "--reduced"]])
    def test_overflowing_cross_products_exit_3(self, capsys, tmp_path, argv):
        # The total is finite, but count times line sum passes 1.8e308.
        path = tmp_path / "disjoint.csv"
        path.write_text(",a,b\nr1,1e200,0\nr2,0,1e200\nr3,1,1\n")
        assert run_cli([*argv, "--input", str(path)]) == 3
        captured = capsys.readouterr()
        assert "r1+r2" not in captured.out
        assert "numerical error" in captured.err and "overflows" in captured.err

    @pytest.mark.parametrize(
        "text",
        [
            # 5e-324 / n rounds to 0, so column 'c1' would get a zero mass.
            ",c0,c1,a\nr0,3,5e-324,5\na,4,0,3\nr2,10,0,1e308\n",
            # r_1 c_1 = 1e-308 * 1e-308 rounds to 0, though both margins are normal.
            ",a,b,c\nr1,0,0,1\nr2,0,0,1\nr3,1,1e308,0\n",
        ],
    )
    @pytest.mark.parametrize(
        "argv", [["ca"], ["tca"], ["compare"], ["verify"], ["plot", "--method", "tca"]]
    )
    def test_underflowing_independence_term_exits_3(self, capsys, tmp_path, argv, text):
        path = tmp_path / "underflow.csv"
        path.write_text(text)
        assert run_cli([*argv, "--input", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "numerical error" in captured.err and "underflows" in captured.err

    def test_dispersion_below_rounding_level_keeps_no_axis(self, capsys, tmp_path):
        # In exact arithmetic the only TCA axis has sigma of about 1e-300, far
        # below the rounding of R0's unit-sized entries, so no axis is kept
        # (explained_variation would find no share of its underflowing square).
        path = tmp_path / "tiny.csv"
        path.write_text(",a,b\nr0,0,1\nr1,1,1e150\n")
        for method in ("ca", "tca"):
            payload = run_json(capsys, [method, "--input", str(path)])[method]
            assert (payload["rank_used"], payload["sigmas"]) == (0, [])

    def test_input_that_is_not_utf8(self, capsys, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes(",a,b\nr\xe9,1,2\nr2,3,4\n".encode("latin-1"))
        assert run_cli(["summarize", "--input", str(path)]) == 2
        assert "cannot read input file" in capsys.readouterr().err

    def test_output_into_missing_directory(self, capsys, tmp_path):
        out_path = tmp_path / "missing" / "map.svg"
        assert run_cli(["plot", "--input", TV, "--output", str(out_path)]) == 2
        assert "cannot write output file" in capsys.readouterr().err
        assert not out_path.parent.exists()

    @pytest.mark.parametrize("delimiter", ["", ";;"])
    def test_delimiter_longer_or_shorter_than_one_character(self, capsys, delimiter):
        assert run_cli(["summarize", "--input", TOY, "--delimiter", delimiter]) == 2
        assert "1-character" in capsys.readouterr().err

    def test_non_finite_phi_threshold(self, capsys):
        assert run_cli(["compare", "--input", TV, "--phi-threshold", "nan"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "not finite" in captured.err

    def test_non_finite_payload_is_a_numerical_error(self):
        for value in (float("nan"), float("inf")):
            with pytest.raises(NumericalError, match="not finite"):
                _dumps({"sigma": value})

    def test_zero_row_dropped_with_warning(self, capsys, tmp_path):
        path = tmp_path / "zeros.csv"
        path.write_text(",a,b\nr1,1,0\nr2,0,2\nr3,0,0\n")
        code = run_cli(["summarize", "--input", str(path), "--format", "json"])
        captured = capsys.readouterr()
        assert code == 0
        assert "row 'r3' dropped" in captured.err
        assert json.loads(captured.out)["input"]["rows"] == 2


#: The flags that every subcommand reads.
COMMON_FLAGS = {"--input", "--delimiter", "--output"}

#: The flags of each subcommand, beyond --help. summarize and reduce take no
#: --reduced: they print the minimal table anyway.
SUBCOMMAND_FLAGS = {
    "summarize": COMMON_FLAGS | {"--format", "--quantile"},
    "reduce": COMMON_FLAGS | {"--format"},
    "ca": COMMON_FLAGS | {"--format", "--axes", "--reduced"},
    "tca": COMMON_FLAGS | {"--format", "--axes", "--reduced"},
    "compare": COMMON_FLAGS | {"--format", "--axes", "--phi-threshold", "--reduced"},
    "verify": COMMON_FLAGS | {"--format", "--reduced"},
    "plot": COMMON_FLAGS | {"--method", "--axis-x", "--axis-y", "--reduced"},
}


def declared_flags() -> dict[str, set[str]]:
    """The flags each subcommand's parser declares, beyond --help."""
    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return {
        name: {flag for action in p._actions for flag in action.option_strings} - {"-h", "--help"}
        for name, p in sub.choices.items()
    }


class TestSurface:
    def test_each_subcommand_declares_only_the_flags_it_reads(self):
        declared = declared_flags()
        assert declared == SUBCOMMAND_FLAGS
        assert sum(len(flags) for flags in declared.values()) == 40

    @pytest.mark.parametrize(
        "argv",
        [
            ["plot", "--format", "table"],
            ["verify", "--axes", "2"],
            ["ca", "--quantile", "hinges"],
            ["summarize", "--axes", "1"],
            ["tca", "--exact-threshold", "20"],
            ["summarize", "--reduced"],
            ["reduce", "--reduced"],
        ],
    )
    def test_flags_a_subcommand_does_not_read_are_refused(self, capsys, argv):
        assert run_cli([*argv, "--input", TV]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "unrecognized arguments" in captured.err

    @pytest.mark.parametrize("command", sorted(SUBCOMMAND_FLAGS))
    def test_no_call_reduces_twice(self, capsys, monkeypatch, command):
        reduced = []

        def counting_reduce(table):
            reduced.append(table.shape)
            return reduce_to_minimal(table)

        monkeypatch.setattr(cli, "reduce_to_minimal", counting_reduce)
        argv = [command, "--input", RODENTS]
        if "--reduced" in declared_flags()[command]:
            argv.append("--reduced")
        assert run_cli(argv) == 0
        assert reduced == [(28, 9)]


#: Cells beyond small counts: non-finite, negative, underscored, subnormal
#: and huge values.
SPECIAL_CELLS = ["nan", "inf", "-1", "1_000", "5e-324", "2.5e-310", "1e308", "1e200"]

#: Labels beyond the unique default: blank, duplicate, and ones that need
#: quoting because they hold a delimiter or a quote.
SPECIAL_LABELS = ["", " ", "r0", "c0", "x,y", "x;y", "x\ty", 'q"t']

#: Every subcommand, and the TCA biplot.
FUZZ_COMMANDS = [
    ["summarize"], ["reduce"], ["ca"], ["tca"], ["compare"], ["verify"], ["plot"],
    ["plot", "--method", "tca"],
]

NON_FINITE_TEXT = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)


@st.composite
def csv_inputs(draw):
    """CSV text as a user might hand it over, and its delimiter. Zeros,
    default labels and full rows are drawn more often than the rest, so that
    most tables get past parsing and validation."""
    n_rows = draw(st.integers(1, 5))
    n_cols = draw(st.integers(1, 5))
    delimiter = draw(st.sampled_from([",", ";", "\t"]))
    cell = st.one_of(
        st.just("0"), st.integers(1, 12).map(str), st.sampled_from(SPECIAL_CELLS)
    )

    def label(default):
        return draw(st.sampled_from(SPECIAL_LABELS)) if draw(st.integers(0, 3)) == 0 else default

    records = [[""] + [label(f"c{j}") for j in range(n_cols)]]
    for i in range(n_rows):
        width = n_cols + draw(st.sampled_from([0] * 8 + [-1, 1]))  # some ragged rows
        records.append([label(f"r{i}")] + [draw(cell) for _ in range(width)])
    out = io.StringIO()
    line_end = draw(st.sampled_from(["\n", "\r\n"]))
    csv.writer(out, delimiter=delimiter, lineterminator=line_end).writerows(records)
    text = out.getvalue()
    if draw(st.booleans()):
        text = "\ufeff" + text
    return text, delimiter


class TestFuzzedInput:
    @given(csv_inputs(), st.booleans())
    @example((",c0,c1,a\nr0,3,5e-324,5\na,4,0,3\nr2,10,0,1e308\n", ","), False)
    @settings(max_examples=120, deadline=None)
    def test_every_subcommand_exits_cleanly(self, tmp_path_factory, case, reduced):
        text, delimiter = case
        path = tmp_path_factory.getbasetemp() / "fuzz.csv"
        path.write_text(text, encoding="utf-8")
        for argv in FUZZ_COMMANDS:
            argv = [*argv, "--input", str(path), "--delimiter", delimiter]
            if reduced and "--reduced" in SUBCOMMAND_FLAGS[argv[0]]:
                argv.append("--reduced")
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run_cli(argv)
            assert code in (0, 2, 3), (argv, err.getvalue())
            assert not NON_FINITE_TEXT.search(out.getvalue()), argv
            if code:
                assert out.getvalue() == "", argv


def write_count_table(directory, rows: int, cols: int, zeros: float, seed: int) -> str:
    """A seeded Poisson count table with about ``zeros`` of its cells zero;
    the first row and column have no zero, so no line is dropped."""
    rng = np.random.default_rng(seed)
    counts = rng.poisson(6.0, size=(rows, cols)) * (rng.random((rows, cols)) > zeros)
    counts[:, 0] += 1
    counts[0, :] += 1
    lines = ["," + ",".join(f"c{j}" for j in range(cols))]
    lines += [f"r{i}," + ",".join(str(v) for v in row) for i, row in enumerate(counts)]
    path = directory / f"counts_{rows}x{cols}_{seed}.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def write_wide_table(directory) -> str:
    """A seeded 60x44 count table with 30% zeros: CA eigensolves a 44x44
    matrix, so every round of Jacobi rotations holds 22 pairs."""
    return write_count_table(directory, 60, 44, zeros=0.3, seed=44)


#: Placeholder replaced by the path of the table of ``write_wide_table``.
WIDE = "<wide 60x44 table>"

#: Placeholder for a seeded 97x97 table with 60% zeros: the smallest seeded
#: shape found where OpenBLAS splits the Gram S'S over threads (96 columns
#: did not), so a BLAS Gram gives other bits at 1 thread than at 4.
THREADED_GRAM = "<97x97 table>"

#: Placeholder for a seeded 400x16 table with 60% zeros: TCA enumerates the
#: 2^15 sign vectors of each axis in gemm chunks over all 400 rows.
EXACT_TALL = "<400x16 table>"

#: The writer of each placeholder's table.
SEEDED_TABLES = {
    WIDE: write_wide_table,
    THREADED_GRAM: lambda directory: write_count_table(directory, 97, 97, zeros=0.6, seed=0),
    EXACT_TALL: lambda directory: write_count_table(directory, 400, 16, zeros=0.6, seed=0),
}


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ["tca", "--input", TV, "--format", "json"],
            ["ca", "--input", TV, "--format", "json"],
            ["plot", "--input", TV, "--method", "tca"],
            ["ca", "--input", WIDE, "--format", "json"],
            ["tca", "--input", WIDE, "--format", "json"],
            ["compare", "--input", WIDE, "--axes", "8"],
            ["ca", "--input", THREADED_GRAM],
            ["verify", "--input", THREADED_GRAM],
            ["tca", "--input", EXACT_TALL],
        ],
    )
    def test_byte_identical_across_processes_and_thread_counts(self, argv, tmp_path):
        argv = [SEEDED_TABLES[a](tmp_path) if a in SEEDED_TABLES else a for a in argv]

        def run(threads):
            proc = subprocess.run(
                [sys.executable, "-m", "taxica", *argv],
                capture_output=True,
                env=cli_env(threads),
            )
            assert proc.returncode == 0, (
                f"{argv[0]} exited {proc.returncode} with {threads} threads: "
                + proc.stderr.decode(errors="replace").strip()
            )
            return proc.stdout

        first = run("1")
        assert first == run("1")
        assert first == run("4")
        assert first == run("8")


def run_child(code: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, env=cli_env("1")
    )


@pytest.mark.parametrize("value", ["1", None])
def test_cli_env_passes_on_dont_write_bytecode(monkeypatch, value):
    if value is None:
        monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    else:
        monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", value)
    assert cli_env("1").get("PYTHONDONTWRITEBYTECODE") == value
    proc = run_child("import sys; print(sys.dont_write_bytecode)")
    assert proc.stdout.decode().strip() == str(value is not None)


def run_taxica(*argv: str, stdout=subprocess.PIPE, env=None) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "taxica", *argv],
        stdout=stdout, stderr=subprocess.PIPE, env=env or cli_env("1"),
    )


def in_process_stdout(capsys, argv) -> bytes:
    assert run_cli(argv) == 0
    return capsys.readouterr().out.encode("utf-8")


def write_table(directory, rows: int, cols: int, seed: int) -> str:
    """A seeded Poisson count table with about 30% zeros and positive margins."""
    rng = np.random.default_rng(seed)
    counts = rng.poisson(6.0, size=(rows, cols)) * (rng.random((rows, cols)) > 0.3)
    counts[:, 0] += 1
    counts[0, :] += 1
    lines = ["," + ",".join(f"c{j}" for j in range(cols))]
    lines += [f"r{i}," + ",".join(str(v) for v in row) for i, row in enumerate(counts)]
    path = directory / f"table_{rows}x{cols}.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


class TestProcessExit:
    """The command writes and flushes its output, then ends with ``os._exit``."""

    def test_plot_stdout_matches_in_process_output(self, capsys):
        argv = ["plot", "--input", TV, "--method", "tca"]
        expected = in_process_stdout(capsys, argv)
        proc = run_taxica(*argv)
        assert proc.returncode == 0, proc.stderr.decode(errors="replace")
        assert proc.stdout == expected

    def test_piped_output_beyond_a_pipe_buffer_is_complete(self, capsys, tmp_path):
        argv = ["tca", "--input", write_table(tmp_path, 80, 48, seed=48), "--format", "json"]
        expected = in_process_stdout(capsys, argv)
        assert len(expected) > 1 << 16
        proc = run_taxica(*argv)
        assert proc.returncode == 0, proc.stderr.decode(errors="replace")
        assert proc.stdout == expected

    def test_output_file_is_complete(self, capsys, tmp_path):
        argv = ["ca", "--input", write_table(tmp_path, 80, 48, seed=48), "--format", "json"]
        expected = in_process_stdout(capsys, argv)
        out_path = tmp_path / "ca.json"
        proc = run_taxica(*argv, "--output", str(out_path))
        assert proc.returncode == 0, proc.stderr.decode(errors="replace")
        assert (proc.stdout, out_path.read_bytes()) == (b"", expected)

    @pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("output", ["small", "large", "help", "tca-help"])
    def test_unwritable_stdout_exits_2(self, tmp_path, output, unbuffered):
        # The summary fits the stdout buffer, so buffered it fails only on
        # flush; the 80x48 tca payload is beyond 64 KB, so it fails in write.
        # Help is written by argparse, whose own writer swallows the OSError.
        if output == "small":
            argv = ["summarize", "--input", TV]
        elif output == "large":
            argv = ["tca", "--input", write_table(tmp_path, 80, 48, seed=48), "--format", "json"]
        else:
            argv = ["tca", "--help"] if output == "tca-help" else ["--help"]
        env = cli_env("1")
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        with open("/dev/full", "wb") as full:
            proc = run_taxica(*argv, stdout=full, env=env)
        stderr = proc.stderr.decode(errors="replace")
        assert proc.returncode == 2, stderr
        assert stderr.startswith("error: cannot write output to stdout: "), stderr
        assert "Traceback" not in stderr

    @staticmethod
    def parser_and_env(monkeypatch, command):
        """The parser of ``command`` (None: the top level) and a child
        environment, both wrapping help at 80 columns."""
        monkeypatch.setenv("COLUMNS", "80")
        parser = build_parser()
        if command is not None:
            (subparsers,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
            parser = subparsers.choices[command]
        return parser, {**cli_env("1"), "COLUMNS": "80"}

    @pytest.mark.parametrize("command", [None, "ca"])
    def test_help_is_flushed_before_the_exit(self, monkeypatch, command):
        parser, env = self.parser_and_env(monkeypatch, command)
        proc = run_taxica(*filter(None, [command, "--help"]), env=env)
        assert proc.returncode == 0, proc.stderr.decode(errors="replace")
        assert (proc.stdout.decode(), proc.stderr) == (parser.format_help(), b"")

    def test_usage_error_exits_2_with_the_usage_on_stderr(self, monkeypatch):
        parser, env = self.parser_and_env(monkeypatch, "ca")
        proc = run_taxica("ca", "--input", TV, "--axes", "x", env=env)
        expected = parser.format_usage() + "taxica ca: error: argument --axes: invalid int value: 'x'\n"
        assert proc.returncode == 2
        assert (proc.stdout, proc.stderr.decode()) == (b"", expected)

    @pytest.mark.parametrize(
        "text, code",
        [
            (",a,b\nr1,1,2,3\nr2,x,4\n", 2),
            (",a,b\nr1,1e308,1e308\nr2,1e308,5e307\n", 3),
        ],
    )
    def test_failure_exit_codes(self, tmp_path, text, code):
        path = tmp_path / "input.csv"
        path.write_text(text)
        proc = run_taxica("ca", "--input", str(path), "--format", "json")
        stderr = proc.stderr.decode(errors="replace")
        assert proc.returncode == code, stderr
        assert proc.stdout == b""
        assert stderr.startswith("error: " if code == 2 else "numerical error: ")


REPO = Path(__file__).resolve().parents[1]

#: The benchmark's traced entry: right after ``import taxica.cli`` it wraps
#: the names in its WRAPPED list, in ``taxica.cli``, ``taxica.ca`` and
#: ``taxica.tca``.
TRACED_ENTRY = REPO / "perfbench" / "traced_entry.py"


def console_script_target() -> str:
    text = (REPO / "pyproject.toml").read_text(encoding="utf-8")
    return re.search(r'^taxica = "([\w.]+:\w+)"$', text, re.MULTILINE).group(1)


#: Ways in that must end before numpy loads: argv for ``python -X
#: importtime``, and the expected exit code.
FRONT_ENDS = {
    "import": (["-c", "import taxica"], 0),
    "help": (["-m", "taxica", "--help"], 0),
    "subcommand-help": (["-m", "taxica", "ca", "--help"], 0),
    "usage-error": (["-m", "taxica", "ca", "--input", TV, "--quantile", "hinges"], 2),
    "console-script": (
        [
            "-c",
            "import sys\n"
            "module, _, name = sys.argv[1].partition(':')\n"
            "sys.argv = ['taxica', '--help']\n"
            "getattr(__import__(module, fromlist=[name]), name)()\n",
            console_script_target(),
        ],
        0,
    ),
}


@pytest.mark.parametrize("argv, code", FRONT_ENDS.values(), ids=list(FRONT_ENDS))
def test_front_end_imports_no_numpy(argv, code):
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *argv], capture_output=True, env=cli_env("1")
    )
    stderr = proc.stderr.decode(errors="replace")
    assert proc.returncode == code, stderr
    imported = {
        line.rsplit("|", 1)[1].strip()
        for line in stderr.splitlines()
        if line.startswith("import time:")
    }
    assert "taxica" in imported
    assert sorted(name for name in imported if name.split(".")[0] == "numpy") == []


def test_cli_import_pulls_in_no_xml_or_network_modules():
    # site may load some of these (e.g. urllib.parse) before taxica does,
    # so only the modules that the import itself adds are checked
    proc = run_child(
        "import importlib.util, json, sys\n"
        "spec = importlib.util.spec_from_file_location('traced_entry', sys.argv[1])\n"
        "traced_entry = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(traced_entry)\n"
        "before = set(sys.modules)\n"
        "import taxica.cli\n"
        "print(json.dumps({\n"
        "    'added': sorted(set(sys.modules) - before),\n"
        "    'unwrappable': [f'{module}.{name}' for module, name, *_ in traced_entry.WRAPPED\n"
        "                    if not hasattr(sys.modules.get(module), name)],\n"
        "}))\n",
        str(TRACED_ENTRY),
    )
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")
    report = json.loads(proc.stdout)
    added = report["added"]
    assert {"taxica.cli", "taxica.ca", "taxica.tca", "numpy"} <= set(added)
    assert report["unwrappable"] == []
    banned = {"xml", "urllib", "http", "email", "ssl", "socket", "dataclasses"}
    assert [name for name in added if name.split(".")[0] in banned] == []


@pytest.mark.parametrize("command", ["tca", "verify"])
def test_traced_entry_runs_the_command_and_counts_tca(tmp_path, command):
    spans_path = tmp_path / "spans.json"
    argv = [command, "--input", TV]
    spawn_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    traced = subprocess.run(
        [sys.executable, str(TRACED_ENTRY), str(spans_path), "7", str(spawn_ns), *argv],
        capture_output=True, env=cli_env("1"),
    )
    assert traced.returncode == 0, traced.stderr.decode(errors="replace")
    plain = run_taxica(*argv)
    assert plain.returncode == 0, plain.stderr.decode(errors="replace")
    assert traced.stdout == plain.stdout
    spans = json.loads(spans_path.read_text(encoding="utf-8"))
    counters = [s["counters"] for s in spans if s["name"] == "tca.tca_decompose"]
    decomp = taxica.tca_decompose(taxica.build_model(load_table("tv_programs.csv")))
    expected = {
        "axes": decomp.rank_used,
        "residual_bytes": sum(r.nbytes for r in decomp.residuals),
    }
    assert expected == {"axes": 6, "residual_bytes": 6 * 13 * 7 * 8}
    assert counters == [expected]


def test_star_import_and_dir_list_every_export():
    proc = run_child(
        "import json, taxica\n"
        "listed = dir(taxica)\n"
        "namespace = {}\n"
        "exec('from taxica import *', namespace)\n"
        "print(json.dumps({'all': taxica.__all__, 'dir': listed, 'star': sorted(namespace)}))\n"
    )
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")
    report = json.loads(proc.stdout)
    exported = set(report["all"])
    assert len(exported) == len(report["all"]) == 43
    assert exported <= set(report["dir"])
    assert exported <= set(report["star"])
    assert taxica.ca_decompose is sys.modules["taxica.ca"].ca_decompose
    with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
        taxica.nonexistent


def _sig12(x) -> float:
    return float(f"{float(x):.12g}")


def _jsonable(obj):
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return _sig12(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def reference_dumps(payload: dict) -> str:
    """The conversion the writer replaced: every float rounded to 12
    significant digits, then ``json.dumps`` with two-space indents."""
    return json.dumps(_jsonable(payload), indent=2, allow_nan=False) + "\n"


#: Floats where ``.12g`` text and ``repr`` part ways, and their neighbours.
EDGE_FLOATS = [
    0.0, -0.0, 1.0, -3.0, 1e-4, 1e-5, 0.000123456789012345, 999999999999.4,
    999999999999.5, 1e12, 123456789012345.0, 1e15, 9.999999999995e15, 1e16,
    1.7e308, 1.7976931348623157e308, 2.2250738585072014e-308, 2.225073858507e-308,
    1e-308, 5e-324, -5e-324, 1.5e-320, 333.333333333333, -666.666666666667,
]

floats = st.one_of(
    st.sampled_from(EDGE_FLOATS),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=1e11, max_value=1e17),
    st.floats(min_value=-1e-300, max_value=1e-300),
    st.integers(-(10**16), 10**16).map(float),
)
scalars = st.one_of(
    floats,
    floats.map(np.float64),
    st.integers(-(2**63), 2**63 - 1),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.booleans(),
    st.booleans().map(np.bool_),
    st.none(),
    st.text(),
    st.sampled_from(["r1+r2", 'q"t', "x,y", "tab\there", "\u00e9t\u00e9", "\U0001f600", "\\"]),
)
float_arrays = st.lists(floats, max_size=12).map(lambda values: np.array(values, dtype=float))
payloads = st.recursive(
    st.one_of(scalars, float_arrays),
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.dictionaries(st.text(max_size=8), inner, max_size=5),
    ),
    max_leaves=40,
)


class TestJsonWriter:
    @given(st.dictionaries(st.text(max_size=8), payloads, max_size=6))
    @settings(max_examples=400, deadline=None)
    def test_matches_the_reference_conversion(self, payload):
        assert _dumps(payload) == reference_dumps(payload)

    @pytest.mark.parametrize("value", EDGE_FLOATS)
    def test_edge_floats_in_arrays_and_scalars(self, value):
        payload = {"x": value, "v": np.array([value, -value]), "g": [[0, 1], [], [np.int64(2)]]}
        assert _dumps(payload) == reference_dumps(payload)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_array_entry_is_a_numerical_error(self, value):
        with pytest.raises(NumericalError, match="not finite"):
            _dumps({"v": np.array([1.0, value])})

    @pytest.mark.parametrize("argv", [["ca", "--input", TV], ["tca", "--input", RODENTS],
                                      ["reduce", "--input", TOY, "--format", "json"],
                                      ["verify", "--input", TV]])
    def test_command_output_matches_the_reference(self, capsys, argv):
        code = run_cli(argv)
        out = capsys.readouterr().out
        assert code == 0
        assert out == reference_dumps(json.loads(out))
