import argparse
import contextlib
import csv
import io
import json
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from taxica import NumericalError, parse_table
from taxica.cli import _build_parser, _dumps, run_cli

from helpers import DATA_DIR, cli_env

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

    def test_explicit_axes_beyond_rank_rejected(self, capsys):
        assert run_cli(["compare", "--input", TOY, "--axes", "2"]) == 2
        assert "out of range 1..1" in capsys.readouterr().err

    def test_axes_beyond_pairing_cap_rejected(self, capsys):
        assert run_cli(["compare", "--input", RODENTS, "--axes", "10"]) == 2
        assert "10! = 3628800 pairings" in capsys.readouterr().err

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

    def test_dispersion_too_small_to_square_exits_3(self, capsys, tmp_path):
        # The only TCA axis has sigma = 1e-300, whose square is 0.
        path = tmp_path / "tiny.csv"
        path.write_text(",a,b\nr0,0,1\nr1,1,1e150\n")
        assert run_cli(["tca", "--input", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "shares are undefined" in captured.err

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
COMMON_FLAGS = {"--input", "--delimiter", "--output", "--reduced"}

#: The flags of each subcommand, beyond --help.
SUBCOMMAND_FLAGS = {
    "summarize": COMMON_FLAGS | {"--format", "--quantile"},
    "reduce": COMMON_FLAGS | {"--format"},
    "ca": COMMON_FLAGS | {"--format", "--axes"},
    "tca": COMMON_FLAGS | {"--format", "--axes"},
    "compare": COMMON_FLAGS | {"--format", "--axes", "--phi-threshold"},
    "verify": COMMON_FLAGS | {"--format"},
    "plot": COMMON_FLAGS | {"--method", "--axis-x", "--axis-y"},
}


class TestSurface:
    def test_each_subcommand_declares_only_the_flags_it_reads(self):
        parser = _build_parser()
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        declared = {
            name: {flag for action in p._actions for flag in action.option_strings}
            - {"-h", "--help"}
            for name, p in sub.choices.items()
        }
        assert declared == SUBCOMMAND_FLAGS
        assert sum(len(flags) for flags in declared.values()) == 42

    @pytest.mark.parametrize(
        "argv",
        [
            ["plot", "--format", "table"],
            ["verify", "--axes", "2"],
            ["ca", "--quantile", "hinges"],
            ["summarize", "--axes", "1"],
            ["tca", "--exact-threshold", "20"],
        ],
    )
    def test_flags_a_subcommand_does_not_read_are_refused(self, capsys, argv):
        assert run_cli([*argv, "--input", TV]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "unrecognized arguments" in captured.err


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
            if reduced:
                argv.append("--reduced")
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run_cli(argv)
            assert code in (0, 2, 3), (argv, err.getvalue())
            assert not NON_FINITE_TEXT.search(out.getvalue()), argv
            if code:
                assert out.getvalue() == "", argv


def write_wide_table(directory) -> str:
    """A seeded 60x44 count table with 30% zeros: CA eigensolves a 44x44
    matrix, so every round of Jacobi rotations holds 22 pairs."""
    rng = np.random.default_rng(44)
    counts = rng.poisson(6.0, size=(60, 44)) * (rng.random((60, 44)) > 0.3)
    counts[:, 0] += 1
    counts[0, :] += 1
    lines = ["," + ",".join(f"c{j}" for j in range(44))]
    lines += [f"r{i}," + ",".join(str(v) for v in row) for i, row in enumerate(counts)]
    path = directory / "wide_60x44.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


#: Placeholder replaced by the path of the table of ``write_wide_table``.
WIDE = "<wide 60x44 table>"


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
        ],
    )
    def test_byte_identical_across_processes_and_thread_counts(self, argv, tmp_path):
        if WIDE in argv:
            argv = [write_wide_table(tmp_path) if a == WIDE else a for a in argv]

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


#: ``python -m taxica`` with an atexit hook, registered before taxica loads,
#: that reports whether the GC heap was frozen before shutdown.
EXIT_PROBE = """
import atexit, gc, runpy, sys
atexit.register(lambda: print(f"frozen={gc.get_freeze_count() > 0}", file=sys.stderr))
runpy.run_module("taxica", run_name="__main__", alter_sys=True)
"""


class TestProcessExit:
    def test_plot_stdout_matches_in_process_output(self, capsys):
        argv = ["plot", "--input", TV, "--method", "tca"]
        assert run_cli(argv) == 0
        expected = capsys.readouterr().out.encode("utf-8")
        proc = run_child(EXIT_PROBE, *argv)
        assert proc.returncode == 0, proc.stderr.decode(errors="replace")
        assert proc.stdout == expected
        assert proc.stderr.decode().splitlines()[-1] == "frozen=True"

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
        proc = run_child(EXIT_PROBE, "ca", "--input", str(path), "--format", "json")
        stderr = proc.stderr.decode(errors="replace")
        assert proc.returncode == code, stderr
        assert proc.stdout == b""
        assert stderr.splitlines()[-1] == "frozen=True"


def test_cli_import_pulls_in_no_xml_or_network_modules():
    # site may load some of these (e.g. urllib.parse) before taxica does,
    # so only the modules that the import itself adds are checked
    proc = run_child(
        "import sys\n"
        "before = set(sys.modules)\n"
        "import taxica.cli\n"
        "print('\\n'.join(sorted(set(sys.modules) - before)))\n"
    )
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")
    added = proc.stdout.decode().split()
    assert "taxica.cli" in added and "numpy" in added
    banned = {"xml", "urllib", "http", "email", "ssl", "socket"}
    assert [name for name in added if name.split(".")[0] in banned] == []
