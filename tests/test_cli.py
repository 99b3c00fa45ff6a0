import json
import subprocess
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose

from taxica import NumericalError, parse_table
from taxica.cli import _dumps, run_cli

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

    def test_exact_threshold_above_limit(self, capsys):
        assert run_cli(["tca", "--input", TV, "--exact-threshold", "21"]) == 2
        assert "exceeds the limit 20" in capsys.readouterr().err
        payload = run_json(capsys, ["tca", "--input", TV, "--exact-threshold", "20"])
        assert payload["tca"]["sigmas"][0] == pytest.approx(0.355921, abs=1e-6)


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
