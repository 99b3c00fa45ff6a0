"""Command-line interface: one subcommand per analysis stage.

All results are emitted as JSON (schema version 1, floats at 12 significant
digits) or as fixed-precision text tables; biplots are emitted as SVG.
Exit codes: 0 success, 2 parse/validation failure, 3 numerical failure.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional

import numpy as np

from .ca import Decomposition, ca_decompose
from .diagnostics import (
    SimilarityReport,
    VerificationReport,
    contributions,
    explained_variation,
    map_similarity,
    verify,
)
from .errors import NumericalError, ParseError, TaxicaError, ValidationError
from .reduction import ReductionTrace, reduce_to_minimal
from .sparsity import classify, seven_number
from .svg import emit_svg_biplot
from .table import ContingencyTable, build_model, parse_table, serialize_table, validate_table
from .tca import EXACT_THRESHOLD, tca_decompose

__all__ = ["run_cli", "main"]

SCHEMA_VERSION = 1


def _sig12(x: float) -> float:
    # 12 significant digits; keeps JSON output byte-stable across runs.
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


def _dumps(payload: dict) -> str:
    try:
        return json.dumps(_jsonable(payload), indent=2, allow_nan=False) + "\n"
    except ValueError as exc:  # a NaN or infinity reached the payload
        raise NumericalError(f"result is not finite: {exc}") from exc


def _digest(table: ContingencyTable) -> dict:
    return {
        "rows": table.shape[0],
        "cols": table.shape[1],
        "n": table.n,
        "row_labels": list(table.row_labels),
        "col_labels": list(table.col_labels),
    }


def _summary_payload(summary) -> dict:
    lo, q1, med, q3, hi = summary.mh1
    return {
        "rows": summary.size[0],
        "cols": summary.size[1],
        "ave": summary.ave,
        "pct_zero": summary.pct_zero,
        "mh1": {"min": lo, "q1": q1, "median": med, "q3": q3, "max": hi},
        "zero_bound": summary.bound,
    }


def _trace_payload(trace: ReductionTrace) -> dict:
    return {
        "original_size": list(trace.original.shape),
        "minimal_size": list(trace.minimal.shape),
        "row_groups": [list(g) for g in trace.row_groups],
        "col_groups": [list(g) for g in trace.col_groups],
        "steps": [
            {
                "axis": step.axis,
                "merged_indices": list(step.merged_indices),
                "new_label": step.new_label,
            }
            for step in trace.steps
        ],
    }


def _decomposition_payload(decomp: Decomposition, report_axes: int) -> dict:
    expl = explained_variation(decomp) if decomp.axes else np.empty(0)
    contrib = contributions(decomp) if decomp.axes else None
    axes = []
    for a in range(min(report_axes, decomp.rank_used)):
        axis = decomp.axes[a]
        entry = {
            "axis": a + 1,
            "sigma": axis.sigma,
            "explained_pct": float(expl[a]),
            "row_coords": axis.f,
            "col_coords": axis.g,
            "row_contributions": contrib.row_values[:, a],
            "col_contributions": contrib.col_values[:, a],
        }
        if decomp.solutions is not None:
            sol = decomp.solutions[a]
            entry["solver"] = {
                "name": sol.solver,
                "starts_tried": sol.starts_tried,
                "converged": sol.converged,
            }
        axes.append(entry)
    return {
        "method": decomp.method,
        "rank_used": decomp.rank_used,
        "is_full_rank": decomp.is_full_rank,
        "sigmas": decomp.sigmas,
        "explained_pct": expl,
        "axes": axes,
    }


def _similarity_payload(report: SimilarityReport) -> dict:
    return {
        "verdict": report.verdict,
        "threshold": report.threshold,
        "axes": [
            {"axis": a + 1, "paired_axis": report.pairing[a] + 1, "phi": report.phis[a]}
            for a in range(len(report.phis))
        ],
    }


def _verification_payload(report: VerificationReport) -> dict:
    return {
        "method": report.method,
        "passed": report.passed,
        "checks": [
            {
                "name": c.name,
                "max_residual": c.max_residual,
                "tolerance": c.tolerance,
                "passed": c.passed,
                "applicable": c.applicable,
                "note": c.note,
            }
            for c in report.checks
        ],
    }


def _summary_row(tag: str, payload: dict) -> str:
    mh1 = payload["mh1"]
    return (
        f"{tag:<8}{payload['rows']}x{payload['cols']:<8}"
        f"{payload['ave']:<12.4f}{payload['pct_zero']:<12.4f}"
        f"{mh1['min']:<8.4g}{mh1['q1']:<8.4g}{mh1['median']:<8.4g}"
        f"{mh1['q3']:<8.4g}{mh1['max']:<8.4g}"
    )


def _render_decomposition_table(payload: dict, table: ContingencyTable) -> str:
    lines = [f"method: {payload['method']}  rank: {payload['rank_used']}"]
    for sigma, pct in zip(payload["sigmas"], payload["explained_pct"]):
        lines.append(f"  sigma={sigma:.4f}  explained={pct:.4f}%")
    for section, labels, ckey, vkey in (
        ("rows", table.row_labels, "row_contributions", "row_coords"),
        ("columns", table.col_labels, "col_contributions", "col_coords"),
    ):
        lines.append(section + ":")
        for i, label in enumerate(labels):
            coords = "  ".join(f"{axis[vkey][i]:>9.4f}" for axis in payload["axes"])
            contrib = "  ".join(f"{axis[ckey][i]:>5.0f}" for axis in payload["axes"])
            lines.append(f"  {label:<16}{coords}   |contrib: {contrib}")
    return "\n".join(lines) + "\n"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="taxica",
        description="Correspondence analysis and taxicab correspondence "
        "analysis of contingency tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, default_format: str) -> None:
        p.add_argument("--input", required=True, help="CSV file with labeled counts")
        p.add_argument("--delimiter", default=",", help="CSV delimiter (default ',')")
        p.add_argument("--output", default=None, help="write results here instead of stdout")
        p.add_argument(
            "--format", choices=("json", "table"), default=default_format,
            help=f"output format (default {default_format})",
        )
        p.add_argument(
            "--reduced", action="store_true",
            help="analyze the minimal representative table instead of the input",
        )
        p.add_argument(
            "--quantile", choices=("hinges", "interpolated"), default="hinges",
            help="quartile rule for sparsity summaries (default hinges)",
        )
        p.add_argument(
            "--exact-threshold", type=int, default=EXACT_THRESHOLD,
            help="largest min(I,J) solved by exact sign enumeration "
            f"(at most {EXACT_THRESHOLD}, the default)",
        )
        p.add_argument("--axes", type=int, default=None, help="number of axes to report")

    add_common(sub.add_parser("summarize", help="7-number sparsity summaries of N and M"), "table")
    add_common(sub.add_parser("reduce", help="merge proportional lines down to the minimal table"), "table")
    add_common(sub.add_parser("ca", help="correspondence analysis"), "json")
    add_common(sub.add_parser("tca", help="taxicab correspondence analysis"), "json")
    p_cmp = sub.add_parser("compare", help="CA vs TCA map similarity")
    add_common(p_cmp, "json")
    p_cmp.add_argument(
        "--phi-threshold", type=float, default=0.9,
        help="congruence needed to call a pair of axes similar (default 0.9)",
    )
    add_common(sub.add_parser("verify", help="check decomposition invariants"), "json")
    p_plot = sub.add_parser("plot", help="emit an SVG biplot")
    add_common(p_plot, "json")
    p_plot.add_argument("--method", choices=("ca", "tca"), default="ca")
    p_plot.add_argument("--axis-x", type=int, default=1, help="1-based axis for x")
    p_plot.add_argument("--axis-y", type=int, default=2, help="1-based axis for y")
    return parser


def _load_table(args) -> ContingencyTable:
    path = Path(args.input)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ValidationError(f"cannot read input file '{path}': {exc}") from exc
    table = parse_table(text, delimiter=args.delimiter)
    if not table.is_integer_valued():
        print("warning: table has non-integer entries", file=sys.stderr)
    table, warnings = validate_table(table, policy="drop")
    for message in warnings:
        print(f"warning: {message}", file=sys.stderr)
    if getattr(args, "reduced", False):
        table = reduce_to_minimal(table).minimal
    return table


def _report_axes(args, k_max: int) -> int:
    if args.axes is None:
        return k_max
    if k_max < 1 or not 1 <= args.axes <= k_max:
        raise ValidationError(f"--axes {args.axes} out of range 1..{k_max}")
    return args.axes


def _cmd_summarize(args) -> str:
    table = _load_table(args)
    trace = reduce_to_minimal(table)
    summary_n = seven_number(table, method=args.quantile)
    summary_m = seven_number(trace.minimal, method=args.quantile)
    verdict = classify(summary_m)
    payload = {
        "schema": SCHEMA_VERSION,
        "input": _digest(table),
        "reduction": {
            "original_size": list(trace.original.shape),
            "minimal_size": list(trace.minimal.shape),
            "merge_steps": len(trace.steps),
        },
        "sparsity": {
            "N": _summary_payload(summary_n),
            "M": _summary_payload(summary_m),
            "classification": {"level": verdict.level.value, "rationale": verdict.rationale},
        },
    }
    if args.format == "json":
        return _dumps(payload)
    header = (
        f"{'':8}{'size':<10}{'ave':<12}{'%zero':<12}"
        f"{'min':<8}{'Q1':<8}{'median':<8}{'Q3':<8}{'max':<8}"
    )
    lines = [
        header,
        _summary_row("N", payload["sparsity"]["N"]),
        _summary_row("M", payload["sparsity"]["M"]),
        f"class: {verdict.level.value} ({verdict.rationale})",
    ]
    return "\n".join(lines) + "\n"


def _cmd_reduce(args) -> str:
    table = _load_table(args)
    trace = reduce_to_minimal(table)
    csv_text = serialize_table(trace.minimal, delimiter=args.delimiter)
    if args.format == "json":
        payload = {
            "schema": SCHEMA_VERSION,
            "input": _digest(table),
            "minimal_csv": csv_text,
            "trace": _trace_payload(trace),
        }
        return _dumps(payload)
    return csv_text + "\n" + _dumps({"trace": _trace_payload(trace)})


def _decompose(args, table: ContingencyTable, method: str) -> Decomposition:
    model = build_model(table)
    if method == "ca":
        return ca_decompose(model)
    return tca_decompose(model, exact_threshold=args.exact_threshold)


def _cmd_engine(args, method: str) -> str:
    table = _load_table(args)
    k_max = min(table.shape) - 1
    report_axes = _report_axes(args, k_max) if (k_max or args.axes is not None) else 0
    decomp = _decompose(args, table, method)
    payload = {
        "schema": SCHEMA_VERSION,
        "input": _digest(table),
        method: _decomposition_payload(decomp, report_axes),
    }
    if args.format == "json":
        return _dumps(payload)
    return _render_decomposition_table(payload[method], table)


def _cmd_compare(args) -> str:
    table = _load_table(args)
    d_ca = _decompose(args, table, "ca")
    d_tca = _decompose(args, table, "tca")
    axes = args.axes if args.axes is not None else min(2, d_ca.rank_used, d_tca.rank_used)
    report = map_similarity(d_ca, d_tca, axes=axes, threshold=args.phi_threshold)
    payload = {
        "schema": SCHEMA_VERSION,
        "input": _digest(table),
        "ca": {"sigmas": d_ca.sigmas, "explained_pct": explained_variation(d_ca)},
        "tca": {"sigmas": d_tca.sigmas, "explained_pct": explained_variation(d_tca)},
        "similarity": _similarity_payload(report),
    }
    if args.format == "json":
        return _dumps(payload)
    lines = [f"verdict: {report.verdict} (threshold {report.threshold:g})"]
    for a, (phi, b) in enumerate(zip(report.phis, report.pairing)):
        lines.append(f"  CA axis {a + 1} ~ TCA axis {b + 1}: phi={phi:.4f}")
    return "\n".join(lines) + "\n"


def _cmd_verify(args) -> str:
    table = _load_table(args)
    reports = {
        "ca": _verification_payload(verify(_decompose(args, table, "ca"))),
        "tca": _verification_payload(verify(_decompose(args, table, "tca"))),
    }
    payload = {"schema": SCHEMA_VERSION, "input": _digest(table), **reports}
    if args.format == "json":
        return _dumps(payload)
    lines = []
    for method in ("ca", "tca"):
        rep = reports[method]
        lines.append(f"{method.upper()}: {'pass' if rep['passed'] else 'FAIL'}")
        for check in rep["checks"]:
            status = "pass" if check["passed"] else "FAIL"
            if not check["applicable"]:
                status = "n/a "
            lines.append(
                f"  {check['name']:<18}{status}  max_residual={check['max_residual']:.3e}"
                f"  tol={check['tolerance']:.0e}"
            )
    return "\n".join(lines) + "\n"


def _cmd_plot(args) -> str:
    table = _load_table(args)
    decomp = _decompose(args, table, args.method)
    return emit_svg_biplot(decomp, args.axis_x, args.axis_y)


_COMMANDS = {
    "summarize": _cmd_summarize,
    "reduce": _cmd_reduce,
    "ca": lambda args: _cmd_engine(args, "ca"),
    "tca": lambda args: _cmd_engine(args, "tca"),
    "compare": _cmd_compare,
    "verify": _cmd_verify,
    "plot": _cmd_plot,
}


def run_cli(argv: Optional[list[str]] = None) -> int:
    """Parse arguments, run one subcommand, and return the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        text = _COMMANDS[args.command](args)
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except (ParseError, ValidationError, TaxicaError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))
