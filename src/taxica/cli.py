"""Command-line interface: one subcommand per analysis stage.

All results are emitted as JSON (schema version 1, floats at 12 significant
digits) or as fixed-precision text tables; biplots are emitted as SVG.
Exit codes: 0 success, 2 parse/validation failure, 3 numerical failure.
The argument parser and the process entry live in :mod:`taxica.entry`,
which parses argv before this module (and numpy) loads.
"""
from __future__ import annotations

import argparse
import math
import sys
from json.encoder import encode_basestring_ascii as _json_str
from pathlib import Path
from typing import Optional

import numpy as np

from .ca import Decomposition, ca_decompose
from .diagnostics import (
    MAX_MATCHED_AXES,
    SimilarityReport,
    VerificationReport,
    contributions,
    explained_variation,
    map_similarity,
    verify,
)
from .entry import _parse
from .errors import NumericalError, TaxicaError, ValidationError
from .reduction import ReductionTrace, reduce_to_minimal
from .sparsity import classify, seven_number
from .svg import emit_svg_biplot
from .table import ContingencyTable, build_model, parse_table, serialize_table, validate_table
from .tca import tca_decompose

__all__ = ["run_cli", "run_args"]

SCHEMA_VERSION = 1


def _float_text(token: str) -> str:
    """JSON text of a float formatted with ``.12g``: the repr of the rounded
    value. NaN and infinity raise :class:`NumericalError`."""
    if token in ("nan", "inf", "-inf"):
        raise NumericalError(f"result is not finite: {token}")
    return repr(float(token))


def _floats(values) -> list[str]:
    # Each float rounded to 12 significant digits, which keeps the output
    # byte-stable across runs; a token with a point and no exponent is
    # already the repr of the rounded value.
    tokens = [f"{v:.12g}" for v in values]
    return [t if "." in t and "e" not in t else _float_text(t) for t in tokens]


def _emit(obj, newline: str, out: list[str]) -> None:
    """Append the JSON text of ``obj`` to ``out``; ``newline`` is the line
    break plus the indentation of ``obj``'s own line."""
    if isinstance(obj, str):
        out.append(_json_str(obj))
    elif isinstance(obj, (bool, np.bool_)):
        out.append("true" if obj else "false")
    elif obj is None:
        out.append("null")
    elif isinstance(obj, (float, np.floating)):
        out.append(_floats((float(obj),))[0])
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = newline + "  "
        lead = "{" + inner
        for key, value in obj.items():
            out.append(f"{lead}{_json_str(key)}: ")
            _emit(value, inner, out)
            lead = "," + inner
        out.append(newline + "}")
    elif isinstance(obj, np.ndarray):
        if obj.ndim == 1 and obj.dtype.kind == "f" and obj.size:
            inner = newline + "  "
            out.append(f"[{inner}{(',' + inner).join(_floats(obj.tolist()))}{newline}]")
        else:
            _emit(obj.tolist(), newline, out)
    elif not obj:  # an empty list or tuple
        out.append("[]")
    else:
        inner = newline + "  "
        lead = "[" + inner
        for item in obj:
            out.append(lead)
            _emit(item, inner, out)
            lead = "," + inner
        out.append(newline + "]")


def _dumps(payload: dict) -> str:
    """``payload`` as JSON with two-space indents and ASCII-escaped strings,
    the layout of ``json.dumps(..., indent=2)``, with every float (numpy
    scalars and arrays included) at 12 significant digits."""
    out: list[str] = []
    _emit(payload, "\n", out)
    out.append("\n")
    return "".join(out)


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
    expl = explained_variation(decomp) if decomp.rank_used else np.empty(0)
    contrib = contributions(decomp) if decomp.rank_used else None
    axes = []
    for a in range(min(report_axes, decomp.rank_used)):
        entry = {
            "axis": a + 1,
            "sigma": decomp.sigmas[a],
            "explained_pct": float(expl[a]),
            "row_coords": decomp.F[:, a],
            "col_coords": decomp.G[:, a],
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


def _render_summary(payload: dict) -> str:
    sparsity = payload["sparsity"]
    lines = [
        f"{'':8}{'size':<10}{'ave':<12}{'%zero':<12}"
        f"{'min':<8}{'Q1':<8}{'median':<8}{'Q3':<8}{'max':<8}"
    ]
    for tag in ("N", "M"):
        summary = sparsity[tag]
        mh1 = summary["mh1"]
        lines.append(
            f"{tag:<8}{summary['rows']}x{summary['cols']:<8}"
            f"{summary['ave']:<12.4f}{summary['pct_zero']:<12.4f}"
            f"{mh1['min']:<8.4g}{mh1['q1']:<8.4g}{mh1['median']:<8.4g}"
            f"{mh1['q3']:<8.4g}{mh1['max']:<8.4g}"
        )
    verdict = sparsity["classification"]
    lines.append(f"class: {verdict['level']} ({verdict['rationale']})")
    return "\n".join(lines) + "\n"


def _render_decomposition(payload: dict, method: str) -> str:
    body = payload[method]
    lines = [f"method: {body['method']}  rank: {body['rank_used']}"]
    for sigma, pct in zip(body["sigmas"], body["explained_pct"]):
        lines.append(f"  sigma={sigma:.4f}  explained={pct:.4f}%")
    for section, labels, ckey, vkey in (
        ("rows", payload["input"]["row_labels"], "row_contributions", "row_coords"),
        ("columns", payload["input"]["col_labels"], "col_contributions", "col_coords"),
    ):
        lines.append(section + ":")
        for i, label in enumerate(labels):
            coords = "  ".join(f"{axis[vkey][i]:>9.4f}" for axis in body["axes"])
            contrib = "  ".join(f"{axis[ckey][i]:>5.0f}" for axis in body["axes"])
            lines.append(f"  {label:<16}{coords}   |contrib: {contrib}")
    return "\n".join(lines) + "\n"


def _render_similarity(payload: dict) -> str:
    report = payload["similarity"]
    lines = [f"verdict: {report['verdict']} (threshold {report['threshold']:g})"]
    for axis in report["axes"]:
        lines.append(f"  CA axis {axis['axis']} ~ TCA axis {axis['paired_axis']}: phi={axis['phi']:.4f}")
    return "\n".join(lines) + "\n"


def _render_verification(payload: dict) -> str:
    lines = []
    for method in ("ca", "tca"):
        rep = payload[method]
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


def _load_table(args) -> ContingencyTable:
    path = Path(args.input)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read input file '{path}': {exc}") from exc
    table = parse_table(text, delimiter=args.delimiter)
    if not table.is_integer_valued():
        print("warning: table has non-integer entries", file=sys.stderr)
    table, warnings = validate_table(table)
    for message in warnings:
        print(f"warning: {message}", file=sys.stderr)
    # summarize and reduce declare no --reduced: they reduce the table themselves.
    if getattr(args, "reduced", False):
        table = reduce_to_minimal(table).minimal
    return table


def _axes_flag(flag: str, value: Optional[int], default: int, top: int, table: ContingencyTable) -> int:
    """The value of the axis flag ``flag``, ``default`` when it is absent; a
    value outside 1..top raises :class:`ValidationError` naming the flag."""
    if value is None:
        return default
    if not 1 <= value <= top:
        I, J = table.shape
        raise ValidationError(f"{flag} {value} out of range 1..{top} for a {I}x{J} table")
    return value


def _summarize(args, table: ContingencyTable) -> dict:
    trace = reduce_to_minimal(table)
    summary_n = seven_number(table, method=args.quantile)
    summary_m = seven_number(trace.minimal, method=args.quantile)
    verdict = classify(summary_m)
    return {
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


def _reduce(args, table: ContingencyTable) -> dict:
    trace = reduce_to_minimal(table)
    return {
        "minimal_csv": serialize_table(trace.minimal, delimiter=args.delimiter),
        "trace": _trace_payload(trace),
    }


def _decompose(table: ContingencyTable, method: str) -> Decomposition:
    decompose = ca_decompose if method == "ca" else tca_decompose
    return decompose(build_model(table))


def _engine(args, table: ContingencyTable) -> dict:
    k_max = min(table.shape) - 1
    report_axes = _axes_flag("--axes", args.axes, k_max, k_max, table)
    decomp = _decompose(table, args.command)
    return {args.command: _decomposition_payload(decomp, report_axes)}


def _compare(args, table: ContingencyTable) -> dict:
    I, J = table.shape
    axes = _axes_flag("--axes", args.axes, 2, min(min(I, J) - 1, MAX_MATCHED_AXES), table)
    if not math.isfinite(args.phi_threshold):
        raise ValidationError(f"--phi-threshold {args.phi_threshold} is not finite")
    model = build_model(table)
    d_ca = ca_decompose(model)
    d_tca = tca_decompose(model)
    rank = min(d_ca.rank_used, d_tca.rank_used)
    if rank == 0:
        raise ValidationError(
            f"the {I}x{J} table has no axis: its lines are proportional up to rounding"
        )
    report = map_similarity(d_ca, d_tca, axes=min(axes, rank), threshold=args.phi_threshold)
    return {
        "ca": {"sigmas": d_ca.sigmas, "explained_pct": explained_variation(d_ca)},
        "tca": {"sigmas": d_tca.sigmas, "explained_pct": explained_variation(d_tca)},
        "similarity": _similarity_payload(report),
    }


def _verify(args, table: ContingencyTable) -> dict:
    model = build_model(table)
    return {
        "ca": _verification_payload(verify(ca_decompose(model))),
        "tca": _verification_payload(verify(tca_decompose(model))),
    }


#: Per subcommand but ``plot``: the payload builder, and the renderer of a
#: whole payload for ``--format table``.
_COMMANDS = {
    "summarize": (_summarize, _render_summary),
    "reduce": (_reduce, lambda payload: payload["minimal_csv"] + "\n" + _dumps({"trace": payload["trace"]})),
    "ca": (_engine, lambda payload: _render_decomposition(payload, "ca")),
    "tca": (_engine, lambda payload: _render_decomposition(payload, "tca")),
    "compare": (_compare, _render_similarity),
    "verify": (_verify, _render_verification),
}


def _output(args) -> str:
    """The text one subcommand writes: an SVG for ``plot``; otherwise the
    payload, headed by the schema version and the input digest, as JSON or
    rendered as text tables."""
    table = _load_table(args)
    if args.command == "plot":
        for flag, axis in (("--axis-x", args.axis_x), ("--axis-y", args.axis_y)):
            _axes_flag(flag, axis, axis, min(table.shape) - 1, table)
        if args.axis_x == args.axis_y:
            raise ValidationError("a biplot needs two distinct axes")
        return emit_svg_biplot(_decompose(table, args.method), args.axis_x, args.axis_y)
    build, render = _COMMANDS[args.command]
    payload = {"schema": SCHEMA_VERSION, "input": _digest(table), **build(args, table)}
    return _dumps(payload) if args.format == "json" else render(payload)


def _write_output(text: str, output: Optional[str]) -> None:
    # stdout is flushed here, so a full disk or closed pipe fails in the guard
    try:
        if output:
            Path(output).write_text(text, encoding="utf-8")
        else:
            sys.stdout.write(text)
            sys.stdout.flush()
    except OSError as exc:
        target = f"file '{output}'" if output else "to stdout"
        raise ValidationError(f"cannot write output {target}: {exc}") from exc


def run_args(args: argparse.Namespace) -> int:
    """Run the subcommand of parsed arguments and return the exit code."""
    try:
        _write_output(_output(args), args.output)
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except TaxicaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def run_cli(argv: Optional[list[str]] = None) -> int:
    """Parse arguments, run one subcommand, and return the process exit code."""
    args = _parse(argv)
    return args if isinstance(args, int) else run_args(args)
