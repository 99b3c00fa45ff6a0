"""Process entry of the ``taxica`` command: the argument parser and ``main``.

This module imports nothing but the standard library, so ``--help`` and
usage errors (exit 2) end the process before numpy and the engines load.
``main`` parses argv once and hands the parsed arguments to
:func:`taxica.cli.run_args`.
"""
from __future__ import annotations

import argparse
import os
import sys

__all__ = ["build_parser", "main"]


class _Parser(argparse.ArgumentParser):
    """An argument parser whose help and usage writes raise their
    ``OSError``, which ``ArgumentParser`` swallows. Subparsers are built
    from the same class."""

    def _print_message(self, message, file=None):
        if message:
            (file or sys.stderr).write(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="taxica",
        description="Correspondence analysis and taxicab correspondence "
        "analysis of contingency tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name: str, summary: str, default_format: str | None):
        # The flags every subcommand reads; --format unless default_format is None.
        p = sub.add_parser(name, help=summary)
        p.add_argument("--input", required=True, help="CSV file with labeled counts")
        p.add_argument("--delimiter", default=",", help="CSV delimiter (default ',')")
        p.add_argument("--output", default=None, help="write results here instead of stdout")
        if default_format is not None:
            p.add_argument(
                "--format", choices=("json", "table"), default=default_format,
                help=f"output format (default {default_format})",
            )
        return p

    p_sum = add_command("summarize", "7-number sparsity summaries of N and M", "table")
    p_sum.add_argument(
        "--quantile", choices=("hinges", "interpolated"), default="hinges",
        help="quartile rule for sparsity summaries (default hinges)",
    )
    add_command("reduce", "merge proportional lines down to the minimal table", "table")
    p_ca = add_command("ca", "correspondence analysis", "json")
    p_tca = add_command("tca", "taxicab correspondence analysis", "json")
    p_cmp = add_command("compare", "CA vs TCA map similarity", "json")
    for p in (p_ca, p_tca, p_cmp):
        p.add_argument("--axes", type=int, default=None, help="number of axes to report")
    p_cmp.add_argument(
        "--phi-threshold", type=float, default=0.9,
        help="congruence needed to call a pair of axes similar (default 0.9)",
    )
    p_verify = add_command("verify", "check decomposition invariants", "json")
    p_plot = add_command("plot", "emit an SVG biplot", None)
    p_plot.add_argument("--method", choices=("ca", "tca"), default="ca")
    p_plot.add_argument("--axis-x", type=int, default=1, help="1-based axis for x")
    p_plot.add_argument("--axis-y", type=int, default=2, help="1-based axis for y")
    # summarize and reduce print the minimal table whatever they are asked.
    for p in (p_ca, p_tca, p_cmp, p_verify, p_plot):
        p.add_argument(
            "--reduced", action="store_true",
            help="analyze the minimal representative table instead of the input",
        )
    return parser


def _parse(argv: list[str] | None = None) -> argparse.Namespace | int:
    """The parsed arguments, or the exit code when parsing ends the call:
    0 after ``--help``, 2 after a usage error. Help or usage text that
    cannot be written also ends it with 2, reported as unwritable output,
    like a subcommand's output. stdout is flushed either way."""
    try:
        try:
            return build_parser().parse_args(argv)
        finally:
            sys.stdout.flush()
    except SystemExit as stop:
        return int(stop.code or 0)
    except OSError as exc:
        try:
            print(f"error: cannot write output to stdout: {exc}", file=sys.stderr)
        except OSError:
            pass
        return 2


def main() -> None:
    """Run one subcommand on ``sys.argv`` and end the process.

    Every call ends with ``os._exit``, which skips the interpreter's
    teardown (atexit hooks, module and heap cleanup) that a CLI call does
    not need. A subcommand has written and flushed its output, as
    :func:`_parse` has flushed help; stderr is line buffered.
    """
    args = _parse()
    if isinstance(args, int):
        sys.stderr.flush()
        os._exit(args)
    from .cli import run_args

    os._exit(run_args(args))
