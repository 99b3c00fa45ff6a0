"""Shared test utilities: dataset loading, random-table generation, and
sign-insensitive comparisons."""
from __future__ import annotations

import os
from pathlib import Path

import numpy as np

from taxica import ContingencyTable, parse_table, validate_table

DATA_DIR = Path(__file__).resolve().parents[1] / "data"
SRC_DIR = Path(__file__).resolve().parents[1] / "src"


def cli_env(threads: str) -> dict[str, str]:
    """Environment for a ``python -m taxica`` child process: PATH, the three
    BLAS thread variables pinned to ``threads``, PYTHONPATH with this repo's
    ``src/`` first (the parent's PYTHONPATH, if any, after it), so the child
    runs the same source the in-process tests import, and the parent's
    PYTHONDONTWRITEBYTECODE, if set, so the child writes no bytecode either."""
    inherited = os.environ.get("PYTHONPATH")
    pythonpath = f"{SRC_DIR}{os.pathsep}{inherited}" if inherited else str(SRC_DIR)
    env = {
        "PATH": "/usr/bin:/bin:/usr/local/bin",
        "PYTHONPATH": pythonpath,
        "OMP_NUM_THREADS": threads,
        "OPENBLAS_NUM_THREADS": threads,
        "MKL_NUM_THREADS": threads,
    }
    if "PYTHONDONTWRITEBYTECODE" in os.environ:
        env["PYTHONDONTWRITEBYTECODE"] = os.environ["PYTHONDONTWRITEBYTECODE"]
    return env


def load_table(name: str) -> ContingencyTable:
    table = parse_table((DATA_DIR / name).read_text(encoding="utf-8"))
    table, _ = validate_table(table, policy="drop")
    return table


def make_table(counts, row_labels=None, col_labels=None) -> ContingencyTable:
    counts = np.asarray(counts, dtype=float)
    i, j = counts.shape
    rows = tuple(row_labels) if row_labels else tuple(f"r{k + 1}" for k in range(i))
    cols = tuple(col_labels) if col_labels else tuple(f"c{k + 1}" for k in range(j))
    return ContingencyTable(rows, cols, counts)


def random_tables(count: int, seed: int = 20250811, max_rows: int = 8, max_cols: int = 10):
    """Zero-inflated Poisson-style integer tables with positive margins."""
    rng = np.random.default_rng(seed)
    tables = []
    while len(tables) < count:
        n_rows = int(rng.integers(2, max_rows + 1))
        n_cols = int(rng.integers(2, max_cols + 1))
        lam = rng.uniform(0.5, 8.0)
        counts = rng.poisson(lam, size=(n_rows, n_cols)).astype(float)
        counts *= rng.random((n_rows, n_cols)) > rng.uniform(0.0, 0.5)
        counts = counts[counts.sum(axis=1) > 0]
        if counts.size:
            counts = counts[:, counts.sum(axis=0) > 0]
        if counts.ndim != 2 or counts.shape[0] < 2 or counts.shape[1] < 2:
            continue
        tables.append(make_table(counts))
    return tables


def max_abs_diff_up_to_sign(got, want) -> float:
    """Smallest max-abs difference over a global sign flip of ``got``."""
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    return min(float(np.max(np.abs(got - want))), float(np.max(np.abs(got + want))))


def assert_row_matches_up_to_sign(got, want, atol: float) -> None:
    diff = max_abs_diff_up_to_sign(got, want)
    assert diff <= atol, f"no global sign makes rows match: diff={diff:.6g} > {atol}"
