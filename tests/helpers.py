"""Shared test utilities: dataset loading, random-table generation, and
sign-insensitive comparisons."""
from __future__ import annotations

import os
from pathlib import Path

import numpy as np

from taxica import ContingencyTable, Decomposition, parse_table, validate_table

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


def stacked_decomposition(method: str, axes, model, **fields) -> Decomposition:
    """A :class:`Decomposition` of ``model`` whose columns are the vectors of
    the :class:`Axis` records ``axes``, each matrix the transpose of a
    C-ordered k x n block, as the decompositions store them."""
    I, J = model.shape
    F, G, U, V = (
        np.array([getattr(axis, name) for axis in axes]).reshape(len(axes), n).T
        for name, n in (("f", I), ("g", J), ("u", J), ("v", I))
    )
    sigmas = np.array([axis.sigma for axis in axes])
    return Decomposition(method, F, G, U, V, sigmas, model, **fields)


def load_table(name: str) -> ContingencyTable:
    table = parse_table((DATA_DIR / name).read_text(encoding="utf-8"))
    table, _ = validate_table(table)
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


def half_sphere_signs(dim: int) -> np.ndarray:
    """Every sign vector of length ``dim`` with first component +1, one per
    column, in lex order (+1 < -1)."""
    ms = np.arange(1 << (dim - 1))
    low = 1.0 - 2.0 * ((ms >> np.arange(dim - 2, -1, -1)[:, None]) & 1)
    return np.vstack([np.ones(ms.size), low])


def enumerate_oracle(R):
    """Sign enumeration by its contract: every half-sphere sign vector, as
    a contiguous vector in lex order, scored alone as ``tca._solution``
    scores it, and the first maximum wins. Returns (objective, w,
    candidates) as ``tca._enumerate_best`` does."""
    signs = np.ascontiguousarray(half_sphere_signs(R.shape[1]).T)
    objs = [float(np.abs(np.einsum("ij,j->i", R, w)).sum()) for w in signs]
    i = objs.index(max(objs))
    return objs[i], signs[i], len(objs)


def max_abs_diff_up_to_sign(got, want) -> float:
    """Smallest max-abs difference over a global sign flip of ``got``."""
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    return min(float(np.max(np.abs(got - want))), float(np.max(np.abs(got + want))))


def assert_row_matches_up_to_sign(got, want, atol: float) -> None:
    diff = max_abs_diff_up_to_sign(got, want)
    assert diff <= atol, f"no global sign makes rows match: diff={diff:.6g} > {atol}"
