"""Seeded inputs and call cycles of the four benchmark workloads.

A workload is a list of tables plus a cycle of CLI calls over them. Shapes
are fixed per workload, so every seed loads the same layers equally hard;
the seed draws the cell values, the row order and the order of the cycle.
The program only ever sees the CSV files written from these tables.
"""
from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

REPO = Path(__file__).resolve().parent.parent
DATA_DIR = REPO / "data"


def load_spec() -> dict:
    """The repository's BENCHMARK.json: workloads, metric names, units and bounds."""
    return json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))


@dataclass
class Table:
    name: str
    counts: np.ndarray
    #: (rows, cols) that reduction must reach; None when not checked.
    minimal_shape: Optional[tuple[int, int]] = None
    path: Optional[Path] = None


@dataclass(frozen=True)
class Call:
    table: str
    argv: tuple[str, ...]  # subcommand and flags, without --input
    expect_exit: int = 0


@dataclass
class Workload:
    name: str
    tables: dict[str, Table]
    cycle: list[Call]

    @property
    def shapes(self) -> list[str]:
        return [f"{t.counts.shape[0]}x{t.counts.shape[1]}" for t in self.tables.values()]


def _positive_margins(rng: np.random.Generator, x: np.ndarray) -> np.ndarray:
    # Give every all-zero line one positive cell, so the CLI drops nothing.
    for i in np.flatnonzero(x.sum(axis=1) == 0):
        x[i, rng.integers(x.shape[1])] = rng.integers(1, 10)
    for j in np.flatnonzero(x.sum(axis=0) == 0):
        x[rng.integers(x.shape[0]), j] = rng.integers(1, 10)
    return x


def random_table(rng: np.random.Generator, rows: int, cols: int, zero_pct: float) -> np.ndarray:
    """Integer counts with about ``zero_pct`` percent zeros and no empty line."""
    counts = (1 + rng.poisson(4.0, (rows, cols))).astype(np.float64)
    counts[rng.random((rows, cols)) < zero_pct / 100.0] = 0.0
    return _positive_margins(rng, counts)


def _has_proportional_pair(lines: np.ndarray) -> bool:
    profiles = lines / lines.sum(axis=1, keepdims=True)
    diff = np.abs(profiles[:, None, :] - profiles[None, :, :]).max(axis=2)
    return bool(np.any(diff[np.triu_indices(len(lines), 1)] < 1e-6))


def tall_table(
    rng: np.random.Generator, rows: int, cols: int, bases: int, weighted: bool
) -> np.ndarray:
    """A tall table whose rows are integer multiples of ``bases`` profiles.

    Reduction merges it back to exactly ``bases`` x ``cols``. A weighted
    table also scales every row by a non-integer weight, so its entries are
    floats and proportionality holds only up to rounding.
    """
    while True:
        base = random_table(rng, bases, cols, 40.0)
        if not _has_proportional_pair(base) and not _has_proportional_pair(base.T):
            break
    which = np.concatenate([np.arange(bases), rng.integers(0, bases, rows - bases)])
    rng.shuffle(which)
    scale = rng.integers(1, 6, rows).astype(np.float64)
    if weighted:
        scale = scale * rng.uniform(0.25, 2.0, rows)
    table = base[which] * scale[:, None]
    minimal = np.array([table[which == k].sum(axis=0) for k in range(bases)])
    if _has_proportional_pair(minimal.T):
        return tall_table(rng, rows, cols, bases, weighted)
    return table


def read_csv(path: Path) -> np.ndarray:
    """Counts of a labeled CSV, with all-zero lines dropped as the CLI does."""
    with path.open(newline="", encoding="utf-8") as fh:
        body = [rec for rec in csv.reader(fh) if any(c.strip() for c in rec)][1:]
    counts = np.array([[float(c) for c in rec[1:]] for rec in body])
    counts = counts[counts.sum(axis=1) > 0]
    return counts[:, counts.sum(axis=0) > 0]


def write_csv(table: Table, directory: Path) -> None:
    rows, cols = table.counts.shape
    lines = ["," + ",".join(f"c{j:03d}" for j in range(cols))]
    for i, row in enumerate(table.counts):
        cells = (str(int(v)) if v == int(v) else repr(float(v)) for v in row)
        lines.append(f"r{i:04d}," + ",".join(cells))
    table.path = directory / f"{table.name}.csv"
    table.path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _cycle(rng: np.random.Generator, names: list[str], commands: list[tuple[str, ...]]) -> list[Call]:
    calls = [Call(name, argv) for name in names for argv in commands]
    return [calls[i] for i in rng.permutation(len(calls))]


#: A call the CLI should answer but refuses with exit 2 (the default of two
#: axes exceeds the toy table's rank).
KNOWN_DEFECT = Call("toy_4x4", ("compare",))


def bundled(rng: np.random.Generator) -> Workload:
    tables = {}
    for name in ("toy_4x4", "tv_programs", "rodents"):
        tables[name] = Table(name, read_csv(DATA_DIR / f"{name}.csv"), path=DATA_DIR / f"{name}.csv")
    commands = [
        ("summarize", "--format", "json"),
        ("reduce", "--format", "json"),
        ("ca",),
        ("tca",),
        ("compare",),
        ("verify",),
        ("plot", "--method", "tca"),
    ]
    cycle = _cycle(rng, list(tables), commands)
    # The toy table has rank 1, so a 2-axis biplot is an invalid request.
    # Its compare call also exits 2 (the default of two axes exceeds the
    # rank). That is a defect, not an invalid request; it is left out of the
    # timed mix, where every call must succeed, and run.py reports it once
    # per run through KNOWN_DEFECT.
    cycle = [
        Call(c.table, c.argv, 2) if c.table == "toy_4x4" and c.argv[0] == "plot" else c
        for c in cycle
        if c != KNOWN_DEFECT
    ]
    return Workload("bundled", tables, cycle)


def tca_exact(rng: np.random.Generator) -> Workload:
    shapes = [(100, 15), (15, 60), (120, 15), (15, 100), (80, 16)]
    tables = {}
    for rows, cols in shapes:
        name = f"sparse_{rows}x{cols}"
        tables[name] = Table(name, random_table(rng, rows, cols, 80.0))
    cycle = _cycle(rng, list(tables), [("tca",), ("verify",)])
    return Workload("tca_exact", tables, cycle)


def wide(rng: np.random.Generator) -> Workload:
    shapes = [(80, 48, 75.0), (80, 48, 10.0), (80, 48, 75.0), (80, 48, 10.0)]
    tables = {}
    for rows, cols, zero_pct in shapes:
        name = f"{'sparse' if zero_pct > 50 else 'dense'}{len(tables)}_{rows}x{cols}"
        tables[name] = Table(name, random_table(rng, rows, cols, zero_pct))
    # compare runs on one sparse and one dense table: it is the costliest
    # call, and at a fifth of the cycle p90 falls in the middle of its group.
    calls = [Call(name, argv) for name in tables for argv in (("ca",), ("tca",))]
    calls += [Call(name, ("compare", "--axes", "8")) for name in list(tables)[:2]]
    cycle = [calls[i] for i in rng.permutation(len(calls))]
    return Workload("wide", tables, cycle)


def reduce_tall(rng: np.random.Generator) -> Workload:
    specs = [(160, 24, 30, False), (240, 26, 40, False), (240, 22, 36, True)]
    tables = {}
    for rows, cols, bases, weighted in specs:
        name = f"{'float' if weighted else 'int'}_{rows}x{cols}"
        counts = tall_table(rng, rows, cols, bases, weighted)
        tables[name] = Table(name, counts, minimal_shape=(bases, cols))
    commands = [("summarize", "--format", "json"), ("reduce", "--format", "json"), ("tca", "--reduced")]
    cycle = _cycle(rng, list(tables), commands)
    return Workload("reduce_tall", tables, cycle)


WORKLOADS = {"bundled": bundled, "tca_exact": tca_exact, "wide": wide, "reduce_tall": reduce_tall}


def build(name: str, seed: int, directory: Path) -> Workload:
    """Generate workload ``name`` for ``seed`` and write its CSVs into ``directory``."""
    workload = WORKLOADS[name](np.random.default_rng([seed, sorted(WORKLOADS).index(name)]))
    for table in workload.tables.values():
        if table.path is None:
            write_csv(table, directory)
    return workload
