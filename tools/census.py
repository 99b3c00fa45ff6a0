"""Byte-for-byte census of the benchmark workloads' CLI calls and of the
demos between two trees, and of the change tree across OpenBLAS kernels.

Usage (from the repository root):

    python tools/census.py PARENT_TREE CHANGE_TREE [--seeds 11,12]

For each seed, the four workloads' CSV files are built once with
``perfbench/workloads.py``. Every distinct call of their cycles then runs in
both trees as ``python -m taxica`` with ``PYTHONPATH=<tree>/src`` and one
BLAS/OpenMP thread, two calls at a time, and once more with ``--format
table`` where the subcommand takes ``--format``. Each script in the parent's
``demos/`` runs in both trees the same way, and writes its files into that
tree's ``demos/output/``. A call or demo matches when its stdout bytes, its
stderr and its exit code are equal, with the input path (of a call) or the
tree path (of a demo) masked, and a demo also when every file its stdout
says it wrote (``wrote PATH``) has the same bytes in both trees. Each call
and demo of the change tree then runs once more under
``OPENBLAS_CORETYPE=Sandybridge``, and differs when its stdout or a file it
wrote changes from the default kernel's. (An OpenBLAS build without runtime
kernel selection ignores the variable.) Each difference is printed, then
the count; the exit code is 1 on any difference, else 0.
"""
from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402

#: Calls run at once: one per core of a 2-vCPU machine, each at one BLAS thread.
JOBS = 2

#: The OpenBLAS kernel (``OPENBLAS_CORETYPE``) each call and demo of the
#: change tree runs under again.
KERNEL = "Sandybridge"

#: Subcommands that take ``--format {json,table}``; ``plot`` writes SVG only.
FORMAT_COMMANDS = {"summarize", "reduce", "ca", "tca", "compare", "verify"}


def table_variant(argv: tuple[str, ...]) -> tuple[str, ...] | None:
    """``argv`` with ``--format table``, or None if it takes no ``--format``
    or already asks for the table."""
    if argv[0] not in FORMAT_COMMANDS:
        return None
    if "--format" not in argv:
        return (*argv, "--format", "table")
    i = argv.index("--format") + 1
    return None if argv[i] == "table" else (*argv[:i], "table", *argv[i + 1:])


def distinct_calls(seeds: list[int], directory: Path) -> list[tuple[str, tuple[str, ...], Path]]:
    """(workload, argv, input path) of every distinct call, table variants included."""
    calls = {}
    for seed in seeds:
        for name in workloads.WORKLOADS:
            work = directory / f"{name}_{seed}"
            work.mkdir()
            workload = workloads.build(name, seed, work)
            for call in workload.cycle:
                path = workload.tables[call.table].path
                for argv in (call.argv, table_variant(call.argv)):
                    if argv is not None:
                        calls.setdefault((str(path), argv), (f"{name} seed {seed}", argv, path))
    return list(calls.values())


def run(
    tree: Path, args: list[str], cwd: Path, mask: Path, kernel: str | None = None
) -> tuple[bytes, bytes, int]:
    """stdout, stderr and exit code of ``python ARGS`` on ``tree``'s ``src/``
    at one thread, under the OpenBLAS kernel ``kernel`` if one is named, with
    ``mask`` replaced by ``<mask>`` in both streams."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    if kernel:
        env["OPENBLAS_CORETYPE"] = kernel
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    proc = subprocess.run([sys.executable, *args], capture_output=True, env=env, cwd=cwd, timeout=600)
    token = os.fsencode(mask)
    return proc.stdout.replace(token, b"<mask>"), proc.stderr.replace(token, b"<mask>"), proc.returncode


def written(stdout: bytes) -> list[str]:
    """The tree-relative paths of the files a demo's stdout says it wrote."""
    lead = b"wrote <mask>/"
    return [line[len(lead):].decode() for line in stdout.splitlines() if line.startswith(lead)]


def file_bytes(path: Path) -> bytes | None:
    return path.read_bytes() if path.is_file() else None


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="tree whose src/ is the reference")
    parser.add_argument("change", type=Path, help="tree whose src/ is compared with it")
    parser.add_argument("--seeds", default="11,12", help="comma-separated workload seeds (default 11,12)")
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    trees = [args.parent.resolve(), args.change.resolve()]

    with tempfile.TemporaryDirectory(prefix="taxica-census-") as tmp:
        directory = Path(tmp)
        calls = distinct_calls(seeds, directory)
        demos = sorted(path.name for path in (trees[0] / "demos").glob("*.py"))

        def outcome(job, tree: Path, kernel: str | None = None) -> tuple[bytes, bytes, int]:
            """``run`` of a call or demo on ``tree``, masking its input or the tree."""
            if isinstance(job, str):
                return run(tree, [str(tree / "demos" / job)], directory, tree, kernel)
            _, call_argv, path = job
            return run(tree, ["-m", "taxica", *call_argv, "--input", str(path)], directory, path, kernel)

        def compare(job) -> str | None:
            if isinstance(job, str):
                label = f"demo {job}"
            else:
                name, call_argv, path = job
                label = f"{name}: taxica {' '.join(call_argv)} --input {path.name}"
            parent, change = (outcome(job, tree) for tree in trees)
            what = [part for part, a, b in zip(("stdout", "stderr", "exit code"), parent, change) if a != b]
            what += [
                rel for rel in written(parent[0])
                if file_bytes(trees[0] / rel) != file_bytes(trees[1] / rel)
            ]
            files = {rel: file_bytes(trees[1] / rel) for rel in written(change[0])}
            if outcome(job, trees[1], KERNEL)[0] != change[0]:
                what.append(f"stdout under {KERNEL}")
            what += [
                f"{rel} under {KERNEL}" for rel, data in files.items()
                if file_bytes(trees[1] / rel) != data
            ]
            return f"{label}: {', '.join(what)} differ" if what else None

        with ThreadPoolExecutor(max_workers=JOBS) as pool:
            diffs = [d for d in pool.map(compare, [*calls, *demos]) if d is not None]

    for line in diffs:
        print(line)
    print(
        f"{len(diffs)} of {len(calls)} distinct calls and {len(demos)} demos differ (seeds {args.seeds})"
    )
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
