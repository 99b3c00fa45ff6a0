"""The whole taxica benchmark in one command, and the comparison of two sets.

    python3 perfbench/suite.py run --seeds 1-10 --out A.json
    python3 perfbench/suite.py compare A.json B.json

``run`` starts perfbench/run.py for every workload of BENCHMARK.json, once
per seed with tracing off, then once with tracing on (first seed), each for
the benchmark's run_seconds. It prints every metric with its unit, the
correctness verdict and failure count of every run, and per workload and
end-to-end metric the median, the quartiles and the spread (distance
between the quartiles over the median, quartiles as
``statistics.quantiles(values, n=4)`` gives them) next to the metric's
bound. The spread of setup_s is printed but not required to fit its bound:
set-up is one short burst per run, so only its median is compared.

``compare`` checks that every other spread of set B is within its bound,
that no median of B is worse than A's by more than the bound, and that the
runs of the two sets with the same workload and seed produced the same
outputs; it exits 1 if any of these fails.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import REPO, load_spec

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=REPO, capture_output=True, text=True, timeout=180)
    took = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    *report, digest_line, result_line = proc.stdout.strip().splitlines()
    sys.stdout.write("\n".join(report) + f"\n  (run took {took:.1f} s)\n")
    sys.stdout.flush()
    result = json.loads(result_line)
    result.update(workload=workload, seed=seed, trace=trace, took_s=took, outputs=digest_line.split()[1])
    return result


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, q1, q3, (q3 - q1) / median)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def summarize(spec: dict, runs: list[dict]) -> bool:
    """Print per-workload medians and spreads; return whether all spreads fit."""
    fits = True
    for workload in (w["name"] for w in spec["workloads"]):
        plain = [r for r in runs if r["workload"] == workload and r["trace"] == 0]
        if len(plain) < 2:
            continue
        wrong = sum(not r["correct"] for r in plain)
        failed = sum(r["failed"] for r in plain)
        attempted = sum(r["attempted"] for r in plain)
        print(f"\n{workload}: {len(plain)} runs, {wrong} incorrect, failed {failed}/{attempted} calls "
              f"(failed_frac {failed / attempted:.4f}), calls per run {min(r['attempted'] for r in plain)}"
              f"-{max(r['attempted'] for r in plain)}")
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in plain]
            med, q1, q3, width = spread(values)
            if metric["name"] == "setup_s":
                verdict = "within bound" if width <= metric["bound"] else "wider than bound (not gated)"
            else:
                verdict = "steady" if width < metric["bound"] / 3 else ("ok" if width <= metric["bound"] else "TOO WIDE")
                fits = fits and width <= metric["bound"]
            print(f"  {metric['name']:<14} median {med:12.4f} {metric['unit']:<5} q1 {q1:12.4f} q3 {q3:12.4f}"
                  f"  spread {width:7.4f}  bound {metric['bound']:.3f}  {verdict}")
    return fits


def layer_ranking(run: dict) -> str:
    """Layers of a traced run by self time, largest first."""
    m = {name: entry["value"] for name, entry in run["metrics"].items()}
    self_ms = {"proc": m["proc.startup_ms"] + m["proc.exit_ms"], "import": m["import.ms"]}
    self_ms.update((name[: -len(".self_ms")], v) for name, v in m.items() if name.count(".") == 1 and name.endswith(".self_ms"))
    ranked = sorted(self_ms.items(), key=lambda kv: -kv[1])
    return ", ".join(f"{layer} {ms:.0f} ms" for layer, ms in ranked if ms > 0)


def cmd_run(args) -> int:
    spec = load_spec()
    seeds = parse_seeds(args.seeds)
    runs = []
    for workload in (w["name"] for w in spec["workloads"]):
        for seed in seeds:
            runs.append(run_once(workload, seed, spec["run_seconds"], 0))
        runs.append(run_once(workload, seeds[0], spec["run_seconds"], 1))
    if args.out:
        Path(args.out).write_text(json.dumps(runs, indent=1), encoding="utf-8")
    fits = summarize(spec, runs)
    for run in runs:
        if run["trace"] == 1:
            overhead = run["metrics"]["trace.overhead_ms"]["value"]
            print(f"\n{run['workload']} traced: self time by layer over {run['metrics']['trace.calls']['value']} calls: "
                  f"{layer_ranking(run)}; tracing overhead {overhead:+.1f} ms per call")
    correct = all(r["correct"] for r in runs)
    print(f"\nall runs correct: {correct}; all spreads within bounds: {fits}")
    return 0 if correct and fits else 1


def cmd_compare(args) -> int:
    spec = load_spec()
    base = json.loads(Path(args.base).read_text(encoding="utf-8"))
    new = json.loads(Path(args.new).read_text(encoding="utf-8"))
    ok = summarize(spec, new)
    print()
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a = [r["metrics"][name]["value"] for r in base if r["workload"] == workload and r["trace"] == 0]
            b = [r["metrics"][name]["value"] for r in new if r["workload"] == workload and r["trace"] == 0]
            if not a or not b:
                continue
            ma, mb = statistics.median(a), statistics.median(b)
            worse = (mb - ma) / ma if metric["better"] == "lower" else (ma - mb) / ma
            verdict = "ok" if worse <= bound else "WORSE"
            ok = ok and worse <= bound
            print(f"{workload:<12} {name:<14} {ma:12.4f} -> {mb:12.4f} {metric['unit']:<5} "
                  f"worse by {worse:+.4f} (bound {bound:.3f})  {verdict}")
    outputs_a = {(r["workload"], r["seed"]): r["outputs"] for r in base if r["trace"] == 0}
    outputs_b = {(r["workload"], r["seed"]): r["outputs"] for r in new if r["trace"] == 0}
    common = sorted(outputs_a.keys() & outputs_b.keys())
    differ = [key for key in common if outputs_a[key] != outputs_b[key]]
    for workload, seed in differ:
        print(f"{workload:<12} seed {seed}: outputs differ between the sets")
    print(f"\noutputs compared on {len(common)} workload/seed pairs, {len(differ)} differ")
    ok = ok and not differ
    print(f"sets agree within bounds: {ok}")
    return 0 if ok else 1


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run every workload on several seeds")
    p_run.add_argument("--seeds", default="1-10", help="'1-10' or '3,5,8' (default 1-10)")
    p_run.add_argument("--out", default=None, help="write all run results to this JSON file")
    p_cmp = sub.add_parser("compare", help="compare two result files against the bounds")
    p_cmp.add_argument("base")
    p_cmp.add_argument("new")
    args = parser.parse_args(argv)
    return cmd_run(args) if args.command == "run" else cmd_compare(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
