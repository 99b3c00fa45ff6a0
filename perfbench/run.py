"""taxica benchmark: closed-loop CLI calls on seeded tables, one at a time.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each call is a fresh ``python -m taxica <cmd>`` process on a generated CSV
file; the next call starts only after the previous one has exited. With
``--trace 0`` the run reports the end-to-end metrics. With ``--trace 1``
every call runs twice, untraced and then through traced_entry.py, and the
run reports per-layer metrics summed over the traced calls, plus the
tracing overhead (traced minus untraced median call time). Every call goes
through the correctness gate in gate.py.

The CPU of a shared virtual machine changes speed in phases that last
minutes, so after every untraced call the run times a fixed pure-Python
loop. Every end-to-end time is multiplied, and calls_per_s divided, by
(REFERENCE_CALIBRATION_MS / the run's median loop time) ** SPEED_EXPONENT.
The raw figures are printed above the result line. The metric names and
units are those of BENCHMARK.json. The line before the last is a digest of the
outputs of all successful calls; the last line of stdout is one JSON object
with keys correct, attempted, failed and metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable

import numpy as np

import layers
import workloads
from gate import Gate

HERE = Path(__file__).resolve().parent
SRC = workloads.REPO / "src"
WORK_ROOT = workloads.REPO / ".bench_work"

#: Set-ups per run, one before the timed loop and the rest spread evenly
#: over it, so that a short slow spell of the machine sways few of them;
#: setup_s is their median.
SETUPS = 7

#: Iterations of the calibration loop, about 10 ms of pure Python.
CALIBRATION_LOOPS = 100_000

#: Calibration time (ms) of the reference speed the timings are scaled to;
#: near what the 2-vCPU machine the benchmark was tuned on measured.
REFERENCE_CALIBRATION_MS = 10.0

#: Timings follow the loop's speed only in part (numpy kernels less than
#: start-up and pure Python), so they are scaled by this power of the speed
#: ratio; 0.5 left the smallest spreads across the four workloads.
SPEED_EXPONENT = 0.5


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


class Runner:
    """Runs one process at a time and records its wall time and peak RSS."""

    def __init__(self, work: Path):
        self.work = work
        self.env = child_env()
        self.peak_rss_kb = 0
        self.exit_ns = 0

    def spawn(self, argv: list[str]) -> tuple[int, bytes, float]:
        out_path = self.work / "stdout"
        with out_path.open("wb") as out, (self.work / "stderr").open("wb") as err:
            start = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=self.work)
            _, status, usage = os.wait4(proc.pid, 0)
            self.exit_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        return proc.returncode, out_path.read_bytes(), (self.exit_ns - start) / 1e6

    def cli(self, call: workloads.Call, path: Path) -> tuple[int, bytes, float]:
        return self.spawn([sys.executable, "-m", "taxica", *call.argv, "--input", str(path)])

    def traced(self, call: workloads.Call, path: Path, call_id: int) -> tuple[int, bytes, float, list]:
        spans_path = self.work / "spans.json"
        spawn_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
        argv = [
            sys.executable, str(HERE / "traced_entry.py"), str(spans_path), str(call_id), str(spawn_ns),
            *call.argv, "--input", str(path),
        ]
        code, stdout, wall_ms = self.spawn(argv)
        if not spans_path.exists():  # the entry script died before writing
            return code, stdout, wall_ms, []
        spans = json.loads(spans_path.read_text(encoding="utf-8"))
        spans_path.unlink()
        run_cli_end = max(span["end"] for span in spans if span["name"] == "cli.run_cli")
        spans.append(
            {"name": "proc.exit", "start": run_cli_end, "end": self.exit_ns, "parent": None, "call": call_id, "counters": {}}
        )
        return code, stdout, wall_ms, spans


def calibrate() -> float:
    """Time (ms) of a fixed pure-Python loop; it tracks the CPU's speed."""
    start = time.perf_counter_ns()
    total = 0
    for i in range(CALIBRATION_LOOPS):
        total += i * i
    return (time.perf_counter_ns() - start) / 1e6


def set_up(name: str, seed: int, work: Path) -> tuple[workloads.Workload, float]:
    """Generate and write the workload and start one warm-up process."""
    work.mkdir(exist_ok=True)
    start = time.perf_counter()
    workload = workloads.build(name, seed, work)
    code, _, _ = Runner(work).spawn([sys.executable, "-m", "taxica", "--help"])
    took = time.perf_counter() - start
    if code != 0:
        raise RuntimeError(f"warm-up call exited {code}: {(work / 'stderr').read_text()}")
    return workload, took


def measure(
    workload: workloads.Workload, seconds: float, trace: bool, work: Path, set_up_again: Callable[[], float]
) -> dict:
    """Run the closed loop for ``seconds``, setting up again SETUPS - 1 times."""
    gate = Gate(workload.tables)
    runner = Runner(work)
    setups: list[float] = []
    setups_s = 0.0  # time the in-loop set-ups took, not counted as run time
    attempted = failed = 0
    wrong: list[str] = []
    untraced_ms: list[float] = []
    calibration_ms: list[float] = []
    traced_ms: list[float] = []
    span_lists: list[list[dict]] = []
    stdout_bytes = 0

    def record(call, code, stdout) -> None:
        nonlocal attempted, failed
        attempted += 1
        exited_ok, problem = gate.check(call, code, stdout)
        if problem is not None:
            wrong.append(problem)
        if not exited_ok or problem is not None:
            failed += 1

    start = time.perf_counter()
    i = 0
    while True:
        call = workload.cycle[i % len(workload.cycle)]
        path = workload.tables[call.table].path
        code, stdout, wall_ms = runner.cli(call, path)
        untraced_ms.append(wall_ms)
        record(call, code, stdout)
        calibration_ms.append(calibrate())
        if trace:
            code, stdout, wall_ms, spans = runner.traced(call, path, i)
            traced_ms.append(wall_ms)
            span_lists.append(spans)
            stdout_bytes += len(stdout)
            record(call, code, stdout)
        i += 1
        now = time.perf_counter()
        if now - start >= seconds:
            break
        if now - start >= (len(setups) + 1) * seconds / SETUPS:
            setups.append(set_up_again())
            setups_s += time.perf_counter() - now
    elapsed = time.perf_counter() - start - setups_s
    defect = workloads.KNOWN_DEFECT
    defect_exit = None
    if defect.table in workload.tables:  # outside the timed loop and peak RSS
        defect_exit, _, _ = Runner(work).cli(defect, workload.tables[defect.table].path)
    # Latency percentiles cover whole cycles only, so every run weighs the
    # calls of the mix as the workload defines them.
    whole = len(untraced_ms) - len(untraced_ms) % len(workload.cycle)
    return {
        "cycle_ms": untraced_ms[: whole or len(untraced_ms)],
        "attempted": attempted,
        "failed": failed,
        "wrong": wrong,
        "elapsed": elapsed,
        "setups": setups,
        "untraced_ms": untraced_ms,
        "calibration_ms": float(np.median(calibration_ms)),
        "defect_exit": defect_exit,
        "traced_ms": traced_ms,
        "span_lists": span_lists,
        "stdout_bytes": stdout_bytes,
        "peak_rss_mb": runner.peak_rss_kb / 1024.0,
        "outputs_digest": gate.outputs_digest(),
    }


def end_to_end(result: dict, setup_s: float, speed: float) -> dict[str, float]:
    """The end-to-end metrics, timings multiplied by ``speed``."""
    walls = np.array(result["cycle_ms"])
    return {
        "call_ms.p50": float(np.percentile(walls, 50)) * speed,
        "call_ms.p90": float(np.percentile(walls, 90)) * speed,
        "calls_per_s": result["attempted"] / result["elapsed"] / speed,
        "ok_frac": 1.0 - result["failed"] / result["attempted"],
        "peak_rss_mb": result["peak_rss_mb"],
        "setup_s": setup_s * speed,
    }


def per_layer(result: dict, names: list[str]) -> dict[str, float]:
    overhead = float(np.median(result["traced_ms"]) - np.median(result["untraced_ms"]))
    return layers.aggregate(result["span_lists"], result["stdout_bytes"], overhead, names)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in (SRC / "taxica" / "__init__.py", workloads.DATA_DIR) if not p.exists()]
    if missing:
        print(f"error: {missing[0]} not found; run from a taxica checkout", file=sys.stderr)
        return 2

    work = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        workload, first_setup = set_up(args.workload, args.seed, work)
        result = measure(
            workload, args.seconds, bool(args.trace), work,
            lambda: set_up(args.workload, args.seed, work / "setup")[1],
        )
        setup_s = statistics.median([first_setup, *result["setups"]])
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:  # another run is still using it
            pass

    spec = workloads.load_spec()
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if args.trace:
        metrics = per_layer(result, list(units))
    else:
        speed = (REFERENCE_CALIBRATION_MS / result["calibration_ms"]) ** SPEED_EXPONENT
        computed = end_to_end(result, setup_s, speed)
        metrics = {name: computed[name] for name in units}
    print(
        f"workload {args.workload}  seed {args.seed}  tables {', '.join(workload.shapes)}  "
        f"calls {result['attempted']}  failed {result['failed']}  "
        f"failed_frac {result['failed'] / result['attempted']:.4f}"
    )
    if result["defect_exit"] is not None:
        defect = workloads.KNOWN_DEFECT
        print(f"known defect, not timed: {defect.argv[0]} on {defect.table} exited {result['defect_exit']}")
    if not args.trace:
        raw = end_to_end(result, setup_s, 1.0)
        print(
            f"calibration {result['calibration_ms']:.3f} ms, timings scaled by {speed:.4f}; raw: "
            + ", ".join(f"{name} {raw[name]:.4f}" for name in ("call_ms.p50", "call_ms.p90", "calls_per_s", "setup_s"))
        )
    for problem in result["wrong"][:10]:
        print(f"WRONG: {problem}")
    for name, value in metrics.items():
        print(f"  {name:<36} {value:>16.6f} {units[name]}")
    line = {
        "correct": not result["wrong"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(f"outputs {result['outputs_digest']}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
