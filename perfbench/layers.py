"""Per-layer metrics from the spans that traced_entry.py writes.

The layers are taxica's modules plus the process itself:

- ``proc``: interpreter start-up (spawn to the entry script's first line)
  and exit (end of ``run_cli`` until the parent sees the process exit);
- ``import``: ``import taxica.cli``, numpy included;
- ``cli``: ``run_cli`` minus every wrapped call below it (argument parsing,
  payload building, JSON encoding, writing stdout);
- one layer per module, from the wrapped public functions.

Every span named ``<layer>.<function>`` adds to ``<layer>.self_ms``,
``<layer>.calls``, ``<layer>.<function>.ms`` (total time) and
``<layer>.<function>.self_ms``; its counters add to ``<layer>.<counter>``.
Which of these a run reports is set by the per_layer list of BENCHMARK.json.
A span's self time is its duration minus the durations of its children;
calls run on one thread, so children never overlap.
"""
from __future__ import annotations

from collections import defaultdict

#: Spans outside run_cli and the metric each one adds to.
PROCESS_SPANS = {
    "proc.startup": "proc.startup_ms",
    "import.taxica_cli": "import.ms",
    "proc.exit": "proc.exit_ms",
}


def aggregate(calls: list[list[dict]], stdout_bytes: int, overhead_ms: float, names: list[str]) -> dict[str, float]:
    """Sum the spans of all traced calls of a run into the metrics ``names``.

    A metric no span of the run adds to is 0: the run never called that layer.
    """
    values: dict[str, float] = defaultdict(float)
    values["trace.calls"] = len(calls)
    values["trace.overhead_ms"] = overhead_ms
    values["cli.stdout_bytes"] = stdout_bytes
    for spans in calls:
        child_ns = [0] * len(spans)
        for span in spans:
            if span["parent"] is not None:
                child_ns[span["parent"]] += span["end"] - span["start"]
        for span, children in zip(spans, child_ns):
            name = span["name"]
            layer = name.split(".", 1)[0]
            total_ms = (span["end"] - span["start"]) / 1e6
            self_ms = total_ms - children / 1e6
            if name in PROCESS_SPANS:
                values[PROCESS_SPANS[name]] += self_ms
            else:
                values[f"{layer}.self_ms"] += self_ms
                values[f"{layer}.calls"] += 1
                values[f"{name}.ms"] += total_ms
                values[f"{name}.self_ms"] += self_ms
            for counter, value in span["counters"].items():
                values[f"{layer}.{counter}"] += value
    return {name: values.get(name, 0.0) for name in names}
