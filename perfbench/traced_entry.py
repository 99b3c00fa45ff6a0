"""Run one taxica CLI call with spans around its layers, timed from outside.

Usage: python traced_entry.py SPANS_JSON CALL_ID SPAWN_NS taxica-args...

SPAWN_NS is the CLOCK_MONOTONIC time at which the parent started this
process. The script times ``import taxica.cli``, wraps the public functions
where ``taxica.cli``, ``taxica.ca`` and ``taxica.tca`` look them up, runs
``run_cli`` and writes the spans as JSON. Each span records its name, start
and end (ns), the index of its parent span, the call id and counters read
from the wrapped function's arguments and return value. Nothing inside the
package is changed; stdout is exactly what ``python -m taxica`` prints.
"""
import time

ENTRY_NS = time.clock_gettime_ns(time.CLOCK_MONOTONIC)

import json  # noqa: E402
import math  # noqa: E402
import sys  # noqa: E402


def _now() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def _counters_parse(args, kwargs, result):
    return {"csv_bytes": len(args[0].encode("utf-8"))}


def _counters_reduce(args, kwargs, result):
    return {
        "lines_in": sum(result.original.shape),
        "lines_out": sum(result.minimal.shape),
        "merge_steps": len(result.steps),
    }


def _counters_eigen(args, kwargs, result):
    return {"eigen_dim": len(result[0])}


def _counters_tca(args, kwargs, result):
    return {"axes": result.rank_used, "residual_bytes": sum(r.nbytes for r in result.residuals)}


def _counters_exact(args, kwargs, result):
    return {"exact_candidates": result.starts_tried}


def _counters_iterative(args, kwargs, result):
    return {"iterative_starts": result.starts_tried}


def _counters_similarity(args, kwargs, result):
    axes = kwargs["axes"] if "axes" in kwargs else args[2]
    return {"pairings_searched": math.factorial(axes)}


#: (module that looks the name up, function name, layer, counter reader)
WRAPPED = [
    ("taxica.cli", "parse_table", "table", _counters_parse),
    ("taxica.cli", "validate_table", "table", None),
    ("taxica.cli", "build_model", "table", None),
    ("taxica.cli", "serialize_table", "table", None),
    ("taxica.cli", "reduce_to_minimal", "reduction", _counters_reduce),
    ("taxica.cli", "seven_number", "sparsity", None),
    ("taxica.cli", "classify", "sparsity", None),
    ("taxica.cli", "ca_decompose", "ca", None),
    ("taxica.ca", "symmetric_eigen", "ca", _counters_eigen),
    ("taxica.cli", "tca_decompose", "tca", _counters_tca),
    ("taxica.tca", "tca_axis_exact", "tca", _counters_exact),
    ("taxica.tca", "tca_axis_iterative", "tca", _counters_iterative),
    ("taxica.cli", "contributions", "diagnostics", None),
    ("taxica.cli", "explained_variation", "diagnostics", None),
    ("taxica.cli", "verify", "diagnostics", None),
    ("taxica.cli", "map_similarity", "diagnostics", _counters_similarity),
    ("taxica.cli", "emit_svg_biplot", "svg", None),
]


class Tracer:
    """In-memory span recorder; spans nest through a stack of open spans."""

    def __init__(self, call_id: int):
        self.call_id = call_id
        self.spans: list[dict] = []
        self.stack: list[int] = []

    def record(self, name: str, start: int, end: int, parent=None) -> None:
        self.spans.append(
            {"name": name, "start": start, "end": end, "parent": parent, "call": self.call_id, "counters": {}}
        )

    def wrap(self, name: str, fn, counters):
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.record(name, _now(), None, self.stack[-1] if self.stack else None)
            self.stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.stack.pop()
                self.spans[index]["end"] = _now()
            if counters is not None:
                self.spans[index]["counters"] = counters(args, kwargs, result)
            return result

        return traced


def main(argv: list[str]) -> int:
    out_path, call_id, spawn_ns = argv[0], int(argv[1]), int(argv[2])
    tracer = Tracer(call_id)
    tracer.record("proc.startup", spawn_ns, ENTRY_NS)
    start = _now()
    import taxica.cli

    tracer.record("import.taxica_cli", start, _now())
    for module_name, attr, layer, counters in WRAPPED:
        module = sys.modules[module_name]
        setattr(module, attr, tracer.wrap(f"{layer}.{attr}", getattr(module, attr), counters))
    run_cli = tracer.wrap("cli.run_cli", taxica.cli.run_cli, None)
    try:
        return run_cli(argv[3:])
    finally:
        sys.stdout.flush()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
