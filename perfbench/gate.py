"""Correctness gate applied to every CLI call the benchmark makes.

A call fails on an unexpected exit code or on any check below. A crash
(an exit code other than the CLI's documented 2 and 3) or a failed check on
the output of a call that exited as expected is a wrong answer, which also
marks the whole run as incorrect; an unexpected refusal (exit 2 or 3) is a
failure but not a wrong answer.
"""
from __future__ import annotations

import hashlib
import itertools
import json
import xml.etree.ElementTree as ET
from typing import Optional

import numpy as np

from workloads import Call, Table

#: The CLI's documented error exits: invalid request, numerical failure.
REFUSALS = (2, 3)

#: Relative tolerance, against the leading dispersion, for CA dispersions
#: and for the leading TCA dispersion.
SIGMA_RTOL = 1e-9

#: The CLI's default --exact-threshold: TCA solves the first axis exactly
#: while min(I, J) is at most this, so sigma_1 is checked by enumeration.
EXACT_MAX_DIM = 20

#: Sign vectors over the last columns are enumerated at once, the rest in a
#: loop, so the reference holds at most rows x 2^12 products.
_TAIL_DIM = 12


def _reject_constant(token: str):
    raise ValueError(f"non-JSON constant {token}")


def strict_json(text: str) -> dict:
    """Parse JSON, rejecting NaN and Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


def ca_reference(counts: np.ndarray) -> np.ndarray:
    """Singular values of the Pearson residual matrix, largest first."""
    p = counts / counts.sum()
    r, c = p.sum(axis=1), p.sum(axis=0)
    s = (p - np.outer(r, c)) / np.sqrt(np.outer(r, c))
    return np.linalg.svd(s, compute_uv=False)


def tca_sigma1_reference(counts: np.ndarray) -> float:
    """max ||R0 w||_1 over sign vectors w on the smaller side of R0 = P - rc'.

    The objective is the same on both sides and under w -> -w, so the first
    component of w is fixed to +1: 2^(min(I,J)-1) candidates.
    """
    p = counts / counts.sum()
    r0 = p - np.outer(p.sum(axis=1), p.sum(axis=0))
    if r0.shape[0] < r0.shape[1]:
        r0 = r0.T
    dim = r0.shape[1]
    tail = min(dim - 1, _TAIL_DIM)
    bits = (np.arange(1 << tail)[:, None] >> np.arange(tail)) & 1
    tail_sums = r0[:, dim - tail:] @ (1.0 - 2.0 * bits).T
    best = 0.0
    for head in itertools.product((1.0, -1.0), repeat=dim - 1 - tail):
        head_sum = r0[:, 0] + r0[:, 1 : dim - tail] @ np.array(head)
        best = max(best, float(np.abs(head_sum[:, None] + tail_sums).sum(axis=0).max()))
    return best


class Gate:
    """Checks outputs and remembers one stdout digest per distinct call."""

    def __init__(self, tables: dict[str, Table]):
        self.tables = tables
        self.references = {name: ca_reference(t.counts) for name, t in tables.items()}
        self.tca_sigma1 = {
            name: tca_sigma1_reference(t.counts)
            for name, t in tables.items()
            if min(t.counts.shape) <= EXACT_MAX_DIM
        }
        self.digests: dict[tuple[str, ...], str] = {}

    def check(self, call: Call, exit_code: int, stdout: bytes) -> tuple[bool, Optional[str]]:
        """Return (exited as expected, first failed output check or None)."""
        if exit_code != call.expect_exit:
            if exit_code in REFUSALS:
                return False, None
            return False, f"{call.argv[0]} on {call.table}: exited {exit_code}"
        if exit_code != 0:
            return True, None
        try:
            self._check_output(call, stdout.decode("utf-8"))
        except (ValueError, KeyError, TypeError, IndexError, ET.ParseError) as exc:
            return True, f"{call.argv[0]} on {call.table}: {exc}"
        key = (call.table,) + call.argv
        digest = hashlib.sha256(stdout).hexdigest()
        if self.digests.setdefault(key, digest) != digest:
            return True, f"{call.argv[0]} on {call.table}: stdout differs from an earlier call"
        return True, None

    def outputs_digest(self) -> str:
        """One digest over the stdout digest of every distinct successful call."""
        lines = sorted(f"{' '.join(key)} {digest}" for key, digest in self.digests.items())
        return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()

    def _check_output(self, call: Call, text: str) -> None:
        command = call.argv[0]
        table = self.tables[call.table]
        if command == "plot":
            if ET.fromstring(text).tag != "{http://www.w3.org/2000/svg}svg":
                raise ValueError("output is not an SVG document")
            return
        payload = strict_json(text)
        if command in ("ca", "compare"):
            self._check_sigmas(call.table, payload["ca"]["sigmas"])
        if command in ("tca", "compare"):
            sigmas = payload["tca"]["sigmas"]
            if not sigmas or min(sigmas) <= 0:
                raise ValueError("TCA dispersions must be positive")
            if call.table in self.tca_sigma1 and "--reduced" not in call.argv:
                reference = self.tca_sigma1[call.table]
                if abs(sigmas[0] - reference) > SIGMA_RTOL * reference:
                    raise ValueError(f"TCA sigma_1 {sigmas[0]!r} differs from the enumerated {reference!r}")
        if command == "verify":
            for method in ("ca", "tca"):
                if payload[method]["passed"] is not True:
                    raise ValueError(f"verify reports {method} not passed")
        if table.minimal_shape is not None:
            expected = list(table.minimal_shape)
            if command == "summarize":
                got = payload["reduction"]["minimal_size"]
            elif command == "reduce":
                got = payload["trace"]["minimal_size"]
            else:
                got = [payload["input"]["rows"], payload["input"]["cols"]]
            if got != expected:
                raise ValueError(f"minimal table is {got}, expected {expected}")

    def _check_sigmas(self, table: str, sigmas: list) -> None:
        reference = self.references[table]
        got = np.array(sigmas, dtype=np.float64)
        if got.size == 0 or got.size > reference.size:
            raise ValueError(f"{got.size} CA dispersions for {reference.size} singular values")
        err = float(np.max(np.abs(got - reference[: got.size])))
        if err > SIGMA_RTOL * reference[0]:
            raise ValueError(f"CA dispersions differ from the SVD by {err:.3e}")
