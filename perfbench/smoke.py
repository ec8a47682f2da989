"""Smoke test of the benchmark itself, at a tiny size.

Checks that every metric of ``BENCHMARK.json`` is printed with its unit
on every workload, that the output checks flag deliberately corrupted
results, and that the traced call counts and Fraction-op count repeat
exactly between two traced runs at one seed.

Usage, from the root of a checkout::

    python3 perfbench/smoke.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import run

WORKLOADS = ("enumerate", "halfspace", "kernel", "cli")
COUNT_UNITS = ("count", "calls/graph", "count/job", "bytes")


def quiet_run(workload, trace):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        result = run.run(workload, seed=1, seconds=0.2, trace=trace, scale="tiny")
    return result, out.getvalue()


def check_metrics(spec, traced):
    """Every declared metric is in the result and printed with its unit.

    Keeps the traced results in ``traced`` for the repeat check.
    """
    problems = []
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result, text = quiet_run(workload, trace)
            if trace:
                traced[workload] = result
            lines = text.splitlines()
            for name, unit in ((m["name"], m["unit"]) for m in spec[key]):
                if not any(line.startswith(f"{workload} {name} ") and line.endswith(f" {unit}")
                           for line in lines):
                    problems.append(f"{workload}: {name} not printed with unit {unit}")
            if not result["correct"] or result["attempted"] < 1:
                problems.append(f"{workload} trace={trace}: {result}")
    return problems


def corrupt(job, out):
    """A wrong version of a correct output, or None for kinds not covered."""
    if job.kind == "enumerate_cells":
        # drop a top-dimensional cell: its graph is not inclusion-maximal,
        # so the lower-hull comparison alone would miss it
        top = max(out, key=lambda c: c.dimension)
        return [c for c in out if c is not top]
    if job.kind == "kleene_star":
        rows = [list(r) for r in out.entries]
        rows[0][0] = rows[0][0] + 1  # the diagonal of a star is finite
        return type(out).make(rows)
    if job.kind == "cells_of_halfspace" and out:
        return out[:-1]
    if job.kind == "kleene":  # CLI verb: (exit code, text written)
        return out[0], out[1].replace('"0"', '"1"', 1)
    return None


def check_corruption():
    problems = []
    for workload in WORKLOADS:
        with contextlib.redirect_stdout(io.StringIO()):
            _, wl = run.build(workload, 1, "tiny", run.OUT_DIR / "smoke")
        flagged = 0
        for job in wl.jobs:
            if job.expect is not None:
                continue
            out = job.call()
            bad = corrupt(job, out)
            if bad is None:
                continue
            if not wl.verdict(job, out):
                problems.append(f"{workload}: correct {job.kind} output rejected")
            elif wl.verdict(job, bad):
                problems.append(f"{workload}: corrupted {job.kind} output accepted")
            else:
                flagged += 1
        if not flagged:
            problems.append(f"{workload}: no output was corrupted")
    return problems


def check_repeat(traced):
    """Counts of a second traced run at the same seed equal the first."""
    problems = []
    for workload, first in traced.items():
        second, _ = quiet_run(workload, 1)
        for name, m in first["metrics"].items():
            if m["unit"] in COUNT_UNITS and m["value"] != second["metrics"][name]["value"]:
                problems.append(
                    f"{workload}: {name} {m['value']} then {second['metrics'][name]['value']}"
                )
    return problems


def main():
    if not (run.ROOT / "src" / "wdpoly").is_dir():
        print("error: src/wdpoly not found; run from a wdpoly checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(run.ROOT / "src"), str(run.ROOT / "tests")]
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    traced = {}
    problems = []
    for name, check in (
        ("metrics", lambda: check_metrics(spec, traced)),
        ("corruption", check_corruption),
        ("repeat", lambda: check_repeat(traced)),
    ):
        found = check()
        print(f"{name}: {'ok' if not found else 'FAILED'}")
        problems += found
    for p in problems:
        print("  " + p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
