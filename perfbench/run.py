"""Benchmark of the wdpoly library and CLI: one seeded workload per run.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload enumerate --seed 1 --seconds 25 --trace 0

Workloads (see ``workloads.py``): ``enumerate``, ``halfspace``, ``kernel``
and ``cli``.  A run imports the library from ``src/``, builds the inputs
from the seed and warms up, then runs the job list as a closed loop with
one client, in whole passes, as many as fit in ``--seconds`` seconds of
wall time and at least one.  Whole passes keep the mix of a run the same
however fast the machine is; every pass holds at least 100 jobs, so that
ten samples lie beyond p90.  The set-up is repeated ten more times,
spread over the first pass and off its clock, and the median of all
eleven is ``setup_s``.  Outputs are checked after the loop against
``tests/oracles.py``.

Times are CPU seconds of the benchmark process and, for ``cli``, of its
children, scaled to a fixed machine speed.  On a shared machine the wall
clock also counts time the CPU was given to other tenants, and even CPU
time drifts by a third within tens of seconds.  So a fixed computation of
the benchmark's own (``calibrate.py``, which uses no library code) is
timed between jobs, and each job's CPU time is multiplied by the
calibration's nominal time over the median of the calibration samples
around it.  A change to the library moves the times as it moves CPU
time; a change of the machine's speed does not.  The raw CPU and
wall-clock rates are printed beside the metrics.

With ``--trace 1`` a fixed prefix of the job list runs twice untraced,
twice with spans around every public library function, and once under
the Fraction-op counter.  Per-layer numbers come from the first traced
pass and the counted pass, the tracing overhead is the faster traced pass
minus the faster untraced one, and spans and counters are written to
``.perfbench-out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

from calibrate import Child, InProcess
from tracer import FractionOps, Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench-out"
MODULES = ("semiring", "errors", "matrix", "digraph", "envelope", "covector",
           "formats", "dot", "svg", "cli")
SETUP_REPS = 11
MAX_LOOP_SECONDS = 120.0
CAL_WINDOW = 5  # calibration samples around a job whose median sets its scale


def declared(key):
    """Names of the metrics of one kind that BENCHMARK.json declares."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec[key]]


def library_modules():
    """The imported wdpoly modules and the test oracles, by name."""
    return {
        name: module for name, module in sys.modules.items()
        if name == "wdpoly" or name.startswith("wdpoly.") or name == "oracles"
    }


def import_library():
    """Import the wdpoly modules afresh, dropping any earlier import."""
    for name in library_modules():
        del sys.modules[name]
    return SimpleNamespace(
        **{m: importlib.import_module(f"wdpoly.{m}") for m in MODULES}
    )


def build(workload, seed, scale, workdir):
    lib = import_library()
    rng = random.Random(f"{workload}:{seed}")
    return lib, WORKLOADS[workload](lib, rng, scale, workdir)


def set_up(workload, seed, scale, workdir, children):
    """Import, input generation and warm-up; returns scaled seconds and the workload.

    The calibration samples taken just before and after give the speed.
    """
    gc.collect()  # an earlier set-up's garbage, off the clock
    speed = InProcess()  # set-up is in-process work but for one warm-up job
    cal = [speed.sample() for _ in range(CAL_WINDOW)]
    t0 = cpu_clock(children)
    _, wl = build(workload, seed, scale, workdir)
    run_jobs(wl.warmup)
    elapsed = cpu_clock(children) - t0
    cal += [speed.sample() for _ in range(CAL_WINDOW)]
    return elapsed * speed.factor(cal), wl


def repeat_set_up(workload, seed, scale, workdir, children, setup):
    """One more set-up whose time joins ``setup``; the running jobs' modules stay.

    Checks after the loop import ``oracles``, which must see the same
    library modules as the jobs' outputs, so those modules are put back.
    """
    kept = library_modules()
    setup.append(set_up(workload, seed, scale, workdir, children)[0])
    for name in library_modules():
        del sys.modules[name]
    sys.modules.update(kept)
    gc.collect()


def cpu_clock(children=False):
    """CPU seconds of this process, plus its waited-for children if asked."""
    t = time.process_time()
    if children:
        r = resource.getrusage(resource.RUSAGE_CHILDREN)
        t += r.ru_utime + r.ru_stime
    return t


def run_jobs(jobs, tracer=None):
    """Run each job once, in order; returns CPU seconds and outputs."""
    outputs = []
    start = cpu_clock()
    for index, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = index
        try:
            out = job.call()
        except Exception as exc:  # a failure of the program, judged by the check
            out = exc
        outputs.append(out)
    return cpu_clock() - start, outputs


def timed_loop(jobs, seconds, children, speed, between, times):
    """Closed loop over whole passes of the job list.

    A further pass starts only if no more than half of a pass of the mean
    length so far would run past ``seconds`` of wall time, so a run
    measures at least one pass and on average about ``seconds``.
    ``between()`` is called ``times``
    times, spread over the first pass and off the clock.  Only the first
    pass's outputs are kept.  A later output is compared with its job's
    first one while the clock is stopped and kept only when it differs, so
    that memory does not grow with the number of passes.  A calibration
    sample of ``speed`` is taken, off the clock, whenever ``speed.every``
    CPU seconds of jobs have run since the last one.  Returns the scaled
    seconds and the CPU seconds of each job, the loop's wall seconds and
    the records to check: (job, output, how many times it was produced).
    """
    records, durations, cal_index = [], [], []
    cal = [speed.sample() for _ in range(CAL_WINDOW)]
    since_cal = 0.0
    marks = {len(jobs) * (t + 1) // (times + 1) for t in range(times)}
    wall_start = time.perf_counter()
    wall = 0.0
    passes = 0
    while passes == 0 or (wall + wall / passes / 2 <= seconds and wall < MAX_LOOP_SECONDS):
        first_pass = not records
        for index, job in enumerate(jobs):
            if first_pass and index in marks:
                between()
            if since_cal >= speed.every:
                cal.append(speed.sample())
                since_cal = 0.0
            t0 = cpu_clock(children)
            try:
                out = job.call()
            except Exception as exc:  # a failure of the program, judged by the check
                out = exc
            durations.append(cpu_clock(children) - t0)
            since_cal += durations[-1]
            cal_index.append(len(cal))
            if first_pass:
                records.append([job, out, 1])
            elif same_output(records[index][1], out):
                records[index][2] += 1
            else:
                records.append([job, out, 1])
        passes += 1
        wall = time.perf_counter() - wall_start
    cal += [speed.sample() for _ in range(CAL_WINDOW)]
    half = CAL_WINDOW // 2
    scaled = [
        d * speed.factor(cal[max(0, k - half - 1): k + half])
        for d, k in zip(durations, cal_index)
    ]
    return scaled, durations, wall, records


def same_output(a, b):
    if isinstance(a, Exception) or isinstance(b, Exception):
        return type(a) is type(b)
    return a == b


def count_failures(wl, records):
    """Check every (job, output, times) record; a wrong output fails each time."""
    failed = 0
    for job, out, times in records:
        try:
            ok = wl.verdict(job, out)
        except Exception:  # a malformed output can break the checker itself
            ok = False
        failed += 0 if ok else times
    return failed


def percentile(values, q):
    """Nearest-rank percentile of a sample."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def peak_rss_mb(include_children):
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024


def cli_import_s(reps=5):
    """A fresh interpreter's ``import wdpoly.cli`` minus a bare start, in CPU s."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    bare, full = [], []
    for _ in range(reps):
        for code, sink in (("pass", bare), ("import wdpoly.cli", full)):
            t0 = cpu_clock(children=True)
            subprocess.run([sys.executable, "-c", code], env=env, check=True)
            sink.append(cpu_clock(children=True) - t0)
    return statistics.median(full) - statistics.median(bare)


def layer_metrics(tracer, kinds, fraction_ops, overhead_s, import_s):
    """Every per-layer metric, as name -> (value, unit)."""
    stats = tracer.stats

    def calls(name):
        return stats.get(name, [0, 0.0, 0.0])[0]

    def self_s(name):
        return stats.get(name, [0, 0.0, 0.0])[2]

    def module_self(prefix):
        return sum(rec[2] for name, rec in stats.items() if name.startswith(prefix + "."))

    in_enum = tracer.under("envelope.enumerate_covector_graphs")
    enum_calls = {}
    for (name, *_), inside in zip(tracer.spans, in_enum):
        if inside:
            enum_calls[name] = enum_calls.get(name, 0) + 1
    graphs = tracer.counters["graphs"]

    per_kind = {}
    for job, kind in enumerate(kinds):
        per_kind.setdefault(kind, []).append(tracer.counters["torus"].get(job, 0))
    torus = {kind: statistics.fmean(v) for kind, v in sorted(per_kind.items())}

    m = {"semiring.fraction_ops": (fraction_ops, "count")}
    for name in ("digraph.detect_negative_cycle", "digraph.kleene_star", "matrix.trop_det",
                 "envelope.enumerate_covector_graphs", "envelope.covector_closure",
                 "covector.enumerate_cells"):
        m[f"{name}.calls"] = (calls(name), "count")
        m[f"{name}.self_s"] = (self_s(name), "s")
    for name in ("digraph.face", "matrix.trop_mat_mul", "envelope.envelope_digraph",
                 "covector.cell_sample_point", "covector.closed_sector_membership"):
        m[f"{name}.calls"] = (calls(name), "count")
    for name in ("digraph.interior_point", "digraph.membership", "digraph.recession",
                 "digraph.cone_face_lattice", "matrix.is_generic",
                 "covector.projective_decomposition", "covector.signed_cells",
                 "covector.is_pure", "covector.tcone_membership",
                 "covector.covector_of_point", "covector.halfspace_membership",
                 "formats.dump_json", "formats.write_atomic", "dot.dot_of_digraph",
                 "svg.render_svg", "cli.run"):
        m[f"{name}.self_s"] = (self_s(name), "s")
    m["formats.parse.self_s"] = (
        sum(rec[2] for name, rec in stats.items()
            if name == "formats.load_json" or name.startswith("formats.parse_")), "s")
    for module in ("digraph", "matrix", "envelope", "covector"):
        m[f"{module}.self_s"] = (module_self(module), "s")
    m["envelope.graphs"] = (graphs, "count")
    m["envelope.closure_calls_per_graph"] = (
        enum_calls.get("envelope.covector_closure", 0) / graphs if graphs else 0.0, "calls/graph")
    m["envelope.negcycle_calls_per_graph"] = (
        enum_calls.get("digraph.detect_negative_cycle", 0) / graphs if graphs else 0.0,
        "calls/graph")
    m["covector.torus_enumerations_per_job"] = (max(torus.values(), default=0.0), "count/job")
    m["covector.cells"] = (tracer.counters["cells"], "count")
    m["formats.bytes_out"] = (tracer.counters["bytes"], "bytes")
    m["cli.import_s"] = (import_s, "s")
    m["trace.overhead_s"] = (overhead_s, "s")
    return m, torus


def install_observers(tracer):
    """Counters that need a call's arguments or result."""
    tracer.counters = {"graphs": 0, "cells": 0, "bytes": 0, "torus": {}}
    boundary = {}
    c = tracer.counters

    def on_graphs(args, result):
        c["graphs"] += len(result)

    def on_boundary(args, result):
        boundary.setdefault(tracer.job, []).append(result.config)

    def on_cells(args, result):
        c["cells"] += len(result)
        if not any(args[0] is b for b in boundary.get(tracer.job, ())):
            c["torus"][tracer.job] = c["torus"].get(tracer.job, 0) + 1

    def on_write(args, result):
        c["bytes"] += len(args[1].encode("utf-8"))

    tracer.observers.update({
        "envelope.enumerate_covector_graphs": on_graphs,
        "covector.boundary_matrix": on_boundary,
        "covector.enumerate_cells": on_cells,
        "formats.write_atomic": on_write,
    })


def traced_run(wl, workload, seed):
    jobs = [job.traced for job in wl.jobs[: wl.trace_jobs]]
    # the faster of two passes each way, so that noise does not swamp
    # the overhead; spans and counters are kept from the first traced pass
    untraced_s = min(run_jobs(jobs)[0] for _ in range(2))
    tracer = Tracer()
    install_observers(tracer)
    with tracer:
        traced_s, outputs = run_jobs(jobs, tracer)
    with Tracer():
        traced_s = min(traced_s, run_jobs(jobs)[0])
    ops = FractionOps()
    with ops:
        run_jobs(jobs)
    failed = count_failures(wl, [(job, out, 1) for job, out in zip(jobs, outputs)])
    kinds = [job.kind for job in jobs]
    layers, torus = layer_metrics(
        tracer, kinds, ops.count, traced_s - untraced_s, cli_import_s()
    )
    OUT_DIR.mkdir(exist_ok=True)
    trace_file = OUT_DIR / f"trace-{workload}-seed{seed}.json"
    trace_file.write_text(json.dumps({
        "workload": workload,
        "seed": seed,
        "jobs": kinds,
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "torus_enumerations_per_job_by_kind": torus,
        "calls": {name: rec[0] for name, rec in sorted(tracer.stats.items()) if rec[0]},
        "self_s": {name: rec[2] for name, rec in sorted(tracer.stats.items()) if rec[0]},
        "layers": {name: {"value": v, "unit": u} for name, (v, u) in layers.items()},
        "span_fields": ["name", "job", "start", "end", "parent"],
        "spans": tracer.spans,
    }))
    print(f"# trace written to {trace_file.relative_to(ROOT)} ({len(tracer.spans)} spans)")
    print(f"# traced jobs {len(jobs)}: untraced {untraced_s:.4f} s, traced {traced_s:.4f} s")
    for kind, value in torus.items():
        if value:
            print(f"# covector.torus_enumerations_per_job[{kind}] = {value:g}")
    return len(jobs), failed, layers, list(zip(jobs, outputs))


def run(workload, seed, seconds, trace, scale="full"):
    """One benchmark run: prints the metric table, returns the result object."""
    workdir = OUT_DIR / f"cli-{os.getpid()}"
    try:
        children = workload == "cli"
        first_setup, wl = set_up(workload, seed, scale, workdir, children)
        setup = [first_setup]
        if trace:
            attempted, failed, table, outputs = traced_run(wl, workload, seed)
            metrics = {name: table[name] for name in declared("per_layer")}
        else:
            # the other set-ups are spread over the loop, so that setup_s
            # samples the machine over the whole run like the job times
            durations, cpu, wall, records = timed_loop(
                wl.jobs, seconds, children, Child() if children else InProcess(),
                lambda: repeat_set_up(workload, seed, scale, workdir, children, setup),
                SETUP_REPS - 1,
            )
            rss = peak_rss_mb(include_children=children)
            attempted = len(durations)
            elapsed = sum(durations)
            failed = count_failures(wl, records)
            outputs = [(job, out) for job, out, _ in records[: len(wl.jobs)]]
            beyond = attempted - math.ceil(0.9 * attempted)
            print(f"# {attempted} jobs in {elapsed:.3f} scaled s ({sum(cpu):.3f} CPU s, "
                  f"{attempted / sum(cpu):.4g} jobs per CPU s; {wall:.3f} wall s, "
                  f"{attempted / wall:.4g} jobs per wall s), {beyond} samples beyond p90")
            table = {
                "jobs_per_s": (attempted / elapsed, "1/s"),
                "job_p50_ms": (1000 * percentile(durations, 0.5), "ms"),
                "job_p90_ms": (1000 * percentile(durations, 0.9), "ms"),
                "setup_s": (statistics.median(setup), "s"),
                "peak_rss_mb": (rss, "MB"),
                "fail_ratio": (failed / attempted, "ratio"),
            }
            metrics = {name: table[name] for name in declared("end_to_end")}
        for name, value in sorted(wl.properties(outputs).items()):
            print(f"# input {name} = {value:.6g}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name, (value, unit) in table.items():
        print(f"{workload} {name} {value:.6g} {unit}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for need in (ROOT / "src" / "wdpoly" / "__init__.py", ROOT / "tests" / "oracles.py"):
        if not need.is_file():
            print(f"error: {need.relative_to(ROOT)} not found; run from a wdpoly checkout",
                  file=sys.stderr)
            return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    result = run(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
