"""A fixed computation that measures the machine's speed, not the library's.

On a shared machine the CPU time of one fixed job drifts by a third or
more within tens of seconds, as other tenants' load changes the speed
of the core.  The benchmark times ``calibration`` (all-pairs shortest
paths with ``Fraction`` weights on a constant digraph, the kind of work
the library does, but none of its code) between jobs and scales each
job's CPU time by how long the calibration took around it.

Two forms: ``InProcess`` times the computation in the benchmark process,
for workloads that call the library in-process; ``Child`` times a fresh
interpreter that imports this file and runs it, for the CLI workload,
whose jobs are interpreter starts plus compute and which the in-process
form tracks badly.  Run as a script, this file runs the computation
``argv[1]`` times::

    python3 perfbench/calibrate.py 8
"""

from __future__ import annotations

import random
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

K = 9


def _weights():
    """A constant k-node digraph with Fraction weights and no negative cycle."""
    rng = random.Random("calibration")
    potential = [Fraction(rng.randint(-20, 20), rng.randint(1, 7)) for _ in range(K)]
    return [[Fraction(rng.randint(0, 9), rng.randint(1, 5)) + potential[i] - potential[j]
             for j in range(K)] for i in range(K)]


WEIGHTS = _weights()


def calibration():
    """All-pairs shortest paths on ``WEIGHTS``; returns CPU seconds."""
    t0 = time.process_time()
    dist = [row[:] for row in WEIGHTS]
    for m in range(K):
        via = dist[m]
        for row in dist:
            head = row[m]
            for j in range(K):
                alt = head + via[j]
                if alt < row[j]:
                    row[j] = alt
    return time.process_time() - t0


def children_cpu():
    r = resource.getrusage(resource.RUSAGE_CHILDREN)
    return r.ru_utime + r.ru_stime


class InProcess:
    """One ``calibration`` in this process per sample.

    ``every``: CPU seconds of jobs between two samples.  ``nominal``: the
    sample's CPU seconds at the speed the scaled times are reported in.
    """

    every = 0.05
    nominal = 0.0016

    def sample(self):
        return calibration()

    def factor(self, samples):
        """The scale for a stretch of time: nominal over the samples' median."""
        return self.nominal / statistics.median(samples)


class Child(InProcess):
    """A child interpreter running ``REPS`` calibrations per sample."""

    REPS = 8
    every = 0.5
    nominal = 0.08

    def sample(self):
        t0 = children_cpu()
        subprocess.run([sys.executable, str(Path(__file__).resolve()), str(self.REPS)],
                       check=True)
        return children_cpu() - t0


if __name__ == "__main__":
    for _ in range(int(sys.argv[1])):
        calibration()
