"""Seeded inputs, jobs and output checks for the four benchmark workloads.

A workload is built from a library namespace (the freshly imported
``wdpoly`` modules), a seed and a scale.  It holds its jobs grouped by
input class; ``Workload.jobs`` interleaves the classes so that every
prefix of the job list holds each class in proportion, which keeps a
time-bounded run's mix the same from seed to seed.  Checks run after the
timed loop and compare outputs with the independent oracles of
``tests/oracles.py`` or with properties computed here by another route.
"""

from __future__ import annotations

import importlib
import itertools
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path


class Job:
    """One call into the library (or one CLI invocation) and its check.

    ``call`` takes no argument and returns the output.  ``check(output)``
    returns True when the output is right.  When ``expect`` names an
    exception class, the job is correct exactly when it raises that class
    (an input planted to produce it).
    """

    __slots__ = ("kind", "call", "check", "expect", "traced")

    def __init__(self, kind, call, check, expect=None, traced=None):
        self.kind = kind
        self.call = call
        self.check = check
        self.expect = expect
        # the form the traced run uses; the CLI runs in-process there
        self.traced = traced or self


class Workload:
    """Jobs of one workload, their warm-up and their input properties.

    The functions in ``WORKLOADS`` take the library namespace, a seeded
    ``random.Random``, the scale (``"full"`` or ``"tiny"``) and a scratch
    directory, which only ``cli`` uses for its input and output files.
    """

    def __init__(self, classes, warmup, properties, trace_jobs):
        # trace_jobs: how many jobs from the start the traced run takes,
        # whole groups; None takes the whole list
        self.warmup = warmup
        self.properties = properties
        self.trace_jobs = trace_jobs
        self.jobs = [job for group in interleave(classes) for job in group]

    def verdict(self, job, out) -> bool:
        if job.expect is not None:
            return isinstance(out, job.expect)
        if isinstance(out, Exception):
            return False
        return bool(job.check(out))


def interleave(classes):
    """Order groups so that every prefix holds each class in proportion.

    A prefix holding a share f of the list holds ceil(f * n) groups of a
    class of n, so a class of one group is in every prefix.
    """
    keyed = []
    for name in sorted(classes):
        groups = classes[name]
        for t, group in enumerate(groups):
            keyed.append((t / len(groups), name, t, group))
    keyed.sort(key=lambda item: item[:3])
    return [group for _, _, _, group in keyed]


def once(fn):
    """Compute ``fn()`` at first use and keep the value."""
    box = []

    def get():
        if not box:
            box.append(fn())
        return box[0]

    return get


def oracles():
    return importlib.import_module("oracles")


# ---------------------------------------------------------------------------
# input generators


def generic_value(rng):
    return Fraction(rng.randint(-40, 40), rng.randint(1, 7))


def tied_value(rng):
    return Fraction(rng.randint(-3, 3))


def make_config(lib, rng, d, n, *, generic, inf_cells=0, inf_per_col=0):
    """A d-by-n point configuration with a fixed number of infinite entries.

    ``inf_cells`` entries are placed anywhere; ``inf_per_col`` entries go
    into every column.  No column is left entirely infinite.
    """
    value = generic_value if generic else tied_value
    inf = lib.semiring.INF
    while True:
        rows = [[value(rng) for _ in range(n)] for _ in range(d)]
        for i, j in rng.sample([(i, j) for i in range(d) for j in range(n)], inf_cells):
            rows[i][j] = inf
        for j in range(n):
            for i in rng.sample(range(d), inf_per_col):
                rows[i][j] = inf
        if all(any(rows[i][j] is not inf for i in range(d)) for j in range(n)):
            return lib.envelope.PointConfig.make(rows)


def argmin_rows(v, x, j, inf):
    """Rows attaining min_i (v_ij - x_i) in column j: the covector at j."""
    vals = {
        i: v.entry(i, j) - x[i - 1]
        for i in range(1, v.d + 1)
        if v.entry(i, j) is not inf
    }
    best = min(vals.values())
    return {i for i, val in vals.items() if val == best}


def make_system(lib, rng, v):
    """A halfspace system whose intersection holds a random finite point.

    Each column selects one covector row of that point plus a random
    proper part of the rest of its support.
    """
    inf = lib.semiring.INF
    x = [generic_value(rng) for _ in range(v.d)]
    arcs = []
    for j in range(1, v.n + 1):
        support = sorted(v.column_support(j))
        anchor = rng.choice(sorted(argmin_rows(v, x, j, inf)))
        rest = [i for i in support if i != anchor]
        extra = rng.sample(rest, rng.randint(0, max(0, len(rest) - 1)))
        arcs.extend((i, j) for i in [anchor] + extra)
    psi = lib.envelope.BipartiteSupportGraph.make(v.d, v.n, arcs)
    return lib.covector.HalfspaceSystem.make(v, psi)


def make_digraph(lib, rng, k, plant):
    """A weighted digraph built from a potential p plus nonnegative slack.

    ``plant`` is ``"feasible"``, ``"zero"`` (a cycle with zero slack) or
    ``"negative"`` (the same cycle pushed below zero).  Returns the digraph
    and p, which lies in Q(W) unless the plant is negative.
    """
    p = [generic_value(rng) for _ in range(k)]
    arcs = {}
    pairs = [(i, j) for i in range(1, k + 1) for j in range(1, k + 1) if i != j]
    # a fixed arc count per k keeps the cost of a digraph of one size steady
    for i, j in sorted(rng.sample(pairs, round(0.45 * len(pairs)))):
        slack = Fraction(rng.randint(0, 8), rng.randint(1, 4))
        arcs[(i, j)] = p[i - 1] - p[j - 1] + slack
    if plant != "feasible":
        cyc = rng.sample(range(1, k + 1), rng.randint(2, min(k, 5)))
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            arcs[(a, b)] = p[a - 1] - p[b - 1]
        if plant == "negative":
            a, b = cyc[0], cyc[1]
            arcs[(a, b)] -= Fraction(rng.randint(1, 5), rng.randint(1, 3))
    return lib.digraph.WeightedDigraph.make(k, arcs), p


def make_matrix(lib, rng, d, n, *, generic, inf_chance):
    value = generic_value if generic else tied_value
    inf = lib.semiring.INF
    return lib.matrix.TropicalMatrix.make(
        [[inf if rng.random() < inf_chance else value(rng) for _ in range(n)] for _ in range(d)]
    )


def inf_share(lib, configs):
    inf = lib.semiring.INF
    entries = [x for v in configs for row in v.v.entries for x in row]
    return sum(x is inf for x in entries) / max(1, len(entries))


def generic_share(lib, configs):
    return sum(lib.matrix.is_generic(v.v)[0] for v in configs) / max(1, len(configs))


# ---------------------------------------------------------------------------
# oracle helpers


def maximal_graphs(cells):
    """Inclusion-maximal covector graphs among the cells' graphs."""
    graphs = {c.graph.arcs for c in cells}
    return {g for g in graphs if not any(g < h for h in graphs)}


def covector(v, x, inf):
    return frozenset((i, j) for j in range(1, v.n + 1) for i in argmin_rows(v, x, j, inf))


def set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        yield [[first]] + part
        for b in range(len(part)):
            yield part[:b] + [[first] + part[b]] + part[b + 1:]


def weak_orders(d):
    """Rank vectors of every ordered partition of the rows 1..d.

    They meet every cell of the arrangement of the planes u_i = u_k.
    """
    for blocks in set_partitions(list(range(1, d + 1))):
        for order in itertools.permutations(blocks):
            rank = [0] * d
            for r, block in enumerate(order):
                for i in block:
                    rank[i - 1] = r
            yield rank


def probe_covectors(lib, v):
    """Covector graphs of finite probe points, one in every cell.

    Modulo its lineality space the arrangement is pointed, so the closure
    of every cell holds a vertex, and each vertex is fixed by a spanning
    forest of ties x_i - x_k = v_ij - v_kj.  Near a vertex the cells are
    cones cut out by the planes u_i = u_k of its tied rows, so steps from
    the vertex along the rank vectors of all ordered partitions of the
    rows, shorter than the distance to any other tie, meet each cell
    around it.  The probes are those points for every such forest.
    """
    inf = lib.semiring.INF
    d = v.d
    ties = [
        (i, k, v.entry(i, j) - v.entry(k, j))
        for i in range(1, d + 1) for k in range(i + 1, d + 1) for j in range(1, v.n + 1)
        if v.entry(i, j) is not inf and v.entry(k, j) is not inf
    ]
    # rows that never share a column lie in different components, which the
    # lineality space moves independently; each component starts at 0
    components = {i: {i} for i in range(1, d + 1)}
    for i, k, _ in ties:
        if components[i] is not components[k]:
            merged = components[i] | components[k]
            for r in merged:
                components[r] = merged
    rank = d - len({id(c) for c in components.values()})
    vertices = set()
    for forest in itertools.combinations(ties, rank):
        adjacent = {i: [] for i in range(1, d + 1)}
        for i, k, delta in forest:
            adjacent[i].append((k, -delta))
            adjacent[k].append((i, delta))
        x = {}
        for root in range(1, d + 1):
            if root in x:
                continue
            x[root] = Fraction(0)
            stack = [root]
            while stack:
                i = stack.pop()
                for k, delta in adjacent[i]:
                    if k not in x:
                        x[k] = x[i] + delta
                        stack.append(k)
        point = tuple(x[i] for i in range(1, d + 1))
        # a set of ties with a cycle may be inconsistent; it is no vertex
        if all(point[i - 1] - point[k - 1] == delta for i, k, delta in forest):
            vertices.add(point)
    directions = list(weak_orders(d))
    probes = set()
    for point in vertices:
        gaps = [abs(point[i - 1] - point[k - 1] - delta) for i, k, delta in ties]
        step = min((g for g in gaps if g), default=Fraction(1)) / (2 * d)
        for u in directions:
            probes.add(covector(v, [q + step * r for q, r in zip(point, u)], inf))
    return probes


def exactly(cells, graphs):
    """The cells have the given covector graphs, each once."""
    return len(cells) == len(graphs) and {c.graph.arcs for c in cells} == graphs


def sound(cov, v, cells):
    """Every torus cell's sample point has that cell's covector graph."""
    return all(
        cov.covector_of_point(v, cov.cell_sample_point(v, c)).arcs == c.graph.arcs
        for c in cells
    )


def stratum_config(lib, v, z):
    """The configuration on the stratum where rows z are infinite, with labels."""
    rows = [i for i in range(1, v.d + 1) if i not in z]
    cols = [j for j in range(1, v.n + 1) if not (v.column_support(j) & z)]
    if not cols:
        return rows, cols, None
    return rows, cols, lib.envelope.PointConfig(v.v.submatrix(rows, cols))


def projective_ok(lib, v, cells):
    """Every proper stratum is present and its vertices match the lower hull."""
    by_stratum = {}
    for c in cells:
        by_stratum.setdefault(c.stratum, []).append(c)
    strata = {
        frozenset(z)
        for size in range(v.d)
        for z in itertools.combinations(range(1, v.d + 1), size)
    }
    if set(by_stratum) != strata:
        return False
    for z, group in by_stratum.items():
        rows, cols, sub = stratum_config(lib, v, z)
        if sub is None:
            if len(group) != 1 or group[0].graph.arcs:
                return False
            continue
        expect = {
            frozenset((rows[i - 1], cols[j - 1]) for (i, j) in g)
            for g in oracles().lower_hull_cells(sub)
        }
        if maximal_graphs(group) != expect:
            return False
    return True


def covers_columns(arcs, psi_arcs, n):
    """The torus-cell criterion: every column keeps an arc inside psi."""
    return len({j for (i, j) in arcs & psi_arcs}) == n


def flipped(v, psi, signs):
    """The selection of an inversion: minus columns take the complement."""
    arcs = set()
    for j, s in enumerate(signs, start=1):
        chosen = {i for (i, c) in psi.arcs if c == j}
        if s == "-":
            chosen = set(v.column_support(j)) - chosen
        arcs.update((i, j) for i in chosen)
    return frozenset(arcs)


def assignment(entries, inf):
    """Minimum diagonal sum over permutations and how many attain it.

    Dynamic programming over column subsets, independent of the
    permutation loop in the library.  INF is absorbing; when every
    permutation is infinite, all k! of them attain the minimum.
    """
    k = len(entries)
    best = {0: (Fraction(0), 1)}
    for i in range(k):
        nxt = {}
        for mask, (val, cnt) in best.items():
            for j in range(k):
                if mask >> j & 1:
                    continue
                e = entries[i][j]
                w = inf if val is inf or e is inf else val + e
                key = mask | 1 << j
                if key not in nxt:
                    nxt[key] = (w, cnt)
                    continue
                cur, ccnt = nxt[key]
                if w < cur:
                    nxt[key] = (w, cnt)
                elif not (cur < w):
                    nxt[key] = (cur, ccnt + cnt)
        best = nxt
    val, cnt = best[(1 << k) - 1]
    # counts of partial minima miss the permutations that INF makes equal
    return (val, math.factorial(k)) if val is inf else (val, cnt)


def vanishes(entries, inf):
    val, cnt = assignment(entries, inf)
    return val is inf or cnt >= 2


# ---------------------------------------------------------------------------
# enumerate


# (d, n, count); each shape is one interleaved class, and its t-th
# configuration takes generic? and one infinite entry? from MIX[t % 4].
# The counts place p50 inside the 2x4, 2x5 and 3x2 jobs and p90 inside
# the 3x3 and tail jobs, not on a step between shapes of different cost.
ENUMERATE_SHAPES = (
    (2, 2, 6), (2, 3, 6), (2, 4, 6), (2, 5, 4), (3, 2, 12), (3, 3, 6),
)

# generic?, one infinite entry?  for the t-th configuration of a shape
MIX = ((True, False), (False, False), (True, True), (False, False))

# (d, n, inf_per_col, generic); one configuration each, joining the class
# of its shape.  inf_per_col infinite entries in every column keep each
# under about a second: seconds-long configurations would set most of a
# pass's time, and their cost varies several-fold from seed to seed.  The
# sparse 4x4 is generic: with tied integer entries, columns whose supports
# close a cycle of rows took 10 s instead of under 1 s.  The generic 3x5
# and 4x3 configurations without infinite entries take seconds each and
# are measured by ladder.py.
ENUMERATE_TAIL = (
    (3, 4, 1, True), (3, 4, 1, False), (3, 5, 1, True),
    (4, 3, 2, True), (4, 3, 2, False), (4, 4, 2, True),
)


def enumerate_workload(lib, rng, scale, workdir):
    cov, env = lib.covector, lib.envelope
    classes = {}
    configs = []
    full = scale == "full"
    specs = [
        (d, n, MIX[t % 4][0], int(MIX[t % 4][1]), 0)
        for d, n, count in (ENUMERATE_SHAPES if full else ((2, 3, 1), (3, 3, 1)))
        for t in range(count)
    ]
    specs = [spec + (rng,) for spec in specs]
    # The tail is drawn from a constant seed, the same in every run.  Its
    # six configurations take about half of a pass, and their costs vary
    # several-fold from draw to draw: drawn from the workload seed, they
    # spread jobs_per_s and p90 by 0.10-0.12 of the median over ten seeds.
    tail_rng = random.Random("enumerate-tail")
    specs += [(d, n, generic, 0, ipc, tail_rng) for d, n, ipc, generic in ENUMERATE_TAIL if full]
    for d, n, generic, inf_cells, ipc, source in specs:
        v = make_config(lib, source, d, n, generic=generic, inf_cells=inf_cells,
                        inf_per_col=ipc)
        configs.append(v)
        classes.setdefault(f"{d}x{n}", []).append(_enumerate_group(lib, v, cov, env))

    def properties(outputs):
        cells = sum(len(out) for job, out in outputs if job.kind == "enumerate_cells"
                    and isinstance(out, list))
        return {
            "configurations": len(configs),
            "generic_share": generic_share(lib, configs),
            "inf_entry_share": inf_share(lib, configs),
            "cells_emitted": cells,
        }

    warm = make_config(lib, rng, 2, 2, generic=True)
    return Workload(classes, _enumerate_group(lib, warm, cov, env), properties, trace_jobs=36)


def _enumerate_group(lib, v, cov, env):
    hull = once(lambda: oracles().lower_hull_cells(v))
    probes = once(lambda: probe_covectors(lib, v))

    def cells_ok(out):
        return (
            all(not c.stratum for c in out)
            and maximal_graphs(out) == hull()
            and sound(cov, v, out)
            and exactly(out, probes())
        )

    return [
        Job("enumerate_cells", lambda: cov.enumerate_cells(v), cells_ok),
        Job(
            "regular_subdivision",
            lambda: env.regular_subdivision(v),
            lambda out: {c.vertices for c in out} == hull(),
        ),
        Job(
            "projective_decomposition",
            lambda: cov.projective_decomposition(v),
            lambda out: projective_ok(lib, v, out)
            and exactly([c for c in out if not c.stratum], probes()),
        ),
    ]


# ---------------------------------------------------------------------------
# halfspace


# (d, n, count, inf_cells); 3x3 systems follow HALFSPACE_MIX, 3x4 systems
# always have inf_cells infinite entries, which keeps them about as cheap
# as the 3x3 ones.
HALFSPACE_SHAPES = ((3, 3, 21, 1), (3, 4, 4, 3))

# Mostly generic: tied and infinite entries make the cost of a system
# vary several-fold from seed to seed.
HALFSPACE_MIX = ((True, False), (True, False), (False, False), (True, True))


def halfspace_workload(lib, rng, scale, workdir):
    classes = {}
    systems = []
    shapes = HALFSPACE_SHAPES if scale == "full" else ((3, 3, 2, 1),)
    # The 3x4 systems are drawn from a constant seed, the same in every
    # run.  One 3x4 system costs 0.6 to 1.2 times as much as all four jobs
    # of a 3x3 one, so drawn from the workload seed the four of them
    # moved a pass's time by 0.15 from seed to seed.
    wide = random.Random("halfspace-3x4")
    for d, n, count, inf_cells in shapes:
        groups = classes.setdefault(f"{d}x{n}", [])
        source = wide if n == 4 else rng
        for t in range(count):
            generic, with_inf = HALFSPACE_MIX[t % 4]
            v = make_config(
                lib, source, d, n, generic=generic,
                inf_cells=inf_cells if with_inf or n == 4 else 0,
            )
            h = make_system(lib, source, v)
            systems.append(h)
            groups.append(_halfspace_group(lib, h))

    def properties(outputs):
        cells = sum(len(out) for job, out in outputs if job.kind == "cells_of_halfspace"
                    and isinstance(out, list))
        configs = [h.config for h in systems]
        return {
            "systems": len(systems),
            "generic_share": generic_share(lib, configs),
            "inf_entry_share": inf_share(lib, configs),
            "cells_emitted": cells,
        }

    warm = make_system(lib, rng, make_config(lib, rng, 2, 2, generic=True))
    return Workload(classes, _halfspace_group(lib, warm), properties, trace_jobs=24)


def _halfspace_group(lib, h):
    cov = lib.covector
    v, psi = h.config, h.psi
    probes = once(lambda: probe_covectors(lib, v))
    state = {}

    def covering(arcs):
        return {g for g in probes() if covers_columns(g, arcs, v.n)}

    def cells_call():
        state["cells"] = cov.cells_of_halfspace(h)
        return state["cells"]

    def tangent_call():
        return [cov.tangent_digraph(h, c) for c in state["cells"]]

    def reference_cells():
        # the cells job's own output once it has been checked
        return state["cells"] if "cells" in state else cov.cells_of_halfspace(h)

    def cells_ok(out):
        return (
            all(not c.stratum for c in out)
            and sound(cov, v, out)
            and exactly(out, covering(psi.arcs))
        )

    def tangent_ok(out):
        cells = reference_cells()
        if len(out) != len(cells):
            return False
        for t, c in zip(out, cells):
            cols = [j for j in range(1, v.n + 1) if any(b == j for (_, b) in c.graph.arcs)]
            kept = [j for j in cols
                    if not all((i, j) in psi.arcs for (i, b) in c.graph.arcs if b == j)]
            fwd = {a for a in c.graph.arcs if a[1] in kept and a in psi.arcs}
            back = {a for a in c.graph.arcs if a[1] in kept and a not in psi.arcs}
            if (list(t.columns), set(t.row_to_col), set(t.col_to_row)) != (kept, fwd, back):
                return False
        return True

    def pure_ok(out):
        pure, witness = out
        cells = reference_cells()
        tops = [c for c in cells if not any(o.graph.arcs < c.graph.arcs for o in cells)]
        expect = len({c.dimension for c in tops}) <= 1
        if pure != expect:
            return False
        return pure or (witness[0].dimension != witness[1].dimension
                        and witness[0] in tops and witness[1] in tops)

    def signed_ok(out):
        if set(out) != {"".join(s) for s in itertools.product("+-", repeat=v.n)}:
            return False
        for signs, cells in out.items():
            arcs = flipped(v, psi, signs)
            if len({j for (_, j) in arcs}) < v.n:
                if cells:
                    return False
                continue
            if not exactly([c for c in cells if not c.stratum], covering(arcs)):
                return False
        return True

    return [
        Job("signed_cells", lambda: cov.signed_cells(h), signed_ok),
        Job("is_pure", lambda: cov.is_pure(h), pure_ok),
        Job("cells_of_halfspace", cells_call, cells_ok),
        Job("tangent_digraph", tangent_call, tangent_ok),
    ]


# ---------------------------------------------------------------------------
# kernel


# in this order, so that any prefix of a class keeps about the same mix
KERNEL_PLANTS = ("feasible", "zero", "feasible", "negative", "feasible",
                 "feasible", "zero", "feasible", "negative", "feasible")


def kernel_workload(lib, rng, scale, workdir):
    full = scale == "full"
    classes = {}
    digraphs = []
    for k in range(4, 13):
        for t, plant in enumerate(KERNEL_PLANTS if full else ("feasible", "negative")):
            w, p = make_digraph(lib, rng, k, plant)
            other, _ = make_digraph(lib, rng, k, "feasible")
            digraphs.append((w, plant))
            classes.setdefault(f"digraph_k{k:02d}", []).append(
                _digraph_group(lib, rng, w, plant, p, other)
            )
    matrices, generic_inputs = [], []
    # trop_det costs k! * k: one 8x8 and two 7x7 per pass keep it from
    # drowning the digraph calls.  Infinite entries end permutations early,
    # which makes the cost depend on where they fall, so only k <= 5 has them.
    for k, count in ((2, 6), (3, 6), (4, 6), (5, 6), (6, 4), (7, 2), (8, 1)):
        for t in range(count if full else 1):
            m = make_matrix(lib, rng, k, k, generic=t % 2 == 0,
                            inf_chance=0.15 if k <= 5 else 0.0)
            matrices.append(m)
            classes.setdefault(f"trop_det_k{k}", []).append([_trop_det_job(lib, m)])
    for d, n in ((2, 3), (3, 3), (3, 4), (3, 5), (4, 4), (4, 6)):
        for t in range(6 if full else 1):
            m = make_matrix(lib, rng, d, n, generic=t % 2 == 0, inf_chance=0.1)
            matrices.append(m)
            generic_inputs.append(m)
            classes.setdefault(f"is_generic_{d}x{n}", []).append([_is_generic_job(lib, m)])
    # many configurations with few queries each, so that no single
    # configuration's structure sets the point queries' share of the times
    configs = [
        make_config(lib, rng, d, n, generic=generic, inf_cells=inf_cells)
        for _ in range(4 if full else 1)
        for d, n, generic, inf_cells in ((3, 4, True, 1), (4, 5, False, 2), (4, 6, True, 3))
    ]
    for v in configs:
        h = make_system(lib, rng, v)
        for t in range(6 if full else 2):
            classes.setdefault("point_queries", []).append(_point_group(lib, rng, v, h, t))

    def properties(outputs):
        inf = lib.semiring.INF
        entries = [x for m in matrices for row in m.entries for x in row]
        entries += [x for v in configs for row in v.v.entries for x in row]
        return {
            "digraphs": len(digraphs),
            "infeasible_digraph_share": sum(p == "negative" for _, p in digraphs) / len(digraphs),
            "zero_cycle_digraph_share": sum(p == "zero" for _, p in digraphs) / len(digraphs),
            "generic_share": generic_share(lib, configs),
            "generic_matrix_share": sum(lib.matrix.is_generic(m)[0] for m in generic_inputs)
            / len(generic_inputs),
            "inf_entry_share": sum(x is inf for x in entries) / len(entries),
        }

    warm_w, warm_p = make_digraph(lib, rng, 4, "feasible")
    warmup = _digraph_group(lib, rng, warm_w, "feasible", warm_p, warm_w)
    return Workload(classes, warmup, properties, trace_jobs=None)


def _digraph_group(lib, rng, w, plant, p, other):
    dg = lib.digraph
    inf = lib.semiring.INF
    k = w.k
    infeasible = lib.errors.InfeasibleError
    star = once(lambda: oracles().kleene_by_powers(w))
    short_cycles = k <= 7
    min_cycle = once(lambda: oracles().min_cycle_weight(w))

    def zero_cycle_arc(i, j):
        back = star().entry(j, i)
        return back is not inf and w.arcs[(i, j)] + back == 0

    def detect_ok(out):
        if out is None:
            if plant == "negative" or any(star().entry(i, i) < 0 for i in range(1, k + 1)):
                return False
            return not short_cycles or min_cycle() is None or min_cycle() >= 0
        if plant != "negative" or out[0] != out[-1]:
            return False
        if not all((a, b) in w.arcs for a, b in zip(out, out[1:])):
            return False
        if sum(w.arcs[(a, b)] for a, b in zip(out, out[1:])) >= 0:
            return False
        return not short_cycles or min_cycle() < 0

    def partition_ok(out):
        blocks = {i: {i} for i in range(1, k + 1)}
        for i in range(1, k + 1):
            for j in range(1, k + 1):
                a, b = star().entry(i, j), star().entry(j, i)
                if a is not inf and b is not inf and a + b == 0:
                    blocks[i].add(j)
        return {frozenset(b) for b in out.blocks} == {frozenset(b) for b in blocks.values()}

    def interior_ok(x):
        for (i, j), wt in w.arcs.items():
            diff = x[i - 1] - x[j - 1]
            if diff > wt or (diff == wt) != zero_cycle_arc(i, j):
                return False
        return True

    deleted = frozenset(rng.sample(range(1, k + 1), rng.randint(1, max(1, k // 3))))
    keep = [v for v in range(1, k + 1) if v not in deleted]

    def project_ok(out):
        expect = {
            (a, b): star().entry(i, j)
            for a, i in enumerate(keep, start=1)
            for b, j in enumerate(keep, start=1)
            if star().entry(i, j) is not inf
        }
        return out.k == len(keep) and dict(out.arcs) == expect

    def intersect_ok(out):
        expect = dict(other.arcs)
        for a, wt in w.arcs.items():
            expect[a] = min(wt, expect.get(a, wt))
        return dict(out.arcs) == expect

    point = list(p) if plant != "negative" and rng.random() < 0.7 else [
        generic_value(rng) for _ in range(k)
    ]

    def membership_ok(out):
        ok = all(point[i - 1] - point[j - 1] <= wt for (i, j), wt in w.arcs.items())
        tight = {a for a, wt in w.arcs.items() if point[a[0] - 1] - point[a[1] - 1] == wt}
        return out == (ok, frozenset(tight))

    def recession_ok(out):
        o = oracles()
        lineality = {
            tuple(1 if v in c else 0 for v in range(1, k + 1))
            for c in o.nx.connected_components(o.nx_digraph(w).to_undirected())
        }
        rays_ok = all(
            all(r[i - 1] <= r[j - 1] for (i, j) in w.arcs) for r in out.ray_generators
        )
        return set(out.lineality_generators) == lineality and rays_ok

    def lattice_ok(out):
        o = oracles()
        gamma = w.zero_weights()
        listed = {p.blocks for p in out.elements}
        if k <= 6:
            expect = set()
            for blocks in o.all_partitions(range(1, k + 1)):
                if o.nx_partition_qualifies(gamma, blocks):
                    expect.add(tuple(sorted(tuple(sorted(b)) for b in blocks)))
            return listed == expect
        return all(o.nx_partition_qualifies(gamma, b) for b in listed) and {
            out.minimum.blocks, out.top.blocks
        } <= listed

    fails = infeasible if plant == "negative" else None
    jobs = [
        Job("detect_negative_cycle", lambda: dg.detect_negative_cycle(w), detect_ok),
        Job("kleene_star", lambda: dg.kleene_star(w), lambda out: out == star(), fails),
        Job("equality_partition", lambda: dg.equality_partition(w), partition_ok, fails),
        Job("interior_point", lambda: dg.interior_point(w), interior_ok, fails),
        Job("project", lambda: dg.project(w, deleted), project_ok, fails),
        Job("intersect", lambda: dg.intersect(w, other), intersect_ok),
        Job("membership", lambda: dg.membership(w, point), membership_ok),
    ]
    if k <= 8:
        gamma = w.zero_weights()
        jobs.append(Job("recession", lambda: dg.recession(w), recession_ok))
        jobs.append(Job("cone_face_lattice", lambda: dg.cone_face_lattice(gamma), lattice_ok))
    return jobs


def _trop_det_job(lib, m):
    inf = lib.semiring.INF

    def ok(out):
        val, cnt = assignment(m.entries, inf)
        if not (out.value == val or (out.value is inf and val is inf)):
            return False
        if len(out.optimal_permutations) != cnt:
            return False
        for perm in out.optimal_permutations:
            total = Fraction(0)
            for i, j in enumerate(perm):
                e = m.entries[i][j - 1]
                total = inf if total is inf or e is inf else total + e
            if not (total == val or (total is inf and val is inf)):
                return False
        return out.vanishes == (val is inf or cnt >= 2)

    return Job("trop_det", lambda: lib.matrix.trop_det(m), ok)


def _is_generic_job(lib, m):
    inf = lib.semiring.INF

    def square_vanishes(rows, cols):
        return vanishes([[m.entries[i - 1][j - 1] for j in cols] for i in rows], inf)

    def ok(out):
        generic, witness = out
        if not generic:
            return witness is not None and square_vanishes(*witness)
        return not any(
            square_vanishes(rows, cols)
            for size in range(1, min(m.rows, m.cols) + 1)
            for rows in itertools.combinations(range(1, m.rows + 1), size)
            for cols in itertools.combinations(range(1, m.cols + 1), size)
        )

    return Job("is_generic", lambda: lib.matrix.is_generic(m), ok)


def _point_group(lib, rng, v, h, t):
    cov = lib.covector
    inf = lib.semiring.INF
    x = [generic_value(rng) for _ in range(v.d)]
    if t % 2 == 0:
        # a tropical combination of the columns, so a cone member
        lam = [generic_value(rng) for _ in range(v.n)]
        z = [
            min(v.entry(i, j) + lam[j - 1] for j in range(1, v.n + 1) if v.entry(i, j) is not inf)
            for i in range(1, v.d + 1)
        ]
    else:
        z = list(x)
    zp = cov.ProjectivePoint.make(z)

    def covector_ok(out):
        return out.arcs == covector(v, x, inf)

    def halfspace_ok(out):
        return out == covers_columns(covector(v, x, inf), h.psi.arcs, v.n)

    return [
        Job("covector_of_point", lambda: cov.covector_of_point(v, x), covector_ok),
        Job(
            "tcone_membership",
            lambda: cov.tcone_membership(v, zp),
            lambda out: out[0] == oracles().residuation_member(v, zp.coords),
        ),
        Job("halfspace_membership", lambda: cov.halfspace_membership(h, x), halfspace_ok),
    ]


# ---------------------------------------------------------------------------
# cli


def render(x, inf):
    return "inf" if x is inf else str(x)


def config_obj(v, inf):
    return {
        "rows": v.d,
        "cols": v.n,
        "entries": [[render(x, inf) for x in row] for row in v.v.entries],
    }


def digraph_obj(w):
    return {
        "nodes": w.k,
        "arcs": [{"from": i, "to": j, "w": str(wt)} for (i, j), wt in sorted(w.arcs.items())],
    }


CLI_ROUNDS = 7


def cli_workload(lib, rng, scale, workdir):
    """Each of the 15 verb forms as a subprocess writing with ``-o``."""
    inf = lib.semiring.INF
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    launcher = [sys.executable, "-c", "from wdpoly.cli import entry; entry()"]
    workdir.mkdir(parents=True, exist_ok=True)

    def write(name, obj):
        path = workdir / name
        path.write_text(json.dumps(obj))
        return str(path)

    configs, plants = [], []
    classes = {}
    rounds = CLI_ROUNDS if scale == "full" else 1
    # The 3x3 configurations and systems are drawn from a constant seed,
    # the same in every run.  Their twelve enumerating jobs (signed, pure,
    # projective, cells, subdivision) are the slowest tenth of a pass, so
    # p90 lies among them; drawn from the workload seed, one cheap draw
    # moved p90 by a third and its spread over ten seeds was 0.16.
    heavy = random.Random("cli-3x3")
    for r in range(rounds):
        k = 4 + r % 3
        plants += ["zero" if r % 2 else "feasible", "negative" if r % 2 else "feasible"]
        feasible, _ = make_digraph(lib, rng, k, plants[-2])
        bad, _ = make_digraph(lib, rng, k, plants[-1])
        shape = ((2, 3), (3, 2), (3, 3))[r % 3]
        v = make_config(lib, heavy if shape == (3, 3) else rng, *shape, generic=r % 2 == 0,
                        inf_cells=1 if shape == (3, 3) else 0)
        v3 = make_config(lib, rng, 3, 2, generic=r % 2 == 1)
        hrng = heavy if r % 2 else rng  # 3x3 systems on odd rounds
        hv = make_config(lib, hrng, 3, 2 + r % 2, generic=True, inf_cells=r % 2)
        configs += [v, v3, hv]
        h = make_system(lib, hrng, hv)
        x = [generic_value(hrng) for _ in range(hv.d)]
        cell = sorted(covector(hv, x, inf))
        g = write(f"g{r}.json", digraph_obj(feasible))
        b = write(f"b{r}.json", digraph_obj(bad))
        c = write(f"v{r}.json", config_obj(v, inf))
        c3 = write(f"t{r}.json", config_obj(v3, inf))
        s = write(f"h{r}.json", {
            "matrix": config_obj(hv, inf),
            "selection": [list(a) for a in sorted(h.psi.arcs)],
        })
        cellf = write(f"c{r}.json", {"d": hv.d, "n": hv.n, "arcs": [list(a) for a in cell]})
        # points go after "--": a leading minus sign would read as an option
        point = ",".join(str(q) for q in [generic_value(rng) for _ in range(v.d)])
        hpoint = ",".join(str(q) for q in x)
        verbs = [
            ["kleene", g], ["feasible", b], ["faces", g], ["rays", b], ["envelope", c],
            ["cells", c], ["subdivision", c], ["member", c, "--", point],
            ["member", "--system", s, "--", hpoint], ["pure", s], ["signed", s],
            ["projective", c], ["tangent", s, cellf],
            ["export-dot", g if r % 2 else c], ["plot-svg", c3],
        ]
        for t, argv in enumerate(verbs):
            out = str(workdir / f"out-{r}-{t}.txt")
            classes.setdefault(f"{t:02d}_{argv[0]}", []).append(
                [_cli_job(lib, launcher, env, argv, out, workdir)]
            )

    def properties(outputs):
        cells = 0
        for job, out in outputs:
            if job.kind == "cells" and isinstance(out, tuple) and out[0] == 0:
                cells += len(json.loads(out[1]))
        return {
            "configurations": len(configs),
            "generic_share": generic_share(lib, configs),
            "inf_entry_share": inf_share(lib, configs),
            "infeasible_digraph_share": plants.count("negative") / len(plants),
            "cells_emitted": cells,
        }

    warm = [Job("warmup", lambda: subprocess.run(
        launcher + ["kleene", str(workdir / "g0.json")], env=env, capture_output=True,
        check=True), lambda out: True)]
    return Workload(classes, warm, properties, trace_jobs=30)


def _cli_job(lib, launcher, env, argv, out_path, workdir):
    """A CLI invocation; output is (exit code, text written with -o)."""
    reference_path = str(workdir / ("ref-" + Path(out_path).name))

    def args(path):
        return argv[:1] + ["-o", path] + argv[1:]

    def read(path):
        return Path(path).read_text(encoding="utf-8") if os.path.exists(path) else None

    # each run removes the previous output first, so that a run that
    # writes nothing cannot pass on an earlier run's file
    def call():
        Path(out_path).unlink(missing_ok=True)
        proc = subprocess.run(launcher + args(out_path), env=env, capture_output=True)
        return proc.returncode, read(out_path)

    def in_process():
        Path(out_path).unlink(missing_ok=True)
        return lib.cli.run(args(out_path)), read(out_path)

    def reference():
        return lib.cli.run(args(reference_path)), read(reference_path)

    ref = once(reference)

    def parsed(text):
        if text is None or argv[0] in ("export-dot", "plot-svg"):
            return text
        return json.loads(text)

    def ok(out):
        code, text = out
        want_code, want_text = ref()
        return code in (0, 1) and code == want_code and parsed(text) == parsed(want_text)

    return Job(argv[0], call, ok, traced=Job(argv[0], in_process, ok))


WORKLOADS = {
    "enumerate": enumerate_workload,
    "halfspace": halfspace_workload,
    "kernel": kernel_workload,
    "cli": cli_workload,
}
