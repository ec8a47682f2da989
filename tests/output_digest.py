"""Print a SHA-256 digest of the reprs of seeded query results.

Run from the root of a checkout, against the source tree to test::

    PYTHONPATH=src python tests/output_digest.py [count]

Two trees that print the same digest return the same values, and raise the
same errors, on these inputs.  There are ``count`` (default 3000) seeded
digraphs and as many configurations, with denominators 1, 3 or 97, ``INF``
entries and ``INF`` point coordinates.  Half of the configuration points lie
on ties: they are tropical combinations of the columns.

Every digraph W gets ``detect_negative_cycle``, ``kleene_star``, ``project``,
``equality_partition``, ``interior_point``, ``membership``, ``cycle_weight``
of its cycle, ``acyclic_reduction``, ``face`` on every other arc and on the
arcs tight at its interior point (with the face's ``equality_partition``),
``intersect`` with its zero weights and with a digraph of one more node, and
``recession`` and ``cone_face_lattice`` of its zero weights.  Its matrix gets
``trop_det`` (the optimal permutations too) and ``trop_mat_mul`` by itself.

Every configuration V gets ``covector_of_point``, ``tcone_membership``,
``halfspace_membership``, ``is_generic``, ``envelope_digraph``, the product
of V and its transpose, and ``Sector.contains`` and
``closed_sector_membership`` at every index from 0 to d + 1 of every column,
with a point of the wrong length, one that is infinite only, and an apex of
the wrong length among them.  ``closed_sector_membership`` skips the indices
where the apex is infinite, which ``Sector`` refuses: its message for them
names the apex coordinate, while older trees named the apex's support.  The
point's covector graph and the system's selection each get the single-face
queries ``covector_closure``, ``is_covector_graph``, ``cell_dimension``,
``interior_point_of_face`` and ``face_projection_matrix``, as does every
torus cell's graph below.

Every tenth configuration also gets the walks ``enumerate_cells``,
``enumerate_covector_graphs``, ``regular_subdivision`` and
``projective_decomposition`` with the ``maximal_cells`` of both cell lists,
and its halfspace system ``signed_cells``, ``is_pure``,
``cells_of_halfspace`` and ``signed_graph`` under three sign vectors; then
``cell_sample_point`` and ``tangent_digraph`` of every cell of the
decomposition, and for every proper row set (the empty one included)
``boundary_matrix`` and the ``cell_boundary_restriction`` of every torus
cell.  Cell reprs carry ``in_tcone``, so boundary cells' cone flags are
hashed too.  Only public names are used, so the script runs on any tree of
the package; ``tests/test_package.py`` checks that it calls every public name
but the few it exempts.
"""

from __future__ import annotations

import hashlib
import itertools
import random
import sys
from fractions import Fraction

from wdpoly import (
    INF,
    BipartiteSupportGraph,
    HalfspaceSystem,
    PointConfig,
    ProjectivePoint,
    Sector,
    SignVector,
    TropicalError,
    WeightedDigraph,
    acyclic_reduction,
    boundary_matrix,
    cell_boundary_restriction,
    cell_dimension,
    cell_sample_point,
    cells_of_halfspace,
    cone_face_lattice,
    covector_closure,
    covector_of_point,
    cycle_weight,
    detect_negative_cycle,
    enumerate_cells,
    enumerate_covector_graphs,
    envelope_digraph,
    equality_partition,
    face,
    face_projection_matrix,
    halfspace_membership,
    interior_point,
    interior_point_of_face,
    intersect,
    is_covector_graph,
    is_generic,
    is_pure,
    kleene_star,
    maximal_cells,
    membership,
    project,
    projective_decomposition,
    closed_sector_membership,
    recession,
    regular_subdivision,
    signed_cells,
    signed_graph,
    tangent_digraph,
    tcone_membership,
    trop_det,
    trop_mat_mul,
)


def _value(rng, den):
    return Fraction(rng.randint(-9, 9), rng.randint(1, den) if den > 1 else 1)


def _outcome(call, *args):
    try:
        return repr(call(*args))
    except TropicalError as exc:
        return f"{type(exc).__name__}: {exc}"


def _in_sector(apex, i, x):
    return Sector(apex, i).contains(x)


def _determinant(m):
    r = trop_det(m)
    perms = r.optimal_permutations
    return r, sorted(perms) if r.value is not INF else len(perms)


def _tight_face(w):
    f = face(w, membership(w, interior_point(w))[1])
    return f, equality_partition(f)


def sector_results(cols, z):
    """Both sector queries at every index of every column, and three misfits."""
    d, zp = len(z), ProjectivePoint.make(z)
    out = []
    for col in cols:
        for i in range(d + 2):
            out.append(_outcome(_in_sector, col, i, z))
            if not 1 <= i <= d or col[i - 1] is not INF:
                out.append(_outcome(closed_sector_membership, zp, col, i))
    i = next(i for i, x in enumerate(cols[0], 1) if x is not INF)
    out += [_outcome(_in_sector, cols[0], i, z + [Fraction(0)]),
            _outcome(_in_sector, cols[0], i, [INF] * d),
            _outcome(closed_sector_membership, zp, cols[0] + [Fraction(0)], i)]
    return out


def digraph_results(rng):
    k, den = rng.randint(1, 7), rng.choice((1, 3, 97))
    arcs = {(i, j): _value(rng, den) for i in range(1, k + 1) for j in range(1, k + 1)
            if rng.random() < 0.4}
    w = WeightedDigraph.make(k, arcs)
    deleted = rng.sample(range(1, k + 1), rng.randint(0, k - 1))
    point = [_value(rng, rng.choice((1, 3, 97))) for _ in range(k)]
    out = [_outcome(f, w) for f in (detect_negative_cycle, kleene_star, equality_partition)]
    out.append(_outcome(project, w, deleted))
    inner = _outcome(interior_point, w)
    out += [inner, _outcome(membership, w, point)]
    cycle = detect_negative_cycle(w)
    if cycle is None:
        out += [_outcome(membership, w, interior_point(w)), _outcome(_tight_face, w)]
    gamma, m = w.zero_weights(), w.to_matrix()
    out += [_outcome(cycle_weight, w, cycle or [1, 1]), _outcome(acyclic_reduction, w),
            _outcome(face, w, sorted(w.arcs)[::2]), _outcome(intersect, w, gamma),
            _outcome(intersect, w, WeightedDigraph.make(k + 1, {})),
            _outcome(_determinant, m), _outcome(trop_mat_mul, m, m)]
    return out + [_outcome(recession, gamma), _outcome(cone_face_lattice, gamma)]


def config_results(rng, walks):
    d, n, den = rng.randint(1, 4), rng.randint(1, 5), rng.choice((1, 3, 97))
    cols = []
    while len(cols) < n:
        col = [INF if rng.random() < 0.25 else _value(rng, den) for _ in range(d)]
        if any(x is not INF for x in col):
            cols.append(col)
    v = PointConfig.make([[cols[j][i] for j in range(n)] for i in range(d)])
    if rng.random() < 0.5:  # a tropical combination of the columns: ties in its covector
        lam = [INF if rng.random() < 0.15 else _value(rng, den) for _ in range(n)]
        z = [min((c[i] + m for c, m in zip(cols, lam) if c[i] is not INF and m is not INF),
                 default=INF) for i in range(d)]
    else:
        z = [INF if rng.random() < 0.2 else _value(rng, rng.choice((1, 3, 97))) for _ in range(d)]
    if all(x is INF for x in z):
        z[0] = Fraction(0)
    finite = [Fraction(0) if x is INF else x for x in z]
    psi = {(i, j) for j, col in enumerate(cols, 1)
           for i in [rng.choice([i for i, x in enumerate(col, 1) if x is not INF])]}
    psi |= {(i, j) for j, col in enumerate(cols, 1) for i, x in enumerate(col, 1)
            if x is not INF and rng.random() < 0.4}
    h = HalfspaceSystem.make(v, BipartiteSupportGraph.make(d, n, psi))
    out = [
        _outcome(covector_of_point, v, finite),
        _outcome(tcone_membership, v, ProjectivePoint.make(z)),
        _outcome(halfspace_membership, h, z),
        _outcome(halfspace_membership, h, finite),
        _outcome(is_generic, v.v),
        _outcome(envelope_digraph, v),
        _outcome(trop_mat_mul, v.v, v.v.transpose()),
        *sector_results(cols, z),
    ]
    out += face_results(v, [covector_of_point(v, finite), h.psi])
    if walks:
        out += walk_results(v, h)
    return out


def face_results(v, graphs):
    """The single-face queries on each graph."""
    queries = (covector_closure, is_covector_graph, cell_dimension, interior_point_of_face,
               face_projection_matrix)
    return [_outcome(f, v, g) for g in graphs for f in queries]


def walk_results(v, h):
    """The walks of V and of its system h, and the per-cell and per-stratum queries."""
    torus, cells = enumerate_cells(v), projective_decomposition(v)
    out = [repr(torus), _outcome(regular_subdivision, v), repr(cells)]
    out += [_outcome(enumerate_covector_graphs, v), _outcome(maximal_cells, torus),
            _outcome(maximal_cells, cells)]
    out += [_outcome(f, h) for f in (signed_cells, is_pure, cells_of_halfspace)]
    for eps in ("+" * v.n, "-" * v.n, ("+-" * v.n)[: v.n]):
        out.append(_outcome(signed_graph, h.psi, SignVector.make(eps), v.support()))
    out += [_outcome(cell_sample_point, v, c) for c in cells]
    out += [_outcome(tangent_digraph, h, c) for c in cells]
    out += face_results(v, [c.graph for c in torus])
    for size in range(v.d):
        for z in itertools.combinations(range(1, v.d + 1), size):
            out.append(_outcome(boundary_matrix, v, z))
            out += [_outcome(cell_boundary_restriction, v, c.graph, z) for c in torus]
    return out


def main(count: int) -> str:
    rng = random.Random(27)
    digest = hashlib.sha256()
    for t in range(count):
        for line in digraph_results(rng) + config_results(rng, t % 10 == 0):
            digest.update(line.encode() + b"\n")
    return digest.hexdigest()


if __name__ == "__main__":
    print(main(int(sys.argv[1]) if len(sys.argv) > 1 else 3000))
