"""Acceptance gate: one test per criterion, each emitting one PASS/FAIL line.

Run with ``pytest -v tests/test_acceptance.py``; every check is exact
(rational arithmetic, zero tolerance).
"""

import itertools
import random
import time
from fractions import Fraction

from wdpoly import (
    BipartiteSupportGraph,
    HalfspaceSystem,
    NodePartition,
    PointConfig,
    SignVector,
    TropicalMatrix,
    WeightedDigraph,
    cells_of_halfspace,
    cone_face_lattice,
    covector_closure,
    covector_of_point,
    detect_negative_cycle,
    enumerate_cells,
    enumerate_covector_graphs,
    equality_partition,
    face,
    face_projection_matrix,
    interior_point_of_face,
    intersect,
    is_generic,
    is_pure,
    kleene_star,
    maximal_cells,
    membership,
    project,
    recession,
    regular_subdivision,
    signed_cells,
    signed_graph,
)
from wdpoly.envelope import envelope_digraph

from oracles import (
    all_partitions,
    lower_hull_cells,
    membership_against,
    nx_partition_qualifies,
    random_config,
    random_digraph,
    residuation_member,
)

W = WeightedDigraph.from_matrix(
    TropicalMatrix.make([[1, 4, 1], [-1, 0, -2], [3, "inf", 2]])
)
V_ENV = PointConfig.make([[0, 0, 0], [1, 1, "inf"], [0, 2, "inf"]])
V_COV = PointConfig.make([[0, 0, 0], [1, 0, "inf"], [2, -1, "inf"]])
V_CLO = PointConfig.make([[0, 0], [1, 2], [1, 1]])
V_PURE = PointConfig.make(
    [[0, 0, 0, 0, 0], [3, 2, 1, "inf", "inf"], [2, 2, "inf", 1, 3]]
)
PSI_PURE = BipartiteSupportGraph.make(3, 5, [(1, 1), (1, 2), (1, 3), (1, 4), (1, 5)])
V_SGN = PointConfig.make(
    [
        [0, 0, 0, "inf", "inf"],
        [1, 0, "inf", 0, "inf"],
        [2, -1, "inf", "inf", 0],
    ]
)
PSI_SGN = BipartiteSupportGraph.make(
    3, 5, [(1, 1), (2, 1), (3, 2), (1, 3), (2, 4), (3, 5)]
)


def report(num, label, ok):
    print(f"criterion {num:02d} ({label}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({label}) failed"


def test_criterion_01_kleene_star_golden():
    t0 = time.monotonic()
    star = kleene_star(W)
    elapsed = time.monotonic() - t0
    expect = TropicalMatrix.make([[0, 4, 1], [-1, 0, -2], [3, 7, 0]])
    report(1, "kleene star golden", star == expect and elapsed < 1.0)


def test_criterion_02_face_golden():
    f = face(W, {(2, 3)})
    ok = f.to_matrix() == TropicalMatrix.make([[1, 4, 1], [-1, 0, -2], [3, 2, 2]])
    ok = ok and equality_partition(f).blocks == ((1,), (2, 3))
    report(2, "face and equality partition golden", ok)


def test_criterion_03_envelope_golden():
    verts = set()
    for c in regular_subdivision(V_ENV):
        g = BipartiteSupportGraph(V_ENV.d, V_ENV.n, c.vertices)
        y, z = interior_point_of_face(V_ENV, g)
        shift = y[0]
        verts.add(tuple(q - shift for q in y + z))
    ok = verts == {(0, 1, 0, 0, 0, 0), (0, 1, 2, 2, 0, 0)}

    rec = recession(envelope_digraph(V_ENV))
    supports = set()
    for ray in rec.ray_generators:
        rows = frozenset(i + 1 for i in range(3) if ray[i])
        cols = frozenset(j + 1 for j in range(3) if ray[3 + j])
        supports.add((rows, cols))
    f = frozenset
    ok = ok and supports == {
        (f(), f({1})),
        (f(), f({2})),
        (f(), f({3})),
        (f({1, 2}), f({1, 2, 3})),
        (f({1, 3}), f({1, 2, 3})),
        (f({2, 3}), f({1, 2})),
    }
    ok = ok and (0, 1, 1, 1, 1, 0) in rec.ray_generators
    report(3, "envelope vertices and rays golden", ok)


def test_criterion_04_projection_golden():
    g = BipartiteSupportGraph.make(3, 3, [(1, 3), (2, 2), (3, 1)])
    got = face_projection_matrix(V_ENV, g)
    expect = TropicalMatrix.make([[0, -1, 0], ["inf", 0, 1], ["inf", 1, 0]])
    report(4, "face projection golden", got == expect)


def test_criterion_05_covector_golden_with_grid_oracle():
    cells = enumerate_cells(V_COV)
    catalog = {c.graph.arcs: c for c in cells}
    tcone = [c for c in cells if c.in_tcone]
    tops = [
        c
        for c in tcone
        if not any(o is not c and o.graph.arcs < c.graph.arcs for o in tcone)
    ]
    got = {(c.tuple_string(), c.dimension) for c in tops}
    ok = got == {("(3,1,2)", 2), ("(13,2,2)", 1)}

    # 41 x 41 grid over [-4,4]^2 in the plane x_1 = 0
    step = Fraction(1, 5)
    seen_max = False
    for a in range(-20, 21):
        for b in range(-20, 21):
            x = (Fraction(0), a * step, b * step)
            g = covector_of_point(V_COV, x)
            cell = catalog.get(g.arcs)
            if cell is None:
                ok = False
                break
            if cell.tuple_string() == "(3,1,2)":
                seen_max = True
            # cone membership must agree with the covector criterion
            rows_covered = len({i for (i, _) in g.arcs}) == V_COV.d
            if rows_covered != residuation_member(V_COV, x):
                ok = False
                break
        if not ok:
            break
    ok = ok and seen_max
    report(5, "covector decomposition golden, 41x41 grid oracle", ok)


def test_criterion_06_closure_golden():
    g = BipartiteSupportGraph.make(3, 2, [(1, 1), (3, 2)])
    closed = covector_closure(V_CLO, g)
    report(6, "covector closure golden", closed.arcs - g.arcs == {(3, 1), (1, 2)})


def test_criterion_07_subdivision_matches_lower_hull_oracle():
    t0 = time.monotonic()
    rng = random.Random(101)
    ok = True
    for _ in range(25):
        v = random_config(rng, rng.randint(1, 3), rng.randint(1, 4))
        graphs = enumerate_covector_graphs(v)
        maximal = {c.vertices for c in regular_subdivision(v)}
        if maximal != lower_hull_cells(v):
            ok = False
            break
        # order-reversing face correspondence: every covector graph lies
        # under a maximal one, and larger graphs label smaller faces
        for g in graphs:
            if not any(g.arcs <= m for m in maximal):
                ok = False
            for h in graphs:
                if g.arcs < h.arcs and (
                    g.weak_component_count() < h.weak_component_count()
                ):
                    ok = False
        if not ok:
            break
    elapsed = time.monotonic() - t0
    report(7, "structure theorem vs lower hull oracle", ok and elapsed < 60.0)


def test_criterion_08_purity_theorem():
    rng = random.Random(103)
    ok = True
    done = 0
    while done < 50:
        d, n = 3, rng.randint(1, 4)
        v = PointConfig.make(
            [[Fraction(rng.randint(-60, 60)) for _ in range(n)] for _ in range(d)]
        )
        generic, _ = is_generic(v.v)
        if not generic:
            continue
        psi_arcs = []
        for j in range(1, n + 1):
            size = rng.randint(1, d - 1)
            psi_arcs.extend(
                (i, j) for i in rng.sample(range(1, d + 1), size)
            )
        h = HalfspaceSystem.make(
            v, BipartiteSupportGraph.make(d, n, psi_arcs), require_proper=True
        )
        cells = cells_of_halfspace(h)
        if not cells:
            # a random selection may cut out the empty set; the purity
            # statement concerns nonempty intersections
            continue
        pure, _ = is_pure(h)
        tops = maximal_cells(cells)
        if not (pure and all(c.dimension == d - 1 for c in tops)):
            ok = False
            break
        done += 1

    # the converse fails: this instance is pure but not generic
    h = HalfspaceSystem.make(V_PURE, PSI_PURE, require_proper=True)
    pure, _ = is_pure(h)
    generic, _ = is_generic(V_PURE.v)
    ok = ok and pure and not generic
    report(8, "purity theorem and converse failure", ok)


def test_criterion_09_signed_cells():
    h = HalfspaceSystem.make(V_SGN, PSI_SGN)
    table = signed_cells(h)
    torus_nonempty = {
        eps
        for eps, cells in table.items()
        if any(not c.stratum for c in cells)
    }
    ok = len(table) == 32 and torus_nonempty == {"+++++", "-++++", "+-+++"}

    # generic points fall into exactly one inversion
    rng = random.Random(107)
    support = V_SGN.support()
    graphs = {
        eps: signed_graph(PSI_SGN, SignVector.make(eps), support)
        for eps in ("".join(t) for t in itertools.product("+-", repeat=5))
    }
    covered = 0
    while covered < 500:
        pt = [Fraction(rng.randint(-200, 200), 7) for _ in range(3)]
        generic_pt = True
        for j in range(1, V_SGN.n + 1):
            vals = sorted(
                pt[i - 1] - V_SGN.entry(i, j) for i in V_SGN.column_support(j)
            )
            if len(vals) > 1 and vals[-1] == vals[-2]:
                generic_pt = False
                break
        if not generic_pt:
            continue
        hits = sum(
            1 for g in graphs.values() if membership_against(V_SGN, g, pt)
        )
        if hits != 1:
            ok = False
            break
        covered += 1
    report(9, "signed cells: 3 of 32 inversions, unique coverage", ok)


def test_criterion_10_partition_oracle():
    rng = random.Random(109)
    ok = True
    for _ in range(100):
        gamma = random_digraph(rng, rng.randint(1, 5), density=0.45).zero_weights()
        lat = cone_face_lattice(gamma)
        expected = {
            NodePartition.make(gamma.k, blocks).blocks
            for blocks in all_partitions(range(1, gamma.k + 1))
            if nx_partition_qualifies(gamma, blocks)
        }
        if {p.blocks for p in lat.elements} != expected:
            ok = False
            break
        for p in lat.elements:
            tight = {
                (i, j)
                for (i, j) in gamma.arcs
                if p.block_of(i) == p.block_of(j)
            }
            if len(equality_partition(face(gamma, tight))) != len(p.blocks):
                ok = False
                break
        if not ok:
            break
    report(10, "cone face lattice vs partition oracle", ok)


def test_criterion_11_algebraic_invariants():
    rng = random.Random(113)
    ok = True

    # Kleene idempotence on random feasible digraphs
    done = 0
    while done < 20:
        w = random_digraph(rng, rng.randint(1, 5), lo=-2, hi=5)
        if detect_negative_cycle(w) is not None:
            continue
        star = kleene_star(w)
        if kleene_star(WeightedDigraph.from_matrix(star)) != star:
            ok = False
        done += 1

    # Q(W) = Q(W*) on 1000 sampled points
    star_graph = WeightedDigraph.from_matrix(kleene_star(W))
    for _ in range(1000):
        x = [Fraction(rng.randint(-8, 8), rng.choice([1, 2, 3])) for _ in range(3)]
        if membership(W, x)[0] != membership(star_graph, x)[0]:
            ok = False
            break

    # intersection and projection membership lemmas
    u = random_digraph(rng, 4, density=0.5)
    w2 = random_digraph(rng, 4, density=0.5)
    both = intersect(u, w2)
    proj = None
    if detect_negative_cycle(w2) is None:
        proj = project(w2, {4})
    for _ in range(1000):
        x = [Fraction(rng.randint(-6, 6)) for _ in range(4)]
        if membership(both, x)[0] != (membership(u, x)[0] and membership(w2, x)[0]):
            ok = False
            break
        if proj is not None and membership(w2, x)[0]:
            if not membership(proj, x[:3])[0]:
                ok = False
                break
    report(11, "algebraic invariant suite", ok)
