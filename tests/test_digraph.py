"""Weighted digraphs: feasibility, stars, faces, recession, face lattices."""

import copy
import pickle
import random
from fractions import Fraction

import networkx as nx
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import wdpoly.digraph
from wdpoly import (
    INF,
    DomainError,
    InconsistentFaceError,
    InfeasibleError,
    NodePartition,
    ShapeError,
    TropicalMatrix,
    ValueTypeError,
    WeightedDigraph,
    acyclic_reduction,
    cone_face_lattice,
    cycle_weight,
    detect_negative_cycle,
    equality_partition,
    face,
    interior_point,
    intersect,
    kleene_star,
    membership,
    project,
    recession,
)
from wdpoly.digraph import strong_components, weak_components

from oracles import (
    all_partitions,
    bellman_ford_cycle,
    interior_point_by_dense_completion,
    kleene_by_powers,
    membership_by_fractions,
    min_cycle_weight,
    nx_digraph,
    nx_partition_qualifies,
    project_by_submatrix,
    random_digraph,
    rays_by_subsets,
)

M = TropicalMatrix.make

# the running 3-node example: loops 1 and 2, a 2-cycle, and chords
W_EX = WeightedDigraph.from_matrix(M([[1, 4, 1], [-1, 0, -2], [3, "inf", 2]]))


def test_make_drops_infinite_arcs_and_validates():
    w = WeightedDigraph.make(2, {(1, 2): "inf", (2, 1): 3})
    assert (1, 2) not in w.arcs
    assert w.weight(2, 1) == Fraction(3)
    with pytest.raises(DomainError):
        WeightedDigraph.make(2, {(1, 3): 0})


def test_matrix_round_trip():
    assert WeightedDigraph.from_matrix(W_EX.to_matrix()) == W_EX


def test_kleene_star_golden():
    star = kleene_star(W_EX)
    assert star == M([[0, 4, 1], [-1, 0, -2], [3, 7, 0]])


def test_negative_cycle_detected_with_witness():
    w = WeightedDigraph.make(3, {(1, 2): 1, (2, 3): -2, (3, 1): 0})
    cyc = detect_negative_cycle(w)
    assert cyc is not None
    assert cyc[0] == cyc[-1]
    assert cycle_weight(w, cyc) < 0
    with pytest.raises(InfeasibleError):
        kleene_star(w)


def test_cycle_weight_takes_only_closed_node_sequences():
    w = WeightedDigraph.make(3, {(1, 2): 1, (2, 3): -1, (3, 1): 0})
    assert cycle_weight(w, [1, 2, 3, 1]) == 0
    for bad in ([1.0, 2.0], 5, "121", [1, (2,), 1]):
        with pytest.raises(ValueTypeError):
            cycle_weight(w, bad)
    for bad in ([1, 2], [1], []):
        with pytest.raises(DomainError):
            cycle_weight(w, bad)


def test_feasibility_matches_simple_cycle_oracle():
    rng = random.Random(7)
    for _ in range(120):
        w = random_digraph(rng, rng.randint(1, 5))
        best = min_cycle_weight(w)
        infeasible = best is not None and best < 0
        assert (detect_negative_cycle(w) is not None) == infeasible


def test_kleene_star_matches_power_oracle():
    rng = random.Random(11)
    done = 0
    while done < 60:
        w = random_digraph(rng, rng.randint(1, 5), lo=-2, hi=5)
        if detect_negative_cycle(w) is not None:
            with pytest.raises(InfeasibleError) as exc:
                kleene_star(w)
            assert cycle_weight(w, exc.value.cycle) < 0
            continue
        assert kleene_star(w) == kleene_by_powers(w)
        done += 1


def test_kleene_star_is_idempotent():
    star = kleene_star(W_EX)
    assert kleene_star(WeightedDigraph.from_matrix(star)) == star


def test_equality_partition_trivial_without_zero_cycles():
    assert equality_partition(W_EX).blocks == ((1,), (2,), (3,))


def test_face_golden_and_partition():
    f = face(W_EX, {(2, 3)})
    assert f.to_matrix() == M([[1, 4, 1], [-1, 0, -2], [3, 2, 2]])
    assert equality_partition(f).blocks == ((1,), (2, 3))


def test_face_rejects_missing_and_inconsistent_arcs():
    with pytest.raises(DomainError):
        face(W_EX, {(2, 3), (3, 2)})  # (3,2) is not an arc
    w = WeightedDigraph.make(2, {(1, 2): 1, (2, 1): 1})
    with pytest.raises(InconsistentFaceError):
        face(w, {(1, 2), (2, 1)})
    # antiparallel tight arcs are fine when the weights cancel
    ok = WeightedDigraph.make(2, {(1, 2): 1, (2, 1): -1})
    assert face(ok, {(1, 2), (2, 1)}).weight(2, 1) == Fraction(-1)


def test_membership_and_tight_set():
    ok, tight = membership(W_EX, [0, -1, 3])
    assert ok
    # the zero-weight loop at 2 and the arcs (2,1), (3,1) are attained
    assert tight == {(2, 1), (2, 2), (3, 1)}
    bad, _ = membership(W_EX, [10, 0, 0])
    assert not bad
    # coordinates are exact and finite
    with pytest.raises(TypeError):
        membership(W_EX, [0.0, -1, 3])
    with pytest.raises(DomainError):
        membership(W_EX, [0, INF, 3])


def test_star_columns_lie_in_the_polyhedron():
    star = kleene_star(W_EX)
    for s in range(1, 4):
        ok, _ = membership(W_EX, star.col(s))
        assert ok


def test_membership_agrees_between_w_and_its_star():
    rng = random.Random(23)
    star_graph = WeightedDigraph.from_matrix(kleene_star(W_EX))
    for _ in range(300):
        x = [Fraction(rng.randint(-6, 6), rng.choice([1, 2])) for _ in range(3)]
        assert membership(W_EX, x)[0] == membership(star_graph, x)[0]


def test_interior_point_is_tight_exactly_on_forced_arcs():
    rng = random.Random(31)
    done = 0
    while done < 40:
        w = random_digraph(rng, rng.randint(1, 5), lo=-2, hi=4)
        if detect_negative_cycle(w) is not None:
            continue
        pt = interior_point(w)
        ok, tight = membership(w, pt)
        assert ok
        star = kleene_star(w)
        forced = {
            (i, j)
            for (i, j), wt in w.arcs.items()
            if star.entry(j, i) is not INF and wt + star.entry(j, i) == 0
        }
        assert tight == forced
        done += 1


def test_shortest_path_kernel_on_rational_weights():
    """Weights p/q with q in 1..3, so the kernel's LCM scaling is not 1."""
    rng = random.Random(59)
    feasible = infeasible = 0
    for _ in range(200):
        w = random_digraph(rng, rng.randint(1, 5), density=0.6, lo=-2, hi=4, den=3)
        best = min_cycle_weight(w)
        cyc = detect_negative_cycle(w)
        assert (cyc is not None) == (best is not None and best < 0)
        if cyc is not None:
            assert cycle_weight(w, cyc) < 0
            with pytest.raises(InfeasibleError) as exc:
                kleene_star(w)
            assert exc.value.cycle == cyc
            infeasible += 1
            continue
        star = kleene_by_powers(w)
        assert kleene_star(w) == star
        zero = [
            (i, j)
            for (i, j) in w.arcs
            if star.entry(j, i) is not INF and w.arcs[(i, j)] + star.entry(j, i) == 0
        ]
        ok, tight = membership(w, interior_point(w))
        assert ok and tight == set(zero)
        assert equality_partition(w).blocks == tuple(
            weak_components(w.k, [a for a in zero if a[0] != a[1]])
        )
        feasible += 1
    assert feasible >= 50 and infeasible >= 20


def test_intersection_membership_lemma():
    rng = random.Random(37)
    u = random_digraph(rng, 4, density=0.4)
    w = random_digraph(rng, 4, density=0.4)
    both = intersect(u, w)
    for _ in range(200):
        x = [Fraction(rng.randint(-5, 5)) for _ in range(4)]
        assert membership(both, x)[0] == (membership(u, x)[0] and membership(w, x)[0])


def test_projection_golden_and_membership():
    w = WeightedDigraph.make(3, {(1, 2): 2, (2, 3): 1, (3, 1): 0})
    p = project(w, {3})
    # the shortest path 1 -> 2 has length 2, 2 -> 1 goes through node 3
    assert p.weight(1, 2) == Fraction(2)
    assert p.weight(2, 1) == Fraction(1)
    rng = random.Random(41)
    for _ in range(100):
        x = [Fraction(rng.randint(-4, 4)) for _ in range(3)]
        if membership(w, x)[0]:
            assert membership(p, x[:2])[0]


@st.composite
def _digraphs_and_points(draw):
    """k <= 7 nodes, weights p/q with q up to 97, a finite point, drawn or planted on a
    tie x_i - x_j = w_ij of one arc, and the nodes a projection deletes."""
    k = draw(st.integers(1, 7))
    node = st.integers(1, k)
    rational = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 97))
    arcs = draw(st.dictionaries(st.tuples(node, node), rational, max_size=k * k))
    w, x = WeightedDigraph.make(k, arcs), draw(st.lists(rational, min_size=k, max_size=k))
    if w.arcs and draw(st.booleans()):
        (i, j), wt = draw(st.sampled_from(sorted(w.arcs.items())))
        if i != j:
            x[j - 1] = x[i - 1] - wt
    return w, x, draw(st.sets(node, max_size=k - 1))


@settings(max_examples=300, deadline=None)
@given(_digraphs_and_points())
@example((WeightedDigraph.make(2, {(1, 2): "1/97", (2, 1): "-1/97"}), ["1/3", "94/291"], {1}))
def test_int_membership_and_projection_match_the_fraction_oracles(case):
    w, x, deleted = case
    assert membership(w, x) == membership_by_fractions(w, x)
    if detect_negative_cycle(w) is not None:
        return
    # the interior point is tight exactly on the arcs of zero-weight cycles
    inner = interior_point(w)
    assert membership(w, inner) == membership_by_fractions(w, inner)
    got, want = project(w, deleted), project_by_submatrix(w, deleted)
    assert got == want and repr(got) == repr(want)


def test_project_validates_index_sets():
    with pytest.raises(DomainError):
        project(W_EX, {1, 2, 3})
    with pytest.raises(DomainError):
        project(W_EX, {4})


def test_recession_of_a_directed_path():
    w = WeightedDigraph.make(3, {(1, 2): 5, (2, 3): -1})
    rec = recession(w)
    assert rec.lineality_generators == ((1, 1, 1),)
    assert set(rec.ray_generators) == {(0, 0, 1), (0, 1, 1)}
    # the rays of a path 1 -> ... -> k are the suffixes {s..k}; listing them must not try
    # all 2^40 - 2 subsets
    rec = recession(WeightedDigraph.make(40, {(i, i + 1): 0 for i in range(1, 40)}))
    assert rec.lineality_generators == ((1,) * 40,)
    assert rec.ray_generators == tuple(
        sorted(tuple(int(v >= s) for v in range(1, 41)) for s in range(2, 41)))


def test_recession_of_a_cycle_is_lineality_only():
    w = WeightedDigraph.make(3, {(1, 2): 0, (2, 3): 0, (3, 1): 0})
    rec = recession(w)
    assert rec.lineality_generators == ((1, 1, 1),)
    assert rec.ray_generators == ()


def test_recession_pinned_examples():
    def rays(k, arcs):
        rec = recession(WeightedDigraph.make(k, dict.fromkeys(arcs, 0)))
        return rec.lineality_generators, rec.ray_generators

    # in-star, leaves -> hub: one ray per leaf, everything but that leaf
    assert rays(4, [(2, 1), (3, 1), (4, 1)]) == (
        ((1, 1, 1, 1),), ((1, 0, 1, 1), (1, 1, 0, 1), (1, 1, 1, 0)))
    # out-star, hub -> leaves: one ray per leaf, the leaf alone
    assert rays(4, [(1, 2), (1, 3), (1, 4)]) == (
        ((1, 1, 1, 1),), ((0, 0, 0, 1), (0, 0, 1, 0), (0, 1, 0, 0)))
    # alternating path 1 -> 2 <- 3 -> 4: cutting one arc, the ray is its head's side
    assert rays(4, [(1, 2), (3, 2), (3, 4)]) == (
        ((1, 1, 1, 1),), ((0, 0, 0, 1), (0, 1, 1, 1), (1, 1, 0, 0)))
    # a loop plays no part: a loop alone is lineality only, and beside an arc it changes nothing
    assert rays(1, [(1, 1)]) == (((1,),), ())
    assert rays(2, [(1, 1), (1, 2)]) == rays(2, [(1, 2)]) == (((1, 1),), ((0, 1),))
    # an isolated node is its own lineality generator and carries no ray
    assert rays(3, [(1, 2)]) == (((1, 1, 0), (0, 0, 1)), ((0, 1, 0),))
    # k = 1
    assert rays(1, []) == (((1,),), ())
    # a diamond 1 -> 2 -> 4, 1 -> 3 -> 4: the ray {2, 3, 4} is two steps from {} (via {2, 4} or
    # {3, 4}), because no node of it reaches both heads 2 and 3 of the cut arcs
    assert rays(4, [(1, 2), (1, 3), (2, 4), (3, 4)]) == (
        ((1, 1, 1, 1),), ((0, 0, 0, 1), (0, 0, 1, 1), (0, 1, 0, 1), (0, 1, 1, 1)))
    # two weak components with rays in both: an arc 1 -> 2 and an in-star 3 -> 4 <- 5
    assert rays(5, [(1, 2), (3, 4), (5, 4)]) == (
        ((1, 1, 0, 0, 0), (0, 0, 1, 1, 1)),
        ((0, 0, 0, 1, 1), (0, 0, 1, 1, 0), (0, 1, 0, 0, 0)),
    )


def test_recession_matches_the_subset_oracle():
    rng = random.Random(20)
    digraphs = []
    for _ in range(3000):
        k, density = rng.randint(1, 9), rng.choice([0.05, 0.1, 0.2, 0.3, 0.45, 0.6, 0.7])
        cut = rng.randint(1, k) if rng.random() < 0.4 else k  # no arc crosses a cut below k
        arcs = {
            (i, j): rng.randint(-3, 3)
            for i in range(1, k + 1)
            for j in range(1, k + 1)
            if (i <= cut) == (j <= cut) and rng.random() < density
        }
        digraphs.append(WeightedDigraph.make(k, arcs))
    for k in range(1, 13):
        for arcs in (
            {(i, i + 1): 0 for i in range(1, k)},
            {((i, i + 1) if i % 2 else (i + 1, i)): 0 for i in range(1, k)},
            {(i, 1): 0 for i in range(2, k + 1)},
            {(1, i): 0 for i in range(2, k + 1)},
            {(i, i % k + 1): 0 for i in range(1, k + 1)},
            {},
        ):
            digraphs.append(WeightedDigraph.make(k, arcs))
    for w in digraphs:
        rec, expect = recession(w), rays_by_subsets(w)
        assert rec == expect and repr(rec) == repr(expect), w


@st.composite
def _split_digraphs(draw):
    """k <= 7 nodes with loops; half the time no arc crosses a random cut."""
    k = draw(st.integers(1, 7))
    node = st.integers(1, k)
    arcs = draw(st.dictionaries(st.tuples(node, node), st.integers(-2, 2), max_size=2 * k))
    cut = draw(st.integers(1, k))
    if draw(st.booleans()):
        arcs = {(i, j): x for (i, j), x in arcs.items() if (i <= cut) == (j <= cut)}
    return WeightedDigraph.make(k, arcs)


@settings(max_examples=150, deadline=None)
@given(_split_digraphs())
def test_rays_split_one_block_of_the_minimal_face(w):
    # the rays are the faces one block above the lineality space: splitting the weak
    # component C that holds K into K and C - K gives a lattice element, and every element
    # with one block more than the minimum arises so
    lat = cone_face_lattice(w.zero_weights())
    above = {p.blocks for p in lat.elements if len(p) == len(lat.minimum) + 1}
    split = set()
    for ray in recession(w).ray_generators:
        kset = {v for v in range(1, w.k + 1) if ray[v - 1]}
        comp = next(b for b in lat.minimum.blocks if kset <= set(b))
        rest = [b for b in lat.minimum.blocks if b != comp]
        split.add(NodePartition.make(w.k, rest + [kset, set(comp) - kset]).blocks)
    assert split == above


def test_node_partition_refinement():
    fine = NodePartition.make(4, [[1], [2], [3, 4]])
    coarse = NodePartition.make(4, [[1, 2], [3, 4]])
    assert fine.refines(coarse)
    assert not coarse.refines(fine)
    with pytest.raises(DomainError):
        NodePartition.make(3, [[1, 2]])
    with pytest.raises(ShapeError):
        NodePartition.make(3, [[1, 2, 3]]).refines(NodePartition.make(2, [[1, 2]]))
    with pytest.raises(ShapeError):
        NodePartition.make(2, [[1, 2]]).refines(NodePartition.make(3, [[1, 2, 3]]))


def test_cone_face_lattice_of_a_path():
    gamma = WeightedDigraph.make(3, {(1, 2): 0, (2, 3): 0})
    lat = cone_face_lattice(gamma)
    got = {p.blocks for p in lat.elements}
    assert got == {
        ((1,), (2,), (3,)),
        ((1, 2), (3,)),
        ((1,), (2, 3)),
        ((1, 2, 3),),
    }
    assert lat.minimum.blocks == ((1, 2, 3),)
    assert lat.top.blocks == ((1,), (2,), (3,))
    assert lat.face_dimension(lat.top) == 3
    with pytest.raises(ShapeError):
        lat.face_dimension(NodePartition.make(5, [[1], [2], [3], [4], [5]]))


def test_cone_face_lattice_of_a_cycle_is_a_point():
    gamma = WeightedDigraph.make(3, {(1, 2): 0, (2, 3): 0, (3, 1): 0})
    lat = cone_face_lattice(gamma)
    assert [p.blocks for p in lat.elements] == [((1, 2, 3),)]


def test_cone_face_lattice_matches_partition_oracle():
    # 3->2 and 4->1 close a cycle through the blocks {1, 3} and {2, 4} that no path of
    # original arcs shows: a flood along those arcs would accept the partition
    pinned = WeightedDigraph.make(4, dict.fromkeys([(3, 1), (3, 2), (4, 1), (4, 2)], 0))
    assert ((1, 3), (2, 4)) not in {p.blocks for p in cone_face_lattice(pinned).elements}
    rng = random.Random(43)
    gammas = [pinned]
    for _ in range(40):
        k, density = rng.randint(1, 7), rng.choice([0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7])
        # loops and antiparallel pairs are drawn like any other arc
        arcs = [(i, j) for i in range(1, k + 1) for j in range(1, k + 1) if rng.random() < density]
        gammas.append(WeightedDigraph.make(k, dict.fromkeys(arcs, 0)))
    for gamma in gammas:
        lat = cone_face_lattice(gamma)
        expected = {
            NodePartition.make(gamma.k, blocks).blocks
            for blocks in all_partitions(range(1, gamma.k + 1))
            if nx_partition_qualifies(gamma, blocks)
        }
        assert {p.blocks for p in lat.elements} == expected
        g = nx.DiGraph(list(gamma.arcs))
        g.add_nodes_from(range(1, gamma.k + 1))
        for part, components in (
            (lat.minimum, nx.weakly_connected_components(g)),
            (lat.top, nx.strongly_connected_components(g)),
        ):
            assert part == NodePartition.make(gamma.k, [tuple(c) for c in components])


def test_lattice_dimensions_match_equality_partitions():
    rng = random.Random(47)
    for _ in range(10):
        gamma = random_digraph(rng, 4, density=0.4).zero_weights()
        lat = cone_face_lattice(gamma)
        for p in lat.elements:
            tight = {
                (i, j)
                for (i, j) in gamma.arcs
                if p.block_of(i) == p.block_of(j)
            }
            f = face(gamma, tight)
            assert len(equality_partition(f)) == len(p.blocks)


def test_acyclic_reduction():
    gamma = WeightedDigraph.make(
        4, {(1, 2): 3, (2, 1): -3, (2, 3): 1, (1, 3): 5, (3, 4): 0}
    )
    reduced, part = acyclic_reduction(gamma)
    assert part.blocks == ((1, 2), (3,), (4,))
    assert reduced.weight(1, 2) == Fraction(1)  # min of the two cross arcs
    assert reduced.weight(2, 3) == Fraction(0)
    assert detect_negative_cycle(reduced) is None


def test_component_helpers():
    arcs = [(1, 2), (2, 1), (3, 4)]
    assert weak_components(5, arcs) == [(1, 2), (3, 4), (5,)]
    assert strong_components(5, arcs) == [(1, 2), (3,), (4,), (5,)]


def test_weak_components_match_networkx():
    rng = random.Random(43)
    for _ in range(300):
        w = random_digraph(rng, rng.randint(1, 10), density=rng.choice([0.03, 0.1, 0.2, 0.4]))
        expect = sorted(tuple(sorted(c)) for c in nx.weakly_connected_components(nx_digraph(w)))
        assert weak_components(w.k, w.arcs) == expect


# listed out of row order, with tied paths through two negative cycles
_TIED = [((4, 2), 0), ((3, 2), 2), ((1, 3), -1), ((3, 1), 1), ((2, 4), -1), ((1, 2), 1),
         ((4, 1), -2), ((1, 1), 1), ((1, 4), 0)]


def test_interior_point_matches_the_dense_completion():
    # the sparse star, completed by at most one big-M arc per path, gives the dense
    # completion's point, and for an empty Q(W) the same negative cycle
    rng = random.Random(41)
    digraphs = [WeightedDigraph.make(4, _TIED)]
    for _ in range(1500):
        k, density, hi = rng.randint(1, 8), rng.choice([0.1, 0.3, 0.6]), rng.choice([2, 2, 9, 1000])
        arcs = [
            ((i, j), Fraction(rng.randint(-hi, hi), rng.choice([1, 1, 3])))
            for i in range(1, k + 1)
            for j in range(1, k + 1)
            if rng.random() < (0.1 if i == j else density)
        ]
        rng.shuffle(arcs)
        digraphs.append(WeightedDigraph.make(k, arcs))
    infeasible = 0
    for w in digraphs:
        try:
            want = interior_point_by_dense_completion(w)
        except InfeasibleError as exc:
            infeasible += 1
            with pytest.raises(InfeasibleError) as got:
                interior_point(w)
            assert str(got.value) == str(exc) and got.value.cycle == exc.cycle
            continue
        got = interior_point(w)
        assert got == want and repr(got) == repr(want)
    assert 200 < infeasible < 1300


@st.composite
def _weighted_digraphs(draw):
    """k <= 12 nodes, arcs with loops, weights in -2..2; unused nodes stay isolated."""
    k = draw(st.integers(1, 12))
    node = st.integers(1, k)
    arcs = draw(st.dictionaries(st.tuples(node, node), st.integers(-2, 2), max_size=3 * k))
    return WeightedDigraph.make(k, arcs)


@settings(max_examples=300, deadline=None)
@given(_weighted_digraphs())
def test_strong_components_match_networkx(w):
    expect = sorted(tuple(sorted(c)) for c in nx.strongly_connected_components(nx_digraph(w)))
    assert strong_components(w.k, w.arcs) == expect
    reduced, part = acyclic_reduction(w)
    assert list(part.blocks) == expect
    block = {v: t for t, b in enumerate(part.blocks, start=1) for v in b}
    cross = {(block[i], block[j]) for i, j in w.arcs if block[i] != block[j]}
    assert reduced.k == len(expect) and set(reduced.arcs) == cross
    assert nx.is_directed_acyclic_graph(nx_digraph(reduced))


def test_strong_components_refuse_arcs_outside_the_nodes():
    for arcs in ([(0, 1)], [(1, 3)], [(1, -1)]):
        with pytest.raises(DomainError):
            strong_components(2, arcs)


@st.composite
def _rational_digraphs(draw):
    """k <= 7 nodes, loops and antiparallel pairs, weights p/q with q in 1..3."""
    k = draw(st.integers(1, 7))
    node = st.integers(1, k)
    weight = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
    return WeightedDigraph.make(k, draw(st.dictionaries(st.tuples(node, node), weight, max_size=k * k)))


def _assert_simple_negative_cycle_of(w, cycle):
    assert cycle[0] == cycle[-1] and len(set(cycle)) == len(cycle) - 1
    assert all((a, b) in w.arcs for a, b in zip(cycle, cycle[1:]))
    assert cycle_weight(w, cycle) < 0


@settings(max_examples=400, deadline=None)
@given(_rational_digraphs(), st.data())
def test_every_witness_is_a_simple_negative_cycle_against_bellman_ford(w, data):
    cycle = detect_negative_cycle(w)
    oracle = bellman_ford_cycle(w)
    assert (cycle is None) == (oracle is None)
    if cycle is None:
        return
    _assert_simple_negative_cycle_of(w, cycle)
    deleted = data.draw(st.sets(st.integers(1, w.k), max_size=w.k - 1))
    # interior_point adds big-M arcs to W, which a witness must never use
    for call in (kleene_star, equality_partition, interior_point, lambda w: project(w, deleted)):
        with pytest.raises(InfeasibleError) as exc:
            call(w)
        _assert_simple_negative_cycle_of(w, exc.value.cycle)


@settings(max_examples=300, deadline=None)
@given(_weighted_digraphs(), st.randoms(use_true_random=False))
@example(WeightedDigraph.make(4, _TIED), random.Random(0))
def test_each_call_names_one_cycle_under_any_order_of_the_arcs(w, rnd):
    def named(call, arcs):
        try:
            out = call(WeightedDigraph.make(w.k, arcs))
        except InfeasibleError as exc:
            return exc.cycle
        return out if call is detect_negative_cycle else None

    items = list(w.arcs.items())
    orders = [items, sorted(items)] + [rnd.sample(items, len(items)) for _ in range(4)]
    for call in (detect_negative_cycle, kleene_star, equality_partition, interior_point):
        cycles = [named(call, arcs) for arcs in orders]
        assert all(c == cycles[0] for c in cycles), call.__name__


def test_witness_leaves_zero_weight_cycles_below_its_top_node():
    # from node 2 the arc back to 1 is as tight as the arc on to 3
    w = WeightedDigraph.make(3, {(3, 1): -1, (1, 2): 0, (2, 1): 0, (2, 3): 0})
    assert detect_negative_cycle(w) == [3, 1, 2, 3]


# ---------------------------------------------------------------------------
# the kept solve: one Floyd-Warshall pass per digraph, read by the five star queries


def _five_queries(deleted=()):
    return {
        "detect_negative_cycle": detect_negative_cycle,
        "kleene_star": kleene_star,
        "equality_partition": equality_partition,
        "project": lambda w: project(w, deleted),
        "interior_point": interior_point,
    }


def _answer(call, w):
    try:
        return "value", call(w)
    except InfeasibleError as exc:
        return "raised", str(exc), exc.cycle


def test_the_five_star_queries_run_one_pass_per_digraph(monkeypatch):
    passes = []
    star = wdpoly.digraph._star
    monkeypatch.setattr(wdpoly.digraph, "_star", lambda k, arcs: passes.append(k) or star(k, arcs))
    feasible = WeightedDigraph.make(3, {(1, 2): 4, (2, 1): -1, (2, 3): -2, (3, 1): 3})
    negative = WeightedDigraph.make(3, {(1, 2): 1, (2, 3): -2, (3, 1): 0})
    for w in (feasible, negative):
        for _ in range(2):
            for call in _five_queries({1}).values():
                _answer(call, w)
    assert passes == [3, 3]


@st.composite
def _planted_digraphs(draw):
    """k <= 8 nodes, weights p_i - p_j plus a slack of at least 0 (so p lies in Q(W)), and
    a planted cycle: as drawn, of slack 0 (a zero-weight cycle), or negative."""
    k = draw(st.integers(1, 8))
    node = st.integers(1, k)
    rational = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 97))
    p = draw(st.lists(rational, min_size=k, max_size=k))
    slack = draw(st.dictionaries(st.tuples(node, node), rational.map(abs), max_size=2 * k))
    plant = draw(st.sampled_from(["feasible", "zero", "negative"]))
    cycle = draw(st.lists(node, min_size=1, max_size=k, unique=True))
    if plant != "feasible":
        for a in zip(cycle, cycle[1:] + cycle[:1]):
            slack[a] = Fraction(0)
    if plant == "negative":
        slack[cycle[-1], cycle[0]] = -draw(rational.map(abs).filter(bool))
    return WeightedDigraph.make(k, {(i, j): p[i - 1] - p[j - 1] + s for (i, j), s in slack.items()})


@settings(max_examples=200, deadline=None)
@given(_planted_digraphs(), st.data())
def test_repeated_star_queries_answer_as_on_a_fresh_equal_digraph(w, data):
    deleted = data.draw(st.sets(st.integers(1, w.k), max_size=w.k - 1))
    queries = _five_queries(deleted)
    order = data.draw(st.permutations(list(queries) * 2))
    for name in order:
        fresh = WeightedDigraph.make(w.k, dict(w.arcs))
        assert _answer(queries[name], w) == _answer(queries[name], fresh), name
    assert (detect_negative_cycle(w) is None) == (bellman_ford_cycle(w) is None)


def test_every_answer_is_fresh():
    w = WeightedDigraph.make(3, {(1, 2): 1, (2, 3): -2, (3, 1): 0})
    cycle = detect_negative_cycle(w)
    cycle.append(7)
    assert detect_negative_cycle(w) == [3, 1, 2, 3]
    errors = []
    queries = _five_queries({1})
    del queries["detect_negative_cycle"]
    for call in list(queries.values()) * 2:
        with pytest.raises(InfeasibleError) as exc:
            call(w)
        assert str(exc.value) == "polyhedron is empty: negative cycle [3, 1, 2, 3]"
        exc.value.cycle.append(7)
        errors.append(exc.value)
    assert len(set(map(id, errors))) == len(errors)


def test_a_queried_digraph_is_equal_to_a_fresh_one():
    for arcs in ({(1, 2): 4, (2, 1): -1, (2, 3): "-2/3"}, {(1, 2): 1, (2, 3): -2, (3, 1): 0}):
        w, fresh = WeightedDigraph.make(3, arcs), WeightedDigraph.make(3, arcs)
        for call in _five_queries({1}).values():
            _answer(call, w)
        assert w == fresh and hash(w) == hash(fresh) and repr(w) == repr(fresh)
        assert pickle.dumps(w) == pickle.dumps(fresh)
        for twin in (copy.copy(w), copy.deepcopy(w), pickle.loads(pickle.dumps(w))):
            assert twin == fresh and "_solved" not in vars(twin)
