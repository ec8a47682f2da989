"""Weighted digraphs: feasibility, stars, faces, recession, face lattices."""

import random
from fractions import Fraction

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wdpoly import (
    INF,
    DomainError,
    InconsistentFaceError,
    InfeasibleError,
    NodePartition,
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
    kleene_by_powers,
    min_cycle_weight,
    nx_digraph,
    nx_partition_qualifies,
    random_digraph,
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


def test_recession_of_a_cycle_is_lineality_only():
    w = WeightedDigraph.make(3, {(1, 2): 0, (2, 3): 0, (3, 1): 0})
    rec = recession(w)
    assert rec.lineality_generators == ((1, 1, 1),)
    assert rec.ray_generators == ()


def test_node_partition_refinement():
    fine = NodePartition.make(4, [[1], [2], [3, 4]])
    coarse = NodePartition.make(4, [[1, 2], [3, 4]])
    assert fine.refines(coarse)
    assert not coarse.refines(fine)
    with pytest.raises(DomainError):
        NodePartition.make(3, [[1, 2]])


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


def test_cone_face_lattice_of_a_cycle_is_a_point():
    gamma = WeightedDigraph.make(3, {(1, 2): 0, (2, 3): 0, (3, 1): 0})
    lat = cone_face_lattice(gamma)
    assert [p.blocks for p in lat.elements] == [((1, 2, 3),)]


def test_cone_face_lattice_matches_partition_oracle():
    rng = random.Random(43)
    for _ in range(25):
        gamma = random_digraph(rng, rng.randint(1, 5), density=0.4).zero_weights()
        lat = cone_face_lattice(gamma)
        expected = {
            NodePartition.make(gamma.k, blocks).blocks
            for blocks in all_partitions(range(1, gamma.k + 1))
            if nx_partition_qualifies(gamma, blocks)
        }
        assert {p.blocks for p in lat.elements} == expected


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


def test_witness_leaves_zero_weight_cycles_below_its_top_node():
    # from node 2 the arc back to 1 is as tight as the arc on to 3
    w = WeightedDigraph.make(3, {(3, 1): -1, (1, 2): 0, (2, 1): 0, (2, 3): 0})
    assert detect_negative_cycle(w) == [3, 1, 2, 3]
