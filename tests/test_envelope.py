"""Envelopes, covector graphs, closures and regular subdivisions."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wdpoly import (
    INF,
    BipartiteSupportGraph,
    CapabilityError,
    CellRecord,
    DomainError,
    EmptyCellError,
    InfeasibleError,
    PointConfig,
    SubdivisionCell,
    TropicalMatrix,
    ValueTypeError,
    WeightedDigraph,
    cell_dimension,
    cell_sample_point,
    covector_closure,
    envelope_digraph,
    enumerate_cells,
    enumerate_covector_graphs,
    face_projection_matrix,
    interior_point,
    interior_point_of_face,
    is_covector_graph,
    is_generic,
    membership,
    recession,
    regular_subdivision,
)
from wdpoly import digraph, envelope

from oracles import (
    bounded_by_projection,
    covector_closure_by_rounds,
    enumerate_covector_graphs_by_unions,
    face_digraph,
    lower_hull_cells,
    random_config,
    subdivision_by_covector_graphs,
)

# three points in the plane, two of them on the boundary of finiteness
V3 = PointConfig.make([[0, 0, 0], [1, 1, "inf"], [0, 2, "inf"]])

# two apices (0,1,1) and (0,2,1) as columns
V6 = PointConfig.make([[0, 0], [1, 2], [1, 1]])


def G(d, n, arcs):
    return BipartiteSupportGraph.make(d, n, arcs)


def test_point_config_rejects_infinite_column():
    with pytest.raises(DomainError):
        PointConfig.make([[0, "inf"], [0, "inf"]])


def test_support_and_column_support():
    assert V3.support().arcs == {
        (1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (3, 1), (3, 2),
    }
    assert V3.column_support(3) == {1}


def test_support_graph_validation_and_views():
    g = G(2, 3, [(1, 1), (2, 1), (2, 3)])
    assert g.row_neighbors(2) == (1, 3)
    assert g.col_neighbors(1) == (1, 2)
    assert g.col_neighbors(2) == ()
    assert g.tuple_string() == "(1,13)"
    with pytest.raises(DomainError):
        G(2, 3, [(3, 1)])


def test_tuple_string_reads_a_generator_stratum_once():
    g = G(3, 3, [(1, 1), (2, 2)])
    assert g.tuple_string(i for i in (1, 3)) == "(•,2,•)"


def test_tuple_string_rejects_an_int_stratum():
    with pytest.raises(ValueTypeError):
        G(3, 3, [(1, 1), (2, 2)]).tuple_string(1)


def test_tuple_string_rejects_a_float_row():
    with pytest.raises(ValueTypeError):
        G(3, 3, [(1, 1), (2, 2)]).tuple_string([1.0])


def test_weak_component_count_includes_isolated_nodes():
    g = G(2, 2, [(1, 1)])
    assert g.weak_component_count() == 3
    assert g.nontrivial_components() == [(frozenset({1}), frozenset({1}))]


def test_envelope_digraph_shape():
    env = envelope_digraph(V3)
    assert env.k == 6
    assert len(env.arcs) == 7
    assert env.weight(1, 4) == Fraction(0)  # row 1, column 1
    assert env.weight(3, 5) == Fraction(2)  # row 3, column 2
    assert env.weight(2, 6) is INF  # v_23 is infinite, no arc


def test_envelope_vertices_golden():
    cells = regular_subdivision(V3)
    points = set()
    for c in cells:
        g = BipartiteSupportGraph(V3.d, V3.n, c.vertices)
        y, z = interior_point_of_face(V3, g)
        shift = y[0]
        points.add(tuple(q - shift for q in y + z))
    assert points == {
        (0, 1, 0, 0, 0, 0),
        (0, 1, 2, 2, 0, 0),
    }


def test_envelope_recession_rays_golden():
    from wdpoly import recession

    rec = recession(envelope_digraph(V3))
    assert rec.lineality_generators == ((1, 1, 1, 1, 1, 1),)
    supports = set()
    for ray in rec.ray_generators:
        rows = frozenset(i + 1 for i in range(3) if ray[i])
        cols = frozenset(j + 1 for j in range(3) if ray[3 + j])
        supports.add((rows, cols))
    f = frozenset
    assert supports == {
        (f(), f({1})),
        (f(), f({2})),
        (f(), f({3})),
        (f({1, 2}), f({1, 2, 3})),
        (f({1, 3}), f({1, 2, 3})),
        (f({2, 3}), f({1, 2})),
    }
    assert (0, 1, 1, 1, 1, 0) in rec.ray_generators


def test_face_projection_matrix_golden():
    g = G(3, 3, [(1, 3), (2, 2), (3, 1)])
    assert face_projection_matrix(V3, g) == TropicalMatrix.make(
        [[0, -1, 0], ["inf", 0, 1], ["inf", 1, 0]]
    )


def test_covector_closure_golden():
    g = G(3, 2, [(1, 1), (3, 2)])
    closed = covector_closure(V6, g)
    assert closed.arcs == {(1, 1), (3, 2), (3, 1), (1, 2)}
    assert not is_covector_graph(V6, g)
    assert is_covector_graph(V6, closed)
    # that cell is a ray: one degree of freedom in the torus
    assert cell_dimension(V6, closed) == 1


def test_closure_of_a_closed_graph_is_itself():
    g = G(3, 2, [(2, 1), (3, 2)])
    assert covector_closure(V6, g).arcs == g.arcs
    assert cell_dimension(V6, g) == 2


def test_closure_raises_on_empty_face():
    v = PointConfig.make([[0, 0], [0, 1]])
    with pytest.raises(EmptyCellError):
        covector_closure(v, G(2, 2, [(1, 1), (2, 2)]))


def test_closure_validates_subgraphs():
    with pytest.raises(DomainError):
        covector_closure(V3, G(3, 3, [(3, 3)]))  # (3,3) not in the support


def test_cell_dimension_requires_covector_graph():
    with pytest.raises(DomainError):
        cell_dimension(V6, G(3, 2, [(1, 1), (3, 2)]))


def test_interior_point_is_tight_exactly_on_the_closure():
    rng = random.Random(53)
    env_checked = 0
    while env_checked < 25:
        v = random_config(rng, rng.randint(2, 3), rng.randint(2, 3))
        support = sorted(v.support().arcs)
        seed = rng.sample(support, rng.randint(1, min(2, len(support))))
        g = BipartiteSupportGraph(v.d, v.n, frozenset(seed))
        try:
            closed = covector_closure(v, g)
        except EmptyCellError:
            continue
        y, z = interior_point_of_face(v, g)
        env = envelope_digraph(v)
        ok, tight = membership(env, tuple(y) + tuple(z))
        assert ok
        assert tight == {(i, v.d + j) for (i, j) in closed.arcs}
        env_checked += 1


def test_subdivision_walks_vertices_not_cells(monkeypatch):
    # the subdivision walks from vertex to vertex of the envelope, never through the torus cells
    def refuse(*args, **kwargs):
        raise AssertionError("regular_subdivision walked the covector graphs")

    monkeypatch.setattr(envelope, "enumerate_covector_graphs", refuse)
    monkeypatch.setattr(envelope, "_walk", refuse)
    v = PointConfig.make([[0, 0, 0], [0, 1, 2], [0, 2, 4]])
    got = {c.vertices for c in regular_subdivision(v)}
    assert got == lower_hull_cells(v)


def test_recession_and_the_vertex_walk_share_one_ray_helper(monkeypatch):
    assert envelope._rays is digraph._rays

    def refuse(*args, **kwargs):
        raise AssertionError("the ray helper was called")

    monkeypatch.setattr(digraph, "_rays", refuse)
    monkeypatch.setattr(envelope, "_rays", refuse)
    with pytest.raises(AssertionError, match="ray helper"):
        recession(WeightedDigraph.make(2, {(1, 2): 0}))
    with pytest.raises(AssertionError, match="ray helper"):
        regular_subdivision(PointConfig.make([[0, 1], [1, 0]]))


def test_subdivision_bound_counts_every_vertex_held():
    # the start vertex counts too: a bound of 0 refuses even a one-vertex envelope
    v = PointConfig.make([[5]])
    with pytest.raises(CapabilityError, match=r"more than 0 vertices: 0 found, 0 pending"):
        regular_subdivision(v, candidate_bound=0)
    assert len(regular_subdivision(v, candidate_bound=1)) == 1
    with pytest.raises(CapabilityError, match=r"more than 1 vertices: 1 found, 0 pending"):
        regular_subdivision(PointConfig.make([[0, 1], [1, 0]]), candidate_bound=1)


def _cells(dimension, *vertex_sets):
    return [SubdivisionCell(frozenset(g), dimension) for g in vertex_sets]


@pytest.mark.parametrize(
    "rows, cells",
    [
        # d = n = 1: one vertex, the cell {(1,1)} of dimension 0
        ([[5]], _cells(0, {(1, 1)})),
        # an all-INF row is a component of its own, in every cell
        ([[0, 1], [INF, INF]], _cells(1, {(1, 1), (1, 2)})),
        # a support of two blocks: each cell joins a cell of each block
        (
            [[0, 1, INF], [1, 0, INF], [INF, INF, 0]],
            _cells(3, {(1, 1), (1, 2), (2, 2), (3, 3)}, {(1, 1), (2, 1), (2, 2), (3, 3)}),
        ),
        # all zero: one vertex, tight on every arc
        ([[0, 0, 0], [0, 0, 0]], _cells(3, {(i, j) for i in (1, 2) for j in (1, 2, 3)})),
        # the tilted unit square splits into two triangles
        ([[0, 0], [0, 1]], _cells(2, {(1, 1), (1, 2), (2, 1)}, {(1, 2), (2, 1), (2, 2)})),
    ],
)
def test_subdivision_pinned_examples(rows, cells):
    v = PointConfig.make(rows)
    assert regular_subdivision(v) == cells
    assert subdivision_by_covector_graphs(v) == cells


@st.composite
def _block_configs(draw):
    """d <= 4, n <= 5, entries p/q with p in -3..3 (ties) and q in {1, 3}, and INF.

    Rows and columns are dealt to up to three blocks, and an entry outside
    its row's and column's block is INF, so supports split into several
    weak components; INF entries inside a block split them further.
    """
    d, n, blocks = draw(st.integers(1, 4)), draw(st.integers(1, 5)), draw(st.integers(1, 3))
    row_block = draw(st.lists(st.integers(0, blocks - 1), min_size=d, max_size=d))
    entry = st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 3]))
    cols = []
    for _ in range(n):
        b = draw(st.sampled_from(sorted(set(row_block))))
        col = [
            draw(st.one_of(entry, entry, st.just(INF))) if row_block[i] == b else INF
            for i in range(d)
        ]
        if all(x is INF for x in col):
            col[row_block.index(b)] = draw(entry)
        cols.append(col)
    return PointConfig.make([[c[i] for c in cols] for i in range(d)])


@settings(max_examples=300, deadline=None)
@given(_block_configs())
def test_subdivision_matches_the_covector_graph_filter(v):
    got, want = regular_subdivision(v), subdivision_by_covector_graphs(v)
    assert got == want
    assert repr(got) == repr(want)


@settings(max_examples=200, deadline=None)
@given(_block_configs())
@example(PointConfig.make([[0, 0, 0], [1, 3, -1], [2, -1, 1]]))
def test_the_vertex_walk_streams_each_vertex_once_with_its_edges(v):
    arcs, components, scale, walk = envelope._vertices(v, 1_000_000)
    assert arcs == sorted(v.support().arcs)
    yielded, bounded = set(), {}
    for g, p, edges in walk:
        assert g not in yielded
        yielded.add(g)
        # p is a vertex: no slack is negative, g holds the arcs of slack 0, and it has
        # as many weak components as the support
        for b, (i, j) in enumerate(arcs):
            slack = v.entry(i, j) * scale - p[i - 1] + p[v.d + j - 1]
            assert slack >= 0 and (slack == 0) == bool(g >> b & 1)
        tight = BipartiteSupportGraph(v.d, v.n, frozenset(envelope._arcs_of(arcs, g)))
        assert tight.weak_component_count() == components
        for _, e, h in edges:
            assert e & ~g == 0
            if h is not None:
                bounded.setdefault(e, []).append((g, h, h in yielded))
    # a bounded edge comes from both ends, and at the later one the other end was yielded
    for ends in bounded.values():
        assert len(ends) == 2
        (g, h, first), (g2, h2, later) = ends
        assert (g2, h2) == (h, g) and not first and later
    want = {c.vertices for c in regular_subdivision(v)}
    assert {frozenset(envelope._arcs_of(arcs, g)) for g in yielded} == want


def test_subdivision_matches_lower_hull_oracle_on_fixed_inputs():
    for v in (V3, V6, PointConfig.make([[0, 0], [0, 1]])):
        got = {c.vertices for c in regular_subdivision(v)}
        assert got == lower_hull_cells(v)


def test_enumeration_is_closed_and_deduplicated():
    graphs = enumerate_covector_graphs(V6)
    seen = set()
    for g in graphs:
        assert is_covector_graph(V6, g)
        assert all(g.col_neighbors(j) for j in range(1, V6.n + 1))
        assert g.arcs not in seen
        seen.add(g.arcs)
    # closure of any feasible seed appears in the catalog
    assert covector_closure(V6, G(3, 2, [(1, 1), (3, 2)])).arcs in seen


@st.composite
def _config_and_selections(draw, den=1):
    """d <= 3, n <= 4; small numerators make ties common, INF makes sparse supports.

    Entries are p/q with p in -2..2 and q in 1..den, so den > 1 makes the
    LCM scaling of the shortest-path kernel nontrivial.
    """
    d = draw(st.integers(1, 3))
    entry = st.builds(Fraction, st.integers(-2, 2), st.integers(1, den))
    cols = draw(
        st.lists(
            st.lists(st.one_of(entry, st.just(INF)), min_size=d, max_size=d)
            .filter(lambda c: any(x is not INF for x in c)),
            min_size=1,
            max_size=4,
        )
    )
    v = PointConfig.make([[c[i] for c in cols] for i in range(d)])
    support = sorted(v.support().arcs)
    picks = draw(st.lists(st.sets(st.sampled_from(support)), min_size=1, max_size=4))
    return v, picks


def _closure_or_empty(closure, v, arcs):
    try:
        return closure(v, BipartiteSupportGraph(v.d, v.n, frozenset(arcs))).arcs
    except EmptyCellError:
        return None


def _check_walk_against_oracles(v, picks):
    assert enumerate_covector_graphs(v) == enumerate_covector_graphs_by_unions(v)
    for cell in enumerate_cells(v):
        assert cell.bounded == bounded_by_projection(v, cell.graph)
    assert {c.vertices for c in regular_subdivision(v)} == lower_hull_cells(v)
    for arcs in picks:
        closed = _closure_or_empty(covector_closure_by_rounds, v, arcs)
        assert _closure_or_empty(covector_closure, v, arcs) == closed
        assert is_covector_graph(v, BipartiteSupportGraph(v.d, v.n, frozenset(arcs))) == (
            closed == arcs
        )


# a minimal face's bounded flag reads whether its rows share one component label:
# never when the support has two blocks or an all-INF row, always when d = 1
_TWO_BLOCKS = PointConfig.make([[0, 1, INF], [1, 0, INF], [INF, INF, 0]])
_INF_ROW = PointConfig.make([[0, 1], [INF, INF], [2, 0]])
_ONE_ROW = PointConfig.make([[0, Fraction(1, 3), 2]])


@settings(max_examples=200, deadline=None)
@given(_config_and_selections())
@example((_TWO_BLOCKS, [{(1, 1), (2, 2)}, {(3, 3)}, set()]))
@example((_INF_ROW, [{(1, 1), (3, 2)}, {(1, 2), (3, 1)}]))
@example((_ONE_ROW, [{(1, 1)}, {(1, 1), (1, 2), (1, 3)}]))
def test_walk_matches_the_union_saturation_oracle(case):
    _check_walk_against_oracles(*case)


@settings(max_examples=200, deadline=None)
@given(_config_and_selections(den=3))
def test_walk_matches_the_union_saturation_oracle_on_rationals(case):
    _check_walk_against_oracles(*case)
    v, picks = case
    for arcs in picks:
        g = BipartiteSupportGraph(v.d, v.n, frozenset(arcs))
        closed = _closure_or_empty(covector_closure, v, arcs)
        if closed is None:
            continue
        y, z = interior_point_of_face(v, g)
        ok, tight = membership(envelope_digraph(v), tuple(y) + tuple(z))
        assert ok
        assert tight == {(i, v.d + j) for (i, j) in closed}


@settings(max_examples=200, deadline=None)
@given(st.one_of(_config_and_selections(), _config_and_selections(den=3)))
def test_interior_point_of_face_is_the_interior_point_of_the_face_digraph(case):
    """The same Fractions as ``interior_point`` on W#G, on graphs closed or not;
    for an empty face that raises ``InfeasibleError`` and this ``EmptyCellError``."""
    v, picks = case
    closures = [_closure_or_empty(covector_closure_by_rounds, v, arcs) for arcs in picks]
    for arcs in picks + [c for c in closures if c is not None]:
        g = BipartiteSupportGraph(v.d, v.n, frozenset(arcs))
        try:
            pt = interior_point(face_digraph(v, g))
        except InfeasibleError:
            with pytest.raises(EmptyCellError):
                interior_point_of_face(v, g)
            continue
        want = (pt[: v.d], pt[v.d :])
        got = interior_point_of_face(v, g)
        assert got == want
        assert repr(got) == repr(want)


def test_a_sample_point_of_an_empty_face_raises_empty_cell_error():
    v = PointConfig.make([[0, 0], [0, 1]])
    cell = CellRecord(G(2, 2, [(1, 1), (2, 2)]), 0, False, False, frozenset())
    with pytest.raises(EmptyCellError):
        cell_sample_point(v, cell)


def test_generic_iff_the_subdivision_is_a_triangulation():
    """Develin-Sturmfels, "Tropical convexity" (2004): a finite V is generic iff
    every maximal cell of its regular subdivision is a simplex of d + n - 1 vertices."""
    rng = random.Random(16)
    seen = {True: 0, False: 0}
    for _ in range(400):
        d, n, spread = rng.randint(2, 4), rng.randint(2, 5), rng.choice((2, 60))
        v = PointConfig.make([[rng.randint(-spread, spread) for _ in range(n)] for _ in range(d)])
        generic, _ = is_generic(v.v)
        assert generic == all(len(c.vertices) == d + n - 1 for c in regular_subdivision(v))
        seen[generic] += 1
    assert min(seen.values()) > 100, seen  # both sides of the iff are exercised
