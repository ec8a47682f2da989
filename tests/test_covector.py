"""Sectors, covector cells, tropical cones, halfspaces, projective strata."""

import itertools
import random
from collections import Counter
from fractions import Fraction
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import wdpoly.covector
import wdpoly.envelope
from wdpoly import (
    INF,
    BipartiteSupportGraph,
    CapabilityError,
    CellRecord,
    DomainError,
    EmptyCellError,
    HalfspaceSystem,
    NodePartition,
    PointConfig,
    ProjectivePoint,
    Sector,
    ShapeError,
    SignVector,
    TropicalError,
    TropicalMatrix,
    ValueTypeError,
    WeightedDigraph,
    boundary_matrix,
    cell_boundary_restriction,
    cell_dimension,
    cell_sample_point,
    cells_of_halfspace,
    closed_sector_membership,
    cone_face_lattice,
    covector_closure,
    covector_of_point,
    enumerate_cells,
    enumerate_covector_graphs,
    envelope_digraph,
    face,
    halfspace_membership,
    is_covector_graph,
    is_generic,
    is_pure,
    maximal_cells,
    membership,
    project,
    projective_decomposition,
    regular_subdivision,
    signed_cells,
    signed_graph,
    tangent_digraph,
    tcone_membership,
    trop_det,
)

from oracles import (
    cells_of_halfspace_by_filter,
    closed_sector_by_inequalities,
    covector_by_argmin,
    lower_hull_cells,
    membership_against,
    projective_decomposition_by_subconfigs,
    pure_by_maximal_cells,
    random_config,
    residuation_member,
    residuation_multipliers,
    signed_cells_by_signs,
    subdivision_dimension,
    trop_combination,
)

# three apices in the plane, one with infinite coordinates
V5 = PointConfig.make([[0, 0, 0], [1, 0, "inf"], [2, -1, "inf"]])

# the purity counter-example: pure but not tropically generic
V8 = PointConfig.make(
    [[0, 0, 0, 0, 0], [3, 2, 1, "inf", "inf"], [2, 2, "inf", 1, 3]]
)
PSI8 = BipartiteSupportGraph.make(3, 5, [(1, 1), (1, 2), (1, 3), (1, 4), (1, 5)])

# a six-column configuration whose last two columns are boundary points
VP = PointConfig.make(
    [
        [0, 0, 0, 0, "inf", "inf"],
        [1, 1, "inf", "inf", 0, "inf"],
        [0, 2, "inf", "inf", "inf", 0],
    ]
)


def G(d, n, arcs):
    return BipartiteSupportGraph.make(d, n, arcs)


# ---------------------------------------------------------------------------
# sectors and projective points


def test_sector_contains():
    s1 = Sector((Fraction(0), Fraction(1), Fraction(1)), 1)
    assert s1.contains([0, 0, 0])
    assert s1.contains([0, 1, 1])  # apex lies in every sector
    assert not s1.contains([0, 2, 0])
    # coordinate 1 at infinity: the closed sector 1 contains the point
    assert s1.contains(["inf", 0, 0])
    with pytest.raises(DomainError):
        s1.contains(["inf", "inf", "inf"])


def test_sector_digraph():
    s2 = Sector((Fraction(0), Fraction(1), Fraction(1)), 2)
    w = s2.digraph()
    assert w.weight(1, 2) == Fraction(-1)
    assert w.weight(3, 2) == Fraction(0)
    assert (2, 1) not in w.arcs


def test_sector_rejects_infinite_index():
    with pytest.raises(DomainError):
        Sector((Fraction(0), INF), 2)


def test_projective_point_normalization():
    z = ProjectivePoint.make(["inf", 3, 5])
    assert z.coords == (INF, Fraction(0), Fraction(2))
    assert z.support() == {2, 3}
    assert not z.is_finite()
    with pytest.raises(DomainError):
        ProjectivePoint.make(["inf", "inf"])


def test_closed_sector_membership_on_strata():
    u = (Fraction(0), Fraction(0), INF)
    # the point (inf, 0, inf): sector 1 contains it (index 1 is at infinity)
    z = ProjectivePoint.make(["inf", 0, "inf"])
    assert closed_sector_membership(z, u, 1)
    # sector 2 does not: 1 is infinite but lies in the support of u
    assert not closed_sector_membership(z, u, 2)
    # a finite point falls back to the plain sector inequalities
    fin = ProjectivePoint.make([0, 1, 0])
    assert closed_sector_membership(fin, u, 2)
    assert not closed_sector_membership(fin, u, 1)
    # a sector index outside 1..d is refused, not read from the end of u
    for bad in (3, 0, -1):
        with pytest.raises(DomainError):
            closed_sector_membership(ProjectivePoint.make([0, 5]), (0, 1), bad)


# ---------------------------------------------------------------------------
# covectors of points and cells


def test_covector_of_point_golden():
    # at (0,2,3/2) column 1 is seen from sector 2 and column 2 from sector 3
    g = covector_of_point(V5, [0, 2, "3/2"])
    assert g.tuple_string() == "(3,1,2)"
    # at (0,1,0) both columns 1 and 2 are tied between two sectors
    tie = covector_of_point(V5, [0, 1, 0])
    assert tie.arcs == {(1, 1), (2, 1), (2, 2), (3, 2), (1, 3)}


def test_covector_of_point_requires_finite_input():
    with pytest.raises(DomainError):
        covector_of_point(V5, [0, "inf", 0])


def test_enumerate_cells_invariants():
    cells = enumerate_cells(V5)
    assert cells
    for c in cells:
        assert c.stratum == frozenset()
        assert all(c.graph.col_neighbors(j) for j in range(1, V5.n + 1))
        assert 0 <= c.dimension <= 2
        # sample point reproduces the covector exactly
        sample = cell_sample_point(V5, c)
        assert covector_of_point(V5, sample).arcs == c.graph.arcs


def test_maximal_cells_have_minimal_graphs():
    cells = enumerate_cells(V5)
    tops = maximal_cells(cells)
    top_graphs = [t.graph.arcs for t in tops]
    for c in cells:
        assert any(t <= c.graph.arcs for t in top_graphs)
    assert all(t.dimension == 2 for t in tops)


def test_grid_covectors_appear_in_the_catalog():
    catalog = {c.graph.arcs for c in enumerate_cells(V5)}
    for a in range(-4, 5):
        for b in range(-4, 5):
            g = covector_of_point(V5, [0, a, b])
            assert g.arcs in catalog


def test_tcone_membership_matches_residuation_oracle():
    rng = random.Random(59)
    checked = 0
    at_infinity = set()
    while checked < 400:
        v = random_config(rng, rng.randint(2, 3), rng.randint(1, 4))
        if rng.random() < 0.5:
            # an infinite multiplier drops its column, so members reach the strata
            lam = [
                INF if rng.random() < 0.3 else Fraction(rng.randint(-3, 3))
                for _ in range(v.n)
            ]
            z = trop_combination(v, lam)
            if all(c is INF for c in z):
                continue
        else:
            z = [
                INF if rng.random() < 0.2 else Fraction(rng.randint(-4, 4))
                for _ in range(v.d)
            ]
            if all(c is INF for c in z):
                continue
        point = ProjectivePoint.make(z)
        ok, lam = tcone_membership(v, point)
        assert ok == residuation_member(v, point.coords)
        if ok:
            assert trop_combination(v, lam) == point.coords
        if not point.is_finite():
            at_infinity.add(ok)
        checked += 1
    assert at_infinity == {True, False}


@st.composite
def _configs_and_points(draw):
    """Up to 4x5 with denominators up to 97 and INF entries, a selection psi, and a point
    with INF coordinates: drawn, or a tropical combination of the columns, which plants
    ties x_i - x_l = v_ij - v_lj in its covector."""
    d = draw(st.integers(1, 4))
    rational = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 97))
    entry = st.one_of(rational, rational, st.just(INF))
    column = st.lists(entry, min_size=d, max_size=d).filter(lambda c: any(x is not INF for x in c))
    cols = draw(st.lists(column, min_size=1, max_size=5))
    v = PointConfig.make([[c[i] for c in cols] for i in range(d)])
    psi = set()
    for j in range(1, v.n + 1):
        rows = sorted(v.column_support(j))
        psi.update((i, j) for i in draw(st.sets(st.sampled_from(rows), min_size=1)))
    if draw(st.booleans()):
        z = list(trop_combination(v, draw(st.lists(entry, min_size=v.n, max_size=v.n))))
    else:
        z = draw(st.lists(entry, min_size=d, max_size=d))
    if all(c is INF for c in z):
        z[draw(st.integers(0, d - 1))] = draw(rational)
    return HalfspaceSystem.make(v, G(v.d, v.n, psi)), z


@settings(max_examples=300, deadline=None)
@given(_configs_and_points())
@example((HalfspaceSystem.make(PointConfig.make([["1/97", "1/89"], ["1/3", "inf"]]),
                               G(2, 2, [(1, 1), (1, 2)])), [Fraction(1, 97) - Fraction(1, 3), 0]))
def test_int_point_queries_match_the_fraction_oracles(case):
    h, z = case
    v, point = h.config, ProjectivePoint.make(z)
    finite = [Fraction(0) if c is INF else c for c in z]
    assert covector_of_point(v, finite) == covector_by_argmin(v, finite)
    ok, lam = tcone_membership(v, point)
    assert lam == residuation_multipliers(v, point.coords)
    assert ok == residuation_member(v, point.coords)
    for x in (z, finite):
        rows = covector_by_argmin(v, x)
        covered = all(set(rows.col_neighbors(j)) & set(h.psi.col_neighbors(j))
                      for j in range(1, v.n + 1))
        assert halfspace_membership(h, x) == covered
    assert halfspace_membership(h, finite) == membership_against(v, h.psi, finite)
    # one column at a time: the closed sectors of each apex, at points with INF coordinates
    # and at the point as given, its ties included
    for j in range(1, v.n + 1):
        apex = PointConfig.make([[x] for x in v.v.col(j)])
        for x in (z, finite):
            seen = covector_by_argmin(apex, x).col_neighbors(1)
            for i in v.column_support(j):
                assert Sector(v.v.col(j), i).contains(x) == (i in seen)
                assert closed_sector_membership(ProjectivePoint.make(x), v.v.col(j), i) == (i in seen)


def test_tcone_membership_golden():
    z = ProjectivePoint.make([0, 2, "3/2"])
    ok, lam = tcone_membership(V5, z)
    assert ok
    assert trop_combination(V5, lam) == z.coords
    bad, _ = tcone_membership(V5, ProjectivePoint.make([0, 5, 0]))
    assert not bad


# ---------------------------------------------------------------------------
# halfspaces and signed cells


def halfline_system():
    v = PointConfig.make([[0], [0]])
    return HalfspaceSystem.make(v, G(2, 1, [(1, 1)]))


def test_halfspace_membership():
    h = halfline_system()
    assert halfspace_membership(h, [1, 0])
    assert halfspace_membership(h, [0, 0])  # boundary is included
    assert not halfspace_membership(h, [0, 1])
    # points at infinity follow the closed-sector rule
    assert halfspace_membership(h, ["inf", 0])
    assert not halfspace_membership(h, [0, "inf"])
    with pytest.raises(DomainError):
        halfspace_membership(h, ["inf", "inf"])


def test_halfspace_system_validation():
    v = PointConfig.make([[0], [0]])
    with pytest.raises(DomainError):
        HalfspaceSystem.make(v, G(2, 1, []))
    with pytest.raises(DomainError):
        HalfspaceSystem.make(v, G(2, 1, [(1, 1), (2, 1)]), require_proper=True)
    assert HalfspaceSystem.make(v, G(2, 1, [(1, 1)]), require_proper=True)


def test_signed_graph_flips_minus_columns():
    v = PointConfig.make([[0], [0]])
    psi = G(2, 1, [(1, 1)])
    flipped = signed_graph(psi, SignVector.make("-"), v.support())
    assert flipped.arcs == {(2, 1)}
    same = signed_graph(psi, SignVector.all_plus(1), v.support())
    assert same.arcs == psi.arcs
    # each sign is a single '+' or '-'
    for bad in ([5], [""], ["+-"]):
        with pytest.raises(DomainError):
            SignVector.make(bad)


def test_cells_of_halfspace_partition_by_membership():
    h = halfline_system()
    included = {c.graph.arcs for c in cells_of_halfspace(h)}
    for c in enumerate_cells(h.config):
        sample = cell_sample_point(h.config, c)
        assert (c.graph.arcs in included) == halfspace_membership(h, sample)


def test_pure_counter_example_is_pure_but_not_generic():
    h = HalfspaceSystem.make(V8, PSI8, require_proper=True)
    ok, witness = is_pure(h)
    assert ok and witness is None
    generic, _ = is_generic(V8.v)
    assert not generic


def test_signed_cells_of_a_halfline():
    h = halfline_system()
    table = signed_cells(h)
    assert set(table) == {"+", "-"}
    plus = {c.tuple_string() for c in table["+"]}
    minus = {c.tuple_string() for c in table["-"]}
    # the boundary line belongs to both closed halfspaces
    assert "(1,1)" in plus and "(1,1)" in minus
    # each stratum at infinity belongs to exactly one side
    strat_plus = {tuple(sorted(c.stratum)) for c in table["+"]}
    strat_minus = {tuple(sorted(c.stratum)) for c in table["-"]}
    assert (1,) in strat_plus and (1,) not in strat_minus
    assert (2,) in strat_minus and (2,) not in strat_plus


@st.composite
def _system_and_points(draw):
    """d <= 3, n <= 4 with ties and INF entries, a selection psi, points with INF."""
    d = draw(st.integers(1, 3))
    entry = st.one_of(st.integers(-2, 2), st.just(INF))
    # a column of V and a point of TP^{d-1} both need a finite entry
    vector = st.lists(entry, min_size=d, max_size=d).filter(
        lambda c: any(x is not INF for x in c)
    )
    cols = draw(st.lists(vector, min_size=1, max_size=4))
    v = PointConfig.make([[c[i] for c in cols] for i in range(d)])
    psi = set()
    for j in range(1, v.n + 1):
        rows = sorted(v.column_support(j))
        psi.update((i, j) for i in draw(st.sets(st.sampled_from(rows), min_size=1)))
    points = draw(st.lists(vector, min_size=1, max_size=6))
    return HalfspaceSystem.make(v, G(v.d, v.n, psi)), points


def _closed_sectors_cover(v, psi, z):
    """Per column, z lies in the closed sector of some row selected by psi."""
    return all(
        any(closed_sector_by_inequalities(z, v.v.col(j), i) for i in psi.col_neighbors(j))
        for j in range(1, v.n + 1)
    )


@settings(max_examples=150, deadline=None)
@given(_system_and_points())
def test_covector_rule_matches_closed_sectors(case):
    h, points = case
    v = h.config
    for x in points:
        z = ProjectivePoint.make(x)
        assert halfspace_membership(h, x) == _closed_sectors_cover(v, h.psi, z)
        if z.is_finite():
            assert halfspace_membership(h, x) == membership_against(v, h.psi, z.coords)
    # the former signed-cell test: a sample point of each cell, then closed sectors
    table = signed_cells(h)
    samples = [
        (c, ProjectivePoint.make(cell_sample_point(v, c))) for c in projective_decomposition(v)
    ]
    for eps, cells in table.items():
        psi_e = signed_graph(h.psi, SignVector.make(eps), v.support())
        for c, z in samples:
            assert (c in cells) == _closed_sectors_cover(v, psi_e, z)


def test_tangent_digraph_golden():
    h = halfline_system()
    cells = {c.graph.arcs: c for c in enumerate_cells(h.config)}
    boundary = cells[frozenset({(1, 1), (2, 1)})]
    t = tangent_digraph(h, boundary)
    assert t.columns == (1,)
    assert t.row_to_col == {(1, 1)}
    assert t.col_to_row == {(2, 1)}
    inner = cells[frozenset({(1, 1)})]
    t2 = tangent_digraph(h, inner)
    assert t2.columns == ()  # the fully selected column disappears


def test_tangent_digraph_takes_only_torus_cells_of_its_shape():
    v = PointConfig.make([[0, 1], [2, 0]])
    h = HalfspaceSystem.make(v, G(2, 2, [(1, 1), (2, 2)]))
    origin = next(c for c in enumerate_cells(v) if c.graph.arcs == {(1, 1), (2, 2)})
    stratum = next(c for c in projective_decomposition(v) if c.stratum)

    def regraphed(graph):
        return CellRecord(graph, origin.dimension, origin.bounded, origin.in_tcone, origin.stratum)

    with pytest.raises(EmptyCellError, match="misses a column"):
        tangent_digraph(h, regraphed(G(2, 2, [])))
    with pytest.raises(EmptyCellError, match="boundary stratum"):
        tangent_digraph(h, stratum)
    with pytest.raises(ShapeError):
        tangent_digraph(h, regraphed(G(2, 3, [(1, 1), (2, 2), (1, 3)])))


# ---------------------------------------------------------------------------
# projective strata


def test_boundary_matrix_golden():
    lab = boundary_matrix(VP, {1})
    assert lab.row_labels == (2, 3)
    assert lab.col_labels == (5, 6)
    assert lab.config.v.entries == (
        (Fraction(0), INF),
        (INF, Fraction(0)),
    )


def test_boundary_matrix_empty_stratum():
    v = PointConfig.make([[0, 0], [1, 2]])
    lab = boundary_matrix(v, {1})
    assert lab.config is None
    assert lab.col_labels == ()
    with pytest.raises(DomainError):
        boundary_matrix(v, {1, 2})


def test_projective_decomposition_strata():
    cells = projective_decomposition(VP)
    strata = {tuple(sorted(c.stratum)) for c in cells}
    assert () in strata and (1,) in strata
    stratum1 = [c for c in cells if c.stratum == frozenset({1})]
    tuples = {c.tuple_string() for c in stratum1}
    assert "(•,5,6)" in tuples
    target = next(c for c in stratum1 if c.tuple_string() == "(•,5,6)")
    assert target.dimension == 1
    assert target.graph.arcs == {(2, 5), (3, 6)}
    # boundary samples are infinite exactly on the stratum
    sample = cell_sample_point(VP, target)
    assert sample[0] is INF and sample[1] is not INF and sample[2] is not INF


def test_cell_boundary_restriction_golden():
    torus = {c.tuple_string(): c for c in enumerate_cells(VP)}
    big = torus["(1234,5,6)"]
    restricted = cell_boundary_restriction(VP, big.graph, {1})
    assert restricted.arcs == {(2, 5), (3, 6)}


def test_candidate_bound_caps_the_graphs_a_walk_holds():
    v = PointConfig.make([[0, 1], [1, 0]])
    h = HalfspaceSystem.make(v, G(2, 2, [(1, 1), (1, 2)]))
    # graphs held, found or pending: 8 by the torus walk, 4 by the walk inside psi, and 3
    # when is_pure stops it at the cell {(1,1),(1,2)} instead of growing it by (2,2);
    # the subdivision holds the envelope's 2 vertices
    for enumerate_with, holds in (
        (lambda bound: enumerate_cells(v, candidate_bound=bound), 8),
        (lambda bound: regular_subdivision(v, candidate_bound=bound), 2),
        (lambda bound: projective_decomposition(v, candidate_bound=bound), 8),
        (lambda bound: signed_cells(h, candidate_bound=bound), 8),
        (lambda bound: is_pure(h, candidate_bound=bound), 3),
        (lambda bound: cells_of_halfspace(h, candidate_bound=bound), 4),
    ):
        with pytest.raises(CapabilityError):
            enumerate_with(holds - 1)
        enumerate_with(holds)


def test_default_bound_admits_a_line_of_many_points():
    # 2^20 seeds, but the walk holds a few hundred graphs
    v = PointConfig.make([[0] * 20, list(range(20))])
    assert len(enumerate_cells(v)) == 41


def test_capability_error_says_how_far_the_walk_got():
    v = PointConfig.make([[0, 1], [1, 0]])
    with pytest.raises(CapabilityError, match=r"more than 7 graphs: 3 found, 1 pending"):
        enumerate_cells(v, candidate_bound=7)


def test_projective_decomposition_counts_empty_strata():
    v = PointConfig.make([[0, 0], [1, 2]])
    cells = projective_decomposition(v)
    boundary = [c for c in cells if c.stratum]
    assert {tuple(sorted(c.stratum)) for c in boundary} == {(1,), (2,)}
    for c in boundary:
        assert c.graph.arcs == frozenset()
        assert c.dimension == 0
    # one column seen by every row: no column survives any stratum; with two rows
    # left the stratum is a line, with one a point
    cells = projective_decomposition(PointConfig.make([[0], [0], [0]]))
    boundary = {tuple(sorted(c.stratum)): c for c in cells if c.stratum}
    assert len(boundary) == len([c for c in cells if c.stratum]) == 6
    for k, c in boundary.items():
        assert c.graph.arcs == frozenset()
        assert (c.dimension, c.bounded) == ((1, False) if len(k) == 1 else (0, True))


# ---------------------------------------------------------------------------
# strata against sub-configurations, and counting invariants that hold at
# every size, past the reach of the oracles


@st.composite
def _configs(draw):
    """d <= 4, n <= 5, entries p/q with p in -2..2 and q in {1, 3}; half the draws allow INF."""
    d = draw(st.integers(1, 4))
    rational = st.builds(Fraction, st.integers(-2, 2), st.sampled_from([1, 3]))
    entry = rational if draw(st.booleans()) else st.one_of(rational, st.just(INF))
    column = st.lists(entry, min_size=d, max_size=d).filter(
        lambda c: any(x is not INF for x in c)
    )
    cols = draw(st.lists(column, min_size=1, max_size=5))
    return PointConfig.make([[c[i] for c in cols] for i in range(d)])


@settings(max_examples=150, deadline=None)
@given(_configs())
def test_strata_match_the_subconfiguration_oracle(v):
    cells = projective_decomposition(v)
    assert cells == projective_decomposition_by_subconfigs(v)
    support = v.support().arcs
    for c in cells:
        # a sample point is infinite exactly on its stratum, and lies in the
        # closed sectors of the cell's graph and of the stratum's rows
        z = ProjectivePoint.make(cell_sample_point(v, c))
        assert {i for i, x in enumerate(z.coords, start=1) if x is INF} == c.stratum
        closed = {
            (i, j) for (i, j) in support if closed_sector_by_inequalities(z, v.v.col(j), i)
        }
        assert closed == c.graph.arcs | {a for a in support if a[0] in c.stratum}


@settings(max_examples=150, deadline=None)
@given(_configs())
def test_boundary_strata_are_the_restrictions_of_the_torus_cells(v):
    torus = enumerate_cells(v)
    strata = {}
    for c in projective_decomposition(v):
        strata.setdefault(c.stratum, []).append(c.graph.arcs)
    rows = range(1, v.d + 1)
    assert set(strata) == {
        frozenset(k) for size in range(v.d) for k in itertools.combinations(rows, size)
    }
    for k, graphs in strata.items():
        expect = {cell_boundary_restriction(v, t.graph, k).arcs for t in torus}
        assert len(graphs) == len(expect) and set(graphs) == expect


@settings(max_examples=150, deadline=None)
@given(_configs())
@example(PointConfig.make([[5, -5, -2], [-3, "inf", -2], [-4, -5, 1], [1, "inf", -3]]))
def test_in_tcone_is_the_cone_test_of_the_sample_point(v):
    # on a stratum K, a cell lies in the cone iff its graph covers every row outside K
    for c in projective_decomposition(v):
        z = ProjectivePoint.make(cell_sample_point(v, c))
        assert c.in_tcone == tcone_membership(v, z)[0]


def test_a_boundary_cell_that_covers_its_rows_lies_in_the_cone():
    v = PointConfig.make([[5, -5, -2], [-3, "inf", -2], [-4, -5, 1], [1, "inf", -3]])
    strata = {c.graph.sorted_arcs(): c for c in projective_decomposition(v) if c.stratum == {2, 4}}
    assert {arcs: c.in_tcone for arcs, c in strata.items()} == {
        ((1, 2),): False, ((3, 2),): False, ((1, 2), (3, 2)): True
    }
    cell = strata[(1, 2), (3, 2)]
    # its sample point is a shift of column 2, so a tropical combination of V's columns
    z = ProjectivePoint.make(cell_sample_point(v, cell))
    assert z == ProjectivePoint.make(v.v.col(2)) and tcone_membership(v, z)[0]


@pytest.mark.parametrize("seed", range(8))
def test_five_row_strata_match_the_subconfiguration_oracle(seed):
    # ``_configs`` draws at most four rows
    rng = random.Random(seed)
    n, den = rng.randint(1, 5), rng.choice([1, 3])
    v = random_config(rng, 5, n, inf_chance=0.25, lo=-2, hi=2, den=den)
    assert projective_decomposition(v) == projective_decomposition_by_subconfigs(v)


def test_projective_decomposition_and_signed_cells_walk_the_torus_once(monkeypatch):
    walk = wdpoly.envelope._walk
    assert wdpoly.covector._walk is walk
    calls = []
    monkeypatch.setattr(wdpoly.covector, "_walk", lambda *args: calls.append(args) or walk(*args))
    projective_decomposition(VP)
    assert len(calls) == 1
    signed_cells(HalfspaceSystem.make(V8, PSI8))
    assert len(calls) == 2


def _euler(cells):
    return sum((-1) ** c.dimension for c in cells)


@settings(max_examples=300, deadline=None)
@given(_configs())
def test_euler_characteristics(v):
    # the torus cells partition R^d / R1, the strata compactify it to a simplex
    cells = enumerate_cells(v)
    assert _euler(cells) == (-1) ** (v.d - 1)
    assert _euler(projective_decomposition(v)) == 1
    # the bounded complex is contractible when every entry is finite
    if all(x is not INF for row in v.v.entries for x in row):
        assert _euler(c for c in cells if c.bounded) == 1


@settings(max_examples=100, deadline=None)
@given(_configs())
def test_carried_component_counts_match_a_fresh_count(v):
    # the walk carries each graph's weak-component count; recount it here
    for c in projective_decomposition(v):
        dropped = sum(bool(v.column_support(j) & c.stratum) for j in range(1, v.n + 1))
        assert c.dimension == c.graph.weak_component_count() - len(c.stratum) - dropped - 1
    cells = regular_subdivision(v)
    for c in cells:
        assert c.dimension == subdivision_dimension(BipartiteSupportGraph(v.d, v.n, c.vertices))
    hull = lower_hull_cells(v)
    assert len(cells) == len(hull) and {c.vertices for c in cells} == hull


@pytest.mark.parametrize("d, n", [(3, 3), (3, 4), (4, 4), (4, 5), (5, 6)])
def test_generic_f_vectors(d, n):
    rng = random.Random(100 * d + n)
    generic = False
    while not generic:
        rows = [[rng.randint(-10**6, 10**6) for _ in range(n)] for _ in range(d)]
        v = PointConfig.make(rows)
        generic, _ = is_generic(v.v)
    cells = enumerate_cells(v)
    dims = Counter(c.dimension for c in cells)
    bounded = Counter(c.dimension for c in cells if c.bounded)
    assert dims[0] == comb(n + d - 2, d - 1)
    assert dims[d - 1] == comb(n + d - 1, d - 1)
    for i in range(d):
        expect = comb(n + d - i - 2, n - i - 1) * comb(d - 1, i) if n - i - 1 >= 0 else 0
        assert bounded[i] == expect
    # every triangulation of the product of simplices has this many simplices
    assert len(regular_subdivision(v)) == comb(n + d - 2, d - 1)


# ---------------------------------------------------------------------------
# input contract of the functions that take points


_coordinate = st.one_of(
    st.integers(-3, 3),
    st.fractions(Fraction(-3), Fraction(3), max_denominator=3),
    st.just(INF),
    st.sampled_from(["0", "-1/2", " 2 ", "inf", "∞", "", "abc", "1/0", "1.5", "--1"]),
    st.text(max_size=3),
    st.floats(allow_nan=True),
    st.booleans(),
    st.none(),
)
_point = st.one_of(
    st.lists(_coordinate, min_size=1, max_size=4),
    st.lists(_coordinate, min_size=1, max_size=4).map(tuple),
    st.integers(),
    st.floats(),
    st.none(),
    st.just(INF),
    st.text(max_size=3),
)
_H5 = HalfspaceSystem.make(V5, G(3, 3, [(1, 1), (2, 2), (1, 3)]))
_POINT_TAKERS = (
    lambda x: membership(WeightedDigraph.make(3, {(1, 2): 1, (2, 3): -1}), x),
    lambda x: covector_of_point(V5, x),
    lambda x: halfspace_membership(_H5, x),
    lambda x: ProjectivePoint.make(x),
    lambda x: Sector((0, 1, 2), 1).contains(x),
    lambda x: closed_sector_membership(ProjectivePoint.make([0, 1, "inf"]), x, 1),
)


@settings(max_examples=300, deadline=None)
@given(_point)
def test_points_give_an_exact_answer_or_a_tropical_error(x):
    inexact = not isinstance(x, (list, tuple)) or any(
        c is None or isinstance(c, (bool, float)) for c in x
    )
    for take in _POINT_TAKERS:
        try:
            take(x)
        except TropicalError:
            continue
        assert not inexact, f"accepted {x!r}"


_W2 = WeightedDigraph.make(2, {(1, 2): 1})
_ITERABLE_TAKERS = (
    lambda x: Sector(x, 1),
    lambda x: TropicalMatrix.make(x),
    lambda x: TropicalMatrix.make([x]),
    lambda x: PointConfig.make(x),
    lambda x: WeightedDigraph.make(2, x),
    lambda x: BipartiteSupportGraph.make(2, 2, x),
    lambda x: NodePartition.make(2, x),
    lambda x: NodePartition.make(2, [x]),
    lambda x: project(_W2, x),
    lambda x: face(_W2, x),
    lambda x: boundary_matrix(V5, x),
    lambda x: cell_boundary_restriction(V5, V5.support(), x),
    lambda x: tcone_membership(V5, x),
)


_V2 = PointConfig.make([[0, 1], [1, 0]])
_Z2 = ProjectivePoint.make([0, 1])
_BAD_INDICES = (
    lambda: WeightedDigraph.make(2, [5]),
    lambda: WeightedDigraph.make("2", {}),
    lambda: WeightedDigraph.make(2, {(1, 2.0): 1}),
    lambda: BipartiteSupportGraph.make(2, 2, [5]),
    lambda: BipartiteSupportGraph.make(2, 2, [(1, "a")]),
    lambda: BipartiteSupportGraph.make(2, 2, [(True, 1)]),
    lambda: NodePartition.make(2, [[1, "a"]]),
    lambda: NodePartition.make("2", [[1], [2]]),
    lambda: Sector((0, 1), "1"),
    lambda: closed_sector_membership(_Z2, (0, 1), "1"),
    lambda: face(_W2, [(1,)]),
    lambda: boundary_matrix(_V2, [1.0]),
)
_OUT_OF_RANGE = (
    lambda: WeightedDigraph.make(2, {(1, 3): 1}),
    lambda: BipartiteSupportGraph.make(2, 2, [(3, 1)]),
    lambda: NodePartition.make(2, [[1], [3]]),
    lambda: Sector((0, 1), 3),
    lambda: closed_sector_membership(_Z2, (0, 1), 0),
    lambda: face(_W2, [(2, 1)]),
    lambda: boundary_matrix(_V2, [3]),
)


def test_indices_and_arc_pairs_give_a_tropical_error():
    for take in _BAD_INDICES:
        with pytest.raises(ValueTypeError):
            take()
    for take in _OUT_OF_RANGE:
        with pytest.raises(DomainError):
            take()


_H2 = HalfspaceSystem.make(_V2, G(2, 2, [(1, 1), (1, 2)]))
_BAD_BOUNDS_AND_OBJECTS = (
    lambda: enumerate_cells(_V2, candidate_bound="5"),
    lambda: enumerate_cells(_V2, candidate_bound=5.0),
    lambda: regular_subdivision(_V2, candidate_bound=True),
    lambda: signed_cells(_H2, sign_bound="3"),
    lambda: signed_cells(_H2, sign_bound=3.0),
    lambda: cone_face_lattice(_W2, node_bound="3"),
    lambda: cone_face_lattice(_W2, node_bound=True),
    lambda: trop_det(TropicalMatrix.make([[0, 1], [1, 0]]), perm_bound="3"),
    lambda: is_generic(TropicalMatrix.make([[0, 1], [1, 0]]), submatrix_bound="3"),
    lambda: is_generic(TropicalMatrix.make([[0, 1], [1, 0]]), submatrix_bound=5.0),
    lambda: TropicalMatrix.identity("x"),
    lambda: HalfspaceSystem.make(_V2, [(1, 1)]),
    lambda: HalfspaceSystem.make([[0, 1], [1, 0]], G(2, 2, [(1, 1), (1, 2)])),
    lambda: cell_sample_point(_V2, "x"),
)


def test_keyword_bounds_and_object_arguments_give_a_tropical_error():
    for take in _BAD_BOUNDS_AND_OBJECTS:
        with pytest.raises(ValueTypeError):
            take()


_M2 = TropicalMatrix.make([[0, 1], [1, 0]])


@pytest.mark.parametrize(
    "take",
    [
        lambda b: enumerate_cells(_V2, candidate_bound=b),
        lambda b: regular_subdivision(_V2, candidate_bound=b),
        lambda b: projective_decomposition(_V2, candidate_bound=b),
        lambda b: cells_of_halfspace(_H2, candidate_bound=b),
        lambda b: is_pure(_H2, candidate_bound=b),
        lambda b: signed_cells(_H2, candidate_bound=b),
        lambda b: signed_cells(_H2, sign_bound=b),
        lambda b: cone_face_lattice(_W2, node_bound=b),
        lambda b: trop_det(_M2, perm_bound=b),
        lambda b: is_generic(_M2, submatrix_bound=b),
    ],
    ids=[
        "enumerate_cells", "regular_subdivision", "projective_decomposition",
        "cells_of_halfspace", "is_pure", "signed_cells", "sign_bound",
        "cone_face_lattice", "trop_det", "is_generic",
    ],
)
def test_a_negative_bound_is_a_domain_error_and_a_zero_bound_a_capability_error(take):
    with pytest.raises(DomainError, match="must be at least 0, got -1"):
        take(-1)
    with pytest.raises(CapabilityError):
        take(0)


_PSI2 = G(2, 2, [(1, 1), (2, 2)])
_NOT_A_SYSTEM_OR_CONFIG = (
    lambda: cells_of_halfspace("x"),
    lambda: halfspace_membership(_V2, [0, 0]),
    lambda: is_pure(_V2),
    lambda: signed_cells(_V2),
    lambda: tangent_digraph(_V2, enumerate_cells(_V2)[0]),
    lambda: tangent_digraph(_H2, "x"),
    lambda: enumerate_cells("x"),
    lambda: projective_decomposition([[0, 1], [1, 0]]),
    lambda: regular_subdivision(None),
    lambda: enumerate_covector_graphs([[0]]),
    lambda: signed_graph(_PSI2, "+-", _V2.support()),
    lambda: signed_graph(_PSI2, SignVector.make("+-"), _V2),
    lambda: signed_graph(_PSI2.arcs, SignVector.make("+-"), _V2.support()),
    lambda: covector_closure(_V2, "x"),
    lambda: is_covector_graph("x", _PSI2),
    lambda: cell_dimension(_V2, [(1, 1)]),
)


def test_halfspace_and_walk_entry_points_check_their_arguments():
    for take in _NOT_A_SYSTEM_OR_CONFIG:
        with pytest.raises(ValueTypeError):
            take()
    with pytest.raises(ShapeError):
        signed_graph(_PSI2, SignVector.make("+-"), G(3, 2, [(1, 1), (3, 2)]))


@pytest.mark.parametrize(
    "take",
    [
        lambda: maximal_cells([1]),
        lambda: cell_boundary_restriction(_V2, "x", [1]),
        lambda: boundary_matrix("x", [1]),
        lambda: covector_of_point("x", [0, 0]),
        lambda: tcone_membership("x", _Z2),
        lambda: envelope_digraph("x"),
        lambda: HalfspaceSystem.make(_V2, _PSI2, require_proper="yes"),
    ],
    ids=[
        "maximal_cells", "cell_boundary_restriction", "boundary_matrix", "covector_of_point",
        "tcone_membership", "envelope_digraph", "require_proper",
    ],
)
def test_cell_and_point_entry_points_check_their_objects(take):
    with pytest.raises(ValueTypeError):
        take()


def test_cell_sample_point_checks_the_stratum_as_boundary_matrix_does():
    empty = G(2, 2, [])
    for stratum, message in (({1, 2}, "keep at least one row"), ({0, 5}, "out of range")):
        with pytest.raises(DomainError, match=message):
            cell_sample_point(_V2, CellRecord(empty, 0, True, False, frozenset(stratum)))
        with pytest.raises(DomainError, match=message):
            boundary_matrix(_V2, stratum)
    with pytest.raises(ValueTypeError):
        cell_sample_point(_V2, CellRecord(empty, 0, True, False, frozenset({1.0})))


def test_cell_boundary_restriction_refuses_a_graph_of_another_shape():
    # like the other single-face queries
    with pytest.raises(ShapeError):
        cell_boundary_restriction(_V2, G(3, 3, []), [1])


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.integers(), st.none(), st.floats(), st.just(INF), st.text(max_size=3)))
def test_non_iterables_and_bare_strings_give_a_tropical_error(x):
    for take in _ITERABLE_TAKERS:
        with pytest.raises(TropicalError):
            take(x)
    # a bare string is a sign vector; anything else must be iterable
    if isinstance(x, str):
        try:
            SignVector.make(x)
        except TropicalError:
            pass
    else:
        with pytest.raises(TropicalError):
            SignVector.make(x)


# ---------------------------------------------------------------------------
# signed cells by per-column sign sets, against one flipped selection per sign


@st.composite
def _systems(draw):
    """A ``_configs`` draw with n <= 4, each column selecting some of its support rows."""
    v = draw(_configs().filter(lambda v: v.n <= 4))
    psi = set()
    for j in range(1, v.n + 1):
        rows = sorted(v.column_support(j))
        psi.update((i, j) for i in draw(st.sets(st.sampled_from(rows), min_size=1)))
    return HalfspaceSystem.make(v, G(v.d, v.n, psi))


@settings(max_examples=100, deadline=None)
@given(_systems())
def test_signed_cells_match_the_per_sign_oracle(h):
    table = signed_cells(h)
    expect = signed_cells_by_signs(h)
    assert list(table) == list(expect)
    assert table == expect


# ---------------------------------------------------------------------------
# halfspace cells by the walk inside psi, against filtering every torus cell


@st.composite
def _random_systems(draw):
    """A ``random_config`` draw, d <= 4 and n <= 5, INF entries in half the draws.

    Each column selects a random nonempty set of its support rows, at times
    all of them, so some selections are not proper and some intersections
    are empty.
    """
    rng = draw(st.randoms(use_true_random=False))
    d, n = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    inf_chance, den = draw(st.sampled_from([0, 0.25])), draw(st.sampled_from([1, 3]))
    v = random_config(rng, d, n, inf_chance=inf_chance, lo=-2, hi=2, den=den)
    psi = set()
    for j in range(1, n + 1):
        rows = sorted(v.column_support(j))
        psi.update((i, j) for i in rng.sample(rows, rng.randint(1, len(rows))))
    return HalfspaceSystem.make(v, G(d, n, psi))


# an empty intersection, a selection of every sector of column 1, and a
# system whose maximal cells have dimensions 2 and 1
_EMPTY = HalfspaceSystem.make(PointConfig.make([[0, 0], [0, 1]]), G(2, 2, [(1, 1), (2, 2)]))
_NOT_PROPER = HalfspaceSystem.make(
    PointConfig.make([[0, 0], [1, 0]]), G(2, 2, [(1, 1), (2, 1), (2, 2)])
)
_IMPURE = HalfspaceSystem.make(
    PointConfig.make([[-2, 0], [0, 2], [-1, 2]]), G(3, 2, [(1, 1), (2, 2), (3, 1)])
)


@settings(max_examples=200, deadline=None)
@given(_random_systems())
@example(_EMPTY)
@example(_NOT_PROPER)
@example(_IMPURE)
def test_cells_of_halfspace_match_the_filter_oracle(h):
    cells = cells_of_halfspace(h)
    expect = cells_of_halfspace_by_filter(h)
    assert cells == expect
    tops = maximal_cells(expect)
    ok, witness = is_pure(h)
    assert ok == (len({c.dimension for c in tops}) <= 1)
    if ok:
        assert witness is None
    else:
        a, b = witness
        assert a in tops and b in tops and a.dimension != b.dimension


@settings(max_examples=200, deadline=None)
@given(_random_systems())
@example(_EMPTY)
@example(_NOT_PROPER)
@example(_IMPURE)
def test_is_pure_stops_at_the_maximal_cells_of_every_cell(h):
    # the walk stops at each cell with a psi-arc in every column, yet gives the verdict
    # and the witness records that maximal_cells gives over all of the system's cells
    ok, witness = is_pure(h)
    expect_ok, expect_witness = pure_by_maximal_cells(h)
    assert ok == expect_ok
    assert witness == expect_witness
    assert repr(witness) == repr(expect_witness)


# ---------------------------------------------------------------------------
# the purity theorem: a nonempty intersection of tropical halfspaces in
# general position, each selecting a proper set of sectors, is pure of full
# dimension


@st.composite
def _generic_proper_systems(draw):
    """A generic integer V with 3 <= d <= 5 and n <= 6, each column selecting 1 to d-1 rows."""
    rng = random.Random(draw(st.integers(0, 2**32)))  # a stream of Random calls can overrun a draw
    d, n = draw(st.integers(3, 5)), draw(st.integers(1, 6))
    generic = False
    while not generic:
        v = PointConfig.make([[rng.randint(-60, 60) for _ in range(n)] for _ in range(d)])
        generic, _ = is_generic(v.v)
    rows = range(1, d + 1)
    psi = {(i, j) for j in range(1, n + 1) for i in rng.sample(rows, rng.randint(1, d - 1))}
    return HalfspaceSystem.make(v, G(d, n, psi), require_proper=True)


@settings(max_examples=200, deadline=None)
@given(_generic_proper_systems())
def test_purity_theorem(h):
    cells = cells_of_halfspace(h)
    if cells:
        assert is_pure(h) == (True, None)
        assert {c.dimension for c in maximal_cells(cells)} == {h.config.d - 1}


@st.composite
def _planted_systems(draw):
    """A generic V with 3 <= d <= 6 and n <= 8, a rational point x, and a proper system holding x.

    Column j selects the argmin rows of v_ij - x_i and random other rows, d - 1 in all at most;
    x is redrawn while some column's argmin holds all d rows.  So no system is empty.
    """
    rng = random.Random(draw(st.integers(0, 2**32)))
    d, n = draw(st.integers(3, 6)), draw(st.integers(1, 8))
    generic = False
    while not generic:
        v = PointConfig.make([[rng.randint(-999, 999) for _ in range(n)] for _ in range(d)])
        generic, _ = is_generic(v.v)
    rows = range(1, d + 1)
    argmins = [rows]
    while any(len(a) == d for a in argmins):
        x = [Fraction(rng.randint(-999, 999), rng.randint(1, 7)) for _ in rows]
        slacks = [[v.entry(i, j) - x[i - 1] for i in rows] for j in range(1, n + 1)]
        argmins = [[i for i, s in zip(rows, col) if s == min(col)] for col in slacks]
    psi = set()
    for j, a in enumerate(argmins, start=1):
        others = [i for i in rows if i not in a]
        psi |= {(i, j) for i in a + rng.sample(others, rng.randint(0, d - 1 - len(a)))}
    return HalfspaceSystem.make(v, G(d, n, psi), require_proper=True), x


@settings(max_examples=40, deadline=None)
@given(_planted_systems())
def test_purity_theorem_on_planted_points(planted):
    h, x = planted
    assert halfspace_membership(h, x)
    assert is_pure(h) == (True, None)
    assert {c.dimension for c in maximal_cells(cells_of_halfspace(h))} == {h.config.d - 1}
