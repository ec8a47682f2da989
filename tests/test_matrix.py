"""Tropical matrices, determinants and the genericity test."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import is_generic_by_minors, trop_det_by_permutations
from wdpoly import (
    INF,
    BipartiteSupportGraph,
    CapabilityError,
    DomainError,
    NodePartition,
    PointConfig,
    ProjectivePoint,
    SignVector,
    TropicalError,
    ShapeError,
    TropicalMatrix,
    ValueTypeError,
    WeightedDigraph,
    closed_sector_membership,
    enumerate_cells,
    is_generic,
    kleene_star,
    membership,
    signed_graph,
    tcone_membership,
    trop_det,
    trop_mat_mul,
)

M = TropicalMatrix.make


def test_make_and_entry():
    a = M([[1, "inf"], ["1/2", -3]])
    assert a.rows == 2 and a.cols == 2
    assert a.entry(1, 2) is INF
    assert a.entry(2, 1) == Fraction(1, 2)
    assert a.row(2) == (Fraction(1, 2), Fraction(-3))
    assert a.col(1) == (Fraction(1), Fraction(1, 2))


def test_make_rejects_ragged_and_empty():
    with pytest.raises(ShapeError):
        M([[1, 2], [3]])
    with pytest.raises(ShapeError):
        M([])


_F, _TM, _WD = Fraction, TropicalMatrix, WeightedDigraph
_PP, _NP, _SV, _BG = ProjectivePoint, NodePartition, SignVector, BipartiteSupportGraph
_CONFIG = PointConfig.make([[0, 1], [1, 0]])
_PSI = BipartiteSupportGraph.make(2, 2, [(1, 1), (2, 2)])


@pytest.mark.parametrize(
    "build, error",
    [
        pytest.param(lambda: trop_mat_mul(_TM(1, 1, ((0.5,),)), _TM(1, 1, ((0.25,),))),
                     ValueTypeError, id="float entries"),
        pytest.param(lambda: _TM(1, 1, ((0,),)), ValueTypeError, id="int entry"),
        pytest.param(lambda: _TM(2, 2, ((_F(0),), (_F(0), _F(0)))), ShapeError, id="ragged"),
        pytest.param(lambda: _TM(2, 1, ((_F(0),),)), ShapeError, id="a row missing"),
        pytest.param(lambda: _TM(0, 0, ()), ShapeError, id="0x0"),
        pytest.param(lambda: _TM(1, 0, ((),)), ShapeError, id="1x0"),
        pytest.param(lambda: _TM(1.0, 1, ((_F(0),),)), ValueTypeError, id="row count 1.0"),
        pytest.param(lambda: enumerate_cells(PointConfig(_TM(2, 2, ((0.5, 0.25), (0, 0))))),
                     ValueTypeError, id="configuration of floats"),
        pytest.param(lambda: membership(_WD(2, {(1, 2): 0.5}), [0, 0]),
                     ValueTypeError, id="float weight"),
        pytest.param(lambda: _WD(2, {(1, 2): INF}), ValueTypeError, id="INF weight"),
        pytest.param(lambda: _WD(2, {(1, 2): 1}), ValueTypeError, id="int weight"),
        pytest.param(lambda: kleene_star(_WD(2, {(1, 5): _F(1)})), DomainError, id="arc (1,5)"),
        pytest.param(lambda: _WD(2, {(0, 1): _F(1)}), DomainError, id="arc (0,1)"),
        pytest.param(lambda: _WD(2, {(3, 1): _F(1)}), DomainError, id="arc (3,1)"),
        pytest.param(lambda: WeightedDigraph.make(2, {(1, 3): "inf"}), DomainError, id="arc (1,3) of INF"),
        pytest.param(lambda: _WD(2, {(True, 2): _F(1)}), ValueTypeError, id="arc (True,2)"),
        pytest.param(lambda: _WD(2, {(1, 2, 1): _F(1)}), ValueTypeError, id="arc (1,2,1)"),
        pytest.param(lambda: _WD(2, {1: _F(1)}), ValueTypeError, id="arc 1"),
        pytest.param(lambda: _WD(2, [((1, 2), _F(1))]), ValueTypeError, id="arc list"),
        pytest.param(lambda: _WD(0, {}), ShapeError, id="0 nodes"),
        pytest.param(lambda: _WD(True, {}), ValueTypeError, id="True nodes"),
        pytest.param(lambda: tcone_membership(_CONFIG, _PP((0.5, 0.25))),
                     ValueTypeError, id="cone point of floats"),
        pytest.param(lambda: closed_sector_membership(_PP((0.5, 0.25)), (0, 1), 1),
                     ValueTypeError, id="sector point of floats"),
        pytest.param(lambda: _PP((0, 1)), ValueTypeError, id="int coordinates"),
        pytest.param(lambda: _PP([_F(0)]), ValueTypeError, id="coordinate list"),
        pytest.param(lambda: tcone_membership(_CONFIG, _PP((INF, INF))),
                     DomainError, id="cone point at INF only"),
        pytest.param(lambda: _PP(()), DomainError, id="no coordinate"),
        pytest.param(lambda: signed_graph(_PSI, _SV(("x", "-")), _CONFIG.support()),
                     DomainError, id="sign x"),
        pytest.param(lambda: _SV("+-"), ValueTypeError, id="sign string"),
        pytest.param(lambda: _NP(3, ((1,), (1, 2))), DomainError, id="node 1 twice, 3 missing"),
        pytest.param(lambda: _NP(2, ((1, 2), ())), DomainError, id="empty block"),
        pytest.param(lambda: NodePartition.make(2, [[1, 2], []]), DomainError, id="make empty block"),
        pytest.param(lambda: _NP(2, ((True, 2),)), ValueTypeError, id="node True"),
        pytest.param(lambda: _NP(2, [(1, 2)]), ValueTypeError, id="block list"),
        pytest.param(lambda: _NP(2.0, ((1, 2),)), ValueTypeError, id="node count 2.0"),
        pytest.param(lambda: _BG(2, 2, frozenset({(3, 1), (1, 2)})), DomainError, id="support arc (3,1)"),
        pytest.param(lambda: signed_graph(_BG(2, 2, frozenset({(3, 1), (1, 2)})), _SV(("+", "+")),
                                          _CONFIG.support()), DomainError, id="selection arc (3,1)"),
        pytest.param(lambda: _BG(2, 2, frozenset({(1, 0)})), DomainError, id="support arc (1,0)"),
        pytest.param(lambda: _BG(2, 2, frozenset({5})), ValueTypeError, id="support arc 5"),
        pytest.param(lambda: _BG(2, 2, [(1, 1)]), ValueTypeError, id="support arc list"),
        pytest.param(lambda: _BG(2, 0, frozenset()), ShapeError, id="support of 0 columns"),
        pytest.param(lambda: BipartiteSupportGraph.make(0, 2, []), ShapeError, id="make 0 rows"),
        pytest.param(lambda: BipartiteSupportGraph.make(-1, 2, []), ShapeError, id="make -1 rows"),
        pytest.param(lambda: _BG(80, 80, frozenset({(81, 1)})), DomainError, id="80x80 arc (81,1)"),
    ],
)
def test_the_constructors_refuse_what_make_refuses(build, error):
    with pytest.raises(error):
        build()
    assert issubclass(error, TropicalError)
    # what make builds passes the constructor unchanged
    m = M([[0, "inf"], ["1/3", -2]])
    assert TropicalMatrix(*[getattr(m, f) for f in m._fields]) == m
    w = WeightedDigraph.make(2, {(1, 2): "1/3", (2, 2): -1, (2, 1): "inf"})
    assert WeightedDigraph(w.k, dict(w.arcs)) == w
    for made in (ProjectivePoint.make(["inf", "1/3", -2]), SignVector.make("+-"),
                 NodePartition.make(3, [[3, 1], [2]]), _PSI, _BG.make(80, 80, [(80, 1)])):
        assert type(made)(*[getattr(made, f) for f in made._fields]) == made


def test_identity_is_multiplicative_unit():
    a = M([[0, 2, "inf"], [1, 0, -1], [3, "inf", 2]])
    e = TropicalMatrix.identity(3)
    assert trop_mat_mul(a, e) == a
    assert trop_mat_mul(e, a) == a


def test_oplus_odot_small_golden():
    a = M([[0, 1], ["inf", 2]])
    b = M([[3, "inf"], [0, 0]])
    assert a.oplus(b) == M([[0, 1], [0, 0]])
    # (a odot b)_11 = min(0+3, 1+0) = 1
    assert a.odot(b) == M([[1, 1], [2, 2]])


def test_transpose_and_submatrix():
    a = M([[1, 2, 3], [4, 5, 6]])
    assert a.transpose() == M([[1, 4], [2, 5], [3, 6]])
    assert a.submatrix([2], [1, 3]) == M([[4, 6]])


def test_trop_det_unique_optimum():
    res = trop_det(M([[0, 5], [5, 0]]))
    assert res.value == Fraction(0)
    assert res.optimal_permutations == frozenset({(1, 2)})
    assert not res.vanishes


def test_trop_det_tie_vanishes():
    res = trop_det(M([[0, 0], [2, 2]]))
    assert res.value == Fraction(2)
    assert res.optimal_permutations == frozenset({(1, 2), (2, 1)})
    assert res.vanishes


def test_trop_det_infinite_vanishes():
    res = trop_det(M([["inf", 0], ["inf", 0]]))
    assert res.value is INF
    assert res.vanishes


def test_trop_det_requires_square_and_bounds():
    with pytest.raises(ShapeError):
        trop_det(M([[1, 2]]))
    big = M([[0] * 10 for _ in range(10)])
    with pytest.raises(CapabilityError):
        trop_det(big)
    assert trop_det(big, perm_bound=10).value == Fraction(0)


def test_is_generic_positive():
    ok, witness = is_generic(M([[0, 1], [3, 0]]))
    assert ok and witness is None


def test_is_generic_witness_on_degenerate_columns():
    # columns 1 and 2 of the purity counter-example carry a tied 2x2 minor
    v = M([[0, 0, 0, 0, 0], [3, 2, 1, "inf", "inf"], [2, 2, "inf", 1, 3]])
    ok, witness = is_generic(v)
    assert not ok
    assert witness is not None
    rows, cols = witness
    sub = trop_det(v.submatrix(rows, cols))
    assert sub.vanishes
    # the specific minor rows {1,3} x cols {1,2} has value 2, two optima
    tie = trop_det(v.submatrix((1, 3), (1, 2)))
    assert tie.value == Fraction(2)
    assert len(tie.optimal_permutations) == 2
    assert tie.vanishes


def test_is_generic_capability_bound():
    v = M([[0] * 12 for _ in range(12)])
    with pytest.raises(CapabilityError):
        is_generic(v, submatrix_bound=100)


# entries in -2..2 over denominators 1..3, so ties are common, and INF
# with probability 1/8
_ENTRY = st.integers(0, 7).flatmap(
    lambda t: st.just(INF) if t == 0 else st.integers(1, 3).flatmap(
        lambda q: st.integers(-2 * q, 2 * q).map(lambda p: Fraction(p, q))
    )
)


@st.composite
def _matrices(draw, max_rows, max_cols, square=False):
    d = draw(st.integers(1, max_rows))
    n = d if square else draw(st.integers(1, max_cols))
    return M(draw(st.lists(st.lists(_ENTRY, min_size=n, max_size=n), min_size=d, max_size=d)))


@settings(max_examples=300, deadline=None)
@given(_matrices(6, 6, square=True))
def test_trop_det_matches_the_permutation_oracle(a):
    value, opt, vanishes = trop_det_by_permutations(a)
    res = trop_det(a)
    assert res.value == value
    assert res.vanishes == vanishes
    assert res.optimal_permutations == opt


@settings(max_examples=300, deadline=None)
@given(_matrices(4, 5))
def test_is_generic_matches_the_minor_oracle(v):
    assert is_generic(v) == is_generic_by_minors(v)


_PC = PointConfig.make([[0, "inf"], [2, 5]])
_W = WeightedDigraph.make(2, {(1, 2): 3})
_G = _PC.support()


@pytest.mark.parametrize(
    "take, error",
    [
        pytest.param(lambda: _PC.column_support(0), DomainError, id="column_support(0)"),
        pytest.param(lambda: _PC.column_support(-1), DomainError, id="column_support(-1)"),
        pytest.param(lambda: _PC.column_support(3), DomainError, id="column_support(3)"),
        pytest.param(lambda: _PC.column_support("1"), ValueTypeError, id='column_support("1")'),
        pytest.param(lambda: _PC.entry(3, 1), DomainError, id="entry(3, 1)"),
        pytest.param(lambda: _PC.entry(1, 0), DomainError, id="entry(1, 0)"),
        pytest.param(lambda: _PC.entry(1.0, 1), ValueTypeError, id="entry(1.0, 1)"),
        pytest.param(lambda: _PC.entry(True, 1), ValueTypeError, id="entry(True, 1)"),
        pytest.param(lambda: _PC.v.row(0), DomainError, id="v.row(0)"),
        pytest.param(lambda: _PC.v.row(-2), DomainError, id="v.row(-2)"),
        pytest.param(lambda: _PC.v.col(3), DomainError, id="v.col(3)"),
        pytest.param(lambda: _PC.v.col(False), ValueTypeError, id="v.col(False)"),
        pytest.param(lambda: _PC.v.entry(0, 0), DomainError, id="v.entry(0, 0)"),
        pytest.param(lambda: _PC.v.submatrix([1, 0], [1]), DomainError, id="submatrix row 0"),
        pytest.param(lambda: _PC.v.submatrix([1], [2.0]), ValueTypeError, id="submatrix 2.0"),
        pytest.param(lambda: _PC.v.submatrix([], [1]), ShapeError, id="submatrix no row"),
        pytest.param(lambda: _PC.v.submatrix([1], []), ShapeError, id="submatrix no column"),
        pytest.param(lambda: _W.weight(0, 1), DomainError, id="weight(0, 1)"),
        pytest.param(lambda: _W.weight(3, 3), DomainError, id="weight(3, 3)"),
        pytest.param(lambda: _W.weight(1, 2.0), ValueTypeError, id="weight(1, 2.0)"),
        pytest.param(lambda: _G.row_neighbors(3), DomainError, id="row_neighbors(3)"),
        pytest.param(lambda: _G.row_neighbors(0), DomainError, id="row_neighbors(0)"),
        pytest.param(lambda: _G.row_neighbors(True), ValueTypeError, id="row_neighbors(True)"),
        pytest.param(lambda: _G.col_neighbors(0), DomainError, id="col_neighbors(0)"),
        pytest.param(lambda: _G.col_neighbors(3), DomainError, id="col_neighbors(3)"),
        pytest.param(lambda: _G.tuple_string([5]), DomainError, id="tuple_string([5])"),
        pytest.param(lambda: _G.tuple_string([0]), DomainError, id="tuple_string([0])"),
        pytest.param(lambda: _G.tuple_string(["1"]), ValueTypeError, id='tuple_string(["1"])'),
    ],
)
def test_accessors_refuse_indices_outside_one_to_size(take, error):
    with pytest.raises(error):
        take()
    # in range, the 1-based accessors still read the stored rows
    assert _PC.column_support(2) == {2}
    assert _PC.v.row(2) == _PC.v.entries[1] and _PC.entry(2, 2) == 5
    assert _W.weight(1, 2) == 3 and _W.weight(2, 1) is INF
    assert _G.row_neighbors(2) == (1, 2) and _G.col_neighbors(2) == (2,)
    assert _G.tuple_string([1]) == "(•,12)"
