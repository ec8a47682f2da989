"""The frozen value classes: fields, equality, hash, immutability, repr and pickling."""

import copy
import pickle
import re
from fractions import Fraction

import pytest

import wdpoly
from wdpoly import (
    BipartiteSupportGraph,
    HalfspaceSystem,
    NodePartition,
    PointConfig,
    ProjectivePoint,
    RecessionDecomposition,
    Sector,
    SignVector,
    SubdivisionCell,
    TangentDigraph,
    TropicalMatrix,
    WeightedDigraph,
    cone_face_lattice,
    covector_of_point,
    detect_negative_cycle,
    enumerate_cells,
    kleene_star,
    membership,
    regular_subdivision,
    tcone_membership,
    trop_det,
)
from wdpoly.semiring import _Record

V = PointConfig.make([[0, 1], [2, 0]])
PSI = BipartiteSupportGraph.make(2, 2, [(1, 1), (2, 2)])

# Per public record class, two builders of records that differ in one compared field.
# Each builder makes a new object per call, so equal records are never the same object.
SAMPLES = {
    "BipartiteSupportGraph": (
        lambda: BipartiteSupportGraph.make(2, 2, [(1, 1)]),
        lambda: BipartiteSupportGraph.make(2, 2, [(1, 2)]),
    ),
    "CellRecord": (lambda: enumerate_cells(V)[0], lambda: enumerate_cells(V)[1]),
    "ConeFaceLattice": (
        lambda: cone_face_lattice(WeightedDigraph.make(2, {(1, 2): 0})),
        lambda: cone_face_lattice(WeightedDigraph.make(2, {(1, 2): 0, (2, 1): 0})),
    ),
    "HalfspaceSystem": (
        lambda: HalfspaceSystem.make(V, PSI),
        lambda: HalfspaceSystem.make(V, BipartiteSupportGraph.make(2, 2, [(1, 1), (1, 2)])),
    ),
    "NodePartition": (
        lambda: NodePartition.make(3, [[1, 2], [3]]),
        lambda: NodePartition.make(3, [[1], [2, 3]]),
    ),
    "PointConfig": (
        lambda: PointConfig.make([[0, 1], [2, 0]]), lambda: PointConfig.make([[0, 1]])
    ),
    "ProjectivePoint": (
        lambda: ProjectivePoint.make([0, 1]), lambda: ProjectivePoint.make([0, 2])
    ),
    "RecessionDecomposition": (
        lambda: RecessionDecomposition(((1, 1),), ()),
        lambda: RecessionDecomposition(((1, 1),), ((1, 0),)),
    ),
    "Sector": (lambda: Sector((0, 1), 1), lambda: Sector((0, 1), 2)),
    "SignVector": (lambda: SignVector.make("+-"), lambda: SignVector.make("-+")),
    "SubdivisionCell": (
        lambda: SubdivisionCell(frozenset({(1, 1), (2, 2)}), 1),
        lambda: SubdivisionCell(frozenset({(1, 1), (2, 2)}), 2),
    ),
    "TangentDigraph": (
        lambda: TangentDigraph(2, 2, (2,), frozenset(), frozenset({(1, 2)})),
        lambda: TangentDigraph(2, 2, (), frozenset(), frozenset()),
    ),
    "TropicalDetResult": (
        lambda: trop_det(TropicalMatrix.make([[0, 1], [1, 0]])),
        lambda: trop_det(TropicalMatrix.make([[0, 1], [2, 0]])),
    ),
    "TropicalMatrix": (
        lambda: TropicalMatrix.make([[0, 1]]), lambda: TropicalMatrix.make([[0, 2]])
    ),
    "WeightedDigraph": (
        lambda: WeightedDigraph.make(2, {(1, 2): 1}),
        lambda: WeightedDigraph.make(2, {(1, 2): 2}),
    ),
}


def test_every_public_record_class_has_samples():
    public = {
        name for name in wdpoly.__all__
        if isinstance(getattr(wdpoly, name), type) and issubclass(getattr(wdpoly, name), _Record)
    }
    assert public - {"CovectorGraph"} == set(SAMPLES)


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_record_semantics(name):
    make, make_other = SAMPLES[name]
    a, b, other = make(), make(), make_other()
    assert type(a) is getattr(wdpoly, name)
    # equality and hash follow the fields
    assert a == b and a is not b and hash(a) == hash(b)
    assert a != other and not a == other
    assert a != object() and a.__eq__(object()) is NotImplemented
    # frozen: no field, nor any new attribute, can be assigned or deleted
    for field in list(type(a).__annotations__) + ["extra"]:
        with pytest.raises(AttributeError):
            setattr(a, field, None)
        with pytest.raises(AttributeError):
            delattr(a, field)
    assert a == b
    # pickle and copy rebuild an equal record
    for twin in (pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a)):
        assert type(twin) is type(a) and twin == a and hash(twin) == hash(a)


def test_records_build_by_position_or_name():
    cell = enumerate_cells(V)[0]
    fields = ("graph", "dimension", "bounded", "in_tcone", "stratum")
    values = [getattr(cell, f) for f in fields]
    assert wdpoly.CellRecord(*values) == cell
    assert wdpoly.CellRecord(**dict(zip(fields, values))) == cell
    assert wdpoly.CellRecord(*values[:2], **dict(zip(fields[2:], values[2:]))) == cell
    for args, kwargs in [(values[:4], {}), (values + [0], {}), (values, {"graph": cell.graph}),
                         (values[:4], {"strata": cell.stratum})]:
        with pytest.raises(TypeError):
            wdpoly.CellRecord(*args, **kwargs)


@pytest.mark.parametrize(
    "name", sorted(n for n in SAMPLES if getattr(wdpoly, n).__init__ is _Record.__init__)
)
def test_records_of_the_shared_constructor_build_by_name(name):
    rec = SAMPLES[name][0]()
    cls, fields = type(rec), type(rec)._fields
    values = [getattr(rec, f) for f in fields]
    assert cls(**dict(zip(fields, values))) == rec
    assert cls(*values[:1], **dict(zip(fields[1:], values[1:]))) == rec
    named = re.escape(f"{name}() takes the fields {', '.join(fields)}")
    for args, kwargs in [
        (values[:-1], {}),  # a field missing
        (values[:-1], {"no_such_field": values[-1]}),  # an unknown field
        (values, {fields[0]: values[0]}),  # a field given twice
        (values + [values[0]], {}),  # one value too many
    ]:
        with pytest.raises(TypeError, match=named):
            cls(*args, **kwargs)


def test_slotted_records_keep_no_instance_dict():
    for name in ("BipartiteSupportGraph", "CellRecord", "SubdivisionCell", "TangentDigraph"):
        record = SAMPLES[name][0]()
        assert not hasattr(record, "__dict__"), name


def test_reprs_match_the_field_listing():
    assert repr(enumerate_cells(V)[0]) == (
        "CellRecord(graph=BipartiteSupportGraph(d=2, n=2, arcs=frozenset({(1, 1), (1, 2)})), "
        "dimension=1, bounded=False, in_tcone=False, stratum=frozenset())"
    )
    assert repr(trop_det(TropicalMatrix.make([[0, 1], [1, 0]]))) == (
        "TropicalDetResult(value=Fraction(0, 1), vanishes=False)"
    )
    assert repr(WeightedDigraph.make(2, {(1, 2): "1/2"})) == (
        "WeightedDigraph(k=2, arcs={(1, 2): Fraction(1, 2)})"
    )
    assert repr(Sector((0, 1), 2)) == "Sector(apex=(Fraction(0, 1), Fraction(1, 1)), index=2)"
    assert repr(SignVector.make("+-")) == "SignVector(signs=('+', '-'))"


def test_a_determinant_caches_its_permutations():
    r = trop_det(TropicalMatrix.make([[0, 0], [0, 0]]))
    perms = r.optimal_permutations
    assert perms == {(1, 2), (2, 1)}
    assert r.optimal_permutations is perms
    assert pickle.loads(pickle.dumps(r)).optimal_permutations == perms
    # the cached listing is no field: a fresh determinant of the same matrix is equal
    fresh = trop_det(TropicalMatrix.make([[0, 0], [0, 0]]))
    assert fresh == r and hash(fresh) == hash(r)


def test_the_int_view_of_a_digraph_or_configuration_is_no_field():
    def digraph():
        return WeightedDigraph.make(3, {(1, 2): "1/3", (2, 3): "-1/97", (3, 1): 2})

    def config():
        return PointConfig.make([["1/3", "inf", 0], [0, "5/97", 1]])

    def query_digraph(w):
        kleene_star(w)
        membership(w, [0, "1/2", 1])

    def query_config(v):
        covector_of_point(v, [0, "1/7"])
        tcone_membership(v, ProjectivePoint.make(["inf", 0]))
        # the walks read the view too, and the cells they return stay slotted
        assert not hasattr(enumerate_cells(v)[0], "__dict__")
        assert not hasattr(regular_subdivision(v)[0], "__dict__")

    for make, query in ((digraph, query_digraph), (config, query_config)):
        record = make()
        query(record)
        view = vars(record)["_ints"]  # kept after the first query, and read again
        query(record)
        assert record._ints is view
        fresh = make()
        assert record == fresh and fresh == record and hash(record) == hash(fresh)
        assert repr(record) == repr(fresh)
        assert pickle.dumps(record) == pickle.dumps(fresh)
        for twin in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
            assert twin == fresh and "_ints" not in vars(twin)


def test_a_digraphs_arcs_are_read_only():
    # the int view is kept, so a changed weight would leave the shortest-path queries stale
    w = WeightedDigraph.make(2, {(1, 2): 1, (2, 1): 0})
    star = kleene_star(w)
    mutations = (
        lambda a: a.__setitem__((1, 2), Fraction(-5)), lambda a: a.__delitem__((1, 2)),
        lambda a: a.update({(1, 2): Fraction(-5)}), lambda a: a.setdefault((1, 1), Fraction(-1)),
        lambda a: a.pop((1, 2)), lambda a: a.popitem(), lambda a: a.clear(),
        lambda a: a.__ior__({(1, 2): Fraction(-5)}),
    )
    for mutate in mutations:
        with pytest.raises(TypeError, match="read-only"):
            mutate(w.arcs)
    assert w.arcs == {(1, 2): 1, (2, 1): 0} and w == WeightedDigraph(2, dict(w.arcs))
    assert kleene_star(w) == star and detect_negative_cycle(w) is None
    # the weight changes in a new digraph, which sees the negative cycle 1 -> 2 -> 1
    changed = WeightedDigraph.make(2, {**w.arcs, (1, 2): -5})
    assert changed.arcs == {(1, 2): -5, (2, 1): 0} and detect_negative_cycle(changed) is not None
    for twin in (pickle.loads(pickle.dumps(w)), copy.copy(w), copy.deepcopy(w)):
        with pytest.raises(TypeError):
            twin.arcs[(1, 2)] = Fraction(-5)


def test_a_record_class_leaves_no_field_out_of_equality():
    with pytest.raises(TypeError):
        type("Partial", (_Record,), {"__annotations__": {"a": int}}, uncompared=("a",))
