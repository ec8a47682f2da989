"""Covector decompositions, tropical cones, halfspaces and signed cells.

The covector of a point x records, for every apex column of a point
configuration, which sectors of that apex contain x.  The cells with a
common covector decompose R^d and, after compactification, tropical
projective space.  This module enumerates those cells, decides
membership in tropical cones and halfspaces, tests pureness, computes
signed cells and tangent digraphs, and decomposes the boundary strata.
A covector compares ints: V's entries times the LCM L of their denominators
(``PointConfig._ints``) and the point times lcm(L, its denominators).
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterable, Sequence

from .digraph import WeightedDigraph, _flood, _masks, _parts
from .envelope import BipartiteSupportGraph, CovectorGraph, PointConfig, interior_point_of_face
from .envelope import _arcs_of, _walk
from .errors import CapabilityError, DomainError, EmptyCellError, ShapeError, ValueTypeError
from .semiring import INF, TVal, _bound, _index, _instance, _iterable, _position, is_finite, tpoint
from .semiring import _point, _Record, _rescaled, _scaled


# ---------------------------------------------------------------------------
# sectors and projective points


class Sector(_Record):
    """The i-th sector of the apex u: where coordinate i attains the minimum.

    A point z lies in the sector iff z_l - z_i <= u_l - u_i for every l
    in the support of u.
    """

    apex: tuple[TVal, ...]
    index: int

    def __post_init__(self):
        object.__setattr__(self, "apex", tpoint(self.apex))
        _position(self.index, len(self.apex), "sector")
        if self.apex[self.index - 1] is INF:
            raise DomainError(f"apex coordinate {self.index} is infinite")

    def digraph(self) -> WeightedDigraph:
        """The sector as a weighted digraph polyhedron on [d]."""
        i, ui = self.index, self.apex[self.index - 1]
        arcs = {(l, i): u - ui for l, u in enumerate(self.apex, start=1) if l != i and is_finite(u)}
        return WeightedDigraph(len(self.apex), arcs)

    def contains(self, x: Sequence) -> bool:
        """Whether x lies in the closed sector, points at infinity included: the covector rule."""
        pt = _point(x, len(self.apex), "apex dimension does not match the point")
        view = _scaled({(l, 1): u for l, u in enumerate(self.apex, start=1) if u is not INF})
        return self.index in _covector(view, 1, pt)[2][0]


class ProjectivePoint(_Record):
    """A point of tropical projective space: coordinates with a finite entry.

    The canonical representative shifts the first finite coordinate to 0.
    """

    coords: tuple[TVal, ...]

    def __post_init__(self):
        """Refuse what ``make`` refuses: a value other than a Fraction or INF, no finite one."""
        if not {Fraction, type(INF)}.issuperset(map(type, _instance(self.coords, tuple))):
            raise ValueTypeError("coordinates must be Fractions or INF; make coerces other values")
        if all(c is INF for c in self.coords):
            raise DomainError("projective point needs at least one finite coordinate")

    @classmethod
    def make(cls, coords: Iterable) -> "ProjectivePoint":
        raw = tpoint(coords)
        shift = next((c for c in raw if c is not INF), 0)
        return cls(tuple(c - shift if c is not INF else INF for c in raw))

    @property
    def d(self) -> int:
        return len(self.coords)

    def support(self) -> frozenset[int]:
        return frozenset(i for i, c in enumerate(self.coords, start=1) if c is not INF)

    def is_finite(self) -> bool:
        return len(self.support()) == self.d


def closed_sector_membership(z: ProjectivePoint, u: Sequence[TVal], i: int) -> bool:
    """Whether z lies in the compactified i-th sector of apex u.

    That is ``Sector(u, i).contains(z.coords)``.
    """
    u = tpoint(u)
    if len(u) != _instance(z, ProjectivePoint).d:
        raise ShapeError("apex dimension does not match the point")
    return Sector(u, i).contains(z.coords)


# ---------------------------------------------------------------------------
# covectors of points and tropical cone membership


def _covector(view: tuple, n: int, pt: Sequence[TVal]) -> tuple[int, list, list[list[int]]]:
    """The covector of any point: (L', each column's max of pt_i - v_ij times L', its argmax rows).

    Row i attains column j's max, the argmin of v_ij - pt_i, iff pt lies in
    the closed sector i of apex j.  V's int ``view`` of n columns and pt are compared as
    ints scaled by ``semiring._rescaled``, so adding a constant to pt changes only the maxima.
    An infinite pt_i gives INF, so a column whose support meets one is attained exactly there.
    """
    scale, ints = view
    big, m, p = _rescaled(scale, pt)
    top, rows = [None] * n, [None] * n
    for (i, j), x in ints.items():
        y = p[i - 1]
        if y is not INF:
            y -= x * m
        t = top[j - 1]
        if t is None or y > t:
            top[j - 1], rows[j - 1] = y, [i]
        elif y == t:
            rows[j - 1].append(i)
    return big, top, rows


def covector_of_point(v: PointConfig, x: Sequence) -> CovectorGraph:
    """The covector graph of a finite point: per column, the argmin rows of v_ij - x_i."""
    pt = _point(x, _instance(v, PointConfig).d, "point has length {}, configuration has d={}",
                "covector_of_point")
    arcs = {(i, j) for j, rows in enumerate(_covector(v._ints, v.n, pt)[2], start=1) for i in rows}
    return BipartiteSupportGraph(v.d, v.n, frozenset(arcs))


def tcone_membership(v: PointConfig, z: ProjectivePoint) -> tuple[bool, tuple[TVal, ...]]:
    """Whether z lies in the tropical span of the columns of V.

    Uses the sector criterion: every index in the support of z must lie
    in the closed sector of some apex at that index, i.e. every finite
    coordinate is a row with an arc in the covector graph of z.  The
    multipliers lambda_j = max_i (z_i - v_ij) over finite v_ij reproduce
    z as a tropical combination exactly when the verdict is positive.
    """
    if _instance(z, ProjectivePoint).d != _instance(v, PointConfig).d:
        raise ShapeError("point dimension does not match the configuration")
    big, top, rows = _covector(v._ints, v.n, z.coords)
    lam = tuple(t if t is INF else Fraction(t, big) for t in top)
    return z.support() <= {i for r in rows for i in r}, lam


# ---------------------------------------------------------------------------
# cell records and enumeration

_TORUS = frozenset()  # the empty stratum, which every torus cell shares


class CellRecord(_Record):
    """One cell of a covector decomposition, possibly on a boundary stratum.

    The graph keeps the original row and column labels even for boundary
    cells; ``stratum`` lists the rows sent to infinity (empty for torus
    cells).  ``dimension`` is taken inside the cell's own stratum.
    """

    __slots__ = ("graph", "dimension", "bounded", "in_tcone", "stratum")
    graph: BipartiteSupportGraph
    dimension: int
    bounded: bool
    in_tcone: bool
    stratum: frozenset[int]

    def __init__(self, graph, dimension: int, bounded: bool, in_tcone: bool, stratum: frozenset):
        set_graph, set_dimension, set_bounded, set_in_tcone, set_stratum = self._setters
        set_graph(self, graph)
        set_dimension(self, dimension)
        set_bounded(self, bounded)
        set_in_tcone(self, in_tcone)
        set_stratum(self, stratum)

    def tuple_string(self) -> str:
        return self.graph.tuple_string(self.stratum)

    def sort_key(self):
        return (
            len(self.stratum),
            tuple(sorted(self.stratum)),
            -self.dimension,
            self.graph.sorted_arcs(),
        )


def _cell(v: PointConfig, g: list, dimension: int, bounded: bool, stratum: tuple = ()):
    """(sort key, cell) of the graph ``g`` on the sorted ``stratum`` K, arcs in sorted order.

    The key is ``CellRecord.sort_key`` without a sort; no two cells share one,
    so a list of pairs sorts by key alone.  As in ``tcone_membership``, X_G lies in
    the tropical cone iff G covers the rows of finite coordinates: every row outside K.
    """
    key = (len(stratum), stratum, -dimension, tuple(g))
    in_tcone = len({i for i, _ in g}) + len(stratum) == v.d
    graph = BipartiteSupportGraph(v.d, v.n, frozenset(g))
    return key, CellRecord(graph, dimension, bounded, in_tcone, frozenset(stratum) or _TORUS)


def _cells(v: PointConfig, candidate_bound: int, cover=None, stop=False):
    """The walk's arcs and {mask: (sort key, cell)} per torus cell, from ``envelope._walk``.

    X_G, the projection of the face F_G to R^d, is cut out by the rows' block of
    the face's star, so it is bounded modulo translation iff that block is finite.
    A minimal face has no star; every column has an arc, so X_G is a point iff G is connected.
    """
    arcs, walk = _walk(v, candidate_bound, cover, stop)
    d, cells = v.d, {}
    for g, star, k in walk:
        bounded = all(None not in r[:d] for r in star[:d]) if star else k == 1
        cells[g] = _cell(v, _arcs_of(arcs, g), k - 1, bounded)
    return arcs, cells


def enumerate_cells(
    v: PointConfig, *, candidate_bound: int = 1_000_000
) -> list[CellRecord]:
    """All cells of the covector decomposition of the projective torus."""
    return [c for _, c in sorted(_cells(v, candidate_bound)[1].values())]


def maximal_cells(cells: Sequence[CellRecord]) -> list[CellRecord]:
    """Inclusion-maximal cells: those with inclusion-minimal covector graphs."""
    cells = [_instance(c, CellRecord) for c in _iterable(cells, "a cell list")]
    out = [
        c
        for c in cells
        if not any(
            o is not c and o.stratum == c.stratum and o.graph.arcs < c.graph.arcs
            for o in cells
        )
    ]
    return sorted(out, key=CellRecord.sort_key)


def cell_sample_point(v: PointConfig, cell: CellRecord) -> tuple[TVal, ...]:
    """A relative-interior point of the cell, infinite on its stratum.

    The interior point of G's face in V's envelope with the stratum's rows
    set to infinity: those rows and the columns that meet them carry no
    arc of G, so they do not constrain the other rows.  ``EmptyCellError`` if
    the graph's face is empty; ``_strata`` checks the stratum as for ``boundary_matrix``.
    """
    next(_strata(v, _instance(cell, CellRecord).stratum))
    y, _ = interior_point_of_face(v, cell.graph)
    return tuple(INF if i in cell.stratum else x for i, x in enumerate(y, start=1))


# ---------------------------------------------------------------------------
# halfspace systems


class SignVector(_Record):
    """One sign, '+' or '-', per column of a halfspace system."""

    signs: tuple[str, ...]

    def __post_init__(self):
        """Refuse what ``make`` refuses: a sign other than '+' or '-'."""
        if any(s not in ("+", "-") for s in _instance(self.signs, tuple)):
            raise DomainError("signs must be '+' or '-'")

    @classmethod
    def make(cls, spec: Iterable[str] | str) -> "SignVector":
        return cls(tuple(spec if isinstance(spec, str) else _iterable(spec, "signs")))

    @classmethod
    def all_plus(cls, n: int) -> "SignVector":
        return cls(("+",) * _index(n, "a column count"))

    def __str__(self) -> str:
        return "".join(self.signs)

    def __len__(self) -> int:
        return len(self.signs)


class HalfspaceSystem(_Record):
    """A point configuration with a selected sector set per column.

    The arcs of psi in column j name the sectors of apex v^(j) whose
    union gives the j-th halfspace; the system is their intersection.
    Every column must select at least one sector; a proper selection
    (not all sectors of the column) can be enforced with require_proper.
    """

    config: PointConfig
    psi: BipartiteSupportGraph

    def __post_init__(self):
        v = _instance(self.config, PointConfig)
        psi = _instance(self.psi, BipartiteSupportGraph)
        if (psi.d, psi.n) != (v.d, v.n):
            raise ShapeError("selection shape does not match the configuration")
        if not psi.arcs <= v._ints[1].keys():
            raise DomainError("selected sectors must have finite apex coordinates")
        if missing := set(range(1, v.n + 1)).difference(j for _, j in psi.arcs):
            raise DomainError(f"column {min(missing)} selects no sector")

    @classmethod
    def make(
        cls,
        v: PointConfig,
        psi: BipartiteSupportGraph,
        *,
        require_proper: bool = False,
    ) -> "HalfspaceSystem":
        sys = cls(v, psi)
        if _instance(require_proper, bool):
            for j in range(1, v.n + 1):
                if frozenset(psi.col_neighbors(j)) == v.column_support(j):
                    raise DomainError(f"column {j} selects every sector")
        return sys


def signed_graph(
    psi: BipartiteSupportGraph, eps: SignVector, support: BipartiteSupportGraph
) -> BipartiteSupportGraph:
    """Flip each minus column of psi to its complement within the support."""
    if len(_instance(eps, SignVector)) != _instance(psi, BipartiteSupportGraph).n:
        raise ShapeError("sign vector length does not match the column count")
    if (_instance(support, BipartiteSupportGraph).d, support.n) != (psi.d, psi.n):
        raise ShapeError("support shape does not match the selection")
    arcs = set()
    for j, s in enumerate(eps.signs, start=1):
        chosen = frozenset(psi.col_neighbors(j))
        if s == "-":
            chosen = frozenset(support.col_neighbors(j)) - chosen
        arcs.update((i, j) for i in chosen)
    return BipartiteSupportGraph(psi.d, psi.n, frozenset(arcs))


def halfspace_membership(h: HalfspaceSystem, x: Sequence) -> bool:
    """Whether the point x of TP^{d-1} lies in the intersection of the halfspaces.

    Per column, x must lie in the closed sector of some selected row:
    its covector graph keeps an arc inside psi in every column.  The
    point may have infinite coordinates, but not only those.
    """
    v = _instance(h, HalfspaceSystem).config
    rows = _covector(v._ints, v.n, _point(x, v.d, "point dimension mismatch"))[2]
    return all(any((i, j) in h.psi.arcs for i in r) for j, r in enumerate(rows, start=1))


def cells_of_halfspace(
    h: HalfspaceSystem, *, candidate_bound: int = 1_000_000
) -> list[CellRecord]:
    """The torus cells whose union is the halfspace intersection.

    A cell belongs iff its covector graph keeps an arc of psi in every column,
    so the walk counts only psi's arcs toward covering one (``envelope._walk``).
    """
    cells = _cells(_instance(h, HalfspaceSystem).config, candidate_bound, h.psi.arcs)[1]
    return [c for _, c in sorted(cells.values())]


def is_pure(
    h: HalfspaceSystem, *, candidate_bound: int = 1_000_000
) -> tuple[bool, tuple[CellRecord, CellRecord] | None]:
    """Whether all inclusion-maximal cells of the halfspace share one dimension.

    Their graphs are inclusion-minimal, so the walk inside psi grows no cell (``envelope._walk``).
    """
    cells = _cells(_instance(h, HalfspaceSystem).config, candidate_bound, h.psi.arcs, True)[1]
    tops = maximal_cells([c for _, c in cells.values()])
    for b in tops[1:]:
        if b.dimension != tops[0].dimension:
            return False, (tops[0], b)
    return True, None


# ---------------------------------------------------------------------------
# signed cells


def signed_cells(
    h: HalfspaceSystem,
    *,
    sign_bound: int = 20,
    candidate_bound: int = 1_000_000,
) -> dict[str, list[CellRecord]]:
    """Every inversion of the system, keyed by its sign string.

    For each sign vector the minus columns flip to the complementary
    sectors; the value lists the cells, torus cells first, whose closed
    graph keeps an arc inside the flipped selection in every column.  The
    closed graph of a cell on the stratum K adds to its covector graph
    the support arcs of the rows in K: a relative-interior point has the
    cell's graph on the surviving columns and lies in every sector i in K.
    Its arc (i, j) admits "+" for column j if it lies in psi and "-" if
    not, so a cell goes under every product of its per-column sign sets.
    """
    v = _instance(h, HalfspaceSystem).config
    if v.n > _bound(sign_bound, "a sign bound"):
        raise CapabilityError(
            f"signed cell enumeration is limited to {sign_bound} columns, got {v.n}"
        )
    out = {"".join(signs): [] for signs in itertools.product("+-", repeat=v.n)}
    arcs, cells = _decomposition(v, candidate_bound)
    psi = sum(1 << b for b, a in enumerate(arcs) if a in h.psi.arcs)
    cols = [sum(1 << b for b, a in enumerate(arcs) if a[1] == j) for j in range(1, v.n + 1)]
    cols = [(col & psi, col & ~psi) for col in cols]
    for _, c, closed in cells:
        allowed = [("+" if closed & p else "") + ("-" if closed & m else "") for p, m in cols]
        for signs in itertools.product(*allowed):
            out["".join(signs)].append(c)
    return out


# ---------------------------------------------------------------------------
# tangent digraphs


class TangentDigraph(_Record):
    """Local orientation data at a cell of a halfspace system.

    Column nodes all of whose covector arcs are selected disappear; the
    surviving selected arcs point from rows to columns, the unselected
    ones from columns to rows.  Arcs are stored as (row, column) pairs.
    """

    __slots__ = ("d", "n", "columns", "row_to_col", "col_to_row")
    d: int
    n: int
    columns: tuple[int, ...]
    row_to_col: frozenset[tuple[int, int]]
    col_to_row: frozenset[tuple[int, int]]


def tangent_digraph(h: HalfspaceSystem, cell: CellRecord) -> TangentDigraph:
    """The tangent digraph of h at a torus cell; checks its shape, stratum and columns in O(arcs).

    Whether a graph covering every column has a nonempty face is the caller's to check.
    """
    g = _instance(cell, CellRecord).graph
    if (g.d, g.n) != (_instance(h, HalfspaceSystem).psi.d, h.psi.n):
        raise ShapeError("cell shape does not match the system")
    if cell.stratum:
        raise EmptyCellError("the cell lies on a boundary stratum, so it is no torus cell")
    if len({j for _, j in g.arcs}) < g.n:
        raise EmptyCellError("the graph misses a column, so it is no torus cell")
    back = frozenset(a for a in g.arcs if a not in h.psi.arcs)
    kept = {j for _, j in back}
    fwd = frozenset(a for a in g.arcs if a[1] in kept and a in h.psi.arcs)
    return TangentDigraph(g.d, g.n, tuple(sorted(kept)), fwd, back)


# ---------------------------------------------------------------------------
# projective strata


class LabeledConfig(_Record):
    """A submatrix with its original row and column labels.

    ``config`` is None when no column survives (the empty-stratum signal).
    """

    row_labels: tuple[int, ...]
    col_labels: tuple[int, ...]
    config: PointConfig | None


def _strata(v: PointConfig, *z: Iterable[int]):
    """(K, R, C) per boundary stratum, the one rule of what it keeps: the sorted infinite
    rows K, the other rows R, and C, the support of each column avoiding K by label.

    Given a row set ``z``, only K = z: ints (else ``ValueTypeError``) naming rows of V, not
    all of them (else ``DomainError``).  Else every K of 1 to d - 1 rows, after K less its last.
    """
    zset = frozenset(_index(i, "a row") for i in _iterable(z[0], "a row set")) if z else None
    rows = range(1, _instance(v, PointConfig).d + 1)
    if zset is None:
        ks = (k for size in range(1, v.d) for k in itertools.combinations(rows, size))
    elif not zset <= set(rows):
        raise DomainError("stratum rows out of range")
    elif len(zset) == v.d:
        raise DomainError("the stratum must keep at least one row")
    else:
        ks = [tuple(sorted(zset))]
    supports = [frozenset(i for i, x in zip(rows, c) if x is not INF) for c in zip(*v.v.entries)]
    for k in ks:
        cols = {j: s for j, s in enumerate(supports, start=1) if s.isdisjoint(k)}
        yield k, tuple(i for i in rows if i not in k), cols


def boundary_matrix(v: PointConfig, z: Iterable[int]) -> LabeledConfig:
    """The configuration on the stratum where the rows z are infinite: its R and C, labelled."""
    _, rows, cols = next(_strata(v, z))
    cols = tuple(cols)
    return LabeledConfig(rows, cols, PointConfig(v.v.submatrix(rows, cols)) if cols else None)


def projective_decomposition(
    v: PointConfig, *, candidate_bound: int = 1_000_000
) -> list[CellRecord]:
    """All cells of the decomposition of tropical projective space, from one torus walk.

    Where the rows K are infinite, a column avoiding K keeps its torus argmin
    rows and pushing x_K to +inf sends every other column into K's sectors, so
    K's graphs are those of K minus its largest row restricted to its R and C
    (``_strata``, ``cell_boundary_restriction``).  A cell's dimension is its
    graph's number of weak components on R and C less one.  X_G is bounded iff
    every row of R reaches all of R along the arcs r -> r', for (r', j) in G
    and r in the support of j: there the face's star is finite.
    """
    return [c for _, c, _ in _decomposition(v, candidate_bound)[1]]


def _decomposition(v: PointConfig, candidate_bound: int):
    """The walk's arcs and the sorted (sort key, cell, closed graph's mask) of each cell."""
    arcs, torus = _cells(v, candidate_bound)
    out = [(key, c, g) for g, (key, c) in torus.items()]
    d, strata = v.d, {(): torus}
    for k, rows, cols in _strata(v):
        keep = sum(1 << b for b, (_, j) in enumerate(arcs) if j in cols)
        k_arcs = sum(1 << b for b, (i, _) in enumerate(arcs) if i in k)  # in closed graphs
        # row i is node i and column j is node d + j: R is ``r_nodes``, R and C are ``nodes``
        r_nodes = sum(1 << i for i in rows)
        nodes = r_nodes | sum(1 << d + j for j in cols)
        strata[k] = {g & keep for g in strata[k[:-1]]}
        for mask in strata[k]:
            g = _arcs_of(arcs, mask)
            nbr = _masks(d + v.n + 1, [(i, d + j) for i, j in g])[1]
            dimension = len(list(_parts(nbr, nodes))) - 1
            succ = _masks(d + 1, [(r, i) for i, j in g for r in cols[j]])[0]
            bounded = all(_flood(1 << r, succ, r_nodes) == r_nodes for r in rows)
            out.append((*_cell(v, g, dimension, bounded, k), mask | k_arcs))
    return arcs, sorted(out)


def cell_boundary_restriction(
    v: PointConfig, g: CovectorGraph, z: Iterable[int]
) -> BipartiteSupportGraph:
    """Where the closure of the torus cell X_G meets the stratum z: G's arcs in its R and C."""
    k, _, cols = next(_strata(v, z))
    if (_instance(g, BipartiteSupportGraph).d, g.n) != (v.d, v.n):
        raise ShapeError("graph shape does not match the configuration")
    kept = frozenset((i, j) for i, j in g.arcs if j in cols and i not in k)
    return BipartiteSupportGraph(v.d, v.n, kept)
