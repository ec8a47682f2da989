"""Envelopes of point configurations and their covector combinatorics.

A point configuration is a d-by-n tropical matrix V whose columns are
points of tropical projective space.  Its envelope is the polyhedron in
R^(d+n) cut out by y_i - z_j <= v_ij over the finite entries; faces of
the envelope are labeled by bipartite covector graphs on [d] | [n], and
the inclusion-maximal covector graphs are the vertex sets of the maximal
cells of a regular subdivision of a subpolytope of a product of two
simplices.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import groupby
from operator import itemgetter
from typing import Iterable, Iterator

from .digraph import (
    WeightedDigraph,
    _completed_point,
    _masks,
    _parts,
    _rays,
    _star,
)
from .errors import CapabilityError, DomainError, EmptyCellError, InfeasibleError, ShapeError
from .matrix import TropicalMatrix, trop_mat_mul
from .semiring import INF, _Record, _bound, _index, _instance, _iterable, _position, _scaled


class PointConfig(_Record):
    """A d-by-n matrix over the tropical semiring, no all-infinite column.

    The walks and the point queries share the int view ``_ints``.
    """

    v: TropicalMatrix

    def __post_init__(self):
        for j, col in enumerate(zip(*_instance(self.v, TropicalMatrix).entries), start=1):
            if all(x is INF for x in col):
                raise DomainError(f"column {j} is entirely infinite")

    @classmethod
    def make(cls, data: Iterable[Iterable]) -> "PointConfig":
        return cls(TropicalMatrix.make(data))

    @property
    def d(self) -> int:
        return self.v.rows

    @property
    def n(self) -> int:
        return self.v.cols

    def entry(self, i: int, j: int):
        return self.v.entry(i, j)

    @cached_property
    def _ints(self) -> tuple[int, dict[tuple[int, int], int]]:
        """``_scaled`` of the finite entries v_ij, keyed (i, j) in sorted order."""
        return _scaled(self.v._finite())

    def support(self) -> "BipartiteSupportGraph":
        """B(V): the arcs (i,j) with a finite entry."""
        return BipartiteSupportGraph(self.d, self.n, frozenset(self._ints[1]))

    def column_support(self, j: int) -> frozenset[int]:
        c = _position(j, self.n, "column")
        return frozenset(i for i, row in enumerate(self.v.entries, start=1) if row[c] is not INF)


class BipartiteSupportGraph(_Record):
    """A set of arcs inside [d] x [n], row side first."""

    __slots__ = ("d", "n", "arcs")
    d: int
    n: int
    arcs: frozenset[tuple[int, int]]

    def __init__(self, d: int, n: int, arcs: frozenset[tuple[int, int]]):  # cheaper than _Record's
        set_d, set_n, set_arcs = self._setters
        set_d(self, d)
        set_n(self, n)
        set_arcs(self, arcs)
        grid = _GRIDS.get((d, n))  # one subset test refuses what ``make`` refuses
        if grid is None or type(arcs) is not frozenset or not arcs <= grid:
            _check_arcs(d, n, arcs)

    @classmethod
    def make(cls, d: int, n: int, arcs: Iterable[tuple[int, int]]) -> "BipartiteSupportGraph":
        d, n = _index(d, "a row count"), _index(n, "a column count")
        return cls(d, n, frozenset(_index(a, "an arc", pair=True) for a in _iterable(arcs, "arcs")))

    def row_neighbors(self, i: int) -> tuple[int, ...]:
        i = _position(i, self.d, "row") + 1
        return tuple(sorted(j for (a, j) in self.arcs if a == i))

    def col_neighbors(self, j: int) -> tuple[int, ...]:
        j = _position(j, self.n, "column") + 1
        return tuple(sorted(i for (i, b) in self.arcs if b == j))

    def weak_component_count(self) -> int:
        """Weak components on the full node set [d] | [n], isolated nodes included."""
        return sum(1 for _ in _components(self.d, self.n, self.arcs))

    def nontrivial_components(self) -> list[tuple[frozenset[int], frozenset[int]]]:
        """Weak components with at least one arc, as (row set, column set) pairs."""
        d, n = self.d, self.n
        return [
            (frozenset(i for i in range(1, d + 1) if q >> i - 1 & 1),
             frozenset(j for j in range(1, n + 1) if q >> d + j - 1 & 1))
            for q in _components(d, n, self.arcs)
            if q & q - 1
        ]

    def tuple_string(self, stratum: Iterable[int] = ()) -> str:
        """Human rendering by rows, e.g. ``(13,2,2)``, with ``|`` between columns when n > 9.

        A row is ``-`` when it has no arc and ``•`` when it is in the
        stratum of rows sent to infinity.
        """
        return self._tuple_string(self.sorted_arcs(), stratum)

    def _tuple_string(self, arcs: Iterable[tuple[int, int]], stratum: Iterable[int]) -> str:
        """``tuple_string(stratum)`` given this graph's arcs in sorted order."""
        parts = ["-"] * self.d
        sep = "|" if self.n > 9 else ""
        for i, row in groupby(arcs, itemgetter(0)):
            parts[i - 1] = sep.join([str(j) for _, j in row])
        for i in _iterable(stratum, "a stratum"):
            parts[_position(i, self.d, "row")] = "•"
        return "(" + ",".join(parts) + ")"

    def sorted_arcs(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self.arcs))


def _components(d: int, n: int, arcs: Iterable[tuple[int, int]]) -> Iterator[int]:
    """The weak components of ``arcs`` on [d] | [n] as node masks, least node first.

    Row i is node i-1 and column j is node d+j-1; an isolated node is a component.
    """
    return _parts(_masks(d + n, [(i - 1, d + j - 1) for i, j in arcs])[1], (1 << d + n) - 1)


_GRIDS: dict[tuple[int, int], frozenset[tuple[int, int]]] = {}


def _check_arcs(d: int, n: int, arcs: frozenset) -> None:
    """A support graph's shape (at least 1 x 1) and arcs (a frozenset inside [d] x [n]).

    A shape of up to 4096 arcs then keeps [d] x [n] in ``_GRIDS`` (64 shapes at most),
    so the constructor's next graph of that shape needs only a subset test.
    """
    if _index(d, "a row count") < 1 or _index(n, "a column count") < 1:
        raise ShapeError(f"a support graph needs a row and a column, got {d}x{n}")
    rows, cols = range(1, d + 1), range(1, n + 1)
    for a in _instance(arcs, frozenset):
        if not (type(a) is tuple and len(a) == 2 and a[0] in rows and a[1] in cols):
            i, j = _index(a, "an arc", pair=True)
            raise DomainError(f"arc ({i},{j}) outside [{d}]x[{n}]")
    if d * n <= 4096:
        if len(_GRIDS) == 64:
            _GRIDS.clear()
        _GRIDS[d, n] = frozenset((i, j) for i in rows for j in cols)


# A covector graph is a support graph that passes ``is_covector_graph``;
# the closure operation below produces them.
CovectorGraph = BipartiteSupportGraph


def envelope_digraph(v: PointConfig) -> WeightedDigraph:
    """The (d+n)-node digraph whose polyhedron is the envelope of V.

    Node i <= d is the row node i; node d+j is the column node j.  There
    is an arc (i, d+j) of weight v_ij for each finite entry, and nothing
    else, so the digraph is structurally acyclic and always feasible.
    """
    arcs = _instance(v, PointConfig).v._finite()
    return WeightedDigraph(v.d + v.n, {(i, v.d + j): x for (i, j), x in arcs.items()})


def _on_face(v: PointConfig, g: BipartiteSupportGraph):
    """(k, L, arcs, star) of the face digraph W#G, on the k nodes of ``envelope_digraph``.

    The int ``arcs`` are V's entries times L, reversed for G's arcs, and G
    must be a subgraph of V's support.  ``star`` is their ``_star``, whose
    ``InfeasibleError`` says that the face is empty and becomes an ``EmptyCellError``.
    """
    if (_instance(g, BipartiteSupportGraph).d, g.n) != (_instance(v, PointConfig).d, v.n):
        raise ShapeError("graph shape does not match the configuration")
    scale, entries = v._ints
    if not g.arcs <= entries.keys():
        raise DomainError(f"arcs {sorted(g.arcs - entries.keys())} are not in the support of V")
    arcs = {(i, v.d + j): w for (i, j), w in entries.items()}
    arcs.update({(v.d + j, i): -entries[i, j] for i, j in g.arcs})
    try:
        return v.d + v.n, scale, arcs, _star(v.d + v.n, arcs)
    except InfeasibleError as exc:
        raise EmptyCellError(f"face is empty: negative cycle {exc.cycle}") from None


# ---------------------------------------------------------------------------
# Kleene stars of face digraphs: (d+n)-square lists of rows, where node r < d
# is row r+1, node d+c is column c+1 and None is an infinite distance.  The
# weights are V's entries as the ints of ``PointConfig._ints``.  Stars share
# the rows an update leaves alone, so a row is never mutated in place.


def _tighten(star: list[list], r: int, c: int, w: int) -> list[list]:
    """The star after adding the reversed arc c -> r of weight -w.

    Requires ``star[r][c] == w``: the new arc then closes no negative
    cycle, and one min-plus pass through it is the whole update.
    """
    reach = [(b, x) for b, x in enumerate(star[r]) if x is not None]
    out = list(star)
    for a, row in enumerate(star):
        to_c = row[c]
        if to_c is None:
            continue
        base = to_c - w
        new = list(row)
        for b, x in reach:
            cand = base + x
            if new[b] is None or cand < new[b]:
                new[b] = cand
        out[a] = new
    return out


def covector_closure(v: PointConfig, g: BipartiteSupportGraph) -> CovectorGraph:
    """Smallest covector graph containing G.

    Adds every support arc lying on a zero-weight cycle of the face
    digraph; raises ``EmptyCellError`` if the face is empty.
    """
    _, _, arcs, star = _on_face(v, g)
    closed = ((r, c - v.d) for (r, c), w in arcs.items() if r <= v.d and star[c - 1][r - 1] == -w)
    return BipartiteSupportGraph(v.d, v.n, frozenset(closed))


def is_covector_graph(v: PointConfig, g: BipartiteSupportGraph) -> bool:
    """Whether G labels a nonempty face: feasible and closed under zero cycles."""
    try:
        return covector_closure(v, g).arcs == g.arcs
    except EmptyCellError:
        return False


def cell_dimension(v: PointConfig, g: CovectorGraph) -> int:
    """Dimension of the cell X_G in the projective torus.

    The face of the envelope has dimension equal to the number of weak
    components of G on the full node set; one is removed by the global
    translation direction.
    """
    if not is_covector_graph(v, g):
        raise DomainError("not a covector graph of this configuration")
    return g.weak_component_count() - 1


def interior_point_of_face(
    v: PointConfig, g: BipartiteSupportGraph
) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """``interior_point`` of W#G: tight exactly on closure(G); ``EmptyCellError`` if it is empty."""
    pt = _completed_point(*_on_face(v, g))
    return pt[: v.d], pt[v.d :]


def face_projection_matrix(v: PointConfig, g: CovectorGraph) -> TropicalMatrix:
    """The d-by-d matrix V (x) V[G] describing the projection of F_G to R^d.

    V[G] is the n-by-d matrix with entry (j,i) equal to -v_ij when (i,j)
    is in G and infinite otherwise.
    """
    covector_closure(v, g)  # raises EmptyCellError for an empty face
    vg = TropicalMatrix.make(
        [
            [-row[j - 1] if (i, j) in g.arcs else INF for i, row in enumerate(v.v.entries, start=1)]
            for j in range(1, v.n + 1)
        ]
    )
    return trop_mat_mul(v.v, vg)


# ---------------------------------------------------------------------------
# enumeration of covector graphs


def _walk(v: PointConfig, candidate_bound: int, cover=None, stop=False):
    """V's sorted support arcs and the walk over them.

    The walk yields (mask, star, components) per graph G: bit b of ``mask`` is the arc
    ``arcs[b]`` (``_arcs_of`` reads them back), ``star`` the scaled Kleene star of W#G, and
    ``components`` the count of G's weak components on all d+n nodes, which the walk keeps
    by merging per-node labels along each closure's new arcs.  A graph with the support's
    count is a minimal face with no nonempty child: its star is None and it is not grown.
    Rather than hold more than ``candidate_bound`` graphs, found or pending, it raises.

    It yields the graphs with an arc of ``cover`` (default: every support arc)
    in each column.  A graph missing one grows only by those arcs in its
    first such column, and otherwise, unless ``stop``, by every support arc.
    So each yielded H is reached: a graph G inside H missing column j has H's
    cover arc a in column j, and closure(G+a) lies in H; from a graph inside
    H with a cover arc in every column, H is reached one arc at a time; with
    ``stop``, an inclusion-minimal H is still reached, through graphs missing a column.
    """
    bound = _bound(candidate_bound, "a candidate bound")
    arcs = list(_instance(v, PointConfig)._ints[1])
    cover = set(arcs) if cover is None else cover
    return arcs, _climb(v, bound, arcs, cover, stop)


def _arcs_of(arcs: list, mask: int) -> list:
    """The arcs whose bits are set in ``mask``: ``bin(mask)`` reversed lists bit 0 first."""
    return [a for a, bit in zip(arcs, bin(mask)[:1:-1]) if bit == "1"]


def _merged(labels: list[int], count: int, arcs: list[tuple[int, int]], d: int, mask: int):
    """Labels per node (row i is i-1, column j is d+j-1) and their count after ``mask``'s arcs."""
    while mask:
        low = mask & -mask
        i, j = arcs[low.bit_length() - 1]
        mask ^= low
        if (x := labels[i - 1]) != (y := labels[d + j - 1]):
            labels = [x if z == y else z for z in labels]
            count -= 1
    return labels, count


def _climb(v: PointConfig, candidate_bound: int, arcs, cover, stop: bool):
    minimal = sum(1 for _ in _components(v.d, v.n, arcs))
    nodes = [(1 << b, i - 1, v.d + j - 1, w) for b, ((i, j), w) in enumerate(v._ints[1].items())]
    # per column: the arcs that may cover it, as nodes, and the mask of their bits
    grow = [[x for x, a in zip(nodes, arcs) if a[1] == j + 1 and a in cover] for j in range(v.n)]
    grow = [(sum(x[0] for x in col), col) for col in grow]
    seen = {0}
    root = [[0 if a == b else None for b in range(v.d + v.n)] for a in range(v.d + v.n)]
    for _, r, c, w in nodes:
        root[r][c] = w
    stack = [(0, root, list(range(v.d + v.n)), v.d + v.n)]
    found = 0
    while stack:
        g, star, labels, components = stack.pop()
        missing = next((col for m, col in grow if not g & m), None)
        if missing is None:
            found += 1
            yield g, star, components
        if star is None or stop and missing is None:
            continue  # a minimal face has no nonempty child, and ``stop`` grows no yielded graph
        rest = [x for x in nodes if not g & x[0]]
        for _, r, c, w in rest if missing is None else missing:
            if star[r][c] != w:
                continue  # the face G+a is empty
            # closure(G+a) read off S: for b outside G, S'[cb][rb] is
            # S[cb][c] - w + S[r][rb] when that is smaller, and b is tight
            # iff it equals -wb.
            from_r = star[r]
            closed = g | sum(
                bit
                for bit, rb, cb, wb in rest
                if (x := star[cb][c]) is not None
                and (y := from_r[rb]) is not None
                and x + y + wb == w
            )
            if closed not in seen:
                if len(seen) >= candidate_bound:
                    raise CapabilityError(
                        f"cell enumeration would hold more than {candidate_bound} graphs:"
                        f" {found} found, {len(stack)} pending"
                    )
                seen.add(closed)
                merged, count = _merged(labels, components, arcs, v.d, closed & ~g)
                child = None if count == minimal else _tighten(star, r, c, w)
                stack.append((closed, child, merged, count))


def enumerate_covector_graphs(
    v: PointConfig, *, candidate_bound: int = 1_000_000
) -> list[CovectorGraph]:
    """The covector graphs of V in which every column has an arc, canonically ordered.

    These label the cells of the projective torus.  The enumeration walks
    up the face lattice from the empty graph, keeping the Kleene star S of
    the face digraph W#G of each graph G until G is expanded.  G+(i,j) is
    a nonempty face iff S[i][d+j] == v_ij; ``_walk`` says why every graph
    covering all columns is reached.
    """
    arcs, walk = _walk(v, candidate_bound)
    graphs = sorted((_arcs_of(arcs, g) for g, _, _ in walk), key=lambda g: (len(g), g))
    return [BipartiteSupportGraph(v.d, v.n, frozenset(g)) for g in graphs]


# ---------------------------------------------------------------------------
# regular subdivision


class SubdivisionCell(_Record):
    """A cell of the regular subdivision, given by its vertex set in [d] x [n]."""

    __slots__ = ("vertices", "dimension")
    vertices: frozenset[tuple[int, int]]
    dimension: int


def regular_subdivision(
    v: PointConfig, *, candidate_bound: int = 1_000_000
) -> list[SubdivisionCell]:
    """Maximal cells of the regular subdivision induced by the heights V.

    The maximal cells are exactly the inclusion-maximal covector graphs,
    which label the minimal faces of the envelope: its vertices modulo the
    lineality space, whose graphs have as many weak components as the
    support.  ``_vertices`` walks from vertex to vertex.  The cell
    conv{e_i (+) e_j : (i,j) in G} has dimension d + n - (weak components
    of G) - 1.
    """
    arcs, components, _, walk = _vertices(v, candidate_bound)
    graphs = sorted(_arcs_of(arcs, g) for g, _, _ in walk)
    return [SubdivisionCell(frozenset(g), v.d + v.n - components - 1) for g in graphs]


def _vertices(v: PointConfig, bound: int):
    """(arcs, components, L, walk): V's sorted support arcs and a walk over its envelope's vertices.

    ``components`` is the support's weak-component count and L the scale of
    ``PointConfig._ints``.  ``walk`` yields each vertex once as (G, p, edges):
    its tight graph, its point, and a list of one (B, E, H) per ray B of G's
    digraph cone, where E is the tight graph of the edge, G's arcs that do
    not enter B, and H that of the next vertex, or None for an unbounded
    edge.  A bounded edge comes from both of its ends, and at the later one
    H has been yielded.  The walk keeps the tight graphs it has reached, and
    the point of a vertex only until it yields it.

    A graph is a mask over ``arcs``, a point is a list of d+n scaled ints
    (row i is y_i at i-1, column j is z_j at d+j-1), and the slack of the
    arc (i, j) is v_ij - y_i + z_j.  The walk starts at y = 0 with every
    z_j tight.  While the tight graph has more weak components than the
    support, a support arc joins two of them, so it leaves one, B, from a
    row of B; B is raised by the least slack of such arcs.  From a vertex
    with tight graph G, each edge raises one ray B of G's digraph cone
    (arcs row -> column, listed by ``_rays``) by the least slack t of an
    arc leaving B; the next vertex keeps G's arcs that do not enter B and
    adds the leaving arcs of slack t.  With no arc leaving B the edge is
    unbounded.  Modulo lineality the envelope is pointed, and its vertices
    and bounded edges form a connected graph, so every vertex is reached.
    Rather than hold more than ``bound`` vertices, found or pending, it raises.
    """
    bound = _bound(bound, "a candidate bound")
    scale, entries = _instance(v, PointConfig)._ints
    arcs, d, k = list(entries), v.d, v.d + v.n
    ends = [(i - 1, d + j - 1, entries[i, j]) for i, j in arcs]
    pairs = [(r, c) for r, c, _ in ends]
    # per node: the arcs leaving it (a row) or entering it (a column)
    touch, least_in = [0] * k, {}
    for b, (r, c, w) in enumerate(ends):
        touch[r] |= 1 << b
        touch[c] |= 1 << b
        least_in[c] = min(least_in.get(c, w), w)
    parts = [q for q in _components(d, v.n, arcs) if q & q - 1]
    components = k - sum(q.bit_count() - 1 for q in parts)

    def crossing(q):
        """The arcs leaving the node set q and the arcs entering it."""
        out = into = 0
        while q:
            low = q & -q
            q ^= low
            if (x := low.bit_length() - 1) < d:
                out |= touch[x]
            else:
                into |= touch[x]
        return out & ~into, into & ~out

    def least(p, mask):
        """The least slack at p of the arcs in ``mask``, and the mask of those that attain it."""
        t = None
        while mask:
            low = mask & -mask
            mask ^= low
            r, c, w = ends[low.bit_length() - 1]
            x = w - p[r] + p[c]
            if t is None or x < t:
                t, reached = x, low
            elif x == t:
                reached |= low
        return t, reached

    p = [0] * d + [-least_in[c] for c in range(d, k)]
    while True:
        g = sum(1 << b for b, (r, c, w) in enumerate(ends) if w == p[r] - p[c])
        for q in _parts(_masks(k, _arcs_of(pairs, g))[1], (1 << k) - 1):
            if leave := crossing(q)[0]:
                t = least(p, leave)[0]
                p = [x + t if q >> a & 1 else x for a, x in enumerate(p)]
                break
        else:
            break  # no support arc leaves a tight component: a vertex

    seen, stack = set(), []

    def hold(g, p):
        if len(seen) >= bound:
            raise CapabilityError(
                f"regular subdivision would hold more than {bound} vertices:"
                f" {len(seen) - len(stack)} found, {len(stack)} pending"
            )
        seen.add(g)
        stack.append((g, p))

    def walk():
        while stack:
            g, p = stack.pop()
            succ, nb = _masks(k, _arcs_of(pairs, g))
            edges = []
            for q in parts:
                for ray in _rays(q, succ, nb):
                    leave, enter = crossing(ray)
                    h = None
                    if leave:  # else the edge is unbounded
                        t, reached = least(p, leave)
                        h = g & ~enter | reached
                        if h not in seen:
                            hold(h, [x + t if ray >> a & 1 else x for a, x in enumerate(p)])
                    edges.append((ray, g & ~enter, h))
            yield g, p, edges

    hold(g, p)
    return arcs, components, scale, walk()
