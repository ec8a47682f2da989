"""Independent reference implementations used only by the tests.

Each oracle computes its answer by a different route than the library:
shortest paths via the matrix power formula, feasibility via exhaustive
simple-cycle enumeration and via Bellman-Ford, recession rays by trying
every proper subset of each weak component (the library walks from ray
to ray), interior points by a dense big-M completion (the library
completes the sparse star), subdivisions via the lifted lower hull and
by filtering every torus covector graph (the library walks from vertex
to vertex of the envelope) and their cell dimensions via the
nontrivial components, cone membership via
residuation, halfspace membership by comparing sector maxima, closed
sectors by the stratum rule and the sector inequalities, connectivity
and strong components via networkx, covector closures and enumeration
by fresh Bellman-Ford rounds and pairwise unions, cell boundedness via
the projection matrix of the face, tropical determinants and genericity
via all permutations of every square submatrix and via assignment tables
that add Fractions (the library's tables add ints), the cells of the
boundary strata via relabelled sub-configurations, signed cells by one
flipped selection per sign vector, the cells of a halfspace system by
filtering every torus cell, pureness from every cell of the system, and
the SVG of a 3-row configuration from every torus cell with one
projected face and one recession cone per 1-cell (``render_svg_by_cells``;
the library draws the vertices and edges of the envelope's vertex walk),
and type tuples row by row (the library groups one pass over the sorted arcs).
Projections, digraph membership and covector graphs are also computed in
Fraction arithmetic (the library scales every weight and point to ints).
Only names that ``wdpoly`` exports are used, so no oracle shares a
private helper with the library.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Sequence

import networkx as nx

from wdpoly import (
    INF,
    BipartiteSupportGraph,
    CapabilityError,
    CellRecord,
    DomainError,
    EmptyCellError,
    HalfspaceSystem,
    PointConfig,
    ProjectivePoint,
    RecessionDecomposition,
    ShapeError,
    SignVector,
    SubdivisionCell,
    TropicalMatrix,
    TVal,
    WeightedDigraph,
    boundary_matrix,
    cell_sample_point,
    cells_of_halfspace,
    enumerate_cells,
    enumerate_covector_graphs,
    envelope_digraph,
    face,
    face_projection_matrix,
    is_finite,
    kleene_star,
    maximal_cells,
    projective_decomposition,
    recession,
    signed_graph,
    tmul,
    trop_mat_mul,
    tval,
)


# ---------------------------------------------------------------------------
# cycles and shortest paths


def all_simple_cycles(w: WeightedDigraph):
    """Every simple directed cycle as a node sequence with repeated start."""
    for length in range(1, w.k + 1):
        for nodes in itertools.permutations(range(1, w.k + 1), length):
            if nodes[0] != min(nodes):
                continue
            closed = nodes + (nodes[0],)
            if all((a, b) in w.arcs for a, b in zip(closed, closed[1:])):
                yield list(closed)


def min_cycle_weight(w: WeightedDigraph):
    """Minimum total weight over all simple cycles, or None if acyclic."""
    best = None
    for cyc in all_simple_cycles(w):
        total = sum(w.arcs[(a, b)] for a, b in zip(cyc, cyc[1:]))
        if best is None or total < best:
            best = total
    return best


def bellman_ford_cycle(w: WeightedDigraph) -> list[int] | None:
    """A negative cycle by Bellman-Ford from a virtual source to every node, or None.

    The weights are scaled to ints by the LCM of their denominators.  A
    relaxation in round k certifies a negative cycle on the predecessor
    chain, returned as a node sequence with the start repeated at the end.
    """
    k = w.k
    scale = math.lcm(*(x.denominator for x in w.arcs.values()))
    arcs = [(i, j, x.numerator * (scale // x.denominator)) for (i, j), x in w.arcs.items()]
    dist = [0] * (k + 1)
    pred: list[int | None] = [None] * (k + 1)
    for _ in range(k):
        touched = None
        for i, j, wt in arcs:
            if dist[i] + wt < dist[j]:
                dist[j] = dist[i] + wt
                pred[j] = i
                touched = j
        if touched is None:
            return None
    x = touched
    for _ in range(k):
        x = pred[x]
    cycle = [x]
    v = pred[x]
    while v != x:
        cycle.append(v)
        v = pred[v]
    cycle.append(x)
    cycle.reverse()
    return cycle


def interior_point_by_dense_completion(w: WeightedDigraph) -> tuple[Fraction, ...]:
    """The row means of the Kleene star of W completed by big-M arcs on every missing pair.

    big = (k + 1) * (the largest |w_ij| + 1).  Every off-diagonal pair gets
    an arc, row by row, and W's arcs replace them, so a negative cycle is
    named as the dense completion names it.
    """
    big = (w.k + 1) * (max(map(abs, w.arcs.values()), default=0) + 1)
    filled = {(i, j): big for i in range(1, w.k + 1) for j in range(1, w.k + 1) if i != j}
    filled.update(w.arcs)
    star = kleene_star(WeightedDigraph.make(w.k, filled))
    return tuple(sum(row) / w.k for row in star.entries)


def kleene_by_powers(w: WeightedDigraph) -> TropicalMatrix:
    """(I min W)^k by repeated min-plus multiplication."""
    m = TropicalMatrix.identity(w.k).oplus(w.to_matrix())
    out = TropicalMatrix.identity(w.k)
    for _ in range(w.k):
        out = trop_mat_mul(out, m)
    return out


def project_by_submatrix(w: WeightedDigraph, deleted) -> WeightedDigraph:
    """The digraph of the kept rows and columns of ``kleene_by_powers``; W must be feasible."""
    keep = [v for v in range(1, w.k + 1) if v not in set(deleted)]
    return WeightedDigraph.from_matrix(kleene_by_powers(w).submatrix(keep, keep))


def membership_by_fractions(w: WeightedDigraph, x) -> tuple[bool, frozenset[tuple[int, int]]]:
    """Whether the finite point x lies in Q(W), and its tight arcs, by Fraction differences."""
    pt = [tval(c) for c in x]
    ok, tight = True, set()
    for (i, j), wt in w.arcs.items():
        diff = pt[i - 1] - pt[j - 1]
        if diff > wt:
            ok = False
        elif diff == wt:
            tight.add((i, j))
    return ok, frozenset(tight)


# ---------------------------------------------------------------------------
# networkx based combinatorics


def nx_digraph(w: WeightedDigraph) -> nx.DiGraph:
    g = nx.DiGraph()
    g.add_nodes_from(range(1, w.k + 1))
    g.add_edges_from(w.arcs)
    return g


def nx_partition_qualifies(w: WeightedDigraph, blocks) -> bool:
    """Connected blocks plus acyclic contraction, checked with networkx."""
    g = nx_digraph(w)
    und = g.to_undirected()
    for b in blocks:
        if len(b) > 1 and not nx.is_connected(und.subgraph(b)):
            return False
    lookup = {}
    for t, b in enumerate(blocks):
        for i in b:
            lookup[i] = t
    q = nx.DiGraph()
    q.add_nodes_from(range(len(blocks)))
    for i, j in w.arcs:
        if lookup[i] != lookup[j]:
            q.add_edge(lookup[i], lookup[j])
    return nx.is_directed_acyclic_graph(q)


def all_partitions(items):
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for smaller in all_partitions(rest):
        for t, block in enumerate(smaller):
            yield smaller[:t] + [[first] + block] + smaller[t + 1 :]
        yield [[first]] + smaller


# ---------------------------------------------------------------------------
# recession rays over every subset of each weak component


def rays_by_subsets(w: WeightedDigraph) -> RecessionDecomposition:
    """Lineality and rays of the recession cone of Q(W), trying all 2^|C| - 2 subsets.

    chi(K) is a ray for a nonempty K inside a weak component C, K != C,
    when no arc leaves K and both K and C - K induce connected subgraphs.
    """
    und = nx_digraph(w).to_undirected()
    comps = sorted(sorted(c) for c in nx.connected_components(und))

    def chi(nodes):
        return tuple(int(v in nodes) for v in range(1, w.k + 1))

    rays = []
    for comp in comps:
        for size in range(1, len(comp)):
            for kset in map(set, itertools.combinations(comp, size)):
                rest = set(comp) - kset
                if any(i in kset and j in rest for i, j in w.arcs):
                    continue
                if nx.is_connected(und.subgraph(kset)) and nx.is_connected(und.subgraph(rest)):
                    rays.append(chi(kset))
    return RecessionDecomposition(tuple(chi(set(c)) for c in comps), tuple(sorted(rays)))


# ---------------------------------------------------------------------------
# type tuples


def tuple_string_by_rows(g: BipartiteSupportGraph, stratum=()) -> str:
    """``BipartiteSupportGraph.tuple_string`` with one ``row_neighbors`` call per row.

    A row in ``stratum`` is ``•``, a row with no arc ``-``, and the others list their
    columns, joined by ``|`` when n > 9.
    """
    marked = set(stratum)
    parts = []
    for i in range(1, g.d + 1):
        cols = g.row_neighbors(i)
        if i in marked:
            parts.append("•")
        elif not cols:
            parts.append("-")
        else:
            parts.append(("|" if g.n > 9 else "").join(str(c) for c in cols))
    return "(" + ",".join(parts) + ")"


# ---------------------------------------------------------------------------
# lifted lower hull


def lower_hull_cells(v: PointConfig) -> set[frozenset[tuple[int, int]]]:
    """Vertex sets of the maximal cells of the regular subdivision of V.

    Works directly on the polyhedron y_i - z_j <= v_ij: a maximal cell is
    the tight set of a minimal face, and every minimal face is spanned by
    a forest with one tree per weak component of the support.  Grow all
    such forests one support arc at a time, solving y_i - z_j = v_ij along
    their arcs, keep the feasible ones, and record their full tight sets.
    """
    d, n = v.d, v.n
    support = sorted(v.support().arcs)
    nodes = d + n
    und = nx.Graph()
    und.add_nodes_from(range(1, nodes + 1))
    und.add_edges_from((i, d + j) for (i, j) in support)
    forest_size = nodes - nx.number_connected_components(und)

    out: set[frozenset[tuple[int, int]]] = set()

    def grow(start, tree, val, left):
        # tree[x] names the tree of node x.  Joining two trees shifts one of
        # them as a whole, so a support arc inside a tree keeps its slack,
        # and a negative one rules out every larger forest.
        if left == 0:
            out.add(frozenset((i, j) for (i, j) in support if val[i] - val[d + j] == v.entry(i, j)))
            return
        for k in range(start, len(support) - left + 1):
            i, j = support[k]
            a, b = tree[i], tree[d + j]
            if a == b:
                continue  # the arc closes a cycle
            shift = val[i] - v.entry(i, j) - val[d + j]
            joined = [a if t == b else t for t in tree]
            moved = [x + shift if t == b else x for x, t in zip(val, tree)]
            if all(
                moved[p] - moved[d + q] <= v.entry(p, q)
                for (p, q) in support
                if joined[p] == joined[d + q]
            ):
                grow(k + 1, joined, moved, left - 1)

    grow(0, list(range(nodes + 1)), [Fraction(0)] * (nodes + 1), forest_size)
    return out


def subdivision_dimension(g: BipartiteSupportGraph) -> int:
    """Dimension of conv{e_i (+) e_j : (i,j) in G}, from G's nontrivial components.

    Each weak component with a nodes contributes a simplex-like factor of
    dimension a - 2, and joining k components adds k - 1.
    """
    comps = g.nontrivial_components()
    touched = sum(len(r) + len(c) for r, c in comps)
    return touched - len(comps) - 1


def subdivision_by_covector_graphs(v: PointConfig) -> list[SubdivisionCell]:
    """The maximal cells of the regular subdivision, filtered from every torus covector graph.

    A covector graph labels a minimal face of the envelope iff it has as
    many weak components as the support; its cell has dimension d + n -
    (that count) - 1.  Every such graph covers every column.
    """
    count = v.support().weak_component_count()
    graphs = sorted(
        g.sorted_arcs() for g in enumerate_covector_graphs(v) if g.weak_component_count() == count
    )
    return [SubdivisionCell(frozenset(g), v.d + v.n - count - 1) for g in graphs]


# ---------------------------------------------------------------------------
# covector closure by rounds, enumeration by pairwise unions


def face_digraph(v: PointConfig, g: BipartiteSupportGraph) -> WeightedDigraph:
    """The digraph W#G of the face F_G of the envelope W of V."""
    return face(envelope_digraph(v), {(i, v.d + j) for (i, j) in g.arcs})


def covector_closure_by_rounds(v: PointConfig, g: BipartiteSupportGraph):
    """Smallest covector graph containing G.

    Iteratively adds every support arc lying on a zero-weight cycle of
    the face digraph; fails if the face is empty.
    """
    support = v.support().arcs
    if (g.d, g.n) != (v.d, v.n):
        raise ShapeError("graph shape does not match the configuration")
    if not g.arcs <= support:
        raise DomainError(f"arcs {sorted(g.arcs - support)} are not in the support of V")
    current = set(g.arcs)
    while True:
        wg = face_digraph(v, BipartiteSupportGraph(v.d, v.n, frozenset(current)))
        cyc = bellman_ford_cycle(wg)
        if cyc is not None:
            raise EmptyCellError(f"face is empty: negative cycle {cyc}")
        star = kleene_star(wg)
        added = False
        for (i, j) in support - current:
            back = star.entry(v.d + j, i)
            if back is not INF and v.entry(i, j) + back == 0:
                current.add((i, j))
                added = True
        if not added:
            return BipartiteSupportGraph(v.d, v.n, frozenset(current))


def enumerate_covector_graphs_by_unions(
    v: PointConfig, *, candidate_bound: int = 1_000_000
) -> list[BipartiteSupportGraph]:
    """All covector graphs of V, canonically ordered.

    Seeds with the closures of every feasible degree-1 column selection
    (these include all inclusion-minimal graphs of full-dimensional
    cells), then saturates under pairwise union followed by closure.
    """
    supports = [v.column_support(j) for j in range(1, v.n + 1)]
    total = 1
    for s in supports:
        total *= len(s)
        if total > candidate_bound:
            raise CapabilityError(
                f"cell enumeration would scan more than {candidate_bound} seeds"
            )
    found: dict[frozenset[tuple[int, int]], BipartiteSupportGraph] = {}
    for choice in itertools.product(*[sorted(s) for s in supports]):
        g = BipartiteSupportGraph(
            v.d, v.n, frozenset((i, j) for j, i in enumerate(choice, start=1))
        )
        if bellman_ford_cycle(face_digraph(v, g)) is not None:
            continue
        closed = covector_closure_by_rounds(v, g)
        found.setdefault(closed.arcs, closed)
    fresh = list(found)
    while fresh:
        new: list[frozenset[tuple[int, int]]] = []
        existing = list(found)
        for a in fresh:
            for b in existing:
                union = a | b
                if union in found:
                    continue
                g = BipartiteSupportGraph(v.d, v.n, union)
                if bellman_ford_cycle(face_digraph(v, g)) is not None:
                    continue
                closed = covector_closure_by_rounds(v, g)
                if closed.arcs not in found:
                    found[closed.arcs] = closed
                    new.append(closed.arcs)
        fresh = new
    return sorted(found.values(), key=lambda g: (len(g.arcs), g.sorted_arcs()))


def bounded_by_projection(v: PointConfig, g: BipartiteSupportGraph) -> bool:
    """Whether the torus cell X_G is bounded modulo translation.

    Forms the projection V (x) V[G] of the face and asks whether the
    digraph of its finite off-diagonal entries is strongly connected.
    """
    m = face_projection_matrix(v, g)
    digraph = nx.DiGraph()
    digraph.add_nodes_from(range(1, v.d + 1))
    digraph.add_edges_from(
        (i, l)
        for i in range(1, v.d + 1)
        for l in range(1, v.d + 1)
        if i != l and m.entry(i, l) is not INF
    )
    return len(list(nx.strongly_connected_components(digraph))) == 1


# ---------------------------------------------------------------------------
# the SVG of a 3-row configuration from every torus cell

_SVG_SIZE = 420
_SVG_MARGIN = 10


def _svg_norm(x) -> tuple[Fraction, Fraction]:
    return (x[1] - x[0], x[2] - x[0])


def _svg_directions(v: PointConfig, cell: CellRecord) -> list[tuple[Fraction, Fraction]]:
    """Recession directions of a torus cell in the plane x_1 = 0, from its projected face."""
    m = face_projection_matrix(v, cell.graph)
    arcs = {
        (i, j): m.entry(i, j)
        for i in range(1, 4)
        for j in range(1, 4)
        if i != j and is_finite(m.entry(i, j))
    }
    rec = recession(WeightedDigraph(3, arcs))
    dirs = []
    for r in rec.ray_generators:
        dx = (Fraction(r[1] - r[0]), Fraction(r[2] - r[0]))
        if dx != (0, 0) and dx not in dirs:
            dirs.append(dx)
    for r in rec.lineality_generators:
        dx = (Fraction(r[1] - r[0]), Fraction(r[2] - r[0]))
        if dx != (0, 0):
            for cand in (dx, (-dx[0], -dx[1])):
                if cand not in dirs:
                    dirs.append(cand)
    return dirs


def _svg_clip(p, d, r: Fraction) -> tuple[Fraction, Fraction]:
    """Point where the ray p + t d leaves the square [-r, r]^2."""
    ts = []
    for c in range(2):
        if d[c] > 0:
            ts.append((r - p[c]) / d[c])
        elif d[c] < 0:
            ts.append((-r - p[c]) / d[c])
    t = min(ts)
    return (p[0] + t * d[0], p[1] + t * d[1])


def render_svg_by_cells(v: PointConfig) -> str:
    """``svg.render_svg`` from every torus cell of ``enumerate_cells``.

    The 0-cells are the dots, at their sample points.  A 1-cell is the
    segment between the 0-cells whose graphs contain its graph, or, with
    fewer than two, the rays of its projected face's recession cone from
    its one 0-cell or its sample point, clipped at the frame.
    """
    if v.d != 3:
        raise CapabilityError(f"SVG rendering supports d = 3 only, got d = {v.d}")
    cells = enumerate_cells(v)
    zero = [c for c in cells if c.dimension == 0]
    one = [c for c in cells if c.dimension == 1]
    verts = {c: _svg_norm(cell_sample_point(v, c)) for c in zero}

    coords = [q for p in verts.values() for q in p]
    rmax = max((abs(q) for q in coords), default=Fraction(0))
    r = Fraction(max(4, int(rmax) + 2))
    scale = Fraction(_SVG_SIZE - 2 * _SVG_MARGIN, 2 * r)

    def to_px(p) -> tuple[str, str]:
        x = _SVG_MARGIN + (p[0] + r) * scale
        y = _SVG_MARGIN + (r - p[1]) * scale
        return (f"{float(x):.2f}", f"{float(y):.2f}")

    segments: list[tuple[tuple, tuple]] = []
    for c in one:
        ends = [verts[z] for z in zero if c.graph.arcs <= z.graph.arcs]
        ends.sort()
        if len(ends) >= 2:
            segments.append((ends[0], ends[-1]))
            continue
        dirs = _svg_directions(v, c)
        base = ends[0] if ends else _svg_norm(cell_sample_point(v, c))
        if not ends and len(dirs) >= 2:
            # a full line: extend in both directions from the sample point
            segments.append((_svg_clip(base, dirs[0], r), _svg_clip(base, dirs[1], r)))
        else:
            for d in dirs:
                segments.append((base, _svg_clip(base, d, r)))

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_SIZE}" height="{_SVG_SIZE}" '
        f'viewBox="0 0 {_SVG_SIZE} {_SVG_SIZE}">',
        f'  <rect x="{_SVG_MARGIN}" y="{_SVG_MARGIN}" width="{_SVG_SIZE - 2 * _SVG_MARGIN}" '
        f'height="{_SVG_SIZE - 2 * _SVG_MARGIN}" fill="none" stroke="black" '
        'stroke-dasharray="6,4" stroke-width="1"/>',
    ]
    for a, b in sorted(segments):
        (x1, y1), (x2, y2) = to_px(a), to_px(b)
        out.append(
            f'  <line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
            'stroke="black" stroke-width="1.5"/>'
        )
    for c in sorted(zero, key=CellRecord.sort_key):
        x, y = to_px(verts[c])
        out.append(f'  <circle cx="{x}" cy="{y}" r="3.5" fill="black"/>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# signed cells by one flipped selection per sign vector


def signed_cells_by_signs(h: HalfspaceSystem) -> dict[str, list[CellRecord]]:
    """``signed_cells`` with one flipped selection per sign vector, 2^n in all.

    A cell of TP^{d-1} goes under a sign vector when its closed graph (its
    covector graph plus the support arcs of its stratum's rows) keeps an arc
    of the flipped selection in every column.
    """
    v = h.config
    support = v.support()
    closed = [
        (c, c.graph.arcs | {a for a in support.arcs if a[0] in c.stratum})
        for c in projective_decomposition(v)
    ]
    out = {}
    for signs in itertools.product("+-", repeat=v.n):
        eps = SignVector.make(signs)
        flipped = signed_graph(h.psi, eps, support).arcs
        out[str(eps)] = [c for c, arcs in closed if len({j for _, j in arcs & flipped}) == v.n]
    return out


# ---------------------------------------------------------------------------
# halfspace cells by filtering every torus cell


def cells_of_halfspace_by_filter(h: HalfspaceSystem) -> list[CellRecord]:
    """``cells_of_halfspace`` by filtering every torus cell of ``enumerate_cells``.

    A cell stays when its covector graph keeps an arc of psi in every column.
    """
    return [
        c
        for c in enumerate_cells(h.config)
        if len({j for _, j in c.graph.arcs & h.psi.arcs}) == h.config.n
    ]


# ---------------------------------------------------------------------------
# pureness from every cell of a halfspace system


def pure_by_maximal_cells(h: HalfspaceSystem):
    """``is_pure`` by ``maximal_cells`` over every cell of the system.

    The verdict is False with the first maximal cell and the first later one
    of another dimension, else True with no witness.
    """
    tops = maximal_cells(cells_of_halfspace(h))
    for b in tops[1:]:
        if b.dimension != tops[0].dimension:
            return False, (tops[0], b)
    return True, None


# ---------------------------------------------------------------------------
# tropical cone membership by residuation


def trop_combination(v: PointConfig, lam):
    """The point V (x) lambda: coordinate i is min_j (v_ij + lambda_j)."""
    out = []
    for i in range(1, v.d + 1):
        best = INF
        for j in range(1, v.n + 1):
            vij = v.entry(i, j)
            lj = lam[j - 1]
            if vij is INF or lj is INF:
                continue
            cand = vij + lj
            if cand < best:
                best = cand
        out.append(best)
    return tuple(out)


def residuation_member(v: PointConfig, z) -> bool:
    """z in tcone(V) iff the canonical multipliers reproduce z exactly.

    The multiplier lambda_j = max_i (z_i - v_ij) is the smallest one whose
    combination dominates z coordinatewise, so the combination equals z
    precisely on cone members.
    """
    coords = tuple(tval(c) for c in z)
    return trop_combination(v, residuation_multipliers(v, coords)) == coords


def residuation_multipliers(v: PointConfig, z) -> tuple[TVal, ...]:
    """The canonical multipliers lambda_j = max_i (z_i - v_ij) over finite v_ij, by Fractions."""
    coords = tuple(tval(c) for c in z)
    lam = []
    for j in range(1, v.n + 1):
        best = None
        for i in range(1, v.d + 1):
            vij = v.entry(i, j)
            if vij is INF:
                continue
            zi = coords[i - 1]
            if zi is INF:
                best = INF
                break
            cand = zi - vij
            if best is None or (best is not INF and cand > best):
                best = cand
        lam.append(best if best is not None else INF)
    return tuple(lam)


def covector_by_argmin(v: PointConfig, x) -> BipartiteSupportGraph:
    """The covector graph of any point, by Fraction differences.

    Per column j: the rows of its support where x is infinite, if there
    are any, and else the rows that minimise v_ij - x_i.
    """
    pt = [tval(c) for c in x]
    arcs = set()
    for j in range(1, v.n + 1):
        supp = sorted(v.column_support(j))
        rows = [i for i in supp if pt[i - 1] is INF]
        if not rows:
            vals = [v.entry(i, j) - pt[i - 1] for i in supp]
            rows = [i for i, val in zip(supp, vals) if val == min(vals)]
        arcs.update((i, j) for i in rows)
    return BipartiteSupportGraph(v.d, v.n, frozenset(arcs))


# ---------------------------------------------------------------------------
# halfspace membership by comparing the selected and unselected maxima


def membership_against(
    v: PointConfig, psi: BipartiteSupportGraph, pt: Sequence[TVal]
) -> bool:
    for j in range(1, v.n + 1):
        chosen = psi.col_neighbors(j)
        if not chosen:
            return False
        inside = max(
            (pt[i - 1] - v.entry(i, j) for i in chosen if pt[i - 1] is not INF),
            default=None,
        )
        rest = [
            pt[i - 1] - v.entry(i, j)
            for i in v.column_support(j)
            if i not in chosen and pt[i - 1] is not INF
        ]
        if inside is None:
            if rest:
                return False
            continue
        if rest and max(rest) > inside:
            return False
    return True


# ---------------------------------------------------------------------------
# closed sectors by the stratum rule and the sector inequalities


def closed_sector_by_inequalities(z: ProjectivePoint, u: Sequence[TVal], i: int) -> bool:
    """Whether z lies in the compactified i-th sector of apex u.

    The closure of the sector meets the stratum with infinite set K only
    when K avoids the support of u or contains i; on an admissible
    stratum the finite coordinates obey the sector inequalities with the
    indices in K dropped.
    """
    k = frozenset(range(1, z.d + 1)) - z.support()
    if i in k:
        return True
    if any(u[l - 1] is not INF for l in k):
        return False
    zi = z.coords[i - 1]
    ui = u[i - 1]
    for l in range(1, z.d + 1):
        if l == i or l in k or u[l - 1] is INF:
            continue
        if not (z.coords[l - 1] - zi <= u[l - 1] - ui):
            return False
    return True


# ---------------------------------------------------------------------------
# the projective decomposition stratum by stratum, on sub-configurations


def projective_decomposition_by_subconfigs(v: PointConfig) -> list[CellRecord]:
    """All cells of TP^{d-1}: each stratum's sub-configuration, relabelled.

    The stratum where the rows K are infinite keeps the other rows and the
    columns whose support avoids K; its torus cells, mapped back to the
    original labels, are the stratum's cells, each in the tropical cone as
    its torus cell is in the sub-configuration's.  A stratum with no column
    left is a single cell with an empty graph, outside the cone.
    """
    out = []
    for size in range(v.d):
        for k in map(frozenset, itertools.combinations(range(1, v.d + 1), size)):
            if not k:
                out.extend(enumerate_cells(v))
                continue
            lab = boundary_matrix(v, k)
            if lab.config is None:
                empty = BipartiteSupportGraph(v.d, v.n, frozenset())
                out.append(CellRecord(empty, v.d - len(k) - 1, v.d - len(k) == 1, False, k))
                continue
            for local in enumerate_cells(lab.config):
                arcs = frozenset(
                    (lab.row_labels[i - 1], lab.col_labels[j - 1]) for i, j in local.graph.arcs
                )
                g = BipartiteSupportGraph(v.d, v.n, arcs)
                out.append(CellRecord(g, local.dimension, local.bounded, local.in_tcone, k))
    return sorted(out, key=CellRecord.sort_key)


# ---------------------------------------------------------------------------
# tropical determinants over all permutations, genericity over all minors


def trop_det_by_permutations(a: TropicalMatrix):
    """(value, optimal permutations, vanishes) by walking all k! permutations."""
    k = a.rows
    best: TVal = INF
    attaining: list[tuple[int, ...]] = []
    for perm in itertools.permutations(range(k)):
        w: TVal = tval(0)
        for i, j in enumerate(perm):
            w = tmul(w, a.entries[i][j])
            if w is INF:
                break
        if w < best:
            best = w
            attaining = [tuple(j + 1 for j in perm)]
        elif not (best < w):  # w == best, including both INF
            attaining.append(tuple(j + 1 for j in perm))
    opt = frozenset(attaining)
    vanishes = best is INF or len(opt) >= 2
    return best, opt, vanishes


def is_generic_by_minors(v: TropicalMatrix):
    """``is_generic`` by one permutation walk per square submatrix."""
    d, n = v.rows, v.cols
    for k in range(1, min(d, n) + 1):
        for rows in itertools.combinations(range(1, d + 1), k):
            for cols in itertools.combinations(range(1, n + 1), k):
                _, _, vanishes = trop_det_by_permutations(v.submatrix(rows, cols))
                if vanishes:
                    return False, (rows, cols)
    return True, None


def _add_fraction_row(table: dict, row) -> dict:
    """One row more in a Fraction assignment table: column mask -> (least sum, count)."""
    out: dict[int, tuple[Fraction, int]] = {}
    for mask, (val, cnt) in table.items():
        for j, e in enumerate(row):
            if e is INF or mask >> j & 1:
                continue
            key, w = mask | 1 << j, val + e
            cur = out.get(key)
            if cur is None or w < cur[0]:
                out[key] = (w, cnt)
            elif w == cur[0]:
                out[key] = (w, cur[1] + cnt)
    return out


def trop_det_by_tables(a: TropicalMatrix):
    """(value, optimal permutations, vanishes) by assignment tables that add Fractions."""
    k = a.rows
    levels = list(itertools.accumulate(a.entries, _add_fraction_row, initial={0: (Fraction(0), 1)}))
    value, count = levels[-1].get((1 << k) - 1, (INF, 0))
    if value is INF:
        opt = frozenset(itertools.permutations(range(1, k + 1)))
        return value, opt, True
    # an optimal bijection is optimal on every row prefix: walk the levels down
    paths = [((1 << k) - 1, ())]
    for i in range(k, 0, -1):
        here, below = levels[i], levels[i - 1]
        paths = [
            (m, (j + 1,) + tail)
            for mask, tail in paths
            for j, e in enumerate(a.entries[i - 1])
            if e is not INF and mask >> j & 1 and (m := mask ^ 1 << j) in below
            and below[m][0] + e == here[mask][0]
        ]
    return value, frozenset(tail for _, tail in paths), count != 1


def is_generic_by_tables(v: TropicalMatrix):
    """``is_generic`` by Fraction tables, the table of k rows extending that of their first k-1."""
    d, n = v.rows, v.cols
    tables = {(): {0: (Fraction(0), 1)}}
    for k in range(1, min(d, n) + 1):
        prefixes, tables = tables, {}
        minors = [(cols, sum(1 << j - 1 for j in cols))
                  for cols in itertools.combinations(range(1, n + 1), k)]
        for rows in itertools.combinations(range(1, d + 1), k):
            table = tables[rows] = _add_fraction_row(prefixes[rows[:-1]], v.entries[rows[-1] - 1])
            for cols, mask in minors:
                if table.get(mask, (INF, 0))[1] != 1:  # INF or attained twice
                    return False, (rows, cols)
    return True, None


# ---------------------------------------------------------------------------
# random instances


def _rational(rng, lo, hi, den):
    """p/q with p in lo..hi and q in 1..den; den = 1 draws exactly as ``randint``."""
    return Fraction(rng.randint(lo, hi), rng.randint(1, den) if den > 1 else 1)


def random_digraph(rng, k, *, density=0.5, lo=-3, hi=3, den=1) -> WeightedDigraph:
    arcs = {}
    for i in range(1, k + 1):
        for j in range(1, k + 1):
            if i != j and rng.random() < density:
                arcs[(i, j)] = _rational(rng, lo, hi, den)
    return WeightedDigraph(k, arcs)


def random_config(rng, d, n, *, inf_chance=0.25, lo=-3, hi=3, den=1) -> PointConfig:
    cols = []
    for _ in range(n):
        while True:
            col = [
                INF if rng.random() < inf_chance else _rational(rng, lo, hi, den)
                for _ in range(d)
            ]
            if any(c is not INF for c in col):
                cols.append(col)
                break
    return PointConfig.make([[cols[j][i] for j in range(n)] for i in range(d)])
