"""Weighted digraphs and their shortest-path polyhedra.

A weighted digraph on nodes ``1..k`` is the same data as a k-by-k tropical
matrix: the arc (i, j) is present exactly when the entry w_ij is finite,
and the polyhedron Q(W) consists of the points x with x_i - x_j <= w_ij
for every arc.  This module covers feasibility, Kleene stars, equality
partitions, faces, intersections, projections, recession cones and the
face lattices of zero-weight digraph cones.  Their loops add and compare ints:
a digraph keeps its weights times the LCM L of their denominators
(``WeightedDigraph._ints``), and a point joins them at lcm(L, its denominators).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Iterable, Mapping, Sequence

from .errors import (
    CapabilityError,
    DomainError,
    InconsistentFaceError,
    InfeasibleError,
    ShapeError,
    ValueTypeError,
)
from .matrix import TropicalMatrix
from .semiring import INF, TVal, _Record, _bound, _index, _instance, _iterable, _position
from .semiring import _point, tval


class _Arcs(dict):
    """A digraph's arc weights: a dict whose mutators raise ``TypeError``, so ``_ints`` holds."""

    __slots__ = ()

    def _refuse(self, *args, **kwargs):
        raise TypeError("a WeightedDigraph's arcs are read-only; build a new digraph")

    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = setdefault = update = _refuse

    def __reduce__(self):
        return _Arcs, (dict(self),)


class WeightedDigraph(_Record):
    """Digraph on nodes 1..k with finite rational arc weights.

    Loops and antiparallel arc pairs are allowed; an absent arc stands for
    an infinite matrix entry.  The shortest-path queries share ``_ints``, so
    ``arcs`` is kept as a read-only dict.
    """

    k: int
    arcs: Mapping[tuple[int, int], Fraction]

    def __post_init__(self):
        """Refuse what ``make`` refuses, and a weight that is not a Fraction."""
        k, arcs = _index(self.k, "a node count"), _instance(self.arcs, Mapping)
        if k < 1:
            raise ShapeError("node count must be at least 1")
        for a in arcs:
            if not (type(a) is tuple and len(a) == 2 and type(a[0]) is int is type(a[1])
                    and 0 < a[0] <= k and 0 < a[1] <= k):
                i, j = _index(a, "an arc", pair=True)
                raise DomainError(f"arc ({i},{j}) out of range for {k} nodes")
        if not {Fraction}.issuperset(map(type, arcs.values())):
            raise ValueTypeError("arc weights must be Fractions; make coerces other values")
        if type(arcs) is not _Arcs:
            object.__setattr__(self, "arcs", _Arcs(arcs))

    @cached_property
    def _ints(self) -> tuple[int, dict[tuple[int, int], int]]:
        """``_scaled(arcs)``: the weights as ints and their scale."""
        return _scaled(self.arcs)

    @classmethod
    def make(cls, k: int, arcs: Mapping[tuple[int, int], object] | Iterable) -> "WeightedDigraph":
        items = arcs.items() if isinstance(arcs, Mapping) else _iterable(arcs, "arcs")
        clean: dict[tuple[int, int], Fraction] = {}
        dropped = []
        for item in items:
            if not isinstance(item, (tuple, list)) or len(item) != 2:
                raise ValueTypeError(f"cannot interpret {item!r} as an arc and its weight")
            a, w = item[0], tval(item[1])
            a = a if type(a) is tuple else _index(a, "an arc", pair=True)  # the record checks tuples
            if w is INF:
                dropped.append(a)
            else:
                clean[a] = w
        if dropped:  # the record checks the arcs it keeps; these are checked on their own
            cls(k, dict.fromkeys(dropped, Fraction(0)))
        return cls(k, clean)

    @classmethod
    def from_matrix(cls, m: TropicalMatrix) -> "WeightedDigraph":
        if not _instance(m, TropicalMatrix).is_square:
            raise ShapeError("weighted digraph needs a square matrix")
        return cls(m.rows, m._finite())

    def to_matrix(self) -> TropicalMatrix:
        return TropicalMatrix.make(
            [
                [self.arcs.get((i, j), INF) for j in range(1, self.k + 1)]
                for i in range(1, self.k + 1)
            ]
        )

    def weight(self, i: int, j: int) -> TVal:
        """The weight of the arc (i, j), ``INF`` if there is none; ``DomainError`` outside 1..k."""
        key = (_position(i, self.k, "node") + 1, _position(j, self.k, "node") + 1)
        return self.arcs.get(key, INF)

    def zero_weights(self) -> "WeightedDigraph":
        """Same arc set, all weights zero (the digraph cone data)."""
        return WeightedDigraph(self.k, {a: Fraction(0) for a in self.arcs})

    def __hash__(self):
        return hash((self.k, frozenset(self.arcs.items())))


class NodePartition(_Record):
    """Partition of 1..k into disjoint nonempty blocks, canonically ordered."""

    k: int
    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        """Refuse what ``make`` refuses: a node that is no int, or no partition of 1..k."""
        nodes = [i for b in _instance(self.blocks, tuple) for i in _instance(b, tuple)]
        if not {int}.issuperset(map(type, nodes)):
            raise ValueTypeError("nodes must be ints; make coerces the blocks")
        if sorted(nodes) != list(range(1, _index(self.k, "a node count") + 1)) or () in self.blocks:
            raise DomainError("blocks must partition 1..k")

    @classmethod
    def make(cls, k: int, blocks: Iterable[Iterable[int]]) -> "NodePartition":
        return cls(k, tuple(sorted(
            tuple(sorted(_index(i, "a node") for i in _iterable(b, "a block")))
            for b in _iterable(blocks, "blocks")
        )))

    def block_of(self, i: int) -> tuple[int, ...]:
        i = _index(i, "a node")
        for b in self.blocks:
            if i in b:
                return b
        raise DomainError(f"node {i} not in partition")

    def refines(self, other: "NodePartition") -> bool:
        """True if every block of self lies inside a block of other."""
        if _instance(other, NodePartition).k != self.k:
            raise ShapeError("refinement needs partitions of the same node count")
        lookup = {i: idx for idx, b in enumerate(other.blocks) for i in b}
        return all(len({lookup[i] for i in b}) == 1 for b in self.blocks)

    def __len__(self):
        return len(self.blocks)


# ---------------------------------------------------------------------------
# component helpers


def _masks(size: int, arcs: Iterable[tuple[int, int]]) -> tuple[list[int], list[int]]:
    """The successor mask and the neighbour mask (arcs either way) of each node below ``size``."""
    succ, nbr = [0] * size, [0] * size
    for i, j in arcs:
        succ[i] |= 1 << j
        nbr[i] |= 1 << j
        nbr[j] |= 1 << i
    return succ, nbr


def _flood(seed: int, adj: list[int], within: int) -> int:
    """The nodes that the mask ``seed`` reaches along the masks ``adj``, staying in ``within``."""
    reached = frontier = seed
    while frontier:
        new = adj[(frontier & -frontier).bit_length() - 1] & within & ~reached
        frontier = frontier & frontier - 1 | new
        reached |= new
    return reached


def _parts(nbr: list[int], within: int):
    """The weak components inside ``within`` of the neighbour masks ``nbr``, least node first."""
    while within:
        part = _flood(within & -within, nbr, within)
        within &= ~part
        yield part


def weak_components(k: int, arcs: Iterable[tuple[int, int]]) -> list[tuple[int, ...]]:
    """Weakly connected components, sorted by least element."""
    return [
        tuple(v for v in range(1, k + 1) if comp >> v & 1)
        for comp in _parts(_masks(k + 1, arcs)[1], (1 << k + 1) - 2)
    ]


def strong_components(k: int, arcs: Iterable[tuple[int, int]]) -> list[tuple[int, ...]]:
    """Strongly connected components, sorted by least element.

    They are the equality partition of the zero-weight digraph on the same
    arcs: two nodes share a zero-weight cycle iff each reaches the other.
    """
    return list(equality_partition(WeightedDigraph.make(k, dict.fromkeys(arcs, 0))).blocks)


# ---------------------------------------------------------------------------
# feasibility and shortest paths


def _scaled(weights: Mapping) -> tuple[int, dict]:
    """(L, each weight times L as an int), L the LCM of the denominators.

    The shortest-path kernel only adds and compares these ints, which L > 0
    keeps exact; a result becomes a Fraction only in a public value.
    """
    scale = lcm(*(x.denominator for x in weights.values()))
    return scale, {a: x.numerator * (scale // x.denominator) for a, x in weights.items()}


def _rescaled(scale: int, pt: Sequence[TVal]) -> tuple[int, int, list]:
    """(L', L' / scale, pt times L' as ints or INF): L' = lcm(scale, pt's denominators)."""
    big = lcm(scale, *(c.denominator for c in pt if c is not INF))
    return big, big // scale, [c if c is INF else c.numerator * (big // c.denominator) for c in pt]


def _star(k: int, arcs: Mapping[tuple[int, int], int]) -> list[list[int | None]]:
    """All-pairs shortest distances over the int weights ``arcs`` on nodes 1..k.

    One Floyd-Warshall pass over rows, with None for an infinite distance.
    Before pivot m, column m holds the least weights of paths to m through
    the nodes below m, which close no negative cycle.  A negative diagonal
    entry there raises ``InfeasibleError`` with a simple negative cycle
    through m, read off the arcs that attain those weights.
    """
    dist: list[list] = [[0 if a == b else None for b in range(k)] for a in range(k)]
    for (i, j), wt in arcs.items():
        if i != j or wt < 0:  # a loop matters only below the zero diagonal
            dist[i - 1][j - 1] = wt
    for m in range(k):
        if dist[m][m] < 0:
            raise InfeasibleError(_cycle_through(m, arcs, dist))
        reach = [(b, x) for b, x in enumerate(dist[m]) if x is not None]
        for row in dist:
            to_m = row[m]
            if to_m is None:
                continue
            for b, x in reach:
                cand = to_m + x
                if row[b] is None or cand < row[b]:
                    row[b] = cand
    return dist


def _cycle_through(m: int, arcs: Mapping[tuple[int, int], int], dist: list[list]) -> list[int]:
    """The negative cycle m -> ... -> m that ``_star`` finds before pivot m.

    ``step`` grows back from m along the arcs that attain those weights,
    each node pointing to one reached before it, so the path never loops,
    even where zero-weight cycles among the lower nodes would trap a
    greedy walk.  The arcs are scanned in sorted order, so the cycle
    named depends on the digraph, not on the order its arcs were listed.
    """
    to_m = [row[m] for row in dist]
    to_m[m] = 0
    step = {m: m}
    items = sorted(arcs.items())
    grown = True
    while grown:
        grown = False
        for (i, j), wt in items:
            a, b = i - 1, j - 1
            if a < m and a not in step and b in step and to_m[a] == wt + to_m[b]:
                step[a] = b
                grown = True
    a = next(j - 1 for (i, j), wt in items
             if i - 1 == m and j - 1 in step and wt + to_m[j - 1] == dist[m][m])
    cycle = [m + 1]
    while a != m:
        cycle.append(a + 1)
        a = step[a]
    return cycle + [m + 1]


def detect_negative_cycle(w: WeightedDigraph) -> list[int] | None:
    """A simple directed cycle of strictly negative weight, or None.

    The cycle is the witness of the Floyd-Warshall pass in ``_star``, a
    node sequence with the start repeated at the end.
    """
    try:
        _star(_instance(w, WeightedDigraph).k, w._ints[1])
    except InfeasibleError as exc:
        return exc.cycle
    return None


def cycle_weight(w: WeightedDigraph, cycle: Sequence[int]) -> Fraction:
    """Total weight of a closed walk given as a node sequence with repeated start."""
    _instance(w, WeightedDigraph)
    nodes = [_index(v, "a node") for v in _iterable(cycle, "a cycle")]
    if len(nodes) < 2 or nodes[0] != nodes[-1]:
        raise DomainError(f"{nodes} is not a node sequence with repeated start")
    total = Fraction(0)
    for a, b in zip(nodes, nodes[1:]):
        wt = w.weight(a, b)
        if wt is INF:
            raise DomainError(f"({a},{b}) is not an arc")
        total += wt
    return total


def kleene_star(w: WeightedDigraph) -> TropicalMatrix:
    """All-pairs shortest path matrix W*; requires no negative cycle.

    The tropical power formula serves as an independent oracle in the tests.
    """
    scale, arcs = _instance(w, WeightedDigraph)._ints
    rows = (tuple(INF if x is None else Fraction(x, scale) for x in r) for r in _star(w.k, arcs))
    return TropicalMatrix(w.k, w.k, tuple(rows))


def equality_partition(w: WeightedDigraph) -> NodePartition:
    """Blocks of nodes whose coordinates are forced equal up to fixed offsets.

    Two nodes share a block iff they lie on a common zero-weight cycle,
    i.e. w*_ij = -w*_ji < inf.  The block count equals dim Q(W).
    """
    dist = _star(_instance(w, WeightedDigraph).k, w._ints[1])
    pairs = [(i + 1, j + 1) for i in range(w.k) for j in range(i + 1, w.k)
             if (a := dist[i][j]) is not None and (b := dist[j][i]) is not None and a + b == 0]
    return NodePartition.make(w.k, weak_components(w.k, pairs))


# ---------------------------------------------------------------------------
# faces, intersections, projections, membership


def face(w: WeightedDigraph, g: Iterable[tuple[int, int]]) -> WeightedDigraph:
    """The matrix W#G of the face F_G: w_ji is replaced by -w_ij for (i,j) in G."""
    arcs = dict(_instance(w, WeightedDigraph).arcs)
    gset = frozenset(_index(a, "an arc", pair=True) for a in _iterable(g, "arcs"))
    for (i, j) in gset:
        if (i, j) not in w.arcs:
            raise DomainError(f"face arc ({i},{j}) is not an arc of the digraph")
    for (i, j) in gset:
        if (j, i) in gset and w.arcs[(i, j)] + w.arcs[(j, i)] != 0:
            raise InconsistentFaceError(
                f"arcs ({i},{j}) and ({j},{i}) both tight but weights do not cancel"
            )
    for (i, j) in gset:
        arcs[(j, i)] = -w.arcs[(i, j)]
    return WeightedDigraph(w.k, arcs)


def intersect(u: WeightedDigraph, w: WeightedDigraph) -> WeightedDigraph:
    """Q(U) with Q(W) intersected: the entrywise minimum U + W (min)."""
    if _instance(u, WeightedDigraph).k != _instance(w, WeightedDigraph).k:
        raise ShapeError("intersection needs equal node counts")
    arcs = dict(u.arcs)
    for a, wt in w.arcs.items():
        if a not in arcs or wt < arcs[a]:
            arcs[a] = wt
    return WeightedDigraph(u.k, arcs)


def project(w: WeightedDigraph, deleted: Iterable[int]) -> WeightedDigraph:
    """Coordinate projection of Q(W): delete rows/columns of W* indexed by I."""
    dset = frozenset(_index(i, "a node") for i in _iterable(deleted, "a node set"))
    if not dset <= set(range(1, _instance(w, WeightedDigraph).k + 1)):
        raise DomainError("projection index set out of range")
    if len(dset) == w.k:
        raise DomainError("cannot project away every coordinate")
    scale, dist = w._ints[0], _star(w.k, w._ints[1])
    keep = list(enumerate((v for v in range(w.k) if v + 1 not in dset), start=1))
    arcs = {(a, b): Fraction(x, scale) for a, r in keep for b, c in keep
            if (x := dist[r][c]) is not None}
    return WeightedDigraph(len(keep), arcs)


def membership(
    w: WeightedDigraph, x: Sequence
) -> tuple[bool, frozenset[tuple[int, int]]]:
    """Whether the finite point x lies in Q(W), plus the arcs attained with equality."""
    pt = _point(x, _instance(w, WeightedDigraph).k, "point has length {}, digraph has {} nodes",
                "membership")
    _, m, p = _rescaled(w._ints[0], pt)
    slack = {(i, j): wt * m - p[i - 1] + p[j - 1] for (i, j), wt in w._ints[1].items()}
    return min(slack.values(), default=0) >= 0, frozenset({a for a, s in slack.items() if not s})


def interior_point(w: WeightedDigraph) -> tuple[Fraction, ...]:
    """A point of Q(W) whose tight arcs are exactly the forced equalities.

    Big-M completion makes every Kleene column finite; the arithmetic mean
    of the columns is then tight precisely on the zero-cycle arcs.  A cycle
    through a big-M arc outweighs its other arcs, so it is never negative.
    """
    return _completed_point(_instance(w, WeightedDigraph).k, *w._ints)


def _completed_point(k: int, scale: int, arcs: Mapping) -> tuple[Fraction, ...]:
    """``interior_point`` of the digraph whose weights times ``scale`` are the ints ``arcs``.

    The completion adds an arc of weight ``big`` wherever there is none.  A
    shortest path takes at most one, since a second costs more than any
    path saves, so the completed star is min(S[a][b], big + the least entry
    of row a of S + the least of column b) for the star S of ``arcs`` alone.
    """
    big = (k + 1) * (max(map(abs, arcs.values()), default=0) + scale)
    star = _star(k, arcs)
    to = [min([x for x in col if x is not None]) for col in zip(*star)]
    out = []
    for row in star:
        via = big + min([x for x in row if x is not None])
        total = 0
        for x, t in zip(row, to):
            y = via + t  # the least path through one big-M arc
            total += y if x is None or y < x else x
        out.append(Fraction(total, k * scale))
    return tuple(out)


# ---------------------------------------------------------------------------
# recession cones and digraph cone combinatorics


class RecessionDecomposition(_Record):
    """Generators of the recession cone of Q(W) as 0/1 characteristic vectors."""

    lineality_generators: tuple[tuple[int, ...], ...]
    ray_generators: tuple[tuple[int, ...], ...]


def _chi(k: int, mask: int) -> tuple[int, ...]:
    return tuple(mask >> v & 1 for v in range(1, k + 1))


def recession(w: WeightedDigraph) -> RecessionDecomposition:
    """Lineality and minimal ray generators of the recession cone of Q(W).

    The recession cone is the digraph cone of the unweighted arc set: the
    lineality space is spanned by the weak components C, and the rays are
    the chi(K) that ``_rays`` lists in each C.
    """
    k = _instance(w, WeightedDigraph).k
    succ, nbr = _masks(k + 1, w.arcs)
    comps = list(_parts(nbr, (1 << k + 1) - 2))
    rays = [r for comp in comps for r in _rays(comp, succ, nbr)]
    lineality = tuple(_chi(k, c) for c in comps)
    return RecessionDecomposition(lineality, tuple(sorted(_chi(k, r) for r in rays)))


def _rays(whole: int, succ: list[int], nbr: list[int]) -> set[int]:
    """The rays of a digraph cone in its weak component ``whole``, as node masks K.

    ``succ`` and ``nbr`` hold each node's successors and neighbours either
    way.  K is a ray iff {} != K != C, no arc leaves K, and K and C - K are
    connected.  A walk lists them with polynomial work per ray: from a ray
    U (at first {}), each y of C - U with an arc into U (at first any y)
    gives U' = U + all y reaches, and C - Q is a ray for each weak component
    Q of C - U'.  The README shows that it reaches every ray, and that in a
    tree (|C| - 1 arcs, loops aside) it reaches every ray from {}.
    """
    nodes = [y for y in range(whole.bit_length()) if whole >> y & 1]
    desc = {y: _flood(1 << y, succ, whole) if succ[y] else 1 << y for y in nodes}
    tree = sum((succ[y] & ~(1 << y)).bit_count() for y in nodes) < len(nodes)
    rays: set[int] = set()
    stack = [0]
    while stack:
        u = stack.pop()
        for y in nodes:
            if u >> y & 1 or u and not succ[y] & u:
                continue
            rest = whole & ~(u | desc[y])
            while rest:
                q = _flood(rest & -rest, nbr, rest) if rest & rest - 1 else rest
                rest ^= q
                if (ray := whole & ~q) not in rays:
                    rays.add(ray)
                    if not tree:
                        stack.append(ray)
    return rays


class ConeFaceLattice(_Record):
    """Face lattice of a digraph cone, encoded by equality partitions.

    The elements are ordered by refinement: finer partitions correspond to
    larger faces.  The minimum (lineality face) is the weak-component
    partition, the top cell is the strong-component partition.
    """

    k: int
    elements: tuple[NodePartition, ...]
    minimum: NodePartition
    top: NodePartition

    def face_dimension(self, p: NodePartition) -> int:
        if _instance(p, NodePartition).k != self.k:
            raise ShapeError("partition node count does not match the lattice")
        return len(p.blocks)


def _set_partitions(k: int):
    """All set partitions of 1..k via restricted growth strings."""

    def rec(i: int, blocks: list[list[int]]):
        if i > k:
            yield [tuple(b) for b in blocks]
            return
        for b in blocks:
            b.append(i)
            yield from rec(i + 1, blocks)
            b.pop()
        blocks.append([i])
        yield from rec(i + 1, blocks)
        blocks.pop()

    yield from rec(1, [])


def cone_face_lattice(gamma: WeightedDigraph, *, node_bound: int = 10) -> ConeFaceLattice:
    """All equality partitions of faces of the digraph cone Q(Gamma, 0).

    A partition qualifies iff each block induces a weakly connected
    subgraph (a flood of its least node inside it reaches all of it) and
    contracting the blocks leaves no directed cycle: no flood along the
    contracted arcs ``out`` (per node, what its block reaches outside itself
    by one arc) that starts at a block's ``out`` re-enters the block.
    """
    if _instance(gamma, WeightedDigraph).k > _bound(node_bound, "a node bound"):
        raise CapabilityError(
            f"face lattice enumeration is limited to {node_bound} nodes, got {gamma.k}"
        )
    k, elements = gamma.k, []
    succ, nbr = _masks(k + 1, gamma.arcs)
    for blocks in _set_partitions(k):
        masks = [sum(1 << v for v in b) for b in blocks]
        if any(_flood(m & -m, nbr, m) != m for m in masks):
            continue
        out = [0] * (k + 1)
        for b, m in zip(blocks, masks):
            reach = 0
            for v in b:
                reach |= succ[v]
            for v in b:
                out[v] = reach & ~m
        if not any(_flood(out[b[0]], out, ~0) & m for b, m in zip(blocks, masks)):
            elements.append(NodePartition.make(k, blocks))
    elements.sort(key=lambda p: (len(p.blocks), p.blocks))
    # Blocks lie inside weak components and contain strong ones, so the weak-component
    # partition alone has the fewest blocks and the strong-component partition the most.
    return ConeFaceLattice(gamma.k, tuple(elements), elements[0], elements[-1])


def acyclic_reduction(gamma: WeightedDigraph) -> tuple[WeightedDigraph, NodePartition]:
    """Condensation digraph plus the strong-component partition.

    Arcs between distinct components keep the minimum weight over the
    original cross arcs; intra-component arcs are dropped.
    """
    comps = strong_components(_instance(gamma, WeightedDigraph).k, gamma.arcs)
    part = NodePartition.make(gamma.k, comps)
    idx = {v: t for t, b in enumerate(part.blocks, start=1) for v in b}
    arcs: dict[tuple[int, int], Fraction] = {}
    for (i, j), wt in gamma.arcs.items():
        key = (idx[i], idx[j])
        if key[0] != key[1] and (key not in arcs or wt < arcs[key]):
            arcs[key] = wt
    return WeightedDigraph(len(part.blocks), arcs), part
