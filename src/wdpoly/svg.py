"""Deterministic SVG rendering of covector decompositions for d = 3.

Points of the projective torus are drawn in the plane x_1 = 0, so a
point x maps to the pair (x_2 - x_1, x_3 - x_1).  The picture shows the
1-skeleton of the decomposition: vertices as dots, bounded edges as
segments, unbounded edges clipped at a dashed frame marking the
projective boundary.  Coordinates in the output are rounded to two
decimals, which makes the bytes reproducible.

The 1-skeleton is read off the walk over the vertices of V's envelope
(``envelope._vertices``; README "The SVG" says why).  With a connected
support its vertices are the 0-cells, and its edges whose graphs cover
every column the 1-cells; with two weak components each vertex is a
line; with more there is no 0- or 1-cell.
"""

from __future__ import annotations

from fractions import Fraction

from .envelope import PointConfig, _arcs_of, _vertices
from .errors import CapabilityError
from .semiring import _instance

_SIZE = 420
_MARGIN = 10


def _clip_ray(p, d, r: Fraction) -> tuple[Fraction, Fraction]:
    """Point where the ray p + t d leaves the square [-r, r]^2."""
    t = min(((r if x > 0 else -r) - q) / x for q, x in zip(p, d) if x)
    return (p[0] + t * d[0], p[1] + t * d[1])


def render_svg(v: PointConfig) -> str:
    if _instance(v, PointConfig).d != 3:
        raise CapabilityError(f"SVG rendering supports d = 3 only, got d = {v.d}")
    arcs, components, scale, walk = _vertices(v, 1_000_000)
    columns = [sum(1 << b for b, a in enumerate(arcs) if a[1] == j) for j in range(1, v.n + 1)]
    points, segments, unbounded = {}, [], []
    for g, p, edges in walk:
        points[g] = x = (Fraction(p[1] - p[0], scale), Fraction(p[2] - p[0], scale))
        for ray, e, h in edges if components == 1 else ():  # else no edge is a 1-cell
            if not all(e & m for m in columns):
                continue  # no torus cell
            if h is None:
                unbounded.append((x, ray))
            elif h in points:  # the edge's later end: both points are known
                segments.append(tuple(sorted((x, points[h]))))
    dots = points if components == 1 else {}

    coords = [q for p in dots.values() for q in p]
    rmax = max((abs(q) for q in coords), default=Fraction(0))
    r = Fraction(max(4, int(rmax) + 2))
    px = Fraction(_SIZE - 2 * _MARGIN, 2 * r)

    def to_px(p) -> tuple[str, str]:
        x = _MARGIN + (p[0] + r) * px
        y = _MARGIN + (r - p[1]) * px
        return (f"{float(x):.2f}", f"{float(y):.2f}")

    def direction(rows: int) -> tuple[int, int]:
        """chi(rows) in the plane x_1 = 0, for a mask of rows (row i at bit i-1)."""
        return ((rows >> 1 & 1) - (rows & 1), (rows >> 2 & 1) - (rows & 1))

    segments += [(x, _clip_ray(x, direction(ray), r)) for x, ray in unbounded]
    if components == 2:
        # each vertex is a line along the lineality direction of row 1's component
        parts = v.support().nontrivial_components()
        dx, dy = direction(next((sum(1 << i - 1 for i in q) for q, _ in parts if 1 in q), 1))
        for x in points.values():
            segments.append((_clip_ray(x, (dx, dy), r), _clip_ray(x, (-dx, -dy), r)))

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SIZE}" height="{_SIZE}" '
        f'viewBox="0 0 {_SIZE} {_SIZE}">',
        f'  <rect x="{_MARGIN}" y="{_MARGIN}" width="{_SIZE - 2 * _MARGIN}" '
        f'height="{_SIZE - 2 * _MARGIN}" fill="none" stroke="black" '
        'stroke-dasharray="6,4" stroke-width="1"/>',
    ]
    for a, b in sorted(segments):
        (x1, y1), (x2, y2) = to_px(a), to_px(b)
        out.append(
            f'  <line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
            'stroke="black" stroke-width="1.5"/>'
        )
    for g in sorted(dots, key=lambda g: _arcs_of(arcs, g)):
        x, y = to_px(dots[g])
        out.append(f'  <circle cx="{x}" cy="{y}" r="3.5" fill="black"/>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
