"""DOT (graphviz) rendering of weighted digraphs.

Zero-weight loops are omitted, as are absent (infinite) arcs.  When the
digraph is an envelope on d row nodes and n column nodes, row nodes are
drawn as boxes above the circled column nodes.
"""

from __future__ import annotations

from .digraph import WeightedDigraph
from .errors import DomainError
from .semiring import _index, _instance


def dot_of_digraph(w: WeightedDigraph, *, bipartite_rows: int | None = None) -> str:
    _instance(w, WeightedDigraph)
    lines = ["digraph G {"]
    if bipartite_rows is None:
        for v in range(1, w.k + 1):
            lines.append(f'  n{v} [label="{v}"];')
    else:
        d = _index(bipartite_rows, "a row count")
        if not 0 < d < w.k:
            raise DomainError(f"row count {d} does not split the {w.k} nodes")
        lines.append("  { rank=source;")
        for v in range(1, d + 1):
            lines.append(f'    n{v} [label="{v}", shape=box];')
        lines.append("  }")
        lines.append("  { rank=sink;")
        for v in range(d + 1, w.k + 1):
            lines.append(f'    n{v} [label="{v - d}", shape=circle];')
        lines.append("  }")
    for (i, j), wt in sorted(w.arcs.items()):
        if i == j and wt == 0:
            continue
        lines.append(f'  n{i} -> n{j} [label="{wt}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
