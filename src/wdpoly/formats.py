"""JSON file formats shared by the library and the command line.

Rationals travel as strings ("3", "-1/2"), infinity as "inf"; all node,
row and column indices are 1-based.  Serialization is deterministic:
fixed key order, fixed sorting of arc lists and cells.  The objects built
for ``json`` hold the records' own tuples, which it writes as arrays.
"""

from __future__ import annotations

import io
import json
import os
import tempfile
from typing import TYPE_CHECKING, Any, Sequence

import wdpoly

from .digraph import NodePartition, WeightedDigraph
from .errors import FormatError
from .matrix import TropicalMatrix
from .semiring import INF, TVal, is_finite, tval

if TYPE_CHECKING:  # the parsers that build these reach them through the package's names
    from .covector import CellRecord, HalfspaceSystem
    from .envelope import BipartiteSupportGraph, PointConfig, SubdivisionCell


def render_value(v: TVal) -> str:
    if v is INF:
        return "inf"
    return str(v)


def parse_value(raw: Any, *, path=None, field=None) -> TVal:
    try:
        return tval(raw)
    except (TypeError, ValueError) as exc:
        raise FormatError(f"bad rational {raw!r}: {exc}", path=path, field=field)


def load_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise FormatError(f"cannot read file: {exc}", path=path)
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON at line {exc.lineno}: {exc.msg}", path=path)


def dump_json(obj: Any) -> str:
    """Indented JSON and a newline, written chunk by chunk rather than joined in one list."""
    buf = io.StringIO()
    json.dump(obj, buf, indent=2, ensure_ascii=False)
    buf.write("\n")
    return buf.getvalue()


def write_atomic(path: str, text: str) -> None:
    """Write the full payload, then rename into place.

    The file gets the mode a plain ``open`` would give it, 0o666 less the
    umask, instead of the 0600 of the temporary file.  A path that cannot
    be written raises ``FormatError`` and leaves no temporary file behind.
    """
    directory = os.path.dirname(os.path.abspath(path))
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except OSError as exc:
        raise FormatError(f"cannot write file: {exc.strerror or exc}", path=path) from None
    finally:
        if tmp is not None and os.path.exists(tmp):  # the rename did not happen
            os.unlink(tmp)


def _require(obj: Any, field: str, path=None) -> Any:
    if not isinstance(obj, dict) or field not in obj:
        raise FormatError("missing field", path=path, field=field)
    return obj[field]


# ---------------------------------------------------------------------------
# matrices and point configurations


def parse_matrix(obj: Any, path=None) -> TropicalMatrix:
    rows = _require(obj, "rows", path)
    cols = _require(obj, "cols", path)
    entries = _require(obj, "entries", path)
    if type(rows) is not int or type(cols) is not int or rows < 1 or cols < 1:
        raise FormatError("rows and cols must be positive integers", path=path, field="rows")
    if not isinstance(entries, list) or len(entries) != rows:
        raise FormatError(f"expected {rows} entry rows", path=path, field="entries")
    data = []
    for i, row in enumerate(entries, start=1):
        if not isinstance(row, list) or len(row) != cols:
            raise FormatError(
                f"row {i} must be a list of {cols} values", path=path, field="entries"
            )
        data.append([parse_value(x, path=path, field=f"entries[{i}]") for x in row])
    return TropicalMatrix.make(data)


def matrix_to_obj(m: TropicalMatrix) -> dict:
    return {
        "rows": m.rows,
        "cols": m.cols,
        "entries": [[render_value(x) for x in row] for row in m.entries],
    }


def parse_point_config(obj: Any, path=None) -> PointConfig:
    m = parse_matrix(obj, path)
    try:
        return wdpoly.PointConfig(m)
    except ValueError as exc:
        raise FormatError(str(exc), path=path, field="entries")


# ---------------------------------------------------------------------------
# digraphs


def parse_digraph(obj: Any, path=None) -> WeightedDigraph:
    k = _require(obj, "nodes", path)
    arcs_raw = _require(obj, "arcs", path)
    if type(k) is not int or k < 1:
        raise FormatError("nodes must be a positive integer", path=path, field="nodes")
    if not isinstance(arcs_raw, list):
        raise FormatError("arcs must be a list", path=path, field="arcs")
    arcs = {}
    seen = set()
    for t, a in enumerate(arcs_raw, start=1):
        i = _require(a, "from", path)
        j = _require(a, "to", path)
        w = parse_value(_require(a, "w", path), path=path, field=f"arcs[{t}].w")
        if type(i) is not int or type(j) is not int or not (1 <= i <= k and 1 <= j <= k):
            raise FormatError(
                f"arc ({i},{j}) out of range for {k} nodes", path=path, field=f"arcs[{t}]"
            )
        if (i, j) in seen:
            raise FormatError(f"duplicate arc ({i},{j})", path=path, field=f"arcs[{t}]")
        seen.add((i, j))
        if is_finite(w):
            arcs[(i, j)] = w
    return WeightedDigraph(k, arcs)


def digraph_to_obj(w: WeightedDigraph) -> dict:
    return {
        "nodes": w.k,
        "arcs": [
            {"from": i, "to": j, "w": render_value(wt)}
            for (i, j), wt in sorted(w.arcs.items())
        ],
    }


def partition_to_obj(p: NodePartition) -> tuple[tuple[int, ...], ...]:
    return p.blocks


# ---------------------------------------------------------------------------
# bipartite graphs, halfspace systems, cells


def _pairs(raw: Any, field: str, path=None) -> list[tuple[int, int]]:
    """The ``[i, j]`` int pairs of the list ``raw``, read from ``field``."""
    if not isinstance(raw, list):
        raise FormatError(f"{field} must be a list of [i,j] pairs", path=path, field=field)
    pairs = []
    for t, a in enumerate(raw, start=1):
        if not (isinstance(a, list) and len(a) == 2 and all(type(x) is int for x in a)):
            raise FormatError("entry must be a pair [i,j]", path=path, field=f"{field}[{t}]")
        pairs.append((a[0], a[1]))
    return pairs


def parse_support_graph(obj: Any, path=None) -> BipartiteSupportGraph:
    d = _require(obj, "d", path)
    n = _require(obj, "n", path)
    arcs = _require(obj, "arcs", path)
    if type(d) is not int or type(n) is not int or d < 1 or n < 1:
        raise FormatError("d and n must be positive integers", path=path, field="d")
    pairs = _pairs(arcs, "arcs", path)
    try:
        return wdpoly.BipartiteSupportGraph.make(d, n, pairs)
    except ValueError as exc:
        raise FormatError(str(exc), path=path, field="arcs")


def graph_to_obj(g: BipartiteSupportGraph) -> dict:
    return {"d": g.d, "n": g.n, "arcs": [list(a) for a in g.sorted_arcs()]}


def parse_system(obj: Any, path=None) -> HalfspaceSystem:
    v = parse_point_config(_require(obj, "matrix", path), path)
    pairs = _pairs(_require(obj, "selection", path), "selection", path)
    try:
        psi = wdpoly.BipartiteSupportGraph.make(v.d, v.n, pairs)
        return wdpoly.HalfspaceSystem.make(v, psi)
    except ValueError as exc:
        raise FormatError(str(exc), path=path, field="selection")


def parse_point(raw: str, *, path=None) -> list[TVal]:
    parts = [p.strip() for p in raw.split(",")]
    if not parts or parts == [""]:
        raise FormatError("empty point", path=path, field="point")
    return [parse_value(p, path=path, field="point") for p in parts]


def cell_to_obj(c: CellRecord) -> dict:
    arcs = c.graph.sorted_arcs()  # one sort renders both fields
    return {
        "covector": arcs,
        "tuple": c.graph._tuple_string(arcs, c.stratum),
        "dim": c.dimension,
        "bounded": c.bounded,
        "in_tcone": c.in_tcone,
        "stratum": sorted(c.stratum),
    }


def subdivision_cell_to_obj(c: SubdivisionCell) -> dict:
    return {"vertices": sorted(c.vertices), "dim": c.dimension}


def point_to_obj(x: Sequence[TVal]) -> list[str]:
    return [render_value(v) for v in x]
