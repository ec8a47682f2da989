"""Command line front end.

Verbs read the JSON formats of :mod:`wdpoly.formats` and write
deterministic JSON (or DOT / SVG) either to stdout or to the path given
with ``-o``.  Exit codes: 0 success, 1 infeasible or empty answer,
2 usage or format error, 3 capability bound exceeded.
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING

from . import digraph as dg
from . import formats as fmt
from .errors import (
    CapabilityError,
    EmptyCellError,
    FormatError,
    InfeasibleError,
    TropicalError,
)

if TYPE_CHECKING:  # the verbs that use these layers import them when they run
    from . import covector as cov
    from . import envelope as env


def _emit(args, text: str) -> None:
    if args.output:
        fmt.write_atomic(args.output, text)
    else:
        sys.stdout.write(text)


def _emit_json(args, obj) -> None:
    _emit(args, fmt.dump_json(obj))


def _load_digraph(path: str) -> dg.WeightedDigraph:
    return fmt.parse_digraph(fmt.load_json(path), path)


def _load_config(path: str) -> env.PointConfig:
    return fmt.parse_point_config(fmt.load_json(path), path)


def _load_system(path: str) -> cov.HalfspaceSystem:
    return fmt.parse_system(fmt.load_json(path), path)


# ---------------------------------------------------------------------------
# verb handlers


def _cmd_kleene(args) -> int:
    star = dg.kleene_star(_load_digraph(args.input))
    _emit_json(args, fmt.matrix_to_obj(star))
    return 0


def _cmd_feasible(args) -> int:
    cycle = dg.detect_negative_cycle(_load_digraph(args.input))
    if cycle is None:
        _emit_json(args, {"feasible": True, "cycle": None})
        return 0
    _emit_json(args, {"feasible": False, "cycle": cycle})
    return 1


def _cmd_faces(args) -> int:
    gamma = _load_digraph(args.input).zero_weights()
    lattice = dg.cone_face_lattice(gamma, node_bound=args.node_bound)
    _emit_json(
        args,
        {
            "partitions": [fmt.partition_to_obj(p) for p in lattice.elements],
            "minimum": fmt.partition_to_obj(lattice.minimum),
            "top": fmt.partition_to_obj(lattice.top),
        },
    )
    return 0


def _cmd_rays(args) -> int:
    rec = dg.recession(_load_digraph(args.input))
    _emit_json(
        args,
        {
            "lineality": [list(r) for r in rec.lineality_generators],
            "rays": [list(r) for r in rec.ray_generators],
        },
    )
    return 0


def _cmd_envelope(args) -> int:
    from . import envelope as env
    _emit_json(args, fmt.digraph_to_obj(env.envelope_digraph(_load_config(args.input))))
    return 0


def _cmd_cells(args) -> int:
    from . import covector as cov
    cells = cov.enumerate_cells(_load_config(args.input), candidate_bound=args.bound)
    _emit_json(args, [fmt.cell_to_obj(c) for c in cells])
    return 0


def _cmd_subdivision(args) -> int:
    from . import envelope as env
    cells = env.regular_subdivision(_load_config(args.input), candidate_bound=args.bound)
    _emit_json(args, [fmt.subdivision_cell_to_obj(c) for c in cells])
    return 0


def _cmd_member(args) -> int:
    from . import covector as cov
    point = fmt.parse_point(args.point)
    if args.system:
        system = _load_system(args.input)
        ok = cov.halfspace_membership(system, point)
        _emit_json(args, {"member": ok})
    else:
        v = _load_config(args.input)
        z = cov.ProjectivePoint.make(point)
        ok, lam = cov.tcone_membership(v, z)
        _emit_json(args, {"member": ok, "witness": fmt.point_to_obj(lam)})
    return 0 if ok else 1


def _cmd_pure(args) -> int:
    from . import covector as cov
    ok, pair = cov.is_pure(_load_system(args.input), candidate_bound=args.bound)
    obj = {"pure": ok}
    if pair is not None:
        obj["witness"] = [fmt.cell_to_obj(pair[0]), fmt.cell_to_obj(pair[1])]
    _emit_json(args, obj)
    return 0


def _cmd_signed(args) -> int:
    from . import covector as cov
    table = cov.signed_cells(_load_system(args.input), candidate_bound=args.bound)
    _emit_json(
        args,
        {eps: [fmt.cell_to_obj(c) for c in cells] for eps, cells in sorted(table.items())},
    )
    return 0


def _cmd_projective(args) -> int:
    from . import covector as cov
    cells = cov.projective_decomposition(_load_config(args.input), candidate_bound=args.bound)
    _emit_json(args, [fmt.cell_to_obj(c) for c in cells])
    return 0


def _cmd_tangent(args) -> int:
    from . import covector as cov, envelope as env
    system = _load_system(args.input)
    graph = fmt.parse_support_graph(fmt.load_json(args.cell), args.cell)
    if not env.is_covector_graph(system.config, graph):
        raise EmptyCellError("the given graph is not a cell of the decomposition")
    record = cov.CellRecord(
        graph=graph,
        dimension=graph.weak_component_count() - 1,
        bounded=False,
        in_tcone=False,
        stratum=frozenset(),
    )
    t = cov.tangent_digraph(system, record)
    _emit_json(
        args,
        {
            "columns": list(t.columns),
            "row_to_col": [list(a) for a in sorted(t.row_to_col)],
            "col_to_row": [list(a) for a in sorted(t.col_to_row)],
        },
    )
    return 0


def _cmd_export_dot(args) -> int:
    from .dot import dot_of_digraph
    obj = fmt.load_json(args.input)
    if isinstance(obj, dict) and "nodes" in obj:
        text = dot_of_digraph(fmt.parse_digraph(obj, args.input))
    else:
        from .envelope import envelope_digraph
        v = fmt.parse_point_config(obj, args.input)
        text = dot_of_digraph(envelope_digraph(v), bipartite_rows=v.d)
    _emit(args, text)
    return 0


def _cmd_plot_svg(args) -> int:
    from .svg import render_svg
    _emit(args, render_svg(_load_config(args.input)))
    return 0


# ---------------------------------------------------------------------------
# parser


_VERBS = (
    ("kleene", _cmd_kleene, "all-pairs shortest path matrix of a digraph"),
    ("feasible", _cmd_feasible, "negative cycle detection"),
    ("faces", _cmd_faces, "face lattice of the digraph cone (weights ignored)"),
    ("rays", _cmd_rays, "lineality and ray generators of the recession cone"),
    ("envelope", _cmd_envelope, "envelope digraph of a point configuration"),
    ("cells", _cmd_cells, "covector decomposition of the torus"),
    ("subdivision", _cmd_subdivision, "maximal cells of the regular subdivision"),
    ("member", _cmd_member, "tropical cone or halfspace membership"),
    ("pure", _cmd_pure, "pureness of a halfspace system"),
    ("signed", _cmd_signed, "signed cells of a halfspace system"),
    ("projective", _cmd_projective, "decomposition of tropical projective space"),
    ("tangent", _cmd_tangent, "tangent digraph at a cell"),
    ("export-dot", _cmd_export_dot, "DOT rendering of a digraph or envelope"),
    ("plot-svg", _cmd_plot_svg, "SVG of the covector decomposition (d = 3)"),
)


def _build_parser(verb: str | None = None) -> argparse.ArgumentParser:
    """The parser with the subparser of ``verb`` alone, or of every verb if it names none."""
    parser = argparse.ArgumentParser(
        prog="wdpoly",
        description="Exact combinatorics of weighted digraph polyhedra and tropical cones",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler, help_text in [v for v in _VERBS if v[0] == verb] or _VERBS:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("input", help="input JSON file")
        if name == "tangent":
            p.add_argument("cell", help="covector graph JSON file")
        if name == "member":
            p.add_argument(
                "point",
                help="comma-separated coordinates, e.g. 0,1/2,inf; "
                "put a point with a negative first coordinate after --",
            )
            p.add_argument(
                "--system",
                action="store_true",
                help="treat the input as a halfspace system instead of a matrix",
            )
        p.add_argument("-o", "--output", help="output path (default stdout)")
        if name in ("cells", "subdivision", "pure", "signed", "projective"):
            held = "envelope vertices" if name == "subdivision" else "covector graphs"
            p.add_argument(
                "--bound",
                type=int,
                default=1_000_000,
                help=f"cap on the {held} the walk holds, found or pending",
            )
        if name == "faces":
            p.add_argument(
                "--node-bound",
                type=int,
                default=10,
                help="node bound for face lattice enumeration",
            )
        p.set_defaults(handler=handler)
    return parser


def run(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 2
    try:
        return args.handler(args)
    except (InfeasibleError, EmptyCellError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except CapabilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (FormatError, TropicalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(run())
