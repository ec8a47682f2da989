"""Command line front end.

Verbs read the JSON formats of :mod:`wdpoly.formats` and write
deterministic JSON (or DOT / SVG) either to stdout or to the path given
with ``-o``.  Exit codes: 0 success, 1 infeasible or empty answer,
2 usage or format error, 3 capability bound exceeded.
"""

from __future__ import annotations

import argparse
import os
import sys

import wdpoly

from . import digraph as dg
from . import formats as fmt
from .errors import (
    CapabilityError,
    EmptyCellError,
    FormatError,
    InfeasibleError,
    TropicalError,
)


def _load_digraph(path: str) -> dg.WeightedDigraph:
    return fmt.parse_digraph(fmt.load_json(path), path)


def _load_config(path: str):
    return fmt.parse_point_config(fmt.load_json(path), path)


def _load_system(path: str):
    return fmt.parse_system(fmt.load_json(path), path)


# ---------------------------------------------------------------------------
# verb handlers: each returns (output, exit code), where the output is a
# JSON-able object, or the text itself for export-dot and plot-svg


def _cmd_kleene(args):
    return fmt.matrix_to_obj(dg.kleene_star(_load_digraph(args.input))), 0


def _cmd_feasible(args):
    cycle = dg.detect_negative_cycle(_load_digraph(args.input))
    return {"feasible": cycle is None, "cycle": cycle}, 0 if cycle is None else 1


def _cmd_faces(args):
    gamma = _load_digraph(args.input).zero_weights()
    lattice = dg.cone_face_lattice(gamma, node_bound=args.node_bound)
    return {
        "partitions": [fmt.partition_to_obj(p) for p in lattice.elements],
        "minimum": fmt.partition_to_obj(lattice.minimum),
        "top": fmt.partition_to_obj(lattice.top),
    }, 0


def _cmd_rays(args):
    rec = dg.recession(_load_digraph(args.input))
    return {
        "lineality": [list(r) for r in rec.lineality_generators],
        "rays": [list(r) for r in rec.ray_generators],
    }, 0


def _cmd_envelope(args):
    return fmt.digraph_to_obj(wdpoly.envelope_digraph(_load_config(args.input))), 0


def _cmd_cells(args):
    cells = wdpoly.enumerate_cells(_load_config(args.input), candidate_bound=args.bound)
    return [fmt.cell_to_obj(c) for c in cells], 0


def _cmd_subdivision(args):
    cells = wdpoly.regular_subdivision(_load_config(args.input), candidate_bound=args.bound)
    return [fmt.subdivision_cell_to_obj(c) for c in cells], 0


def _cmd_member(args):
    point = fmt.parse_point(args.point)
    if args.system:
        ok = wdpoly.halfspace_membership(_load_system(args.input), point)
        return {"member": ok}, 0 if ok else 1
    ok, lam = wdpoly.tcone_membership(_load_config(args.input), wdpoly.ProjectivePoint.make(point))
    return {"member": ok, "witness": fmt.point_to_obj(lam)}, 0 if ok else 1


def _cmd_pure(args):
    ok, pair = wdpoly.is_pure(_load_system(args.input), candidate_bound=args.bound)
    obj = {"pure": ok}
    if pair is not None:
        obj["witness"] = [fmt.cell_to_obj(pair[0]), fmt.cell_to_obj(pair[1])]
    return obj, 0


def _cmd_signed(args):
    table = wdpoly.signed_cells(_load_system(args.input), candidate_bound=args.bound)
    return {eps: [fmt.cell_to_obj(c) for c in cells] for eps, cells in sorted(table.items())}, 0


def _cmd_projective(args):
    cells = wdpoly.projective_decomposition(_load_config(args.input), candidate_bound=args.bound)
    return [fmt.cell_to_obj(c) for c in cells], 0


def _cmd_tangent(args):
    system = _load_system(args.input)
    graph = fmt.parse_support_graph(fmt.load_json(args.cell), args.cell)
    if not wdpoly.is_covector_graph(system.config, graph):
        raise EmptyCellError("the given graph is not a cell of the decomposition")
    record = wdpoly.CellRecord(
        graph=graph,
        dimension=graph.weak_component_count() - 1,
        bounded=False,
        in_tcone=False,
        stratum=frozenset(),
    )
    t = wdpoly.tangent_digraph(system, record)
    return {
        "columns": list(t.columns),
        "row_to_col": [list(a) for a in sorted(t.row_to_col)],
        "col_to_row": [list(a) for a in sorted(t.col_to_row)],
    }, 0


def _cmd_export_dot(args):
    from .dot import dot_of_digraph
    obj = fmt.load_json(args.input)
    if isinstance(obj, dict) and "nodes" in obj:
        return dot_of_digraph(fmt.parse_digraph(obj, args.input)), 0
    v = fmt.parse_point_config(obj, args.input)
    return dot_of_digraph(wdpoly.envelope_digraph(v), bipartite_rows=v.d), 0


def _cmd_plot_svg(args):
    from .svg import render_svg
    return render_svg(_load_config(args.input)), 0


# ---------------------------------------------------------------------------
# parser: one row per verb, with the arguments it takes beyond input and -o


def _bound_arg(held: str) -> tuple[str, dict]:
    help_text = f"cap on the {held} the walk holds, found or pending"
    return "--bound", {"type": int, "default": 1_000_000, "help": help_text}


_GRAPHS = _bound_arg("covector graphs")
_VERTICES = _bound_arg("envelope vertices")
_NODE_BOUND = (
    "--node-bound",
    {"type": int, "default": 10, "help": "node bound for face lattice enumeration"},
)
_POINT = (
    "point",
    {
        "help": "comma-separated coordinates, e.g. 0,1/2,inf; "
        "put a point with a negative first coordinate after --"
    },
)
_SYSTEM = (
    "--system",
    {"action": "store_true", "help": "treat the input as a halfspace system instead of a matrix"},
)
_CELL = ("cell", {"help": "covector graph JSON file"})

_VERBS = (
    ("kleene", _cmd_kleene, "all-pairs shortest path matrix of a digraph", ()),
    ("feasible", _cmd_feasible, "negative cycle detection", ()),
    ("faces", _cmd_faces, "face lattice of the digraph cone (weights ignored)", (_NODE_BOUND,)),
    ("rays", _cmd_rays, "lineality and ray generators of the recession cone", ()),
    ("envelope", _cmd_envelope, "envelope digraph of a point configuration", ()),
    ("cells", _cmd_cells, "covector decomposition of the torus", (_GRAPHS,)),
    ("subdivision", _cmd_subdivision, "maximal cells of the regular subdivision", (_VERTICES,)),
    ("member", _cmd_member, "tropical cone or halfspace membership", (_POINT, _SYSTEM)),
    ("pure", _cmd_pure, "pureness of a halfspace system", (_GRAPHS,)),
    ("signed", _cmd_signed, "signed cells of a halfspace system", (_GRAPHS,)),
    ("projective", _cmd_projective, "decomposition of tropical projective space", (_GRAPHS,)),
    ("tangent", _cmd_tangent, "tangent digraph at a cell", (_CELL,)),
    ("export-dot", _cmd_export_dot, "DOT rendering of a digraph or envelope", ()),
    ("plot-svg", _cmd_plot_svg, "SVG of the covector decomposition (d = 3)", ()),
)


def _write_stdout(text: str) -> None:
    """Write ``text`` to stdout, or raise ``FormatError`` if stdout cannot take all of it."""
    if sys.stdout is None:  # started with its descriptor closed
        raise FormatError("cannot write standard output: it is closed")
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as exc:
        # stdout keeps what it could not write and would fail on it again at exit
        if sys.stdout is sys.__stdout__:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise FormatError(f"cannot write standard output: {exc.strerror or exc}") from None


class _Parser(argparse.ArgumentParser):
    """A parser whose help goes through ``_write_stdout``: argparse ignores a failed write."""

    def print_help(self, file=None):
        _write_stdout(self.format_help())


def _build_parser(verb: str | None = None) -> argparse.ArgumentParser:
    """The parser with the subparser of ``verb`` alone, or of every verb if it names none."""
    parser = _Parser(
        prog="wdpoly",
        description="Exact combinatorics of weighted digraph polyhedra and tropical cones",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler, help_text, arguments in [v for v in _VERBS if v[0] == verb] or _VERBS:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("input", help="input JSON file")
        p.add_argument("-o", "--output", help="output path (default stdout)")
        for flag, options in arguments:
            p.add_argument(flag, **options)
        p.set_defaults(handler=handler)
    return parser


def run(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser(argv[0] if argv else None)
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:  # after the help text, or a usage error on stderr
            return 0 if exc.code == 0 else 2
        output, code = args.handler(args)
        text = output if isinstance(output, str) else fmt.dump_json(output)
        if args.output:
            fmt.write_atomic(args.output, text)
        else:
            _write_stdout(text)
        return code
    except TropicalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, (InfeasibleError, EmptyCellError)):
            return 1
        return 3 if isinstance(exc, CapabilityError) else 2


def entry() -> None:
    sys.exit(run())


if __name__ == "__main__":
    entry()
