"""JSON formats, DOT/SVG emission and the command line."""

import errno
import io
import json
import os
import stat
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wdpoly import INF, DomainError, FormatError, PointConfig, ValueTypeError, WeightedDigraph
from wdpoly import formats as fmt
from wdpoly.cli import run
from wdpoly.dot import dot_of_digraph
from wdpoly.svg import render_svg

from oracles import render_svg_by_cells


def write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj), encoding="utf-8")
    return str(p)


MATRIX_OBJ = {
    "rows": 3,
    "cols": 3,
    "entries": [["1", "4", "1"], ["-1", "0", "-2"], ["3", "inf", "2"]],
}

CONFIG_OBJ = {
    "rows": 3,
    "cols": 3,
    "entries": [["0", "0", "0"], ["1", "1", "inf"], ["0", "2", "inf"]],
}


def digraph_obj():
    w = WeightedDigraph.from_matrix(fmt.parse_matrix(MATRIX_OBJ))
    return fmt.digraph_to_obj(w)


# ---------------------------------------------------------------------------
# formats


def test_value_round_trip():
    for raw in ("3", "-1/2", "inf"):
        assert fmt.render_value(fmt.parse_value(raw)) == raw


def test_matrix_round_trip():
    m = fmt.parse_matrix(MATRIX_OBJ)
    assert m.entry(3, 2) is INF
    assert fmt.matrix_to_obj(m) == MATRIX_OBJ


def test_matrix_parse_errors():
    with pytest.raises(FormatError):
        fmt.parse_matrix({"rows": 2, "cols": 2})
    with pytest.raises(FormatError):
        fmt.parse_matrix({"rows": 2, "cols": 2, "entries": [["0", "0"]]})
    with pytest.raises(FormatError):
        # JSON floats are rejected; exactness requires strings or ints
        fmt.parse_matrix({"rows": 1, "cols": 1, "entries": [[0.5]]})
    # a point configuration reports the entry's location once
    with pytest.raises(FormatError) as err:
        fmt.parse_point_config({"rows": 1, "cols": 1, "entries": [["x"]]}, "p.json")
    assert err.value.field == "entries[1]"
    assert str(err.value).startswith("p.json (field entries[1]): bad rational")


def test_digraph_round_trip():
    obj = digraph_obj()
    w = fmt.parse_digraph(obj)
    assert fmt.digraph_to_obj(w) == obj
    assert w.weight(2, 3) == Fraction(-2)


def test_digraph_parse_errors():
    with pytest.raises(FormatError):
        fmt.parse_digraph({"nodes": 2, "arcs": [{"from": 1, "to": 5, "w": "0"}]})
    with pytest.raises(FormatError):
        fmt.parse_digraph({"nodes": 0, "arcs": []})
    with pytest.raises(FormatError) as err:
        fmt.parse_digraph(
            {"nodes": 2, "arcs": [{"from": 1, "to": 2, "w": "0"}, {"from": 1, "to": 2, "w": "-1"}]}
        )
    assert err.value.field == "arcs[2]"


@pytest.mark.parametrize(
    "parse, obj, field",
    [
        (fmt.parse_matrix, {"rows": True, "cols": 1, "entries": [["0"]]}, "rows"),
        (fmt.parse_matrix, {"rows": 1, "cols": True, "entries": [["0"]]}, "rows"),
        (fmt.parse_digraph, {"nodes": True, "arcs": []}, "nodes"),
        (fmt.parse_digraph, {"nodes": 2, "arcs": [{"from": True, "to": 2, "w": "0"}]}, "arcs[1]"),
        (fmt.parse_digraph, {"nodes": 2, "arcs": [{"from": 2, "to": True, "w": "0"}]}, "arcs[1]"),
        (fmt.parse_support_graph, {"d": True, "n": 1, "arcs": [[1, 1]]}, "d"),
        (fmt.parse_support_graph, {"d": 1, "n": True, "arcs": [[1, 1]]}, "d"),
        (fmt.parse_support_graph, {"d": 1, "n": 1, "arcs": [[True, 1]]}, "arcs[1]"),
        (fmt.parse_support_graph, {"d": 1, "n": 1, "arcs": [[1, True]]}, "arcs[1]"),
        (fmt.parse_system, {"matrix": MATRIX_OBJ, "selection": [[True, 1]]}, "selection[1]"),
    ],
)
def test_a_json_boolean_is_no_count_or_index(parse, obj, field):
    with pytest.raises(FormatError) as err:
        parse(obj, "x.json")
    assert err.value.field == field


@pytest.mark.parametrize("verb", ["kleene", "feasible", "faces", "rays", "export-dot"])
def test_digraph_verbs_refuse_json_booleans(tmp_path, capsys, verb):
    for obj, field in (
        ({"nodes": True, "arcs": [{"from": True, "to": 1, "w": "-1"}]}, "nodes"),
        ({"nodes": 2, "arcs": [{"from": True, "to": 1, "w": "-1"}]}, "arcs[1]"),
        ({"nodes": 2, "arcs": [{"from": 1, "to": True, "w": "-1"}]}, "arcs[1]"),
    ):
        path = write(tmp_path, "w.json", obj)
        assert run([verb, path]) == 2
        assert f"(field {field})" in capsys.readouterr().err


def test_support_graph_round_trip():
    obj = {"d": 2, "n": 2, "arcs": [[1, 1], [2, 2]]}
    g = fmt.parse_support_graph(obj)
    assert fmt.graph_to_obj(g) == obj
    with pytest.raises(FormatError):
        fmt.parse_support_graph({"d": 1, "n": 1, "arcs": [[2, 1]]})


def test_point_parsing():
    pt = fmt.parse_point("0, 1/2, inf")
    assert pt == [Fraction(0), Fraction(1, 2), INF]
    with pytest.raises(FormatError):
        fmt.parse_point("")
    with pytest.raises(FormatError):
        fmt.parse_point("0,abc")


def test_dump_json_matches_json_dumps():
    obj = {"cells": [{"graph": "(1|2,•,-)", "dim": 2, "bounded": True}], "note": "ψ ⊕ ∞", "none": None}
    assert fmt.dump_json(obj) == json.dumps(obj, indent=2, ensure_ascii=False) + "\n"


def test_write_atomic(tmp_path):
    target = tmp_path / "out.json"
    fmt.write_atomic(str(target), "payload\n")
    assert target.read_text(encoding="utf-8") == "payload\n"
    leftovers = [p for p in tmp_path.iterdir() if p.name.startswith(".tmp-")]
    assert leftovers == []
    umask = os.umask(0)
    os.umask(umask)
    assert stat.S_IMODE(target.stat().st_mode) == 0o666 & ~umask


# ---------------------------------------------------------------------------
# DOT and SVG


def test_dot_output_is_deterministic():
    w = fmt.parse_digraph(digraph_obj())
    a = dot_of_digraph(w)
    b = dot_of_digraph(w)
    assert a == b
    assert a.startswith("digraph")
    assert 'n1 -> n3 [label="1"];' in a
    # the zero-weight loop at node 2 is suppressed
    assert "n2 -> n2" not in a


def test_dot_row_count_meets_the_input_contract():
    w = fmt.parse_digraph(digraph_obj())
    for rows in (0, w.k, 5):
        with pytest.raises(DomainError):
            dot_of_digraph(w, bipartite_rows=rows)
    for rows in ("1", 1.0, True):
        with pytest.raises(ValueTypeError):
            dot_of_digraph(w, bipartite_rows=rows)
    assert "shape=box" in dot_of_digraph(w, bipartite_rows=1)


# The bytes of ``render_svg`` pinned: bounded and unbounded edges, INF entries,
# thirds, a support of two weak components (lines), of three (the frame alone)
# and one column.  Each picture is the frame below, its lines and dots, "</svg>".
_SVG_FRAME = (
    '<svg xmlns="http://www.w3.org/2000/svg" width="420" height="420" viewBox="0 0 420 420">\n'
    '  <rect x="10" y="10" width="400" height="400" fill="none" stroke="black" '
    'stroke-dasharray="6,4" stroke-width="1"/>\n'
)
_SVG_GOLDEN = {
    "bounded_and_unbounded_edges": (
        [[0, 0, 0], [1, 3, -1], [2, -1, 1]],
        '  <line x1="170.00" y1="250.00" x2="10.00" y2="250.00" stroke="black" stroke-width="1.5"/>' "\n"
        '  <line x1="170.00" y1="250.00" x2="170.00" y2="410.00" stroke="black" stroke-width="1.5"/>' "\n"
        '  <line x1="170.00" y1="250.00" x2="170.00" y2="170.00" stroke="black" stroke-width="1.5"/>' "\n"
        '  <line x1="170.00" y1="250.00" x2="250.00" y2="250.00" stroke="black" stroke-width="1.5"/>' "\n"
        '  <line x1="170.00" y1="170.00" x2="10.00" y2="170.00" stroke="black" stroke-width="1.5"/>' "\n"
        '  <line x1="170.00" y1="170.00" x2="210.00" y2="130.00" stroke="black" stroke-width="1.5"/>' "\n"
        '  <line x1="210.00" y1="130.00" x2="10.00" y2="130.00" stroke="black" stroke-width="1.5"/>' "\n"
        '  <line x1="210.00" y1="130.00" x2="250.00" y2="130.00" stroke="black" stroke-width="1.5"/>' "\n"
        '  <line x1="210.00" y1="130.00" x2="330.00" y2="10.00" stroke="black" stroke-width="1.5"/>' "\n"
        '  <line x1="250.00" y1="250.00" x2="250.00" y2="410.00" stroke="black" stroke-width="1.5"/>' "\n"
        '  <line x1="250.00" y1="250.00" x2="250.00" y2="130.00" stroke="black" stroke-width="1.5"/>' "\n"
        '  <line x1="250.00" y1="250.00" x2="330.00" y2="250.00" stroke="black" stroke-width="1.5"/>' "\n"
        '  <line x1="250.00" y1="130.00" x2="370.00" y2="10.00" stroke="black" stroke-width="1.5"/>' "\n"
        '  <line x1="330.00" y1="250.00" x2="330.00" y2="410.00" stroke="black" stroke-width="1.5"/>' "\n"
        '  <line x1="330.00" y1="250.00" x2="410.00" y2="170.00" stroke="black" stroke-width="1.5"/>' "\n"
        '  <circle cx="170.00" cy="250.00" r="3.5" fill="black"/>' "\n"
        '  <circle cx="250.00" cy="250.00" r="3.5" fill="black"/>' "\n"
        '  <circle cx="170.00" cy="170.00" r="3.5" fill="black"/>' "\n"
        '  <circle cx="250.00" cy="130.00" r="3.5" fill="black"/>' "\n"
        '  <circle cx="210.00" cy="130.00" r="3.5" fill="black"/>' "\n"
        '  <circle cx="330.00" cy="250.00" r="3.5" fill="black"/>' "\n"
    ),
    "inf_entries": (
        [[0, 0, 0], [1, 1, INF], [0, 2, INF]],
        '  <line x1="260.00" y1="210.00" x2="10.00" y2="210.00" stroke="black" stroke-width="1.5"/>' "\n"
        '  <line x1="260.00" y1="210.00" x2="260.00" y2="410.00" stroke="black" stroke-width="1.5"/>' "\n"
        '  <line x1="260.00" y1="210.00" x2="260.00" y2="110.00" stroke="black" stroke-width="1.5"/>' "\n"
        '  <line x1="260.00" y1="210.00" x2="410.00" y2="60.00" stroke="black" stroke-width="1.5"/>' "\n"
        '  <line x1="260.00" y1="110.00" x2="10.00" y2="110.00" stroke="black" stroke-width="1.5"/>' "\n"
        '  <line x1="260.00" y1="110.00" x2="360.00" y2="10.00" stroke="black" stroke-width="1.5"/>' "\n"
        '  <circle cx="260.00" cy="210.00" r="3.5" fill="black"/>' "\n"
        '  <circle cx="260.00" cy="110.00" r="3.5" fill="black"/>' "\n"
    ),
    "thirds_and_inf": (
        [
            [0, Fraction(1, 3), 0, Fraction(-2, 3)],
            [Fraction(2, 3), 0, INF, 1],
            [0, Fraction(-1, 3), Fraction(4, 3), 0],
        ],
        '  <line x1="193.33" y1="243.33" x2="10.00" y2="243.33" stroke="black" stroke-width="1.5"/>' "\n"
        '  <line x1="193.33" y1="243.33" x2="193.33" y2="410.00" stroke="black" stroke-width="1.5"/>' "\n"
        '  <line x1="193.33" y1="243.33" x2="226.67" y2="210.00" stroke="black" stroke-width="1.5"/>' "\n"
        '  <line x1="226.67" y1="210.00" x2="10.00" y2="210.00" stroke="black" stroke-width="1.5"/>' "\n"
        '  <line x1="226.67" y1="210.00" x2="243.33" y2="210.00" stroke="black" stroke-width="1.5"/>' "\n"
        '  <line x1="226.67" y1="210.00" x2="260.00" y2="176.67" stroke="black" stroke-width="1.5"/>' "\n"
        '  <line x1="243.33" y1="210.00" x2="243.33" y2="410.00" stroke="black" stroke-width="1.5"/>' "\n"
        '  <line x1="243.33" y1="210.00" x2="276.67" y2="176.67" stroke="black" stroke-width="1.5"/>' "\n"
        '  <line x1="260.00" y1="176.67" x2="10.00" y2="176.67" stroke="black" stroke-width="1.5"/>' "\n"
        '  <line x1="260.00" y1="176.67" x2="276.67" y2="176.67" stroke="black" stroke-width="1.5"/>' "\n"
        '  <line x1="260.00" y1="176.67" x2="293.33" y2="143.33" stroke="black" stroke-width="1.5"/>' "\n"
        '  <line x1="276.67" y1="176.67" x2="293.33" y2="176.67" stroke="black" stroke-width="1.5"/>' "\n"
        '  <line x1="276.67" y1="176.67" x2="310.00" y2="143.33" stroke="black" stroke-width="1.5"/>' "\n"
        '  <line x1="293.33" y1="176.67" x2="293.33" y2="410.00" stroke="black" stroke-width="1.5"/>' "\n"
        '  <line x1="293.33" y1="176.67" x2="326.67" y2="143.33" stroke="black" stroke-width="1.5"/>' "\n"
        '  <line x1="293.33" y1="143.33" x2="10.00" y2="143.33" stroke="black" stroke-width="1.5"/>' "\n"
        '  <line x1="293.33" y1="143.33" x2="310.00" y2="143.33" stroke="black" stroke-width="1.5"/>' "\n"
        '  <line x1="293.33" y1="143.33" x2="410.00" y2="26.67" stroke="black" stroke-width="1.5"/>' "\n"
        '  <line x1="310.00" y1="143.33" x2="326.67" y2="143.33" stroke="black" stroke-width="1.5"/>' "\n"
        '  <line x1="310.00" y1="143.33" x2="410.00" y2="43.33" stroke="black" stroke-width="1.5"/>' "\n"
        '  <line x1="326.67" y1="143.33" x2="410.00" y2="143.33" stroke="black" stroke-width="1.5"/>' "\n"
        '  <line x1="326.67" y1="143.33" x2="410.00" y2="60.00" stroke="black" stroke-width="1.5"/>' "\n"
        '  <circle cx="193.33" cy="243.33" r="3.5" fill="black"/>' "\n"
        '  <circle cx="243.33" cy="210.00" r="3.5" fill="black"/>' "\n"
        '  <circle cx="226.67" cy="210.00" r="3.5" fill="black"/>' "\n"
        '  <circle cx="293.33" cy="176.67" r="3.5" fill="black"/>' "\n"
        '  <circle cx="276.67" cy="176.67" r="3.5" fill="black"/>' "\n"
        '  <circle cx="260.00" cy="176.67" r="3.5" fill="black"/>' "\n"
        '  <circle cx="326.67" cy="143.33" r="3.5" fill="black"/>' "\n"
        '  <circle cx="310.00" cy="143.33" r="3.5" fill="black"/>' "\n"
        '  <circle cx="293.33" cy="143.33" r="3.5" fill="black"/>' "\n"
    ),
    "two_components_vertical_lines": (
        [[0, INF, 1], [2, INF, 0], [INF, 0, INF]],
        '  <line x1="160.00" y1="410.00" x2="160.00" y2="10.00" stroke="black" stroke-width="1.5"/>' "\n"
        '  <line x1="310.00" y1="410.00" x2="310.00" y2="10.00" stroke="black" stroke-width="1.5"/>' "\n"
    ),
    "two_components_diagonal_lines": (
        [[0, INF, INF], [INF, 1, 0], [INF, 2, -1]],
        '  <line x1="10.00" y1="360.00" x2="360.00" y2="10.00" stroke="black" stroke-width="1.5"/>' "\n"
        '  <line x1="60.00" y1="410.00" x2="410.00" y2="60.00" stroke="black" stroke-width="1.5"/>' "\n"
    ),
    "an_all_inf_row": (
        [[0, 1], [INF, INF], [2, 0]],
        '  <line x1="10.00" y1="260.00" x2="410.00" y2="260.00" stroke="black" stroke-width="1.5"/>' "\n"
        '  <line x1="10.00" y1="110.00" x2="410.00" y2="110.00" stroke="black" stroke-width="1.5"/>' "\n"
    ),
    "three_components_frame_only": (
        [[0, INF, INF], [INF, 0, INF], [INF, INF, 0]],
        ""
    ),
    "one_column": (
        [[0], [1], [3]],
        '  <line x1="250.00" y1="90.00" x2="10.00" y2="90.00" stroke="black" stroke-width="1.5"/>' "\n"
        '  <line x1="250.00" y1="90.00" x2="250.00" y2="410.00" stroke="black" stroke-width="1.5"/>' "\n"
        '  <line x1="250.00" y1="90.00" x2="330.00" y2="10.00" stroke="black" stroke-width="1.5"/>' "\n"
        '  <circle cx="250.00" cy="90.00" r="3.5" fill="black"/>' "\n"
    ),
}


@pytest.mark.parametrize("name", sorted(_SVG_GOLDEN))
def test_svg_bytes_are_pinned(name):
    entries, body = _SVG_GOLDEN[name]
    v = PointConfig.make(entries)
    assert render_svg(v) == _SVG_FRAME + body + "</svg>\n"
    assert render_svg_by_cells(v) == render_svg(v)


@st.composite
def _svg_configs(draw):
    """3 x n with n <= 5, entries p/q with p in -3..3 and q in {1, 3}; most draws allow INF."""
    rational = st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 3]))
    entry = st.one_of(rational, st.just(INF)) if draw(st.integers(0, 3)) else rational
    column = st.lists(entry, min_size=3, max_size=3).filter(lambda c: any(x is not INF for x in c))
    cols = draw(st.lists(column, min_size=1, max_size=5))
    return PointConfig.make([[c[i] for c in cols] for i in range(3)])


@settings(max_examples=200, deadline=None)
@given(_svg_configs())
def test_svg_matches_the_torus_cell_oracle(v):
    assert render_svg(v) == render_svg_by_cells(v)


@pytest.mark.parametrize("render", [render_svg, dot_of_digraph])
def test_a_renderer_given_a_list_raises_a_value_type_error(render):
    with pytest.raises(ValueTypeError):
        render([[0]])


def test_svg_rejects_other_dimensions():
    from wdpoly import CapabilityError

    v = PointConfig.make([[0, 0], [1, 2]])
    with pytest.raises(CapabilityError):
        render_svg(v)


# ---------------------------------------------------------------------------
# command line


def test_cli_kleene_golden(tmp_path, capsys):
    path = write(tmp_path, "w.json", {"nodes": 3, "arcs": digraph_obj()["arcs"]})
    assert run(["kleene", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["entries"] == [["0", "4", "1"], ["-1", "0", "-2"], ["3", "7", "0"]]


def test_cli_feasible_exit_codes(tmp_path, capsys):
    good = write(tmp_path, "good.json", digraph_obj())
    assert run(["feasible", good]) == 0
    bad = write(
        tmp_path,
        "bad.json",
        {
            "nodes": 2,
            "arcs": [
                {"from": 1, "to": 2, "w": "-1"},
                {"from": 2, "to": 1, "w": "0"},
            ],
        },
    )
    capsys.readouterr()
    assert run(["feasible", bad]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["feasible"] is False
    assert out["cycle"][0] == out["cycle"][-1]


def test_cli_member_tcone(tmp_path, capsys):
    path = write(
        tmp_path,
        "v.json",
        {
            "rows": 3,
            "cols": 3,
            "entries": [["0", "0", "0"], ["1", "0", "inf"], ["2", "-1", "inf"]],
        },
    )
    assert run(["member", path, "0,2,3/2"]) == 0
    first = json.loads(capsys.readouterr().out)
    assert first["member"] is True
    assert run(["member", path, "0,5,0"]) == 1
    second = json.loads(capsys.readouterr().out)
    assert second["member"] is False
    # a point with a negative first coordinate follows "--"
    assert run(["member", path, "--", "-1,0,0"]) == 0
    third = json.loads(capsys.readouterr().out)
    assert third["member"] is True


def test_cli_member_halfspace(tmp_path, capsys):
    path = write(
        tmp_path,
        "h.json",
        {
            "matrix": {"rows": 2, "cols": 1, "entries": [["0"], ["0"]]},
            "selection": [[1, 1]],
        },
    )
    assert run(["member", path, "1,0", "--system"]) == 0
    assert run(["member", path, "0,1", "--system"]) == 1
    assert run(["member", path, "inf,0", "--system"]) == 0


def test_cli_cells_and_output_file(tmp_path):
    vpath = write(tmp_path, "v.json", CONFIG_OBJ)
    out = tmp_path / "cells.json"
    assert run(["cells", vpath, "-o", str(out)]) == 0
    cells = json.loads(out.read_text(encoding="utf-8"))
    assert cells and all(
        set(c) == {"covector", "tuple", "dim", "bounded", "in_tcone", "stratum"}
        for c in cells
    )


def test_cli_subdivision(tmp_path, capsys):
    path = write(
        tmp_path,
        "sq.json",
        {"rows": 2, "cols": 2, "entries": [["0", "0"], ["0", "1"]]},
    )
    assert run(["subdivision", path]) == 0
    cells = json.loads(capsys.readouterr().out)
    assert [c["vertices"] for c in cells] == [
        [[1, 1], [1, 2], [2, 1]],
        [[1, 2], [2, 1], [2, 2]],
    ]


def test_cli_usage_and_format_errors(tmp_path, capsys):
    assert run(["kleene"]) == 2  # missing argument
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert run(["kleene", str(bad)]) == 2
    missing = str(tmp_path / "nope.json")
    assert run(["kleene", missing]) == 2
    good = write(tmp_path, "g.json", digraph_obj())
    assert run(["kleene", good, "--bound", "5"]) == 2  # only enumerating verbs take it
    capsys.readouterr()


def test_cli_output_path_that_cannot_be_written_exits_2(tmp_path, capsys):
    path = write(tmp_path, "w.json", digraph_obj())
    (tmp_path / "dir").mkdir()
    # the temporary file of the directory's case is made beside it, in tmp_path
    for target in (tmp_path / "no" / "such" / "out.json", tmp_path / "dir"):
        assert run(["kleene", path, "-o", str(target)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {target}: cannot write file: ")
        assert err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dir", "w.json"]


class _FullStream(io.StringIO):
    """A stdout on a full disk."""

    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.mark.parametrize("verb", ["cells", "export-dot"])
def test_cli_stdout_that_cannot_be_written_exits_2(tmp_path, capsys, monkeypatch, verb):
    path = write(tmp_path, "v.json", CONFIG_OBJ)
    monkeypatch.setattr(sys, "stdout", _FullStream())
    assert run([verb, path]) == 2
    err = capsys.readouterr().err
    assert err == f"error: cannot write standard output: {os.strerror(errno.ENOSPC)}\n"


def _cli_process(argv, stdout, unbuffered=False, **options):
    """``wdpoly argv`` in a fresh interpreter, buffered unless ``unbuffered``, stderr captured."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(fmt.__file__))
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    code = "import sys; from wdpoly.cli import entry; sys.argv[0] = 'wdpoly'; entry()"
    return subprocess.run(
        [sys.executable, "-c", code, *argv],
        env=env, stdout=stdout, stderr=subprocess.PIPE, text=True, **options,
    )


@pytest.mark.parametrize("module", ["wdpoly", "wdpoly.cli"])
def test_python_dash_m_runs_the_cli(tmp_path, capsys, module):
    good = write(tmp_path, "good.json", digraph_obj())
    bad = write(
        tmp_path,
        "bad.json",
        {"nodes": 2, "arcs": [{"from": 1, "to": 2, "w": "-1"}, {"from": 2, "to": 1, "w": "0"}]},
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(fmt.__file__)))
    for argv, code in [(["kleene", good], 0), (["feasible", bad], 1)]:
        assert run(argv) == code
        expect = capsys.readouterr()
        proc = subprocess.run(
            [sys.executable, "-m", module, *argv], env=env, capture_output=True, text=True
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, expect.out, expect.err)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("target", ["/dev/full", "a closed pipe"])
@pytest.mark.parametrize("unbuffered", [False, True])
def test_cli_process_with_a_stdout_that_cannot_be_written_exits_2(tmp_path, target, unbuffered):
    # a buffered stdout keeps what it could not write and flushes it again at exit,
    # where a second failure would add an "Exception ignored" report and exit 120
    path = write(tmp_path, "w.json", digraph_obj())
    if target == "/dev/full":
        stdout = open(target, "w")
    else:
        read_end, write_end = os.pipe()
        os.close(read_end)
        stdout = os.fdopen(write_end, "w")
    with stdout:
        proc = _cli_process(["kleene", path], stdout, unbuffered)
    assert proc.returncode == 2
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("error: cannot write standard output: ")


def test_cli_process_with_stdout_closed_exits_2(tmp_path):
    # descriptor 1 closed before the interpreter starts, as by `wdpoly kleene w.json >&-`,
    # leaves sys.stdout None
    path = write(tmp_path, "w.json", digraph_obj())
    proc = _cli_process(["kleene", path], None, preexec_fn=lambda: os.close(1))
    assert proc.returncode == 2
    assert proc.stderr == "error: cannot write standard output: it is closed\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [["--help"], ["kleene", "--help"]])
def test_cli_help_that_cannot_be_written_exits_2(capsys, monkeypatch, argv):
    with open("/dev/full", "w") as full:
        proc = _cli_process(argv, full)
    assert proc.returncode == 2
    assert proc.stderr == f"error: cannot write standard output: {os.strerror(errno.ENOSPC)}\n"
    # a stdout that takes the help text gets all of it, and the exit is 0
    monkeypatch.setenv("COLUMNS", "80")  # the help text wraps at the terminal width
    assert run(argv) == 0
    text = capsys.readouterr().out
    assert text.startswith(f"usage: {' '.join(['wdpoly', *argv[:-1]])} [-h]")
    proc = _cli_process(argv, subprocess.PIPE)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, text, "")


@pytest.mark.parametrize(
    "verb, flag, what",
    [("cells", "--bound", "a candidate bound"), ("faces", "--node-bound", "a node bound")],
)
def test_cli_negative_bound_exits_2(tmp_path, capsys, verb, flag, what):
    path = write(tmp_path, "in.json", digraph_obj() if verb == "faces" else CONFIG_OBJ)
    assert run([verb, path, flag, "-1"]) == 2
    assert capsys.readouterr().err == f"error: {what} must be at least 0, got -1\n"


def test_cli_capability_exit(tmp_path, capsys):
    big = write(
        tmp_path,
        "big.json",
        {"nodes": 11, "arcs": [{"from": 1, "to": 2, "w": "0"}]},
    )
    assert run(["faces", big]) == 3
    capsys.readouterr()


def test_cli_candidate_bound_exit(tmp_path, capsys):
    # the torus walk holds 8 graphs, found or pending, and the vertex walk 2 vertices
    path = write(tmp_path, "v.json", {"rows": 2, "cols": 2, "entries": [["0", "1"], ["1", "0"]]})
    for verb, holds in (("cells", 8), ("projective", 8), ("subdivision", 2)):
        assert run([verb, path, "--bound", str(holds - 1)]) == 3
        assert run([verb, path, "--bound", str(holds)]) == 0
    capsys.readouterr()


def test_cli_infeasible_kleene_exit(tmp_path, capsys):
    bad = write(
        tmp_path,
        "neg.json",
        {
            "nodes": 2,
            "arcs": [
                {"from": 1, "to": 2, "w": "-1"},
                {"from": 2, "to": 1, "w": "0"},
            ],
        },
    )
    assert run(["kleene", bad]) == 1
    capsys.readouterr()


def test_cli_export_dot_and_svg(tmp_path, capsys):
    vpath = write(tmp_path, "v.json", CONFIG_OBJ)
    assert run(["export-dot", vpath]) == 0
    assert "digraph" in capsys.readouterr().out
    out = tmp_path / "pic.svg"
    assert run(["plot-svg", vpath, "-o", str(out)]) == 0
    assert out.read_text(encoding="utf-8").startswith("<svg")


@pytest.mark.parametrize("arcs", [[], [[1, 1]]], ids=["empty", "one column"])
def test_cli_tangent_refuses_a_graph_that_misses_a_column(tmp_path, capsys, arcs):
    system = write(
        tmp_path,
        "h.json",
        {
            "matrix": {"rows": 2, "cols": 2, "entries": [["0", "1"], ["2", "0"]]},
            "selection": [[1, 1], [2, 2]],
        },
    )
    cell = write(tmp_path, "g.json", {"d": 2, "n": 2, "arcs": arcs})
    assert run(["tangent", system, cell]) == 1
    assert "misses a column" in capsys.readouterr().err
    # the covector graph of the origin covers both columns
    torus = write(tmp_path, "t.json", {"d": 2, "n": 2, "arcs": [[1, 1], [2, 2]]})
    assert run(["tangent", system, torus]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {"columns": [], "row_to_col": [], "col_to_row": []}
