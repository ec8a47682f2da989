"""The lazily loading package: public names, submodules, what a CLI start imports,
and the input contract of every public entry point."""

import ast
import importlib
import inspect
import json
import os
import subprocess
import sys

import pytest

import wdpoly
from wdpoly import (
    INF,
    BipartiteSupportGraph,
    HalfspaceSystem,
    NodePartition,
    PointConfig,
    ProjectivePoint,
    Sector,
    SignVector,
    TropicalError,
    ValueTypeError,
    WeightedDigraph,
    cone_face_lattice,
    enumerate_cells,
)
from wdpoly.cli import run


def test_every_exported_name_is_the_object_its_module_defines():
    for name in wdpoly.__all__:
        module = importlib.import_module(f"wdpoly.{wdpoly._MODULE_OF[name]}")
        assert getattr(wdpoly, name) is getattr(module, name)
    assert set(wdpoly.__all__) <= set(dir(wdpoly))


def test_star_import_binds_every_name_and_an_unknown_name_fails():
    namespace = {}
    exec("from wdpoly import *", namespace)
    assert set(wdpoly.__all__) <= set(namespace)
    assert namespace["PointConfig"] is wdpoly.envelope.PointConfig
    with pytest.raises(AttributeError):
        getattr(wdpoly, "no_such_name")
    with pytest.raises(ImportError):
        exec("from wdpoly import no_such_name", {})


def test_public_classes_have_their_own_docstrings():
    for name in wdpoly.__all__:
        obj = getattr(wdpoly, name)
        if isinstance(obj, type):
            assert vars(obj).get("__doc__"), name


V = PointConfig.make([[0, 1], [1, 0]])
GRAPH = BipartiteSupportGraph.make(2, 2, [(1, 1), (2, 2)])
CELL = next(c for c in enumerate_cells(V) if c.graph == GRAPH)
W = WeightedDigraph.make(2, {(1, 2): 1, (2, 1): 0})
# A valid argument for each annotation of a required positional parameter or a
# field; a record's sample is also the instance whose methods are checked.
SAMPLES = {
    "BipartiteSupportGraph": GRAPH,
    "CellRecord": CELL,
    "ConeFaceLattice": cone_face_lattice(W),
    "CovectorGraph": GRAPH,
    "HalfspaceSystem": HalfspaceSystem.make(V, GRAPH),
    "Iterable": [0, 0],
    "Iterable[Iterable[int]]": [[1, 2]],
    "Iterable[int]": [1],
    "Iterable[str] | str": "+-",
    "Iterable[tuple[int, int]]": [(1, 2)],
    "Mapping[tuple[int, int], Fraction]": dict(W.arcs),
    "Mapping[tuple[int, int], object] | Iterable": {(1, 2): 1},
    "NodePartition": NodePartition.make(2, [[1, 2]]),
    "PointConfig": V,
    "ProjectivePoint": ProjectivePoint.make([0, 0]),
    "Sector": Sector((0, 0), 1),
    "Sequence": [0, 0],
    "Sequence[CellRecord]": [CELL],
    "Sequence[TVal]": [0, 0],
    "Sequence[int]": [1, 2, 1],
    "SignVector": SignVector.make("+-"),
    "TVal": INF,
    "TropicalMatrix": V.v,
    "WeightedDigraph": W,
    "int": 2,
    "tuple[TVal, ...]": ProjectivePoint.make([0, 0]).coords,
    "tuple[str, ...]": ("+", "-"),
    "tuple[tuple[TVal, ...], ...]": V.v.entries,
    "tuple[tuple[int, ...], ...]": ((1, 2),),
    inspect.Parameter.empty: "0",
}
# min, + and min over an iterable run per matrix entry, so they take their values unchecked
UNCHECKED = {"tadd", "tmul", "tsum"}


def _required(obj):
    """The annotations of a function's required positional parameters or of a record's fields."""
    if isinstance(obj, type):
        return [obj.__annotations__[f] for f in obj._fields]
    params = inspect.signature(obj).parameters.values()
    required = [p.annotation for p in params
                if p.kind is p.POSITIONAL_OR_KEYWORD and p.default is p.empty]
    return [a.strip("'") if isinstance(a, str) else a for a in required]  # "'TropicalMatrix'"


def _entry(name):
    """The public function or record ``name``, or a method ``Record.name`` of its sample."""
    record, _, method = name.rpartition(".")
    return getattr(SAMPLES[record], method) if record else getattr(wdpoly, name)


# The public methods with arguments of each record class (under its own name, not
# an alias), except the two ``make``s of a matrix, for which [[0]] is valid.
METHODS = {
    f"{name}.{attr}"
    for name in set(wdpoly.__all__) & set(SAMPLES)
    if type(SAMPLES[name]).__name__ == name
    for attr in vars(type(SAMPLES[name]))
    if not attr.startswith("_")
    and inspect.ismethod(fn := getattr(SAMPLES[name], attr)) and _required(fn)
} - {"TropicalMatrix.make", "PointConfig.make"}


ENTRY_POINTS = sorted(METHODS | {
    name for name in set(wdpoly.__all__) - UNCHECKED
    if inspect.isfunction(obj := getattr(wdpoly, name))
    or isinstance(obj, type) and "__post_init__" in vars(obj)
})


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_a_list_in_any_required_slot_raises_a_tropical_error(name):
    """Every public function and record method, and every record that checks its fields,
    meets the input contract."""
    fn = _entry(name)
    args = [SAMPLES[a] for a in _required(fn)]
    fn(*args)  # the samples are valid, so each error below comes from the list
    for i in range(len(args)):
        with pytest.raises(TropicalError):
            fn(*args[:i], [[0]], *args[i + 1:])


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_a_float_or_a_bool_in_any_int_slot_raises_a_value_type_error(name):
    """Floats are rejected everywhere, and a bool is no index."""
    fn = _entry(name)
    kinds = _required(fn)
    args = [SAMPLES[a] for a in kinds]
    for i in (i for i, kind in enumerate(kinds) if kind == "int"):
        for bad in (1.0, True):
            with pytest.raises(ValueTypeError):
                fn(*args[:i], bad, *args[i + 1:])


def _fresh_python(code, *args):
    src = os.path.dirname(os.path.dirname(wdpoly.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, check=True
    )


def test_a_bare_import_loads_a_submodule_on_first_use():
    code = (
        "import sys, wdpoly\n"
        "assert sorted(m for m in sys.modules if m.startswith('wdpoly')) == ['wdpoly']\n"
        "assert wdpoly.semiring.INF is wdpoly.INF\n"
        "print(wdpoly.envelope.PointConfig.make([[0]]).d)\n"
    )
    assert _fresh_python(code).stdout == "1\n"


def test_a_digraph_verb_loads_no_cell_layer(tmp_path):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"nodes": 2, "arcs": [{"from": 1, "to": 2, "w": "1"}]}))
    code = (
        "import sys\n"
        "from wdpoly.cli import run\n"
        "assert run(sys.argv[1:]) == 0\n"
        "print(sorted(m for m in sys.modules if m.startswith('wdpoly')), file=sys.stderr)\n"
    )
    proc = _fresh_python(code, "kleene", str(path))
    assert json.loads(proc.stdout)["entries"] == [["0", "1"], ["inf", "0"]]
    for name in ("covector", "envelope", "svg", "dot"):
        assert f"'wdpoly.{name}'" not in proc.stderr


def test_plot_svg_loads_the_envelope_and_svg_but_no_cell_layer(tmp_path):
    path = tmp_path / "v.json"
    path.write_text(json.dumps({"rows": 3, "cols": 2, "entries": [[0, 1], [2, 0], [1, "inf"]]}))
    code = (
        "import sys\n"
        "from wdpoly.cli import run\n"
        "assert run(sys.argv[1:]) == 0\n"
        "print(sorted(m for m in sys.modules if m.startswith('wdpoly')), file=sys.stderr)\n"
    )
    proc = _fresh_python(code, "plot-svg", str(path))
    assert proc.stdout.startswith("<svg") and "<circle" in proc.stdout
    layers = ("cli", "digraph", "envelope", "errors", "formats", "matrix", "semiring", "svg")
    assert proc.stderr.strip() == repr(["wdpoly"] + [f"wdpoly.{m}" for m in layers])


def test_importing_the_cli_loads_only_its_layers():
    code = "import sys, wdpoly.cli; print(sorted(m for m in sys.modules if m.startswith('wdpoly')))"
    loaded = _fresh_python(code).stdout.strip()
    layers = ("cli", "digraph", "errors", "formats", "matrix", "semiring")
    want = ["wdpoly"] + [f"wdpoly.{m}" for m in layers]
    assert loaded == repr(want)


def test_the_cli_and_cell_layers_load_no_code_generation_or_introspection():
    code = (
        "import sys, wdpoly.cli, wdpoly.covector, wdpoly.envelope\n"
        "print(sorted({'dataclasses', 'inspect', 'ast', 'dis', 'tokenize'} & set(sys.modules)))\n"
    )
    assert _fresh_python(code).stdout == "[]\n"


def test_the_cli_and_the_readers_reach_the_cell_layers_through_the_package():
    # the package's name table is the one lazy loader: no function imports a layer itself,
    # save the renderers, which are no public names
    inner = set()
    for name in ("cli", "formats"):
        tree = ast.parse(inspect.getsource(importlib.import_module(f"wdpoly.{name}")))
        for f in ast.walk(tree):
            if isinstance(f, ast.FunctionDef):
                imports = (x for x in ast.walk(f) if isinstance(x, (ast.Import, ast.ImportFrom)))
                inner |= set(map(ast.unparse, imports))
    assert inner == {"from .dot import dot_of_digraph", "from .svg import render_svg"}


def test_help_names_every_verb_and_a_typo_is_a_usage_error(capsys):
    assert run(["--help"]) == 0
    verbs = ("kleene", "feasible", "faces", "rays", "envelope", "cells", "subdivision",
             "member", "pure", "signed", "projective", "tangent", "export-dot", "plot-svg")
    assert "{" + ",".join(verbs) + "}" in capsys.readouterr().out
    assert run(["bogus"]) == 2
    assert "invalid choice" in capsys.readouterr().err
    assert run([]) == 2
    capsys.readouterr()
    assert run(["cells", "--help"]) == 0
    assert "--bound" in capsys.readouterr().out
