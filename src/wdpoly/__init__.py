"""Exact combinatorics of weighted digraph polyhedra and tropical convexity.

Each public name loads its module on first use (PEP 562), so a process
compiles and runs only the layers it touches.
"""

from importlib import import_module

_EXPORTS = {
    "covector": """CellRecord HalfspaceSystem ProjectivePoint Sector SignVector TangentDigraph
        boundary_matrix cell_boundary_restriction cell_sample_point cells_of_halfspace
        closed_sector_membership covector_of_point enumerate_cells halfspace_membership is_pure
        maximal_cells projective_decomposition signed_cells signed_graph tangent_digraph
        tcone_membership""",
    "digraph": """ConeFaceLattice NodePartition RecessionDecomposition WeightedDigraph
        acyclic_reduction cone_face_lattice cycle_weight detect_negative_cycle
        equality_partition face interior_point intersect kleene_star membership project
        recession""",
    "envelope": """BipartiteSupportGraph CovectorGraph PointConfig SubdivisionCell
        cell_dimension covector_closure envelope_digraph enumerate_covector_graphs
        face_projection_matrix interior_point_of_face is_covector_graph regular_subdivision""",
    "errors": """CapabilityError DomainError EmptyCellError FormatError InconsistentFaceError
        InfeasibleError ShapeError TropicalError ValueTypeError""",
    "matrix": "TropicalDetResult TropicalMatrix is_generic trop_det trop_mat_mul",
    "semiring": "INF Infinity TVal is_finite tadd tmul tsum tval",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    """Import the module behind a public name or submodule, and cache the result."""
    module = _MODULE_OF.get(name)
    if module is None and name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = import_module(f"{__name__}.{module or name}")
    if module is not None:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
