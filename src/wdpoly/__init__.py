"""Exact combinatorics of weighted digraph polyhedra and tropical convexity."""

from .covector import (
    CellRecord,
    HalfspaceSystem,
    ProjectivePoint,
    Sector,
    SignVector,
    TangentDigraph,
    boundary_matrix,
    cell_boundary_restriction,
    cell_sample_point,
    cells_of_halfspace,
    closed_sector_membership,
    covector_of_point,
    enumerate_cells,
    halfspace_membership,
    is_pure,
    maximal_cells,
    projective_decomposition,
    signed_cells,
    signed_graph,
    tangent_digraph,
    tcone_membership,
)
from .digraph import (
    ConeFaceLattice,
    NodePartition,
    RecessionDecomposition,
    WeightedDigraph,
    acyclic_reduction,
    cone_face_lattice,
    cycle_weight,
    detect_negative_cycle,
    equality_partition,
    face,
    interior_point,
    intersect,
    kleene_star,
    membership,
    project,
    recession,
)
from .envelope import (
    BipartiteSupportGraph,
    CovectorGraph,
    PointConfig,
    SubdivisionCell,
    cell_dimension,
    covector_closure,
    envelope_digraph,
    enumerate_covector_graphs,
    face_projection_matrix,
    interior_point_of_face,
    is_covector_graph,
    regular_subdivision,
)
from .errors import (
    CapabilityError,
    DomainError,
    EmptyCellError,
    FormatError,
    InconsistentFaceError,
    InfeasibleError,
    ShapeError,
    TropicalError,
    ValueTypeError,
)
from .matrix import TropicalDetResult, TropicalMatrix, is_generic, trop_det, trop_mat_mul
from .semiring import INF, Infinity, TVal, is_finite, tadd, tmul, tsum, tval

__version__ = "0.1.0"
