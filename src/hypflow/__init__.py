"""Hyperbolic metrics with prescribed geodesic boundary lengths on ideally
triangulated bordered surfaces, computed by combinatorial curvature flows and
cross-checked by a convex Newton solver."""

from .conformal import (
    Problem,
    admissibility_margin,
    boundary_lengths,
    deform,
    load_metric,
    log_cosh_half,
    save_metric,
)
from .energy import potential_phi, psi_gap, segment_flux
from .errors import (
    EigSolveFailure,
    InadmissibleFactor,
    InsufficientData,
    LineSearchFailure,
    MalformedMesh,
    MaxIterations,
    MeshFormatError,
    NonFinite,
    QuadratureStall,
    StepCollapse,
)
from .flows import (
    FRACTIONAL_CALABI,
    GENERALIZED_YAMABE,
    GUO,
    DecayFit,
    FlowSpec,
    Trajectory,
    decay_rate,
    integrate,
    read_trajectory_csv,
    vector_field,
    write_trajectory_csv,
)
from .hexagon import arc_side_jacobian, opposite_arcs
from .instances import (
    PANTS_EDGE_LENGTH,
    one_holed_torus,
    pair_of_pants,
    random_admissible_factor,
    random_instance,
)
from .jacobian import DeltaPower, boundary_jacobian, delta_power
from .newton import SolveReport, solve_prescribed
from .triangulation import (
    EdgeRecord,
    FaceRecord,
    IdealTriangulation,
    build_triangulation,
    load_mesh,
    save_mesh,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "EdgeRecord",
    "FaceRecord",
    "IdealTriangulation",
    "build_triangulation",
    "load_mesh",
    "save_mesh",
    "opposite_arcs",
    "arc_side_jacobian",
    "Problem",
    "admissibility_margin",
    "deform",
    "boundary_lengths",
    "log_cosh_half",
    "load_metric",
    "save_metric",
    "boundary_jacobian",
    "delta_power",
    "DeltaPower",
    "potential_phi",
    "psi_gap",
    "segment_flux",
    "solve_prescribed",
    "SolveReport",
    "FlowSpec",
    "Trajectory",
    "DecayFit",
    "vector_field",
    "integrate",
    "decay_rate",
    "write_trajectory_csv",
    "read_trajectory_csv",
    "GUO",
    "FRACTIONAL_CALABI",
    "GENERALIZED_YAMABE",
    "pair_of_pants",
    "one_holed_torus",
    "random_instance",
    "random_admissible_factor",
    "PANTS_EDGE_LENGTH",
    "MalformedMesh",
    "MeshFormatError",
    "NonFinite",
    "InadmissibleFactor",
    "EigSolveFailure",
    "QuadratureStall",
    "StepCollapse",
    "InsufficientData",
    "MaxIterations",
    "LineSearchFailure",
]
