"""Weak Galerkin finite elements for the Stokes problem on polygonal meshes."""

from .analysis import (
    ConvergenceRecord,
    ErrorBundle,
    consistency_functionals,
    discrete_inf_sup,
    dual_norms,
    error_bundle,
    fit_rate,
    project_case,
    projection_errors,
    triple_bar_norm,
    verify_error_equation,
    weak_divergence_norm,
)
from .assembly import SaddleSystem, assemble, eval_a, eval_b, eval_s
from .cases import ManufacturedCase, case_names, get_case, list_cases, verify_case
from .errors import (
    CompatibilityError,
    ConfigurationError,
    MeshFormatError,
    MeshValidationError,
    SolverError,
    WGError,
)
from .mesh import (
    FAMILIES,
    PolygonalMesh,
    ShapeRegularityReport,
    generate_mesh,
    load_mesh,
    save_mesh,
    shape_regularity,
)
from .projections import (
    project_boundary_velocity,
    project_gradient,
    project_pressure,
    project_velocity,
)
from .solver import SolveReport, solve
from .spaces import DofMap, PressureFunction, WeakFunction
from .study import StudyConfig, StudyResult, default_grid, run_study
from .weakops import ElementOps

__version__ = "0.1.0"
