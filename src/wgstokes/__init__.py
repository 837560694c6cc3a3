"""Weak Galerkin finite elements for the Stokes problem on polygonal meshes."""

from .analysis import (
    ConvergenceRecord,
    ErrorBundle,
    discrete_inf_sup,
    error_bundle,
    fit_rate,
    project_case,
)
from .assembly import SaddleSystem, assemble
from .cases import ManufacturedCase, case_names, get_case, list_cases, verify_case
from .errors import CompatibilityError, ConfigurationError, MeshValidationError, SolverError, WGError
from .mesh import FAMILIES, PolygonalMesh, generate_mesh, shape_regularity
from .solver import SolveReport, solve
from .spaces import DofMap, PressureFunction, WeakFunction
from .study import StudyConfig, StudyResult, default_grid, run_study
from .weakops import ElementOps

__version__ = "0.1.0"
