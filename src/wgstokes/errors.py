"""Exception types shared across the package."""


class WGError(Exception):
    """Base class for all wgstokes errors."""


class ConfigurationError(WGError):
    """Invalid user-facing configuration (unknown family, bad degree, ...)."""


class MeshValidationError(WGError):
    """Structurally broken mesh (bad indices, inconsistent edges, ...)."""


class CompatibilityError(WGError):
    """Boundary data with nonzero net flux: no incompressible field fits it."""


class SolverError(WGError):
    """Linear solver failed or produced an unusable result."""
