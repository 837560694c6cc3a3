"""Discrete spaces: DOF numbering and coefficient containers.

Velocity functions carry two kinds of coefficients: a cellwise vector
polynomial of degree k (the "interior" part, discontinuous across cells)
and an edgewise vector polynomial of degree k-1 (single-valued on each
edge, shared by the two incident cells).  Pressures are cellwise
polynomials of degree k-1 with no continuity.

Global numbering: all interior blocks first (cell-major, x-component then
y-component), then all edge blocks (edge-major, x then y).  Pressure DOFs
are numbered cell-major.  `DofMap` holds this layout as index arrays, which
assembly and the solver's factor index.
"""

import numpy as np

from .basis import space_dimension
from .errors import ConfigurationError


class DofMap:
    """Degree-of-freedom layout for one mesh and one polynomial degree k >= 1."""

    def __init__(self, mesh, degree):
        if not isinstance(degree, (int, np.integer)) or degree < 1:
            raise ConfigurationError(f"polynomial degree must be an integer >= 1, got {degree!r}")
        self.mesh = mesh
        self.degree = int(degree)
        self.dim_cell = space_dimension(degree)  # P_k on a cell, per component
        self.dim_cell_low = space_dimension(degree - 1)  # P_{k-1} on a cell
        self.dim_edge = degree  # P_{k-1} on an edge, per component
        self.interior_size = mesh.num_cells * 2 * self.dim_cell
        self.num_velocity_dofs = self.interior_size + mesh.num_edges * 2 * self.dim_edge
        self.num_pressure_dofs = mesh.num_cells * self.dim_cell_low
        # the layout: (n_cells, 2, dim_cell), (n_edges, 2, dim_edge) and (n_cells, dim_cell_low)
        cells, edges = np.split(np.arange(self.num_velocity_dofs, dtype=np.int32), [self.interior_size])
        self.cell_dofs, self.edge_dofs = cells.reshape(-1, 2, self.dim_cell), edges.reshape(-1, 2, self.dim_edge)
        self.cell_pressures = np.arange(self.num_pressure_dofs, dtype=np.int32).reshape(-1, self.dim_cell_low)

    # -- boundary -------------------------------------------------------

    def boundary_velocity_mask(self):
        """Boolean mask over velocity DOFs: True on boundary-edge blocks."""
        edges = np.repeat(self.mesh.boundary_edges, 2 * self.dim_edge)
        return np.concatenate([np.zeros(self.interior_size, dtype=bool), edges])

    # -- pressure numbering ---------------------------------------------

    def constant_pressure(self):
        """Coefficients of the pressure 1: each cell's first scaled monomial is 1."""
        c = np.zeros(self.num_pressure_dofs)
        c[:: self.dim_cell_low] = 1.0
        return c


class _Coefficients:
    """Coefficient vector of one discrete function; its length is the DofMap's `_size`."""

    def __init__(self, dofmap, coeffs=None):
        self.dofmap = dofmap
        size = getattr(dofmap, self._size)
        self.coeffs = np.zeros(size) if coeffs is None else np.asarray(coeffs, dtype=float)
        if self.coeffs.shape != (size,):
            raise ValueError("coefficient vector has the wrong length")

    @classmethod
    def zeros(cls, dofmap):
        return cls(dofmap)

    def __sub__(self, other):
        return type(self)(self.dofmap, self.coeffs - other.coeffs)


class WeakFunction(_Coefficients):
    """Coefficients of one discrete velocity field {v0, vb}."""

    _size = "num_velocity_dofs"

    def interior(self, c):
        """(2, dim_cell) view of cell c's interior coefficients."""
        return self.v0[c]

    @property
    def v0(self):
        """(n_cells, 2, dim_cell) view of all interior coefficients."""
        return self.coeffs[: self.dofmap.interior_size].reshape(-1, 2, self.dofmap.dim_cell)

    @property
    def vb(self):
        """(n_edges, 2, dim_edge) view of all edge coefficients."""
        return self.coeffs[self.dofmap.interior_size :].reshape(-1, 2, self.dofmap.dim_edge)


class PressureFunction(_Coefficients):
    """Coefficients of one discrete pressure (cellwise P_{k-1})."""

    _size = "num_pressure_dofs"

    def cell(self, c):
        """(dim_cell_low,) view of cell c's coefficients."""
        return self.cellwise[c]

    @property
    def cellwise(self):
        """(n_cells, dim_cell_low) view of all coefficients."""
        return self.coeffs.reshape(-1, self.dofmap.dim_cell_low)
