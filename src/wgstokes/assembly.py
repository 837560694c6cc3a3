"""Global assembly of the Stokes saddle-point system.

The velocity form a(v, w) sums the weak-gradient Gram matrices and the
jump stabilizer over cells; b(v, q) couples the weak divergence with the
pressure test space.  Both are dense cell matrices, batched by side count,
built from the operator stacks of ElementOps on first use.  On one velocity
component's DOFs of a cell (interior block, then each side's edge block), a
is Dᵀ M⁻¹ D + Jᵀ S J for both components: D gives the weak-gradient moments
(grad_w v, q)_T in each direction, M is the P_{k-1} cell mass, J gives the
jumps P_e v0 - vb and S is the scaled edge mass; b's rows are D's.  An
entry of a within the rounding bound of its own terms is an exact zero, so
integrals that vanish by symmetry store no entries.  The solver condenses
the cell matrices; `SaddleSystem.A` and `.B` sum them on first read, one
coordinate pass each, and `analysis.error_bundle` measures |||e|||² = e'Ae
on that A.  Assembled matrices are bit-identical run to run.

Boundary-edge velocity DOFs carry projected Dirichlet data and are
eliminated at solve time (they are marked, not removed, here).  The
solver's pressure has zero mean (the full path pins one DOF first), as
measured by the pressure moment vector assembled alongside.
"""

import dataclasses
from functools import cached_property

import numpy as np
from scipy import sparse

from .errors import CompatibilityError
from .quadrature import loop_groups
from .spaces import WeakFunction
from .weakops import _drop_rounding

# Largest net boundary flux of Dirichlet data that counts as compatible.
COMPAT_TOL = 1e-10


@dataclasses.dataclass
class _CellBatch:
    """The cells (n,) with one side count, the velocity DOFs (n, 2, nv) of each
    component (interior block, then each side's edge block in loop order), the
    pressure DOFs (n, nlow), a(., .) on the velocities (n, 2, nv, nv: one block,
    seen twice) and b(., .) (n, nlow, 2, nv)."""

    cells: np.ndarray
    dofs: np.ndarray
    pressures: np.ndarray
    a: np.ndarray
    b: np.ndarray


class SaddleSystem:
    """Assembled (but not yet reduced) discrete Stokes system.

    Attributes
    ----------
    A : (n_u, n_u) csr
        Velocity bilinear form a(v, w) on the full space (boundary DOFs
        included); v'Av is the energy norm squared.  Built on first read.
    B : (n_p, n_u) csr
        Divergence-pressure coupling, built on first read.
    load : (n_u,) array
        Body-force moments (nonzero only on interior DOFs).
    pressure_moments : (n_p,) array
        Integrals of the pressure basis functions; they measure the mean.
    fixed_mask : (n_u,) bool
        True on boundary-edge velocity DOFs.
    fixed_values : (n_u,) array
        Projected Dirichlet data on fixed DOFs, zero elsewhere.
    boundary_flux : float
        Net flux of the projected Dirichlet data through the boundary.
    """

    def __init__(self, ops, load, pressure_moments, fixed_mask, fixed_values, boundary_flux):
        self.ops = ops
        self.load = load
        self.pressure_moments = pressure_moments
        self.fixed_mask = fixed_mask
        self.fixed_values = fixed_values
        self.boundary_flux = boundary_flux
        self.free = np.nonzero(~fixed_mask)[0]
        self.num_velocity_dofs = ops.dofmap.num_velocity_dofs
        self.num_pressure_dofs = ops.dofmap.num_pressure_dofs

    @cached_property
    def _cells(self):
        """The cell matrices, one _CellBatch per side count, from the operator stacks."""
        return _cell_matrices(self.ops)

    @cached_property
    def A(self):
        n = self.num_velocity_dofs
        return _scatter((n, n), [(c.a, c.dofs[..., None], c.dofs[..., None, :]) for c in self._cells])

    @cached_property
    def B(self):
        shape = (self.num_pressure_dofs, self.num_velocity_dofs)
        return _scatter(shape, [(c.b, c.pressures[..., None, None], c.dofs[:, None]) for c in self._cells])

    def pressure_mass(self):
        """Block-diagonal pressure mass matrix (csr)."""
        n = self.ops.mesh.num_cells
        return sparse.bsr_matrix((self.ops.mass_low, np.arange(n), np.arange(n + 1))).tocsr()


def assemble(ops, body_force=None, boundary_velocity=None, data_degree=None):
    """Assemble the discrete Stokes system.

    Parameters
    ----------
    ops : ElementOps
    body_force : callable or None
        Maps (n, 2) points to (n, 2) force values; None means zero.
    boundary_velocity : callable or None
        Dirichlet data with the same signature; None means zero.  The net
        boundary flux of its edge projection, which on straight edges is its
        own, must vanish (|flux| <= COMPAT_TOL), else CompatibilityError.
    data_degree : ignored
        Accepted because perfbench/checks.py still passes it; every data
        moment uses the data rules of ElementOps.
    """
    dofmap, mesh = ops.dofmap, ops.mesh
    load = np.zeros(dofmap.num_velocity_dofs)
    if body_force is not None:
        field = body_force(ops.cell_data.points)
        load[dofmap.cell_dofs] = ops.cell_moments(field, ops.degree)
    # the first scaled monomial is 1, so mass rows 0 hold the basis integrals
    pressure_moments = ops.mass_low[:, 0, :].ravel()

    fixed_mask = dofmap.boundary_velocity_mask()
    if boundary_velocity is not None:
        boundary = mesh.boundary_edges
        bc = WeakFunction.zeros(dofmap)  # the data's edge projection, on the boundary edges only
        bc.vb[boundary] = ops.solve_edge_mass(ops.edge_moments(boundary_velocity))[boundary]
        fixed_values = bc.coeffs
        s = np.flatnonzero(boundary[mesh.side_edge])  # the boundary sides
        e = mesh.side_edge[s]
        # n is constant on a side and edge basis function 0 is 1: each term is n·∫_e Q_b g
        flux = float(np.einsum("sb,sib,si->", ops.edge_mass[e, 0], bc.vb[e], mesh.side_normal[s]))
        if abs(flux) > COMPAT_TOL:
            raise CompatibilityError(
                f"Dirichlet data has net boundary flux {flux:.3e} (> {COMPAT_TOL:g}); "
                "no divergence-free field matches it"
            )
    else:
        fixed_values = np.zeros(dofmap.num_velocity_dofs)
        flux = 0.0

    return SaddleSystem(ops, load, pressure_moments, fixed_mask, fixed_values, flux)


def _scatter(shape, families, fmt="csr"):
    """Sparse matrix summing (values, rows, columns) triples of broadcastable
    arrays, duplicates added up and entries at a negative row or column left
    out; it stores no exact zeros."""
    flat = (map(np.ravel, np.broadcast_arrays(*family)) for family in families)
    vals, rows, cols = map(np.concatenate, zip(*flat))
    if min(rows.min(initial=0), cols.min(initial=0)) < 0:
        keep = (rows >= 0) & (cols >= 0)
        vals, rows, cols = vals[keep], rows[keep], cols[keep]
    mat = sparse.coo_matrix((vals, (rows, cols)), shape=shape).asformat(fmt)
    mat.eliminate_zeros()
    return mat


def _cell_matrices(ops):
    """One _CellBatch per side count, from the operator stacks: D maps one
    component's DOFs to the weak-gradient moments in each direction
    (n, 2, nlow, nv), J to the jumps on each side (n, m, ne, nv)."""
    mesh, dm, nlow, ne = ops.mesh, ops.dofmap, ops.dofmap.dim_cell_low, ops.dofmap.dim_edge
    minv, side_mass = np.linalg.inv(ops.mass_low), _side_mass(ops)
    # Dᵀ M D summed over the directions, plus Jᵀ S J summed over the sides
    flat = lambda X: X.reshape(len(X), -1, X.shape[-1])
    gram = lambda M, D, S, J: sum(flat(X).swapaxes(1, 2) @ flat(W @ X) for W, X in ((M, D), (S, J)))
    batches = []
    for cells, sides in loop_groups(np.arange(len(mesh.side_cell)), mesh.side_starts):
        n, m = sides.shape
        outward = np.einsum("csj,csrb->cjrsb", mesh.side_normal[sides], ops.side_moments[sides])
        D = np.concatenate([ops.grad_moments[cells], outward.reshape(n, 2, nlow, m * ne)], -1)
        J = np.concatenate([ops.trace[sides], -np.eye(m * ne).reshape(1, m, ne, -1).repeat(n, 0)], -1)
        terms = (minv[cells, None], D, side_mass[sides], J)
        a = _drop_rounding(gram(*terms), gram(*map(np.abs, terms)), 2 * (nlow + m * ne))
        edges = dm.edge_dofs[mesh.side_edge[sides]].swapaxes(1, 2).reshape(n, 2, -1)
        dofs = np.concatenate([dm.cell_dofs[cells], edges], -1)
        a = np.broadcast_to(a[:, None], (n, 2) + a.shape[1:])  # one block for both components
        batches.append(_CellBatch(cells, dofs, dm.cell_pressures[cells], a, D.swapaxes(1, 2)))
    return batches


def _side_mass(ops):
    """Stabilizer weight of each side: its edge mass over the cell diameter."""
    mesh = ops.mesh
    return ops.edge_mass[mesh.side_edge] / mesh.diameters[mesh.side_cell][:, None, None]
