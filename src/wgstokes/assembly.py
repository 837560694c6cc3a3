"""Global assembly of the Stokes saddle-point system.

The velocity matrix A sums the weak-gradient Gram matrices and the jump
stabilizer over cells; B couples the weak divergence with the pressure
test space.  Boundary-edge velocity DOFs carry projected Dirichlet data
and are eliminated at solve time (they are marked, not removed, here).
The solver pins one pressure DOF and then shifts the pressure to zero
mean, measuring the mean with the pressure moment vector assembled
alongside.

Cells contribute in index order, so assembled matrices are bit-identical
run to run.
"""

import numpy as np
from scipy import sparse

from .errors import CompatibilityError
from .projections import project_boundary_velocity
from .spaces import WeakFunction


class SaddleSystem:
    """Assembled (but not yet reduced) discrete Stokes system.

    Attributes
    ----------
    A : (n_u, n_u) csr
        Velocity bilinear form on the full space (boundary DOFs included).
    B : (n_p, n_u) csr
        Divergence-pressure coupling.
    load : (n_u,) array
        Body-force moments (nonzero only on interior DOFs).
    pressure_moments : (n_p,) array
        Integrals of the pressure basis functions; they measure the mean.
    fixed_mask : (n_u,) bool
        True on boundary-edge velocity DOFs.
    fixed_values : (n_u,) array
        Projected Dirichlet data on fixed DOFs, zero elsewhere.
    boundary_flux : float
        Net flux of the Dirichlet data through the boundary.
    """

    def __init__(self, ops, A, B, load, pressure_moments, fixed_mask, fixed_values, boundary_flux):
        self.ops = ops
        self.A = A
        self.B = B
        self.load = load
        self.pressure_moments = pressure_moments
        self.fixed_mask = fixed_mask
        self.fixed_values = fixed_values
        self.boundary_flux = boundary_flux
        self.free = np.nonzero(~fixed_mask)[0]
        self.num_velocity_dofs = A.shape[0]
        self.num_pressure_dofs = B.shape[0]

    def pressure_mass(self):
        """Block-diagonal pressure mass matrix (csr)."""
        return sparse.block_diag(self.ops.mass_low, format="csr")

    def dump_matrices(self, prefix):
        """Write A and B in `row col value` coordinate text format."""
        for name, mat in (("A", self.A), ("B", self.B)):
            coo = mat.tocoo()
            with open(f"{prefix}{name}.txt", "w") as f:
                f.write(f"# {name} {mat.shape[0]} {mat.shape[1]} {coo.nnz}\n")
                for i, j, v in zip(coo.row, coo.col, coo.data):
                    f.write(f"{i} {j} {float(v)!r}\n")


def assemble(ops, body_force=None, boundary_velocity=None, data_degree=None, compat_tol=1e-10):
    """Assemble the discrete Stokes system.

    Parameters
    ----------
    ops : ElementOps
    body_force : callable or None
        Maps (n, 2) points to (n, 2) force values; None means zero.
    boundary_velocity : callable or None
        Dirichlet data with the same signature; None means zero.  Its net
        boundary flux must vanish (|flux| <= compat_tol), otherwise a
        CompatibilityError is raised.
    data_degree : int or None
        Polynomial degree of the data fields, if polynomial; controls the
        quadrature used for their moments.
    """
    mesh = ops.mesh
    dofmap = ops.dofmap
    n_u = dofmap.num_velocity_dofs
    n_p = dofmap.num_pressure_dofs

    rows_a, cols_a, vals_a = [], [], []
    rows_b, cols_b, vals_b = [], [], []
    load = np.zeros(n_u)
    pressure_moments = np.zeros(n_p)

    for c in range(mesh.num_cells):
        vdofs = dofmap.cell_dofs(c)
        pdofs = dofmap.pressure_dofs(c)
        A_T = ops.cell_matrix[c]
        B_T = ops.pressure_coupling[c]
        grid_v, grid_w = np.meshgrid(vdofs, vdofs, indexing="ij")
        rows_a.append(grid_v.ravel())
        cols_a.append(grid_w.ravel())
        vals_a.append(A_T.ravel())
        grid_p, grid_u = np.meshgrid(pdofs, vdofs, indexing="ij")
        rows_b.append(grid_p.ravel())
        cols_b.append(grid_u.ravel())
        vals_b.append(B_T.ravel())
        if body_force is not None:
            moments = ops.cell_moments(c, body_force, ops.degree, data_degree)  # (2, nk)
            load[dofmap.interior_dofs(c)] = moments.ravel()
        rule = ops.cell_rule(c)
        vals_low = ops.cell_basis_low[c].eval(rule.points)
        pressure_moments[pdofs] = rule.weights @ vals_low

    A = sparse.coo_matrix(
        (np.concatenate(vals_a), (np.concatenate(rows_a), np.concatenate(cols_a))),
        shape=(n_u, n_u),
    ).tocsr()
    B = sparse.coo_matrix(
        (np.concatenate(vals_b), (np.concatenate(rows_b), np.concatenate(cols_b))),
        shape=(n_p, n_u),
    ).tocsr()

    fixed_mask = dofmap.boundary_velocity_mask()
    if boundary_velocity is not None:
        bc = project_boundary_velocity(ops, boundary_velocity, data_degree)
        fixed_values = bc.coeffs
        flux = _boundary_flux(ops, boundary_velocity, data_degree)
        if abs(flux) > compat_tol:
            raise CompatibilityError(
                f"Dirichlet data has net boundary flux {flux:.3e} (> {compat_tol:g}); "
                "no divergence-free field matches it"
            )
    else:
        fixed_values = np.zeros(n_u)
        flux = 0.0

    return SaddleSystem(ops, A, B, load, pressure_moments, fixed_mask, fixed_values, flux)


def _boundary_flux(ops, g, data_degree=None):
    mesh = ops.mesh
    total = 0.0
    for e in np.nonzero(mesh.boundary_edges)[0]:
        c, s = ops.edge_owner[e]
        n = mesh.cell_normals(c)[s]
        rule = ops.edge_rule(e, ops.data_edge_exactness(data_degree))
        total += float(rule.weights @ (np.asarray(g(rule.points)) @ n))
    return total


# -- matrix-free bilinear forms (independent of the assembled matrices) --


def eval_a(ops, v, w):
    """Energy form: weak-gradient inner products plus the jump stabilizer."""
    return eval_grad_product(ops, v, w) + eval_s(ops, v, w)


def eval_grad_product(ops, v, w):
    total = 0.0
    for c in range(ops.mesh.num_cells):
        gv = ops.weak_gradient(v, c)
        gw = ops.weak_gradient(w, c)
        M = ops.mass_low[c]
        total += np.einsum("ijr,rs,ijs->", gv, M, gw)
    return float(total)


def eval_s(ops, v, w):
    """Jump stabilizer alone: h_T^{-1} <P_e v0 - vb, P_e w0 - wb> over cell sides."""
    total = 0.0
    for c in range(ops.mesh.num_cells):
        h = ops.mesh.diameters[c]
        for s, e in enumerate(ops.mesh.cell_edges[c]):
            jv = ops.trace_jump(v, c, s)
            jw = ops.trace_jump(w, c, s)
            total += np.einsum("ir,rs,is->", jv, ops.edge_mass[e], jw) / h
    return float(total)


def eval_b(ops, v, q):
    """Divergence form: (weak div of v, q) over all cells."""
    total = 0.0
    for c in range(ops.mesh.num_cells):
        d = ops.weak_divergence(v, c)
        total += q.cell(c) @ ops.mass_low[c] @ d
    return float(total)
