"""L2 projections of exact fields into the discrete spaces.

Velocity fields project componentwise onto P_k inside each cell and onto
P_{k-1} on each edge; pressures and divergences onto cellwise P_{k-1};
gradients onto cellwise P_{k-1} tensors.  Every moment uses the data
rules of ElementOps (exactness DATA_EXACTNESS), whatever the field.
"""

from .spaces import PressureFunction, WeakFunction


def project_velocity(ops, u):
    """Projection {Q0 u, Qb u} of a velocity field into the weak space.

    Parameters
    ----------
    ops : ElementOps
    u : callable
        Maps (n, 2) points to (n, 2) velocity values.
    """
    out = WeakFunction.zeros(ops.dofmap)
    out.v0[:] = ops.solve_cell_mass(ops.cell_moments(u, ops.degree))
    out.vb[:] = ops.solve_edge_mass(ops.edge_moments(u))
    return out


def project_boundary_velocity(ops, g):
    """Edgewise projection of Dirichlet data onto the boundary edge blocks.

    Returns a WeakFunction that is zero except on boundary edges.
    """
    out = WeakFunction.zeros(ops.dofmap)
    edges = ops.mesh.boundary_edges
    out.vb[edges] = ops.solve_edge_mass(ops.edge_moments(g))[edges]
    return out


def project_pressure(ops, p):
    """Cellwise P_{k-1} projection of a scalar field."""
    out = PressureFunction.zeros(ops.dofmap)
    low = ops.degree - 1
    out.cellwise[:] = ops.solve_cell_mass(ops.cell_moments(p, low), low)
    return out


def project_gradient(ops, grad_u):
    """Cellwise tensor projection of a velocity gradient.

    grad_u maps (n, 2) points to (n, 2, 2) Jacobians (entry [i, j] is
    d u_i / d x_j).  Returns an (num_cells, 2, 2, dim_cell_low) array.
    """
    low = ops.degree - 1
    return ops.solve_cell_mass(ops.cell_moments(grad_u, low), low)


def project_divergence(ops, div_u):
    """Cellwise P_{k-1} projection of a scalar divergence field."""
    return project_pressure(ops, div_u).cellwise
