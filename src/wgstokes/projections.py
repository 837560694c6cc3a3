"""L2 projections of exact fields into the discrete spaces.

Velocity fields project componentwise onto P_k inside each cell and onto
P_{k-1} on each edge; pressures and divergences onto cellwise P_{k-1};
gradients onto cellwise P_{k-1} tensors.  Pass ``data_degree`` when the
field is polynomial of known total degree so the moment quadrature is
exact; leave it None for general smooth data (a high fixed exactness is
used instead).
"""

from .spaces import PressureFunction, WeakFunction


def project_velocity(ops, u, data_degree=None):
    """Projection {Q0 u, Qb u} of a velocity field into the weak space.

    Parameters
    ----------
    ops : ElementOps
    u : callable
        Maps (n, 2) points to (n, 2) velocity values.
    data_degree : int or None
        Total polynomial degree of u's components, if polynomial.
    """
    out = WeakFunction.zeros(ops.dofmap)
    out.v0[:] = ops.solve_cell_mass(ops.cell_moments(u, ops.degree, data_degree))
    out.vb[:] = ops.solve_edge_mass(ops.edge_moments(u, data_degree))
    return out


def project_boundary_velocity(ops, g, data_degree=None):
    """Edgewise projection of Dirichlet data onto the boundary edge blocks.

    Returns a WeakFunction that is zero except on boundary edges.
    """
    out = WeakFunction.zeros(ops.dofmap)
    edges = ops.mesh.boundary_edges
    out.vb[edges] = ops.solve_edge_mass(ops.edge_moments(g, data_degree))[edges]
    return out


def project_pressure(ops, p, data_degree=None):
    """Cellwise P_{k-1} projection of a scalar field."""
    out = PressureFunction.zeros(ops.dofmap)
    low = ops.degree - 1
    out.cellwise[:] = ops.solve_cell_mass(ops.cell_moments(p, low, data_degree), low)
    return out


def project_gradient(ops, grad_u, data_degree=None):
    """Cellwise tensor projection of a velocity gradient.

    grad_u maps (n, 2) points to (n, 2, 2) Jacobians (entry [i, j] is
    d u_i / d x_j).  Returns an (num_cells, 2, 2, dim_cell_low) array.
    """
    low = ops.degree - 1
    return ops.solve_cell_mass(ops.cell_moments(grad_u, low, data_degree), low)


def project_divergence(ops, div_u, data_degree=None):
    """Cellwise P_{k-1} projection of a scalar divergence field."""
    return project_pressure(ops, div_u, data_degree).cellwise
