"""Global assembly of the Stokes saddle-point system.

The velocity matrix A sums the weak-gradient Gram matrices and the jump
stabilizer over cells; B couples the weak divergence with the pressure
test space.  Boundary-edge velocity DOFs carry projected Dirichlet data
and are eliminated at solve time (they are marked, not removed, here).
The solver pins one pressure DOF and then shifts the pressure to zero
mean, measuring the mean with the pressure moment vector assembled
alongside.

A is G^T M^{-1} G + J^T S J.  The sparse map G gives the weak-gradient
moments (grad_w v, q)_T, the sparse map J the jumps P_e v0 - vb; each is
built from the operator stacks of ElementOps in one coordinate-format
pass.  M is the block-diagonal P_{k-1} cell mass, so each mass inverse
enters A once, and S the block-diagonal (scaled) edge mass.  B is the sum
of G's divergence rows (d v_x/dx and d v_y/dy), with no mass solve.  Both
store only the nonzeros these blocks and products give.  Nothing depends
on hash order, so assembled matrices are bit-identical run to run.
"""

import numpy as np
from scipy import sparse

from .errors import CompatibilityError
from .projections import project_boundary_velocity

# Largest net boundary flux of Dirichlet data that counts as compatible.
COMPAT_TOL = 1e-10


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
        Net flux of the projected Dirichlet data through the boundary.
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
        return block_diagonal(self.ops.mass_low)

    def dump_matrices(self, prefix):
        """Write A and B in `row col value` coordinate text format."""
        for name, mat in (("A", self.A), ("B", self.B)):
            coo = mat.tocoo()
            with open(f"{prefix}{name}.txt", "w") as f:
                f.write(f"# {name} {mat.shape[0]} {mat.shape[1]} {coo.nnz}\n")
                for i, j, v in zip(coo.row, coo.col, coo.data):
                    f.write(f"{i} {j} {float(v)!r}\n")


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
    G, J, B = _sparse_maps(ops)
    A = G.T @ block_diagonal(np.repeat(np.linalg.inv(ops.mass_low), 4, axis=0)) @ G
    A += J.T @ block_diagonal(np.repeat(_side_mass(ops), 2, axis=0)) @ J

    load = np.zeros(dofmap.num_velocity_dofs)
    if body_force is not None:
        field = body_force(ops.cell_data.points)
        load[: dofmap.interior_size] = ops.cell_moments(field, ops.degree).ravel()
    # the first scaled monomial is 1, so mass rows 0 hold the basis integrals
    pressure_moments = ops.mass_low[:, 0, :].ravel()

    fixed_mask = dofmap.boundary_velocity_mask()
    if boundary_velocity is not None:
        bc = project_boundary_velocity(ops, boundary_velocity)
        fixed_values = bc.coeffs
        s = np.flatnonzero(mesh.boundary_edges[mesh.side_edge])  # the boundary sides
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

    return SaddleSystem(ops, A, B, load, pressure_moments, fixed_mask, fixed_values, flux)


def block_diagonal(blocks):
    """csr matrix with an (n, b, b) stack of blocks on its diagonal."""
    n = len(blocks)
    return sparse.bsr_matrix((blocks, np.arange(n), np.arange(n + 1))).tocsr()


def _from_blocks(shape, *families):
    """Sparse matrix from (blocks (n, r, c), first rows (n,), first columns (n,)) triples.

    Block t covers rows first_row[t] + range(r) and columns
    first_column[t] + range(c); duplicate entries add up.
    """
    vals, rows, cols = [], [], []
    for blocks, first_row, first_col in families:
        n, (r, c) = len(first_row), blocks.shape[1:]
        vals.append(np.broadcast_to(blocks, (n, r, c)).ravel())
        rows.append(np.broadcast_to(first_row[:, None, None] + np.arange(r)[:, None], (n, r, c)))
        cols.append(np.broadcast_to(first_col[:, None, None] + np.arange(c), (n, r, c)))
    rows, cols = (np.concatenate([x.ravel() for x in xs]) for xs in (rows, cols))
    mat = sparse.coo_matrix((np.concatenate(vals), (rows, cols)), shape=shape).tocsr()
    mat.eliminate_zeros()  # the blocks' exact zeros
    return mat


def _sparse_maps(ops):
    """Sparse maps on the velocity DOFs, from the operator stacks.

    G gives the weak-gradient moments (grad_w v, q_r)_T, rows ordered
    (cell, i, j, r); B the divergence moments (div_w v, q_r)_T, rows (cell, r),
    as the sum of G's rows with i = j; J the jumps P_e v0 - vb, rows (side, i, b).
    Component i of cell c's interior is DOF block 2c + i, of edge e block
    2e + i after the interior DOFs.
    """
    dm = ops.dofmap
    nk, nlow, ne, n_u = dm.dim_cell, dm.dim_cell_low, dm.dim_edge, dm.num_velocity_dofs
    mesh = ops.mesh
    n_cells = mesh.num_cells
    cell_i, side_i = np.arange(2 * n_cells), np.arange(2 * len(mesh.side_cell))
    owner_i = 2 * np.repeat(mesh.side_cell, 2) + side_i % 2
    edge_col = dm.interior_size + (2 * np.repeat(mesh.side_edge, 2) + side_i % 2) * ne
    interior = np.repeat(ops.grad_moments.reshape(n_cells, 2 * nlow, nk), 2, axis=0)
    sides = mesh.side_normal[:, :, None, None] * ops.side_moments[:, None]  # (side, j, r, b)
    G = _from_blocks(
        (4 * nlow * n_cells, n_u),
        (interior, cell_i * 2 * nlow, cell_i * nk),
        (np.repeat(sides.reshape(-1, 2 * nlow, ne), 2, axis=0), owner_i * 2 * nlow, edge_col),
    )
    rows = np.arange(G.shape[0]).reshape(n_cells, 2, 2, nlow)
    B = G[rows[:, 0, 0].ravel()] + G[rows[:, 1, 1].ravel()]
    J = _from_blocks(
        (len(side_i) * ne, n_u),
        (np.repeat(ops.trace, 2, axis=0), side_i * ne, owner_i * nk),
        (-np.eye(ne)[None], side_i * ne, edge_col),
    )
    return G, J, B


def _side_mass(ops):
    """Stabilizer weight of each side: its edge mass over the cell diameter."""
    mesh = ops.mesh
    return ops.edge_mass[mesh.side_edge] / mesh.diameters[mesh.side_cell][:, None, None]


# -- matrix-free bilinear forms (independent of the assembled matrices) --


def eval_a(ops, v, w):
    """Energy form: weak-gradient inner products plus the jump stabilizer."""
    return eval_grad_product(ops, v, w) + eval_s(ops, v, w)


def eval_grad_product(ops, v, w):
    gv, gw = ops.weak_gradient(v), ops.weak_gradient(w)
    return float(np.einsum("cijr,crs,cijs->", gv, ops.mass_low, gw))


def eval_s(ops, v, w):
    """Jump stabilizer alone: h_T^{-1} <P_e v0 - vb, P_e w0 - wb> over cell sides."""
    jv, jw = ops.trace_jump(v), ops.trace_jump(w)
    return float(np.einsum("hir,hrs,his->", jv, _side_mass(ops), jw))

