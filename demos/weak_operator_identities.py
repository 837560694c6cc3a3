"""
The two structural identities behind the discretization, written out on
the operator stacks of ElementOps and the assembled A and B.

1. Commutativity: the weak gradient/divergence of a projected field equal
   the projections of the exact gradient/divergence.  The weak gradient
   solves the P_{k-1} masses against its moments, -(v0, d_j q)_T from
   grad_moments plus <vb, q>_e n_j from side_moments on each side; the
   rows of B hold the weak divergence's moments, so it is M⁻¹(Bv).
2. Energy: the assembled velocity form v'Av reproduces the discrete
   energy norm exactly: the weak gradient's L2 norm squared plus the trace
   jumps P_e v0 - vb (from trace), squared on each cell side and scaled by
   1/h_T.

Both hold to rounding on any mesh, any degree -- they are identities,
not approximations.
"""
import numpy as np

from wgstokes.assembly import assemble
from wgstokes.mesh import generate_mesh
from wgstokes.spaces import WeakFunction
from wgstokes.weakops import ElementOps

mesh = generate_mesh("perturbed-polygon", 6, seed=2)
print(mesh)


def weak_gradient(ops, v):
    """(n_cells, 2, 2, dim_cell_low): [c, i, j] the P_{k-1} coefficients of d v_i / d x_j."""
    sides = np.einsum("hj,hrb,hib->hijr", mesh.side_normal, ops.side_moments, v.vb[mesh.side_edge])
    moments = np.einsum("cjra,cia->cijr", ops.grad_moments, v.v0) + ops.per_cell(sides)
    return ops.solve_cell_mass(moments, ops.degree - 1)


for degree in (1, 2):
    ops = ElementOps(mesh, degree)
    system = assemble(ops)
    A, B = system.A, system.B

    # a smooth polynomial with hand-coded derivatives
    u = lambda p: np.column_stack([p[:, 0] ** 2 * p[:, 1], p[:, 1] ** 3 - p[:, 0]])
    grad_u = lambda p: np.stack(
        [
            np.stack([2 * p[:, 0] * p[:, 1], p[:, 0] ** 2], axis=1),
            np.stack([-np.ones(len(p)), 3 * p[:, 1] ** 2], axis=1),
        ],
        axis=1,
    )
    div_u = lambda p: 2 * p[:, 0] * p[:, 1] + 3 * p[:, 1] ** 2

    # L2 projections: cellwise P_d by the cell masses, edgewise by the edge masses
    project = lambda f, d: ops.solve_cell_mass(ops.cell_moments(f(ops.cell_data.points), d), d)
    v = WeakFunction.zeros(ops.dofmap)
    v.v0[:], v.vb[:] = project(u, degree), ops.solve_edge_mass(ops.edge_moments(u))
    div = ops.solve_cell_mass((B @ v.coeffs).reshape(mesh.num_cells, -1), degree - 1)
    gap_g = np.abs(weak_gradient(ops, v) - project(grad_u, degree - 1)).max()
    gap_d = np.abs(div - project(div_u, degree - 1)).max()
    print(f"k={degree}: commutativity gaps  gradient {gap_g:.2e}  divergence {gap_d:.2e}")

    # energy identity on random discrete fields
    side_weight = ops.edge_mass[mesh.side_edge] / mesh.diameters[mesh.side_cell][:, None, None]
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(20):
        w = WeakFunction(ops.dofmap, rng.standard_normal(ops.dofmap.num_velocity_dofs))
        quad = w.coeffs @ (A @ w.coeffs)
        g = weak_gradient(ops, w)
        jump = np.einsum("hba,hia->hib", ops.trace, w.v0[mesh.side_cell]) - w.vb[mesh.side_edge]
        norm2 = np.einsum("cijr,crs,cijs->", g, ops.mass_low, g)
        norm2 += np.einsum("hir,hrs,his->", jump, side_weight, jump)
        worst = max(worst, abs(quad - norm2) / norm2)
    print(f"k={degree}: energy identity, worst relative gap over 20 fields {worst:.2e}")
