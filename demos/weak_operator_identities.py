"""
The two structural identities behind the discretization.

1. Commutativity: the weak gradient/divergence of a projected field equal
   the projections of the exact gradient/divergence.
2. Energy: the assembled velocity form v'Av reproduces the discrete
   energy norm exactly: the weak gradient's L2 norm squared plus the trace
   jumps P_e v0 - vb, squared on each cell side and scaled by 1/h_T, all
   written out below from ops.weak_gradient and ops.trace_jump.

Both hold to rounding on any mesh, any degree -- they are identities,
not approximations.
"""
import numpy as np

from wgstokes.assembly import assemble
from wgstokes.mesh import generate_mesh
from wgstokes.projections import project_gradient, project_pressure, project_velocity
from wgstokes.spaces import WeakFunction
from wgstokes.weakops import ElementOps

mesh = generate_mesh("perturbed-polygon", 6, seed=2)
print(mesh)

for degree in (1, 2):
    ops = ElementOps(mesh, degree)

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

    v = project_velocity(ops, u)
    pg = project_gradient(ops, grad_u)
    pd = project_pressure(ops, div_u).cellwise
    gap_g = np.abs(ops.weak_gradient(v) - pg).max()
    gap_d = np.abs(ops.weak_divergence(v) - pd).max()
    print(f"k={degree}: commutativity gaps  gradient {gap_g:.2e}  divergence {gap_d:.2e}")

    # energy identity on random discrete fields
    A = assemble(ops).A
    side_weight = ops.edge_mass[mesh.side_edge] / mesh.diameters[mesh.side_cell][:, None, None]
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(20):
        w = WeakFunction.random(ops.dofmap, rng)
        quad = w.coeffs @ (A @ w.coeffs)
        g, jump = ops.weak_gradient(w), ops.trace_jump(w)
        norm2 = np.einsum("cijr,crs,cijs->", g, ops.mass_low, g)
        norm2 += np.einsum("hir,hrs,his->", jump, side_weight, jump)
        worst = max(worst, abs(quad - norm2) / norm2)
    print(f"k={degree}: energy identity, worst relative gap over 20 fields {worst:.2e}")
