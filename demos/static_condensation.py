"""
Static condensation: eliminate interior velocity unknowns per cell.

Interior DOFs couple only within their own cell, so their block of the
velocity matrix is block-diagonal and eliminating them leaves a reduced
system in the edge and pressure unknowns alone.  For each mesh the demo
prints the unknown count before and after (under half remains), the
largest coefficient gap between the full and the condensed solution
(rounding level), and the wall time of each solve; the condensed solve
is the faster one, by a margin that grows with the mesh.
"""
import numpy as np

from wgstokes.assembly import assemble
from wgstokes.cases import get_case
from wgstokes.mesh import generate_mesh
from wgstokes.solver import solve
from wgstokes.weakops import ElementOps

case = get_case("taylor-trig")

for degree in (1, 2):
    print(f"== k={degree} ==")
    for n in (8, 16):
        ops = ElementOps(generate_mesh("uniform-quad", n), degree)
        system = assemble(ops, body_force=case.f, boundary_velocity=case.g)
        full = solve(system)
        red = solve(system, condense=True)
        gap = max(
            np.abs(full.velocity.coeffs - red.velocity.coeffs).max(),
            np.abs(full.pressure.coeffs - red.pressure.coeffs).max(),
        )
        n_full = len(system.free) + system.num_pressure_dofs
        print(
            f"  n={n:<3d} unknowns {n_full} -> {red.num_reduced} "
            f"({100 * red.num_reduced / n_full:.0f}%)  max DOF gap {gap:.2e}  "
            f"wall {full.wall_time * 1e3:.1f}ms -> {red.wall_time * 1e3:.1f}ms"
        )
    print()
