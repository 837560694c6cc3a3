"""
Static condensation: eliminate the cell-local unknowns cell by cell.

Interior velocity unknowns couple only within their own cell, so their
block of the velocity matrix is block-diagonal, and the velocity form is
one scalar form for both components.  Once the interior is gone, what the
sparse LU factors is the scalar edge Schur complement, on one component's
free edge unknowns; the pressures are left to a Lanczos-CG on the
pressure Schur complement, preconditioned by the pressure mass.  For each
mesh the demo prints the unknown count of the full saddle system and the
order of the factored matrix, the Lanczos steps, the L+U fill of the full
LU (``condense=False``: SuperLU's own LU of the whole saddle matrix, in
its COLAMD order with partial pivoting) and of the scalar one, the
largest coefficient gap between the two solutions (rounding level), and
the wall time of each solve.
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
        full = solve(system, condense=False)
        red = solve(system)
        gap = max(
            np.abs(full.velocity.coeffs - red.velocity.coeffs).max(),
            np.abs(full.pressure.coeffs - red.pressure.coeffs).max(),
        )
        n_full = len(system.free) + system.num_pressure_dofs
        print(
            f"  n={n:<3d} unknowns {n_full} -> {red.num_reduced} factored "
            f"({100 * red.num_reduced / n_full:.0f}%), {red.lanczos_steps} Lanczos steps  "
            f"L+U {full.lu_fill} (COLAMD) -> {red.lu_fill} (scalar S)\n"
            f"         max DOF gap {gap:.2e}  "
            f"wall {full.wall_time * 1e3:.1f}ms -> {red.wall_time * 1e3:.1f}ms"
        )
    print()
