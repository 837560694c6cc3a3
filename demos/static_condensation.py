"""
Static condensation: eliminate the cell-local unknowns cell by cell.

Interior velocity unknowns couple only within their own cell, so their
block of the velocity matrix is block-diagonal.  Once they are gone, the
pressure block is block-diagonal by cell too, and each cell's
non-constant pressures go the same way.  What is left is a reduced system
in the free edge unknowns plus one pressure per cell.  For each mesh the
demo prints the unknown count before and after (43-44 % remains at
k=1, where a cell has one pressure, and 36-38 % at k=2), the L+U fill
of the full LU (``condense=False``: the LU eliminates the same unknowns
itself, in the same order) and of the reduced one, the largest
coefficient gap between the two solutions (rounding level), and the wall
time of each solve.  Both LUs take the edges by nested dissection with
each cell's pressures after its last edge, so the full LU holds 1.2-2.1
times the reduced fill (the interior rows it keeps), where a COLAMD
column ordering gives it 2.3-4 times.
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
        n_cells = ops.mesh.num_cells
        print(
            f"  n={n:<3d} unknowns {n_full} -> {red.num_reduced} "
            f"({100 * red.num_reduced / n_full:.0f}%: "
            f"{red.num_reduced - n_cells} edge + {n_cells} cell pressures)  "
            f"L+U {full.lu_fill} -> {red.lu_fill}\n"
            f"         max DOF gap {gap:.2e}  "
            f"wall {full.wall_time * 1e3:.1f}ms -> {red.wall_time * 1e3:.1f}ms"
        )
    print()
