"""
Discrete inf-sup (pressure stability) constant under refinement.

beta_h is the square root of the smallest eigenvalue of the pressure
Schur complement, generalized against the pressure mass matrix, on the
zero-mean subspace.  It is found by shift-invert Lanczos iteration on
one sparse LU of the saddle system per mesh, so the scan needs no dense
matrix and no size limit.  A mesh-independent lower bound is what makes
the saddle-point problem well posed; watch the values settle as h
shrinks.

Equivalent CLI:  wgstokes infsup --family <name>
"""
from wgstokes.analysis import discrete_inf_sup
from wgstokes.assembly import assemble
from wgstokes.mesh import generate_mesh
from wgstokes.weakops import ElementOps

for family in ("uniform-quad", "perturbed-polygon"):
    print(f"== {family}, k=1 ==")
    betas = []
    for n in (4, 8, 16, 32):
        mesh = generate_mesh(family, n, seed=0)
        system = assemble(ElementOps(mesh, 1))
        beta = discrete_inf_sup(system)
        betas.append(beta)
        print(f"  n={n:<3d} h={mesh.mesh_size:.4f} pressure dofs={system.num_pressure_dofs:<5d} beta_h={beta:.6f}")
    print(f"  min/max over the last three levels: {min(betas[1:]) / max(betas[1:]):.4f}")
    print()
