"""
Discrete inf-sup (pressure stability) constant under refinement.

beta_h is the square root of the smallest eigenvalue of the pressure
Schur complement, generalized against the pressure mass matrix, on the
zero-mean subspace.  It is found by shift-invert Lanczos iteration on
one sparse LU of the saddle system per mesh, so the scan needs no dense
matrix and no size limit.  A mesh-independent lower bound is what makes
the saddle-point problem well posed.

The scan covers uniform squares: k=1 from n=8 to n=128, k=2 to n=64 and
k=3..5 to n=32.  Every mesh covers the unit square, whose continuous
inf-sup constant is at most sqrt(1/2 - 1/pi) = 0.4263 (Costabel,
Crouzeix, Dauge & Lafranche, Numer. Methods PDE 31(2), 2015), so beta_h
falls from above toward a value near it.  For each halving of h the scan
prints the slope of log beta_h against log h (Chapelle & Bathe,
Computers & Structures 47, 1993); a bound uniform in h shows as slopes
shrinking toward 0.  It takes about 16 s and 0.7 GB with one BLAS
thread on a 2-core machine; k=5 n=32 is the largest part.

Equivalent CLI, one row:  wgstokes infsup --family uniform-quad --degree K --n0 8 --levels L
"""
import math

from wgstokes.analysis import discrete_inf_sup
from wgstokes.assembly import assemble
from wgstokes.mesh import generate_mesh
from wgstokes.weakops import ElementOps

NS = (8, 16, 32, 64, 128)
LARGEST_N = {1: 128, 2: 64, 3: 32, 4: 32, 5: 32}

print(f"beta_h on uniform-quad (bound of the square {math.sqrt(0.5 - 1 / math.pi):.4f})")
print("      " + "".join(f"{'n=' + str(n):>9}" for n in NS))
for degree, largest in LARGEST_N.items():
    hs, betas = [], []
    for n in NS[: NS.index(largest) + 1]:
        mesh = generate_mesh("uniform-quad", n)
        betas.append(discrete_inf_sup(assemble(ElementOps(mesh, degree))))
        hs.append(mesh.mesh_size)
    slopes = [
        math.log(b0 / b1) / math.log(h0 / h1)
        for h0, h1, b0, b1 in zip(hs, hs[1:], betas, betas[1:])
    ]
    print(f"  k={degree} " + "".join(f"{b:9.4f}" for b in betas))
    print("  slope     " + "".join(f"{s:9.3f}" for s in slopes))
