"""
One study level, stage by stage: the time of each stage and the process's
peak memory after it.

    python demos/level_profile.py [FAMILY [DEGREE [N]]]

Defaults to perturbed-polygon, k=2, n=32 with the taylor-trig case.  The
stages are those of one level of `wgstokes study`: mesh, ElementOps,
assemble, solve, beta_h and error_bundle, in that order.  As in the study,
the cell data table is dropped after assemble (error_bundle builds it
again) and the factor before error_bundle.  The peak is the process's
resident high-water mark (`ru_maxrss`), so it never falls: a stage that
does not raise it ran below an earlier stage's peak.
"""
import resource
import sys
import time

from wgstokes.analysis import discrete_inf_sup, error_bundle
from wgstokes.assembly import assemble
from wgstokes.cases import get_case
from wgstokes.mesh import generate_mesh
from wgstokes.solver import solve
from wgstokes.weakops import ElementOps

family, degree, n = sys.argv[1:] + ["perturbed-polygon", "2", "32"][len(sys.argv) - 1 :]
degree, n = int(degree), int(n)
case = get_case("taylor-trig")


def stage(name, run):
    t0 = time.perf_counter()
    out = run()
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # kB on Linux
    print(f"{name:<14}{time.perf_counter() - t0:8.2f} s{peak:9.0f} MB")
    return out


print(f"{family} k={degree} n={n}, taylor-trig")
print(f"{'stage':<14}{'time':>10}{'peak':>12}")
mesh = stage("mesh", lambda: generate_mesh(family, n))
ops = stage("ElementOps", lambda: ElementOps(mesh, degree))
system = stage("assemble", lambda: assemble(ops, body_force=case.f, boundary_velocity=case.g))
del ops.cell_data
report = stage("solve", lambda: solve(system))
beta = stage("beta_h", lambda: discrete_inf_sup(system, report.factor))
report.factor = None
errors = stage("error_bundle", lambda: error_bundle(ops, case, report.velocity, report.pressure))
print(f"cells {mesh.num_cells}, L+U {report.lu_fill:,}, beta_h {beta:.6f}")
print("  ".join(f"{name} {value:.6e}" for name, value in errors.as_dict().items()))
