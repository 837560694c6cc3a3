"""
One study level, stage by stage: the time of each stage, and the process's
resident and peak memory after it.

    python demos/level_profile.py [FAMILY [DEGREE [N]]]

Defaults to perturbed-polygon, k=2, n=32 with the taylor-trig case.  The
stages are those of one level of `wgstokes study`: mesh, ElementOps,
assemble, project_case (the exact fields' side of every error), solve,
beta_h and error_bundle, in that order.  The solve's sparse LU (SuperLU's
gstrf, wrapped here around `wgstokes.solver.splu`) has its own row, printed
when it returns, so before the solve row that contains it; the solve's
time outside the LU is the difference of the two.  As in the study, the
cell data table is built once and dropped after project_case, before the
solve.
After the ElementOps row comes the MB that ElementOps keeps: the bytes of
its ndarray attributes and of its edge table's arrays, each block of
memory once (``mass_low`` is a view into ``mass``), without the cell data
table, which is built later and dropped before the solve.
The gc column is the part of the stage's time spent in garbage-collection
passes (`gc.callbacks`).
The peak is the process's resident high-water mark (`ru_maxrss`), so it
never falls: a stage that does not raise it ran below an earlier stage's
peak.  The resident set (from /proc/self/statm, where it exists) is what
the process holds once the stage is done; freed heap that the C library
keeps shows there.  After the table come the cell count, the LU's fill,
beta_h, the Lanczos steps of the pressure solve and of beta_h (counted
around `wgstokes.solver.lanczos`), each with the time that its stage spent
in S⁻¹ applications (`wgstokes.solver.CondensedFactor._two`, timed here
around each call; the rest of a step is its bookkeeping), the cell data
rule's point count and points per cell, and the five errors.
"""
import gc
import os
import resource
import sys
import time

import numpy as np

from wgstokes import analysis, solver
from wgstokes.analysis import discrete_inf_sup, error_bundle, project_case
from wgstokes.assembly import assemble
from wgstokes.cases import get_case
from wgstokes.mesh import generate_mesh
from wgstokes.solver import solve
from wgstokes.weakops import ElementOps

family, degree, n = sys.argv[1:] + ["perturbed-polygon", "2", "32"][len(sys.argv) - 1 :]
degree, n = int(degree), int(n)
case = get_case("taylor-trig")


def resident_mb():
    """The process's resident set in MB, or NaN without /proc/self/statm."""
    try:
        with open("/proc/self/statm") as f:
            pages = int(f.read().split()[1])
    except OSError:
        return float("nan")
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


peak, gc_seconds, gc_started = 0.0, 0.0, 0.0


def gc_clock(phase, info):
    """Adds the time of each garbage-collection pass to gc_seconds."""
    global gc_seconds, gc_started
    if phase == "start":
        gc_started = time.perf_counter()
    else:
        gc_seconds += time.perf_counter() - gc_started


def kept_mb(ops):
    """MB of the arrays that `ops` keeps, each block of memory counted once."""
    values = list(vars(ops).values()) + list(vars(ops.edge_data).values())
    owners = [v if v.base is None else v.base for v in values if isinstance(v, np.ndarray)]
    return sum({id(a): a.nbytes for a in owners}.values()) / 2**20


def stage(name, run):
    global peak
    gc_before, t0 = gc_seconds, time.perf_counter()
    out = run()
    elapsed = time.perf_counter() - t0
    resident = resident_mb()
    # kB on Linux; the kernel's high-water mark may trail the resident set by a few pages
    peak = max(peak, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, resident)
    collecting = gc_seconds - gc_before
    print(f"{name:<14}{elapsed:8.2f} s{collecting:8.3f} s{resident:9.0f} MB{peak:9.0f} MB")
    return out


splu = solver.splu
solver.splu = lambda *args, **kwargs: stage("gstrf", lambda: splu(*args, **kwargs))
lanczos, beta_steps = analysis.lanczos, []


def counted_lanczos(*args):
    """beta_h's Lanczos, its step count kept."""
    vectors, T = lanczos(*args)
    beta_steps.append(len(T))
    return vectors, T


analysis.lanczos = counted_lanczos
two, inverse_seconds = solver.CondensedFactor._two, [0.0]


def timed_two(factor, v):
    """S⁻¹ on both components, its time added to inverse_seconds."""
    t0 = time.perf_counter()
    out = two(factor, v)
    inverse_seconds[0] += time.perf_counter() - t0
    return out


solver.CondensedFactor._two = timed_two
print(f"{family} k={degree} n={n}, taylor-trig")
print(f"{'stage':<14}{'time':>10}{'gc':>10}{'resident':>12}{'peak':>12}")
gc.callbacks.append(gc_clock)
mesh = stage("mesh", lambda: generate_mesh(family, n))
ops = stage("ElementOps", lambda: ElementOps(mesh, degree))
print(f"ElementOps keeps {kept_mb(ops):.2f} MB")
system = stage("assemble", lambda: assemble(ops, body_force=case.f, boundary_velocity=case.g))
projection = stage("project_case", lambda: project_case(ops, case))
data_points = len(ops.cell_data.weights)
del ops.cell_data
report = stage("solve", lambda: solve(system))
solve_inverse = inverse_seconds[0]
beta = stage("beta_h", lambda: discrete_inf_sup(system, report.factor))
beta_inverse = inverse_seconds[0] - solve_inverse
errors = stage(
    "error_bundle", lambda: error_bundle(system, projection, report.velocity, report.pressure)
)
gc.callbacks.remove(gc_clock)
print(f"cells {mesh.num_cells}, L+U {report.lu_fill:,}, beta_h {beta:.6f}")
print(
    f"Lanczos steps: solve {report.lanczos_steps} (S^-1 {1e3 * solve_inverse:.3f} ms), "
    f"beta_h {beta_steps[0]} (S^-1 {1e3 * beta_inverse:.3f} ms)"
)
print(f"cell data rule {data_points:,} points, {data_points / mesh.num_cells:.1f} per cell")
print("  ".join(f"{name} {value:.6e}" for name, value in errors.as_dict().items()))
