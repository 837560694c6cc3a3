"""Correctness checks on a round's output, made apart from the program's own.

They run in their own process after every timed round, so they count
toward no metric.  What the program provides is used only as input: the
CSV or table a round wrote, and the assembled ``SaddleSystem`` of the
coarsest level.  Rates are fitted here by least squares, the inf-sup
constant comes from a dense eigensolve on the full pressure space
(``discrete_inf_sup`` restricts to zero-mean pressures instead), and the
algebraic residuals are formed again from the system's public fields.
"""

import math

import numpy as np
from scipy import linalg

from outputs import parse_infsup_stdout, parse_study_csv

RATE_MARGIN = 0.1
BETA_FLOOR = 0.01
BETA_RATIO_FLOOR = 0.75
# the ratio spans the finest levels with a beta_h, three as in the
# acceptance criterion (n = 8, 16, 32); rates are fitted over every level
BETA_WINDOW = 3
SOLVE_TOL = 1e-9
# cells per side of the seeded perturbed-polygon mesh of the poly-exact-k2 check
POLY_EXACT_N = 8
# the CSV holds repr floats; the infsup table prints six decimals
BETA_CSV_RTOL = 1e-8
BETA_TABLE_ATOL = 1e-6
# rates every study must reach, as a function of the velocity degree k
RATE_TARGETS = {
    "triple_bar": lambda k: k,
    "pres_l2": lambda k: k,
    "vel_l2_proj": lambda k: k + 1,
}


def slope(hs, values):
    """Least-squares slope of log(value) against log(h) over all points."""
    xs = [math.log(h) for h in hs]
    ys = [math.log(v) for v in values]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx


def dense_inf_sup(system):
    """beta_h from the second eigenvalue of S p = lam M_p p on all pressures.

    S = B_f A_ff^{-1} B_f^T with A_ff factored by dense Cholesky.  The
    constants span the kernel of S, so the smallest eigenvalue is zero and
    the next one is beta_h squared.  Returns (beta_h, lam_0 / lam_max).
    """
    free = system.free
    A_ff = system.A[free][:, free].toarray()
    Bt = system.B[:, free].T.toarray()
    S = Bt.T @ linalg.cho_solve(linalg.cho_factor(A_ff), Bt)
    M_p = system.pressure_mass().toarray()
    lam = linalg.eigh(0.5 * (S + S.T), M_p, eigvals_only=True)
    return math.sqrt(lam[1]), abs(lam[0]) / lam[-1]


def solve_residuals(system, report):
    """Relative momentum residual, |B u_h| and the boundary-data gap of a solve."""
    A, B = system.A, system.B
    free, fixed = system.free, system.fixed_mask
    u, p = report.velocity.coeffs, report.pressure.coeffs
    rhs = np.concatenate(
        [
            system.load[free] - A[free][:, fixed] @ system.fixed_values[fixed],
            B[:, fixed] @ system.fixed_values[fixed],
        ]
    )
    r_mom = (A @ u - B.T @ p)[free] - system.load[free]
    boundary_gap = np.abs(u[fixed] - system.fixed_values[fixed]).max()
    return (
        float(np.linalg.norm(r_mom) / np.linalg.norm(rhs)),
        float(np.linalg.norm(B @ u)),
        float(boundary_gap),
    )


def poly_exact_gap(ops, report, case):
    """Largest pointwise gap to an exact polynomial case, at cell vertices and centroids."""
    mesh = ops.mesh
    gap = 0.0
    for c in range(mesh.num_cells):
        pts = np.vstack([mesh.cell_vertices(c), mesh.centroids[c]])
        u_h = ops.cell_basis[c].eval(pts) @ report.velocity.interior(c).T
        p_h = ops.cell_basis_low[c].eval(pts) @ report.pressure.cell(c)
        gap = max(gap, np.abs(u_h - case.u(pts)).max(), np.abs(p_h - case.p(pts)).max())
    return float(gap)


def _check(name, value, limit, ok):
    return {"name": name, "ok": bool(ok), "value": value, "limit": limit}


def _at_most(name, value, limit):
    return _check(name, value, limit, value <= limit)


def _at_least(name, value, limit):
    return _check(name, value, limit, value >= limit)


def _system(family, n, degree, case=None, seed=0):
    from wgstokes import ElementOps, assemble, generate_mesh

    ops = ElementOps(generate_mesh(family, n, seed=seed), degree)
    if case is None:
        return ops, assemble(ops)
    return ops, assemble(
        ops, body_force=case.f, boundary_velocity=case.g, data_degree=case.data_degree
    )


def run_checks(workload, seed, outdir):
    """Every check for one workload; ``outdir`` holds the round's output.

    The coarsest level is rebuilt on the round's own mesh; ``seed`` makes
    the perturbed-polygon mesh of the poly-exact-k2 check.  Returns
    (checks, notes): notes are figures shown but not gated.
    """
    from wgstokes import get_case, solve

    k = workload.degree
    study = workload.command == "study"
    out, notes = [], []
    if study:
        rows = parse_study_csv((outdir / "study.csv").read_text())
    else:
        rows = parse_infsup_stdout((outdir / "stdout.txt").read_text())
    out.append(_check("levels present", len(rows), workload.levels, len(rows) == workload.levels))

    if study:
        hs = [row["h"] for row in rows]
        for name, target in RATE_TARGETS.items():
            rate = slope(hs, [row[name] for row in rows])
            out.append(_at_least(f"rate {name}", rate, target(k) - RATE_MARGIN))

    betas = [row["beta_h"] for row in rows if row["beta_h"] is not None]
    if betas:
        lo, hi = min(betas[-BETA_WINDOW:]), max(betas[-BETA_WINDOW:])
        out.append(_check("beta_h min", min(betas), BETA_FLOOR, min(betas) > BETA_FLOOR))
        out.append(_at_least("beta_h min/max, finest levels", lo / hi, BETA_RATIO_FLOOR))
        notes.append({"name": "beta_h by level", "value": betas})
        notes.append({"name": "beta_h min/max, all levels", "value": min(betas) / max(betas)})

    _, system = _system(workload.family, workload.n0, k, get_case("taylor-trig") if study else None)
    beta, kernel = dense_inf_sup(system)
    gap = abs(beta - rows[0]["beta_h"])
    if study:
        out.append(_at_most("coarsest beta_h vs dense eigensolve", gap / beta, BETA_CSV_RTOL))
    else:
        out.append(_at_most("coarsest beta_h vs dense eigensolve", gap, BETA_TABLE_ATOL))
    out.append(_at_most("constant pressure is the kernel", kernel, 1e-10))

    if study:
        report = solve(system, condense=workload.condense)
        residual, div, boundary = solve_residuals(system, report)
        out.append(_at_most("coarsest residual (recomputed)", residual, SOLVE_TOL))
        out.append(_at_most("coarsest |B u_h|", div, SOLVE_TOL))
        out.append(_at_most("coarsest boundary data", boundary, SOLVE_TOL))
        other = solve(system, condense=not workload.condense)
        gap = max(
            np.abs(report.velocity.coeffs - other.velocity.coeffs).max(),
            np.abs(report.pressure.coeffs - other.pressure.coeffs).max(),
        )
        out.append(_at_most("full vs condensed solve", float(gap), SOLVE_TOL))

    case = get_case("poly-exact-k2")
    ops, system = _system("perturbed-polygon", POLY_EXACT_N, 2, case, seed)
    gap = poly_exact_gap(ops, solve(system, condense=workload.condense), case)
    out.append(_at_most("poly-exact-k2 reproduced", gap, SOLVE_TOL))
    return out, notes
