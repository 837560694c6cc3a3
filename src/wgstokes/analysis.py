"""Error measurement, convergence rates, and discrete stability checks.

The norms here deliberately avoid the assembled matrices: the energy norm
is accumulated by evaluating the weak gradient and the edge jumps at
quadrature points, so tests comparing it against the bilinear form
exercise two independent code paths.

Conventions: errors against the exact solution use the data rules of
ElementOps (one exactness for every field); errors between two discrete
fields use the cell mass matrices, which are exact.
The inf-sup constant, by contrast, is algebraic: an iterative eigensolve
that reuses the sparse factorization the level's solve already made.
"""

import csv
import dataclasses

import numpy as np
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh, splu

from .assembly import block_diagonal
from .errors import ConfigurationError, SolverError
from .projections import project_gradient, project_pressure, project_velocity
from .solver import factorize

# Relative accuracy asked of the Lanczos eigensolve behind beta_h.
INF_SUP_TOL = 1e-10

# Columns below this size are reported as resolved to rounding rather than
# given a meaningless fitted rate.
EXACT_TOL = 1e-9

CSV_COLUMNS = (
    "level",
    "h",
    "cells",
    "triple_bar",
    "vel_l2_proj",
    "vel_l2_true",
    "pres_l2",
    "pres_l2_true",
    "beta_h",
)
ERROR_COLUMNS = CSV_COLUMNS[3:8]


# -- discrete norms ------------------------------------------------------


def triple_bar_norm(ops, v):
    """Energy norm of a discrete velocity, accumulated at quadrature points.

    Squares the weak gradient over each cell and the scaled trace jumps
    over each cell side; equals sqrt(v' A v) up to rounding.
    """
    cells, edges = ops.cell_quadrature, ops.edge_quadrature
    nlow = ops.dofmap.dim_cell_low
    grad = np.einsum("pr,pijr->pij", cells.values[:, :nlow], ops.weak_gradient(v)[cells.cell])
    jump = np.einsum("qb,hib->hqi", edges.values, ops.trace_jump(v))
    mesh = ops.mesh
    weights = edges.weights[mesh.side_edge] / mesh.diameters[mesh.side_cell][:, None]
    total = cells.weights @ (grad**2).sum(axis=(1, 2)) + np.sum(weights * (jump**2).sum(axis=2))
    return float(np.sqrt(max(total, 0.0)))


def weak_divergence_norm(ops, v):
    """L2 norm of the weak divergence over the whole mesh."""
    return _mass_norm(ops.weak_divergence(v), ops.mass_low)


def velocity_interior_norm(ops, v):
    """L2 norm of the interior (cellwise) part of a discrete velocity."""
    return _mass_norm(v.v0, ops.mass)


def pressure_norm(ops, p):
    return _mass_norm(p.cellwise, ops.mass_low)


def _mass_norm(coeffs, mass):
    """sqrt of the sum over cells of c' M c, for coeffs (n_cells, [d,] n)."""
    c = coeffs.reshape(len(coeffs), -1, mass.shape[-1])
    return _root(np.einsum("cir,crs,cis->", c, mass, c))


def _root(total):
    return float(np.sqrt(max(total, 0.0)))


def _l2_error(ops, exact, coeffs):
    """L2 distance between a field and cellwise polynomials.

    exact maps (n, 2) points to (n, ...) values; coeffs (n_cells, ..., dim)
    holds the polynomial coefficients of each cell.  The approximation is
    subtracted from a copy of the field one basis column at a time, through
    one reused (n, ...) buffer.
    """
    table = ops.cell_data
    diff = np.array(exact(table.points), dtype=float).reshape(len(table.cell), -1)
    columns = np.moveaxis(coeffs.reshape(len(coeffs), diff.shape[1], -1), -1, 0)
    term = np.empty_like(diff)
    for r, column in enumerate(columns):
        np.take(column, table.cell, axis=0, out=term, mode="clip")  # "clip": unbuffered
        diff -= np.multiply(term, table.values[:, r, None], out=term)
    return _root(np.einsum("p,pi,pi->", table.weights, diff, diff))


def velocity_interior_error(ops, v, u):
    """L2 distance between an exact velocity and the interior part of v."""
    return _l2_error(ops, u, v.v0)


def pressure_error(ops, p_h, p):
    """L2 distance between an exact pressure and a discrete one."""
    return _l2_error(ops, p, p_h.cellwise)


# -- error bundles -------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class ErrorBundle:
    """The five error measures reported per refinement level.

    triple_bar compares the solution with the projected exact velocity in
    the energy norm; vel_l2_proj does the same in L2 (interior part only);
    vel_l2_true and pres_l2_true measure against the exact fields directly.
    """

    triple_bar: float
    vel_l2_proj: float
    vel_l2_true: float
    pres_l2: float
    pres_l2_true: float

    def as_dict(self):
        return dataclasses.asdict(self)


def error_bundle(ops, case, velocity, pressure):
    """Measure a discrete solution against a manufactured case.

    A field's projection and its true error read it at the same data
    points, so u and p are evaluated there once each, one after the other.
    """
    u = _at_data_points(ops, case.u)
    qu, vel_l2_true = project_velocity(ops, u), velocity_interior_error(ops, velocity, u)
    p = _at_data_points(ops, case.p)
    qp, pres_l2_true = project_pressure(ops, p), pressure_error(ops, pressure, p)
    return ErrorBundle(
        triple_bar=triple_bar_norm(ops, qu - velocity),
        vel_l2_proj=velocity_interior_norm(ops, qu - velocity),
        vel_l2_true=vel_l2_true,
        pres_l2=pressure_norm(ops, qp - pressure),
        pres_l2_true=pres_l2_true,
    )


def _at_data_points(ops, field):
    """field, evaluated once at the cell data points: calls there return that result."""
    points = ops.cell_data.points
    values = field(points)
    return lambda x: values if x is points else field(x)


def projection_errors(ops, case):
    """Approximation quality of the projections alone (no solve).

    Returns L2 errors of the interior velocity projection, the pressure
    projection, and the gradient projection; these decay at one order
    higher than, equal to, and equal to the energy-norm rate.  As in
    `error_bundle`, each field is evaluated once at the cell data points.
    """
    u = _at_data_points(ops, case.u)
    velocity = velocity_interior_error(ops, project_velocity(ops, u), u)
    p = _at_data_points(ops, case.p)
    pressure = pressure_error(ops, project_pressure(ops, p), p)
    grad_u = _at_data_points(ops, case.grad_u)
    gradient = _l2_error(ops, grad_u, project_gradient(ops, grad_u))
    return {"velocity": velocity, "pressure": pressure, "gradient": gradient}


# -- inf-sup stability ---------------------------------------------------


def discrete_inf_sup(system, factor=None):
    """Discrete inf-sup constant of the assembled saddle system.

    beta_h² is the smallest eigenvalue of S_p q = lam M_p q over zero-mean
    pressures, S_p = B_f A_ff⁻¹ B_fᵀ, M_p the pressure mass.  Solving the
    pinned SaddleFactor (``factor`` from `solve`, else a new condensed
    one: same result) with right-hand side [0; -r] gives p = T r, and
    T S_p q = q - q_0 c for the constant pressure c.  With M_p = R Rᵀ and
    z = Rᵀc / |Rᵀc|, Op = (I - zzᵀ) Rᵀ T R (I - zzᵀ) is symmetric, zero on
    z and has eigenvalue 1/lam for every other eigenpair, so
    beta_h = 1/sqrt(mu_max); Lanczos iteration (ARPACK) from a fixed start
    vector finds mu_max.
    """
    ops, n_p = system.ops, system.num_pressure_dofs
    if n_p < 2:
        raise ConfigurationError(
            f"the mesh has {n_p} pressure DOF and no nonzero zero-mean pressure; "
            "the inf-sup constant needs at least 2"
        )
    if factor is None:
        factor = factorize(system)
    R = block_diagonal(np.linalg.cholesky(ops.mass_low))
    z = R.T @ ops.dofmap.constant_pressure()
    z /= np.linalg.norm(z)

    def apply(y):
        y = y - z * (z @ y)
        x = R.T @ factor.pressure(-(R @ y))
        return x - z * (z @ x)

    op = LinearOperator((n_p, n_p), matvec=apply, dtype=float)
    v0 = np.random.default_rng(0).standard_normal(n_p)
    try:
        mu = eigsh(op, k=1, which="LA", v0=v0, tol=INF_SUP_TOL, return_eigenvectors=False)
    except ArpackNoConvergence as err:
        raise SolverError(
            f"inf-sup eigensolve did not converge on {n_p} pressure DOFs: {err}"
        ) from err
    return float(1.0 / np.sqrt(mu[0]))


# -- consistency functionals ----------------------------------------------


def consistency_functionals(ops, case):
    """The three boundary functionals appearing in the discrete error equation.

    Each is returned as a vector over all velocity DOFs.  "gradient"
    pairs the trace mismatch of a test field with the projection residual
    of the exact velocity gradient; "pressure" does the same with the
    pressure residual; "stabilizer" is the jump form against the projected
    exact velocity.  "total" = gradient - pressure + stabilizer, the
    right-hand side of the error equation.
    """
    gproj = project_gradient(ops, case.grad_u)
    pproj = project_pressure(ops, case.p).cellwise
    jump = ops.trace_jump(project_velocity(ops, case.u))

    cells, edges, normals = ops.mesh.side_cell, ops.mesh.side_edge, ops.mesh.side_normal
    table = ops.edge_data
    pts = table.points[edges]  # (n_sides, q, 2)
    flat = pts.reshape(-1, 2)
    kvals = ops.basis_values(pts, cells[:, None])  # (n_sides, q, dim_cell)
    lowvals = kvals[..., : ops.dofmap.dim_cell_low]
    grad_res = np.asarray(case.grad_u(flat), dtype=float).reshape(pts.shape + (2,))
    grad_res -= np.einsum("hqr,hijr->hqij", lowvals, gproj[cells])
    pres_res = np.asarray(case.p(flat), dtype=float).reshape(pts.shape[:2])
    pres_res -= np.einsum("hqr,hr->hq", lowvals, pproj[cells])
    wts = table.weights[edges][..., None]

    def edge_integrals(res):
        """Pair (n_sides, q, 2) weighted values with P_k traces and, negated, edge bases."""
        return _side_functional(
            ops,
            np.einsum("hqa,hqi->hia", kvals, res),
            -np.einsum("qb,hqi->hib", table.values, res),
        )

    ell = edge_integrals(wts * np.einsum("hqij,hj->hqi", grad_res, normals))
    theta = edge_integrals(wts * pres_res[..., None] * normals[:, None, :])
    mjump = np.einsum("hib,hcb->hic", jump, ops.edge_mass[edges])
    mjump /= ops.mesh.diameters[cells][:, None, None]
    stab = _side_functional(ops, np.einsum("hba,hib->hia", ops.trace, mjump), -mjump)
    return {
        "gradient": ell,
        "pressure": theta,
        "stabilizer": stab,
        "total": ell - theta + stab,
    }


def _side_functional(ops, interior, edge):
    """Velocity-DOF vector from per-side interior (n_sides, 2, dim_cell) and
    edge (n_sides, 2, dim_edge) contributions."""
    vb = np.zeros((ops.mesh.num_edges,) + edge.shape[1:])
    np.add.at(vb, ops.mesh.side_edge, edge)
    return np.concatenate([ops.per_cell(interior).ravel(), vb.ravel()])


def dual_norms(system, vectors):
    """Dual energy norms of functionals over the homogeneous test space.

    For each vector L the value is sup over v of L(v)/|||v|||, realized as
    sqrt(L' A_ff^{-1} L) on the free DOFs.  One factorization serves all;
    A_ff is SPD, so a symmetric order with diagonal pivots is safe.
    """
    free = system.free
    lu = splu(
        system.A[free][:, free].tocsc(),
        permc_spec="MMD_AT_PLUS_A",
        diag_pivot_thresh=0.0,
        options=dict(SymmetricMode=True),
    )
    return {name: _root(vec[free] @ lu.solve(vec[free])) for name, vec in vectors.items()}


def verify_error_equation(system, case, report):
    """Residuals of the discrete error equation for a computed solution.

    The momentum identity pairs the projected-minus-computed errors with
    50 seeded random homogeneous test fields; the returned worst value is
    relative to the test field's energy norm (evaluated as the A quadratic
    form, which the energy-identity check guarantees matches the norm).  The
    mass identity is checked against every pressure test function at once
    via the dual norm of the weak divergence moments of the velocity error.
    """
    ops = system.ops
    qu = project_velocity(ops, case.u)
    qp = project_pressure(ops, case.p)
    e_vec = qu.coeffs - report.velocity.coeffs
    eps_vec = qp.coeffs - report.pressure.coeffs
    phi = consistency_functionals(ops, case)["total"]
    residual = system.A @ e_vec - system.B.T @ eps_vec - phi

    free = system.free
    A_ff = system.A[free][:, free]
    tests = np.random.default_rng(0).standard_normal((len(free), 50))
    energies = np.sqrt(np.einsum("if,if->f", tests, A_ff @ tests))
    worst = float(np.max(np.abs(residual[free] @ tests) / energies))

    moments = (system.B @ e_vec).reshape(ops.mesh.num_cells, -1)
    mass = np.sum(moments * ops.solve_cell_mass(moments, degree=ops.degree - 1))
    return worst, _root(mass)


# -- convergence rates -----------------------------------------------------


def fit_rate(hs, values, window=3):
    """Least-squares slope of log(error) vs log(h) over the finest levels.

    Uses the last min(window, len) levels; returns None when fewer than
    two usable (positive) values remain.
    """
    hs = np.asarray(hs, dtype=float)
    vals = np.asarray(values, dtype=float)
    n = min(window, len(hs))
    h, v = hs[-n:], vals[-n:]
    keep = v > 0
    if keep.sum() < 2:
        return None
    return float(np.polyfit(np.log(h[keep]), np.log(v[keep]), 1)[0])


def rate_label(hs, values):
    """Rate column entry: a fitted slope, "exact", or blank."""
    vals = np.asarray(values, dtype=float)
    if len(vals) and np.all(vals <= EXACT_TOL):
        return "exact"
    rate = fit_rate(hs, values)
    return "" if rate is None else f"{rate:.3f}"


# -- study records ---------------------------------------------------------


class ConvergenceRecord:
    """Per-level error rows of one convergence study, with CSV output."""

    def __init__(self):
        self.rows = []

    def add(self, level, h, cells, errors, beta_h=None):
        row = {"level": int(level), "h": float(h), "cells": int(cells), "beta_h": beta_h}
        row.update(errors.as_dict())
        self.rows.append(row)

    @property
    def hs(self):
        return [row["h"] for row in self.rows]

    def column(self, name):
        return [row[name] for row in self.rows]

    def rates(self):
        """Rate label for each error column."""
        return {name: rate_label(self.hs, self.column(name)) for name in ERROR_COLUMNS}

    def write_csv(self, path):
        """Write the per-level table plus a trailing rates row.

        Floats are written with repr so identical runs produce identical
        bytes.
        """
        rates = self.rates()
        with open(path, "w", newline="") as f:
            writer = csv.writer(f, lineterminator="\n")
            writer.writerow(CSV_COLUMNS)
            for row in self.rows:
                beta = "" if row["beta_h"] is None else repr(float(row["beta_h"]))
                writer.writerow(
                    [row["level"], repr(row["h"]), row["cells"]]
                    + [repr(float(row[name])) for name in ERROR_COLUMNS]
                    + [beta]
                )
            writer.writerow(["rates", "", ""] + [rates[name] for name in ERROR_COLUMNS] + [""])

    def format_table(self):
        """Human-readable fixed-width table for terminal output."""
        header = f"{'level':>5} {'h':>10} {'cells':>7}" + "".join(
            f"{name:>14}" for name in ERROR_COLUMNS
        ) + f"{'beta_h':>10}"
        lines = [header]
        for row in self.rows:
            beta = "" if row["beta_h"] is None else f"{row['beta_h']:.4f}"
            lines.append(
                f"{row['level']:>5} {row['h']:>10.4e} {row['cells']:>7}"
                + "".join(f"{row[name]:>14.4e}" for name in ERROR_COLUMNS)
                + f"{beta:>10}"
            )
        rates = self.rates()
        lines.append(
            f"{'rates':>5} {'':>10} {'':>7}"
            + "".join(f"{rates[name]:>14}" for name in ERROR_COLUMNS)
            + f"{'':>10}"
        )
        return "\n".join(lines)
