"""Error measurement, convergence rates, and discrete stability checks.

The energy norm of an error e is sqrt(e'Ae) on the level's A, the sum of
the cell matrices that its solve condenses; the tests check A against a
reference that evaluates the weak gradient and the edge jumps at quadrature
points of its own.

Conventions: `project_case` reads the exact fields, before the solve, on the
data rules of ElementOps (one exactness for every field); errors between
two discrete fields use the cell mass matrices, which are exact.
The inf-sup constant, by contrast, is algebraic: a Lanczos eigensolve on
the pressure operator of the level's solve, which applies its factor.
"""

import csv
import dataclasses
import math

import numpy as np
from scipy.linalg.lapack import dstebz, dstein

from .errors import ConfigurationError, SolverError
from .solver import factorize, lanczos
from .spaces import PressureFunction, WeakFunction

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


def _mass_norm(coeffs, mass):
    """sqrt of the sum over cells of c' M c, for coeffs (n_cells, [d,] n)."""
    c = coeffs.reshape(len(coeffs), -1, mass.shape[-1])
    return _root(np.einsum("cir,crs,cis->", c, mass, c))


def _root(total):
    return float(np.sqrt(max(total, 0.0)))


def _project_data(ops, values, degree):
    """Cellwise P_degree projection of a field's values (n, ...) at the cell data
    points, and the L2 norm of what it misses: (coeffs, residual).  The
    projection comes off a copy of the values one basis column at a time."""
    table = ops.cell_data
    coeffs = ops.solve_cell_mass(ops.cell_moments(values, degree), degree)
    diff = np.array(values, dtype=float).reshape(len(table.cell), -1)
    columns = np.moveaxis(coeffs.reshape(len(coeffs), diff.shape[1], -1), -1, 0)
    term = np.empty_like(diff)
    for r, column in enumerate(columns):
        np.take(column, table.cell, axis=0, out=term, mode="clip")  # "clip": unbuffered
        diff -= np.multiply(term, table.values[:, r, None], out=term)
    return coeffs, _root(np.einsum("p,pi,pi->", table.weights, diff, diff))


# -- error bundles -------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class CaseProjection:
    """The exact side of a level's errors, measured before its solve: the
    projections {Q0 u, Qb u} and Q_h p of a case's fields, and the L2 norms of
    what they miss, ||u - Q0 u|| and ||p - Q_h p||, on the cell data rule."""

    velocity: WeakFunction
    pressure: PressureFunction
    velocity_residual: float
    pressure_residual: float


def project_case(ops, case):
    """Project a case's velocity and pressure on the data table that `assemble`
    built, evaluating u and p there once each, one after the other."""
    points = ops.cell_data.points
    velocity = WeakFunction.zeros(ops.dofmap)
    velocity.v0[:], velocity_residual = _project_data(ops, case.u(points), ops.degree)
    velocity.vb[:] = ops.solve_edge_mass(ops.edge_moments(case.u))
    pressure, pressure_residual = _project_data(ops, case.p(points), ops.degree - 1)
    pressure = PressureFunction(ops.dofmap, pressure.ravel())
    return CaseProjection(velocity, pressure, velocity_residual, pressure_residual)


@dataclasses.dataclass(frozen=True)
class ErrorBundle:
    """The five error measures reported per refinement level.

    triple_bar compares the solution with the projected exact velocity in
    the energy norm; vel_l2_proj does the same in L2 (interior part only);
    vel_l2_true and pres_l2_true measure against the exact fields.  As
    u - Q0 u is orthogonal to cellwise P_k and p - Q_h p to cellwise P_{k-1},
    ||u - v0||² = ||u - Q0 u||² + ||Q0 u - v0||² and likewise for p.  On the
    data rule this holds to rounding: the rule integrates the masses exactly,
    so in its own arithmetic the projections leave orthogonal residuals.
    """

    triple_bar: float
    vel_l2_proj: float
    vel_l2_true: float
    pres_l2: float
    pres_l2_true: float

    def as_dict(self):
        return dataclasses.asdict(self)


def error_bundle(system, projection, velocity, pressure):
    """Errors of a discrete solution against a `project_case` record: the
    energy norm on the level's assembled A, the L2 norms by the masses."""
    ops, error = system.ops, projection.velocity - velocity
    vel_l2_proj = _mass_norm(error.v0, ops.mass)  # the interior part only
    pres_l2 = _mass_norm((projection.pressure - pressure).cellwise, ops.mass_low)
    return ErrorBundle(
        triple_bar=_root(error.coeffs @ (system.A @ error.coeffs)),
        vel_l2_proj=vel_l2_proj,
        vel_l2_true=math.hypot(projection.velocity_residual, vel_l2_proj),
        pres_l2=pres_l2,
        pres_l2_true=math.hypot(projection.pressure_residual, pres_l2),
    )


# -- inf-sup stability ---------------------------------------------------


def discrete_inf_sup(system, factor=None):
    """Discrete inf-sup constant of the assembled saddle system.

    beta_h² is the smallest eigenvalue of S_p q = lam M_p q over zero-mean
    pressures, S_p = B_f A_ff⁻¹ B_fᵀ, M_p the pressure mass: of the operator
    that the pressure's Lanczos applies (the solve's ``factor``, or a new
    one when it is None: same result).  Lanczos from a fixed seeded start,
    the constant projected out, stops when the smallest Ritz value θ has
    |β_j s_j| <= INF_SUP_TOL·θ.  A start in the solve's Krylov space would
    miss modes that a symmetric right-hand side leaves out.
    """
    n_p = system.num_pressure_dofs
    if n_p < 2:
        raise ConfigurationError(
            f"the mesh has {n_p} pressure DOF and no nonzero zero-mean pressure; "
            "the inf-sup constant needs at least 2"
        )
    factor = factor or factorize(system)
    start, z = np.random.default_rng(0).standard_normal(n_p), factor.z

    def converged(alpha, beta):  # the smallest Ritz value θ, by its residual bound
        if len(alpha) == 1:  # f2py takes no empty off-diagonal: θ = α₁, s = 1
            return beta[0] <= INF_SUP_TOL * alpha[0]
        _, theta, block, split, info = dstebz(alpha, beta[:-1], 2, 0.0, 1.0, 1, 1, 0.0, "B")  # θ by bisection
        s, failed = dstein(alpha, beta[:-1], theta[:1], block, split)  # its vector by inverse iteration
        if info or failed:
            raise SolverError(f"LAPACK stebz/stein failed (info {info}, {failed}) at Lanczos step {len(alpha)}")
        return beta[-1] * abs(s[-1, 0]) <= INF_SUP_TOL * theta[0]

    _, T = lanczos(factor.operator, start - z * (z @ start), converged, z)
    return float(np.sqrt(np.linalg.eigvalsh(T)[0]))


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
