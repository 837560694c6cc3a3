"""The paper's lemma checks: the discrete error equation, its consistency
functionals and their dual norms, the projections' approximation errors,
the weak divergence of a computed velocity, the divergence form, and the
two parts of the energy form a(v, v): the weak-gradient part and the jump
stabilizer, each summed from the paper's operators on its own.

No `wgstokes` command needs these to solve Stokes; the tests use them as
oracles.  They read a level's `project_case` record for Q_h u and Q_h p,
and use two private `src/` helpers: `assembly._side_mass` (the
stabilizer's side weights) and `analysis._project_data` (a cellwise
projection and its residual, through `conftest.project`).  The two energy
parts, the divergence form and the weak-divergence norm read the weak
gradient and the trace jumps of `conftest.weak_operators_at_points`, which
evaluates them at quadrature points of its own, never the `ElementOps`
stacks or the assembled A and B, so the tests can check A and B against them.
"""

import numpy as np
from scipy.sparse.linalg import splu

from conftest import project, weak_operators_at_points
from wgstokes.analysis import _project_data, project_case
from wgstokes.assembly import _side_mass


def _root(total):
    return float(np.sqrt(max(total, 0.0)))


def gradient_energy(ops, v):
    """(grad_w v, grad_w v) summed over the cells: the gradient part of |||v|||²."""
    grad, mass, _, _ = weak_operators_at_points(ops, v)
    return float(np.einsum("cijr,crs,cijs->", grad, mass, grad))


def stabilizer_energy(ops, v):
    """s(v, v) = sum over cell sides of h_T⁻¹ |P_e v0 - vb|²: the stabilizer part of |||v|||²."""
    _, _, jump, moments = weak_operators_at_points(ops, v)
    return float(np.sum(np.einsum("hib,hib->h", jump, moments) / ops.mesh.diameters[ops.mesh.side_cell]))


def _weak_divergence(ops, v):
    """The weak divergence's P_{k-1} coefficients (n_cells, dim_cell_low), with its cell masses."""
    grad, mass, _, _ = weak_operators_at_points(ops, v)
    return np.einsum("ciir->cr", grad), mass


def eval_b(ops, v, q):
    """Divergence form: (weak div of v, q) over all cells."""
    div, mass = _weak_divergence(ops, v)
    return float(np.einsum("cr,crs,cs->", q.cellwise, mass, div))


def weak_divergence_norm(ops, v):
    """L2 norm of the weak divergence over the whole mesh."""
    div, mass = _weak_divergence(ops, v)
    return _root(np.einsum("cr,crs,cs->", div, mass, div))


def projection_errors(ops, case):
    """Approximation quality of the projections alone (no solve).

    Returns L2 errors of the interior velocity projection, the pressure
    projection, and the gradient projection; these decay at one order
    higher than, equal to, and equal to the energy-norm rate.  The first
    two are `project_case`'s residuals.  Each field is read once.
    """
    proj = project_case(ops, case)
    _, gradient = _project_data(ops, case.grad_u(ops.cell_data.points), ops.degree - 1)
    return dict(velocity=proj.velocity_residual, pressure=proj.pressure_residual, gradient=gradient)


def consistency_functionals(ops, case, projection):
    """The three boundary functionals appearing in the discrete error equation.

    Each is returned as a vector over all velocity DOFs.  "gradient"
    pairs the trace mismatch of a test field with the projection residual
    of the exact velocity gradient; "pressure" does the same with the
    pressure residual; "stabilizer" is the jump form against the projected
    exact velocity.  "total" = gradient - pressure + stabilizer, the
    right-hand side of the error equation.  Q_h u and Q_h p come from
    ``projection``, the `project_case` record of ``case`` on ``ops``.
    """
    gproj = project(ops, case.grad_u, ops.degree - 1)
    pproj, u = projection.pressure.cellwise, projection.velocity
    cells, edges, normals = ops.mesh.side_cell, ops.mesh.side_edge, ops.mesh.side_normal
    jump = np.einsum("hba,hia->hib", ops.trace, u.v0[cells]) - u.vb[edges]  # P_e u0 - ub
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
    mjump = np.einsum("hib,hcb->hic", jump, _side_mass(ops))
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


def verify_error_equation(system, case, projection, report):
    """Residuals of the discrete error equation for a computed solution.

    The momentum identity pairs the projected-minus-computed errors with
    50 seeded random homogeneous test fields; the returned worst value is
    relative to the test field's energy norm (evaluated as the A quadratic
    form, which the energy-identity check guarantees matches the norm).  The
    mass identity is checked against every pressure test function at once
    via the dual norm of the weak divergence moments of the velocity error.
    ``projection`` is the level's `project_case` record of ``case``.
    """
    ops = system.ops
    e_vec = projection.velocity.coeffs - report.velocity.coeffs
    eps_vec = projection.pressure.coeffs - report.pressure.coeffs
    phi = consistency_functionals(ops, case, projection)["total"]
    residual = system.A @ e_vec - system.B.T @ eps_vec - phi

    free = system.free
    A_ff = system.A[free][:, free]
    tests = np.random.default_rng(0).standard_normal((len(free), 50))
    energies = np.sqrt(np.einsum("if,if->f", tests, A_ff @ tests))
    worst = float(np.max(np.abs(residual[free] @ tests) / energies))

    moments = (system.B @ e_vec).reshape(ops.mesh.num_cells, -1)
    mass = np.sum(moments * ops.solve_cell_mass(moments, degree=ops.degree - 1))
    return worst, _root(mass)
