"""Full and condensed direct solves against closed-form solutions and a plain-scipy oracle."""

import json
import platform

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal
from scipy.sparse.linalg import LinearOperator, eigsh, splu

from conftest import full_solve, project
from wgstokes import analysis, solver
from wgstokes.analysis import INF_SUP_TOL, discrete_inf_sup
from wgstokes.assembly import assemble
from wgstokes.cases import get_case
from wgstokes.errors import SolverError
from wgstokes.mesh import generate_mesh
from wgstokes.solver import PRESSURE_TOL, factorize, solve
from wgstokes.weakops import ElementOps


@pytest.fixture(scope="module")
def system_quad_k1(ops_quad_k1):
    return assemble(ops_quad_k1)


def test_zero_data_zero_solution(system_quad_k1):
    report = solve(system_quad_k1)
    assert np.allclose(report.velocity.coeffs, 0.0, atol=1e-13)
    assert np.allclose(report.pressure.coeffs, 0.0, atol=1e-13)
    assert abs(system_quad_k1.pressure_moments @ report.pressure.coeffs) <= 1e-13
    assert np.linalg.norm(system_quad_k1.B @ report.velocity.coeffs) <= 1e-10


def test_constant_boundary_data_reproduced(ops_quad_k1):
    """Rigid translation: u = (a, b) everywhere, zero pressure."""
    ops = ops_quad_k1
    g = lambda pts: np.tile([0.7, -0.3], (len(pts), 1))
    system = assemble(ops, boundary_velocity=g)
    report = solve(system)
    exact = project(ops, g)
    assert np.abs(report.velocity.coeffs - exact.coeffs).max() <= 1e-10
    assert np.abs(report.pressure.coeffs).max() <= 1e-10


@pytest.mark.parametrize(
    "case_name, degree",
    [("poly-exact-k1", 1), ("poly-exact-k2", 2)],
)
@pytest.mark.parametrize("family", ["uniform-quad", "perturbed-polygon"])
def test_polynomial_solutions_reproduced(case_name, degree, family):
    """Velocity in [P_k]^2 with pressure in P_{k-1} is solved exactly."""
    case = get_case(case_name)
    ops = ElementOps(generate_mesh(family, 4, seed=2), degree)
    system = assemble(ops, body_force=case.f, boundary_velocity=case.g)
    report = solve(system)
    u_exact = project(ops, case.u)
    p_exact = project(ops, case.p, degree - 1)
    u_scale = max(np.abs(u_exact.coeffs).max(), 1.0)
    assert np.abs(report.velocity.coeffs - u_exact.coeffs).max() <= 1e-9 * u_scale
    assert np.abs(report.pressure.cellwise - p_exact).max() <= 1e-9


def test_pressure_gauge_and_mass_rows(ops_quad_k2):
    case = get_case("taylor-trig")
    system = assemble(ops_quad_k2, body_force=case.f, boundary_velocity=case.g)
    report = solve(system)
    assert abs(system.pressure_moments @ report.pressure.coeffs) <= 1e-12
    # every mass row holds, the pinned pressure DOF's included
    assert np.linalg.norm(system.B @ report.velocity.coeffs) <= 1e-10


@pytest.mark.parametrize(
    "family, degree, n, seed",
    [
        pytest.param("uniform-quad", 1, 4, 0, id="uniform-quad-k1"),
        pytest.param("perturbed-polygon", 2, 4, 1, id="perturbed-polygon-k2"),
        pytest.param("hexagonal", 2, 4, 0, id="hexagonal-k2"),
        pytest.param("uniform-quad", 3, 4, 0, id="uniform-quad-k3"),
        # LU rounding in the full path reached 4e-9 here before the
        # refinement step in the pinned solve
        pytest.param("perturbed-polygon", 2, 32, 1, id="perturbed-polygon-k2-n32"),
    ]
    + [
        pytest.param(family, degree, 4, 1, id=f"{family}-k{degree}")
        for family, degree in [
            ("uniform-triangle", 1),
            ("uniform-triangle", 2),
            ("uniform-triangle", 3),
            ("uniform-quad", 2),
            ("perturbed-polygon", 1),
            ("perturbed-polygon", 3),
            ("hexagonal", 1),
            ("hexagonal", 3),
        ]
    ]
    + [pytest.param("hostile", degree, None, None, id=f"hostile-k{degree}") for degree in (1, 2, 3)],
)
def test_condensed_solve_matches_full(family, degree, n, seed, request):
    """Both solver paths agree with the plain-scipy full solve, here with
    nonzero Dirichlet data, on every mesh family and degree and on the
    nonconvex cell with a hanging node."""
    case = get_case("taylor-trig")
    if family == "hostile":
        mesh = request.getfixturevalue("hostile_mesh")
    else:
        mesh = generate_mesh(family, n, seed=seed)
    system = assemble(ElementOps(mesh, degree), body_force=case.f, boundary_velocity=case.g)
    assert np.abs(system.fixed_values).max() > 0.1
    u, p = full_solve(system)
    full = solve(system, condense=False)
    red = solve(system)
    for report in (full, red):
        assert np.abs(report.velocity.coeffs - u).max() <= 1e-9
        assert np.abs(report.pressure.coeffs - p).max() <= 1e-9
    assert red.condensed and not full.condensed


def _corrupt_cell(system, cell, field, change):
    """Apply ``change`` to the ``field`` (a or b) of one cell in the system's cell batches."""
    for batch in system._cells:
        if cell in batch.cells:
            values = np.array(getattr(batch, field))
            change(values[np.flatnonzero(batch.cells == cell)[0]])
            setattr(batch, field, values)


def test_condensed_solve_names_indefinite_cell(ops_quad_k1):
    case = get_case("taylor-trig")
    system = assemble(ops_quad_k1, body_force=case.f, boundary_velocity=case.g)
    interior = np.arange(ops_quad_k1.dofmap.dim_cell)

    def negate(a):  # the interior diagonal of both components' (one) block
        a[:, interior, interior] = -np.abs(a[:, interior, interior])

    _corrupt_cell(system, 5, "a", negate)
    with pytest.raises(SolverError, match=r"interior block of cell 5 "):
        solve(system)


def _drop_pressure_rows(b):
    """Zero a cell's divergence rows of its non-constant pressures."""
    b[1:] = 0.0


def test_condensed_solve_names_singular_pressure_cell(ops_quad_k2):
    """Without divergence rows a cell's non-constant pressures have a zero block:
    the interior velocities no longer control them."""
    system = assemble(ops_quad_k2)
    _corrupt_cell(system, 6, "b", _drop_pressure_rows)
    with pytest.raises(SolverError, match=r"pressure block of cell 6 is not negative definite "):
        solve(system)


def test_full_solve_raises_typed_on_singular_matrix(ops_quad_k2):
    """The same corruption leaves the whole saddle matrix with zero rows and
    columns; the full path's sparse LU fails, as a SolverError."""
    system = assemble(ops_quad_k2)
    _corrupt_cell(system, 6, "b", _drop_pressure_rows)
    with pytest.raises(SolverError, match="sparse factorization failed"):
        solve(system, condense=False)


@pytest.mark.parametrize("condense", [True, False])
def test_pinned_pressure_is_left_out(ops_quad_k2, condense, splu_calls):
    """The full path factors the free saddle matrix less pressure 0's row and
    column, and still returns a zero-mean pressure.  The condensed factor pins
    nothing: its pressure has zero mean, and it never reads the part of rhs_p
    along the pressure moments, which only the mean would meet."""
    if not condense:
        case = get_case("taylor-trig")
        system = assemble(ops_quad_k2, body_force=case.f, boundary_velocity=case.g)
        report = solve(system, condense=False)
        n = len(system.free) + system.num_pressure_dofs
        assert splu_calls == [(n - 1, n - 1)] and report.num_reduced == n
        p = report.pressure.coeffs
        assert np.abs(p).max() > 0 and abs(system.pressure_moments @ p) <= 1e-13 * np.abs(p).max()
        return
    system = assemble(ops_quad_k2)
    factor = factorize(system)
    rng = np.random.default_rng(0)
    rhs_u, rhs_p = rng.standard_normal(system.num_velocity_dofs), rng.standard_normal(system.num_pressure_dofs)
    u, p = factor.solve(rhs_u, rhs_p)
    assert not u[system.fixed_mask].any() and np.abs(p).max() > 0
    assert abs(system.pressure_moments @ p) <= 1e-13 * np.abs(p).max()
    u2, p2 = factor.solve(rhs_u, rhs_p + system.pressure_moments)
    assert np.allclose(u, u2, rtol=0, atol=1e-12) and np.allclose(p, p2, rtol=0, atol=1e-12)


@pytest.mark.parametrize("degree", [1, 2])
@pytest.mark.parametrize("condense", [True, False])
def test_pressure_alone_matches_solve(degree, condense):
    """The pressure Schur complement S_p = B_f A_ff⁻¹ B_fᵀ of the global matrices
    is what each path's pressure meets: the condensed factor's Lanczos operator,
    which never substitutes for the interior velocities, is R⁻¹ S_p R⁻ᵀ
    (M_p = R Rᵀ), and the full path's pressure solves, on every row,
    S_p p = -rhs_p - B_f A_ff⁻¹ rhs_u, the velocity eliminated."""
    case = get_case("taylor-trig")
    ops = ElementOps(generate_mesh("perturbed-polygon", 4), degree)
    system = assemble(ops, body_force=case.f, boundary_velocity=case.g)
    free, B = system.free, system.B.toarray()
    A_ff, B_f = system.A[free][:, free].toarray(), B[:, free]
    S_p = B_f @ np.linalg.solve(A_ff, B_f.T)
    if condense:
        R = np.linalg.cholesky(system.pressure_mass().toarray())
        y = np.random.default_rng(1).standard_normal(system.num_pressure_dofs)
        expected = np.linalg.solve(R, S_p @ np.linalg.solve(R.T, y))
        assert np.abs(factorize(system).operator(y) - expected).max() <= 1e-12 * np.abs(expected).max()
        return
    u = system.fixed_values
    rhs_u, rhs_p = system.load[free] - (system.A @ u)[free], B @ u
    expected = -rhs_p - B_f @ np.linalg.solve(A_ff, rhs_u)
    p = solve(system, condense=False).pressure.coeffs
    assert np.abs(expected).max() > 0
    assert np.abs(S_p @ p - expected).max() <= 1e-10 * np.abs(expected).max()


def test_lanczos_cap_is_typed(monkeypatch):
    """A pressure solve that reaches the Lanczos cap raises SolverError with the
    step count and the pressure DOF count."""
    case = get_case("taylor-trig")
    system = assemble(ElementOps(generate_mesh("uniform-quad", 4), 2), body_force=case.f, boundary_velocity=case.g)
    monkeypatch.setattr(solver, "LANCZOS_CAP", 3)
    with pytest.raises(SolverError, match=f"cap of 3 steps on {system.num_pressure_dofs} pressure DOFs"):
        solve(system)


def _dense_pressure_stop(alpha, beta):
    """The pressure's stop test on the dense T: β_j |(T⁻¹e₁)_j| by np.linalg.solve."""
    T = np.diag(alpha) + np.diag(beta[:-1], 1) + np.diag(beta[:-1], -1)
    return beta[-1] * abs(np.linalg.solve(T, np.eye(len(T))[0])[-1]) <= PRESSURE_TOL


def _dense_inf_sup_stop(alpha, beta):
    """beta_h's stop test with θ and its vector s from eigh_tridiagonal."""
    theta, s = eigh_tridiagonal(alpha, beta[:-1], select="i", select_range=(0, 0))
    return beta[-1] * abs(s[-1, 0]) <= INF_SUP_TOL * theta[0]


@pytest.mark.parametrize(
    "ops", [pytest.param("ops_poly_k2", id="ops_poly_k2"), pytest.param(("hexagonal", 8), id="hexagonal-k2-n8")]
)
def test_lanczos_stops_where_the_dense_tests_stop(ops, request, monkeypatch):
    """The stop tests on the running (α, β), CG's pivot recurrence for the
    pressure and LAPACK's stebz/stein for beta_h, stop Lanczos at the step of
    the dense tests on T, with a bitwise-equal T: from the pressure's start
    and from beta_h's seeded one, on the same factor's operator."""
    ops = request.getfixturevalue(ops) if isinstance(ops, str) else ElementOps(generate_mesh(*ops), 2)
    case = get_case("taylor-trig")
    system = assemble(ops, body_force=case.f, boundary_velocity=case.g)
    lanczos, calls = solver.lanczos, []

    def recorded(*args):
        vectors, T = lanczos(*args)
        calls.append((args, T))
        return vectors, T

    monkeypatch.setattr(solver, "lanczos", recorded)
    monkeypatch.setattr(analysis, "lanczos", recorded)
    report = solve(system)
    discrete_inf_sup(system, report.factor)
    assert len(calls) == 2 and len(calls[0][1]) == report.lanczos_steps
    for ((apply, start, _, lock), T), dense in zip(calls, [_dense_pressure_stop, _dense_inf_sup_stop]):
        reference = lanczos(apply, start, dense, lock)[1]
        assert len(T) == len(reference) > 1
        assert np.array_equal(T, reference)


def test_residual_above_tolerance_raises(ops_quad_k1, monkeypatch):
    case = get_case("taylor-trig")
    system = assemble(ops_quad_k1, body_force=case.f, boundary_velocity=case.g)
    monkeypatch.setattr(solver, "RESIDUAL_TOL", 0.0)
    with pytest.raises(SolverError, match="exceeds"):
        solve(system)


def test_condensed_system_size(ops_quad_k1, ops_quad_k2):
    """The factored system keeps one velocity component's free edge DOFs and no
    cell unknowns, at k=1 and at k=2: the scalar S serves both components."""
    for ops in (ops_quad_k1, ops_quad_k2):
        report = solve(assemble(ops))
        n_interior_edges = int((~ops.mesh.boundary_edges).sum())
        expected = ops.dofmap.dim_edge * n_interior_edges
        assert report.num_reduced == expected == report.factor.lu.shape[0]
        assert np.allclose(report.velocity.coeffs, 0.0, atol=1e-13)


def test_condensed_lu_fill_stays_low():
    """The scalar factor of one component's edge Schur complement, in the
    dissection order, keeps the condensed LU's fill down."""
    for family, degree, n, bound in [
        # L+U of S: 14,626 here; the condensed saddle matrix of both components
        # and one pressure per cell had 70,294 by dissection, 134,868 under
        # COLAMD and 505,826 with only the interior velocities eliminated,
        ("uniform-quad", 3, 8, 14_626),
        # 116,430 here (581,296, 972,373 and 7,754,721),
        ("perturbed-polygon", 2, 16, 116_430),
        # and 144,128 here (719,407), of which 1,654 of S's 32,608 entries are
        # below 1e-14 of its largest
        ("hexagonal", 2, 16, 144_128),
    ]:
        system = assemble(ElementOps(generate_mesh(family, n), degree))
        assert solve(system).lu_fill <= bound, family


@pytest.mark.parametrize(
    "mesh, degree",
    [
        pytest.param(("uniform-quad", 16), 1, id="uniform-quad-k1"),
        pytest.param(("uniform-quad", 8), 3, id="uniform-quad-k3"),
        pytest.param(("perturbed-polygon", 16), 2, id="perturbed-polygon-k2"),
        pytest.param(("hexagonal", 8), 2, id="hexagonal-k2"),
        pytest.param("hostile_mesh", 2, id="hostile-k2"),
    ],
)
@pytest.mark.parametrize("condense", [True])  # the full path pivots as SuperLU chooses
def test_lu_keeps_diagonal_pivots(mesh, degree, condense, request):
    """In the dissection order SuperLU interchanges no rows of the condensed
    factor's S, and its pivots are positive: S is SPD."""
    mesh = request.getfixturevalue(mesh) if isinstance(mesh, str) else generate_mesh(*mesh)
    lu = factorize(assemble(ElementOps(mesh, degree))).lu
    assert np.array_equal(lu.perm_r, np.arange(lu.shape[0]))
    assert np.array_equal(lu.perm_c, np.arange(lu.shape[0]))
    assert (lu.U.diagonal() > 0).all()


def _largest_zero_mean_eigenvalue(factor):
    """The largest eigenvalue of the factor's R⁻¹ S_p R⁻ᵀ on zero-mean pressures."""
    z = factor.z

    def apply(y):
        w = factor.operator(y - z * (z @ y))
        return w - z * (z @ w)

    start = np.random.default_rng(0).standard_normal(len(z))
    op = LinearOperator((len(z),) * 2, matvec=apply, dtype=float)
    return eigsh(op, k=1, which="LA", v0=start, tol=1e-6)[0][0]  # the top of the spectrum is clustered


def test_pressure_pivots_keep_their_scale():
    """The mass-scaled pressure operator R⁻¹ S_p R⁻ᵀ (M_p = R Rᵀ) that the
    pressure's Lanczos steps through keeps its scale: on zero-mean pressures
    its largest eigenvalue stays at most 2 and grows by at most 1 % as h
    halves (1.842, 1.848, 1.850 here)."""
    largest = [
        _largest_zero_mean_eigenvalue(factorize(assemble(ElementOps(generate_mesh("uniform-quad", n), 2))))
        for n in (8, 16, 32)
    ]
    assert max(largest) <= 2.0, largest
    assert all(b <= 1.01 * a for a, b in zip(largest, largest[1:])), largest


def test_heap_handed_back_before_every_lu(ops_quad_k2, monkeypatch):
    """malloc_trim runs right before each sparse LU, on every path that
    factors, so the factor is not mapped on top of freed but resident heap."""
    if platform.libc_ver()[0] == "glibc":
        assert solver.malloc_trim is not None
    events, trim = [], solver.malloc_trim

    def spy_trim(pad):
        events.append(("trim", pad))
        return 0 if trim is None else trim(pad)

    def spy_splu(*args, **kwargs):
        events.append("splu")
        return splu(*args, **kwargs)

    monkeypatch.setattr(solver, "malloc_trim", spy_trim)
    monkeypatch.setattr(solver, "splu", spy_splu)
    system = assemble(ops_quad_k2)
    for path in (factorize, lambda s: solve(s, condense=False)):
        events.clear()
        path(system)
        assert events == [("trim", 0), "splu"]


def test_dissection_order():
    """The LU's order of the free edge DOFs: a permutation, reproducible, each
    edge's DOFs together, x and y of each side by side, and the first split's
    separator (the interior edges on x = 1/2) last."""
    mesh = generate_mesh("uniform-quad", 16)
    system = assemble(ElementOps(mesh, 2))
    dofmap, interior_edges = system.ops.dofmap, np.flatnonzero(~mesh.boundary_edges)
    middle = interior_edges[np.all(mesh.vertices[mesh.edges[interior_edges], 0] == 0.5, axis=1)]
    assert len(middle) == 16
    edges = factorize(system).edges
    assert np.array_equal(edges, factorize(system).edges)
    assert np.array_equal(np.sort(edges.ravel()), dofmap.edge_dofs[interior_edges].ravel())
    assert np.array_equal(edges[:, 1] - edges[:, 0], np.full(len(edges), dofmap.dim_edge))
    de, order = 2 * dofmap.dim_edge, edges.reshape(-1, dofmap.dim_edge, 2).transpose(0, 2, 1).ravel()
    by_edge = ((order - dofmap.interior_size) // de).reshape(-1, de)
    assert (by_edge == by_edge[:, :1]).all()
    assert np.array_equal(np.sort(by_edge[-len(middle) :, 0]), middle)


def test_report_serializes(system_quad_k1):
    """Both paths' diagnostics go to JSON, the Lanczos step count with them:
    none on the full path, which keeps no factor, and on the condensed one as
    many as the solve took."""
    report = solve(system_quad_k1, condense=False)
    blob = json.loads(report.to_json())
    assert blob["condensed"] is False
    assert blob["num_pressure"] == system_quad_k1.num_pressure_dofs
    assert blob["num_reduced"] == len(system_quad_k1.free) + system_quad_k1.num_pressure_dofs
    assert blob["lu_fill"] > blob["num_reduced"] and report.factor is None
    assert blob["residual"] <= 1e-10
    assert blob["wall_time"] > 0
    assert blob["lanczos_steps"] == 0
    case = get_case("taylor-trig")
    report = solve(assemble(system_quad_k1.ops, body_force=case.f, boundary_velocity=case.g))
    blob = json.loads(report.to_json())
    assert blob["condensed"] is True and blob["lanczos_steps"] == report.lanczos_steps > 0
    assert blob["num_reduced"] == report.factor.lu.shape[0] and blob["lu_fill"] == report.factor.lu.nnz


def test_residuals_reported_small(ops_quad_k2):
    case = get_case("stream-quartic")
    system = assemble(ops_quad_k2, body_force=case.f, boundary_velocity=case.g)
    report = solve(system)
    assert report.residual <= 1e-10
    assert report.momentum_residual < 1e-8
    assert report.mass_residual < 1e-8
    assert report.num_free_velocity == len(system.free)
