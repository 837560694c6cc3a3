"""Full and condensed direct solves against closed-form solutions."""

import json

import numpy as np
import pytest

from wgstokes import solver
from wgstokes.assembly import assemble
from wgstokes.cases import get_case
from wgstokes.errors import SolverError
from wgstokes.mesh import generate_mesh
from wgstokes.projections import project_pressure, project_velocity
from wgstokes.solver import factorize, solve
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
    system = assemble(ops, boundary_velocity=g, data_degree=0)
    report = solve(system)
    exact = project_velocity(ops, g, data_degree=0)
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
    system = assemble(ops, body_force=case.f, boundary_velocity=case.g, data_degree=case.data_degree)
    report = solve(system)
    u_exact = project_velocity(ops, case.u, data_degree=case.data_degree)
    p_exact = project_pressure(ops, case.p, data_degree=case.data_degree)
    u_scale = max(np.abs(u_exact.coeffs).max(), 1.0)
    assert np.abs(report.velocity.coeffs - u_exact.coeffs).max() <= 1e-9 * u_scale
    assert np.abs(report.pressure.coeffs - p_exact.coeffs).max() <= 1e-9


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
    ],
)
def test_condensed_solve_matches_full(family, degree, n, seed):
    """Both direct paths agree, here with nonzero Dirichlet data."""
    case = get_case("taylor-trig")
    ops = ElementOps(generate_mesh(family, n, seed=seed), degree)
    system = assemble(ops, body_force=case.f, boundary_velocity=case.g)
    assert np.abs(system.fixed_values).max() > 0.1
    full = solve(system, condense=False)
    red = solve(system)
    assert np.abs(full.velocity.coeffs - red.velocity.coeffs).max() <= 1e-9
    assert np.abs(full.pressure.coeffs - red.pressure.coeffs).max() <= 1e-9
    assert red.condensed and not full.condensed


def test_condensed_solve_names_indefinite_cell(ops_quad_k1):
    case = get_case("taylor-trig")
    system = assemble(ops_quad_k1, body_force=case.f, boundary_velocity=case.g)
    A = system.A.tocsr(copy=True)
    idx = ops_quad_k1.dofmap.interior_dofs(5)
    A[idx, idx] = -np.abs(A.diagonal()[idx])
    system.A = A
    with pytest.raises(SolverError, match=r"interior block of cell 5 "):
        solve(system)


def test_residual_above_tolerance_raises(ops_quad_k1, monkeypatch):
    case = get_case("taylor-trig")
    system = assemble(ops_quad_k1, body_force=case.f, boundary_velocity=case.g)
    monkeypatch.setattr(solver, "RESIDUAL_TOL", 0.0)
    with pytest.raises(SolverError, match="exceeds"):
        solve(system)


def test_condensed_system_size(ops_quad_k1):
    """The reduced system keeps the free edge DOFs and the pressures."""
    system = assemble(ops_quad_k1)
    report = solve(system)
    dm = ops_quad_k1.dofmap
    mesh = ops_quad_k1.mesh
    n_interior_edges = int((~mesh.boundary_edges).sum())
    expected = 2 * dm.dim_edge * n_interior_edges + dm.num_pressure_dofs
    assert report.num_reduced == expected
    assert np.allclose(report.velocity.coeffs, 0.0, atol=1e-13)


def test_lu_fill_stays_low():
    """SuperLU's column ordering reads only the stored pattern; the
    finite-element pattern that factorize(condense=False) stores keeps the
    fill of the pinned full system low (230,352 here; 504,615 when the
    stored x-y zeros are dropped)."""
    system = assemble(ElementOps(generate_mesh("uniform-quad", 16), 1))
    factor = factorize(system, condense=False)
    assert factor.lu.L.nnz + factor.lu.U.nnz <= 300_000


def test_report_serializes(system_quad_k1):
    report = solve(system_quad_k1, condense=False)
    blob = json.loads(report.to_json())
    assert blob["condensed"] is False
    assert blob["num_pressure"] == system_quad_k1.num_pressure_dofs
    assert blob["residual"] <= 1e-10
    assert blob["wall_time"] > 0


def test_residuals_reported_small(ops_quad_k2):
    case = get_case("stream-quartic")
    system = assemble(ops_quad_k2, body_force=case.f, boundary_velocity=case.g, data_degree=case.data_degree)
    report = solve(system)
    assert report.residual <= 1e-10
    assert report.momentum_residual < 1e-8
    assert report.mass_residual < 1e-8
    assert report.num_free_velocity == len(system.free)
