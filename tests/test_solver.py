"""Full and condensed direct solves against closed-form solutions and a plain-scipy oracle."""

import json
import platform

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.linalg import splu

from conftest import dof_indices, full_solve
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
    system = assemble(ops, boundary_velocity=g)
    report = solve(system)
    exact = project_velocity(ops, g)
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
    u_exact = project_velocity(ops, case.u)
    p_exact = project_pressure(ops, case.p)
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


def test_condensed_solve_names_indefinite_cell(ops_quad_k1):
    case = get_case("taylor-trig")
    system = assemble(ops_quad_k1, body_force=case.f, boundary_velocity=case.g)
    A = system.A.tocsr(copy=True)
    idx = dof_indices(ops_quad_k1.dofmap)[0][5].ravel()
    A[idx, idx] = -np.abs(A.diagonal()[idx])
    system.A = A
    with pytest.raises(SolverError, match=r"interior block of cell 5 "):
        solve(system)


def test_condensed_solve_names_singular_pressure_cell(ops_quad_k2):
    """Without divergence rows a cell's non-constant pressures have a zero block."""
    system = assemble(ops_quad_k2)
    keep = np.ones(system.num_pressure_dofs)
    low = ops_quad_k2.dofmap.dim_cell_low
    keep[6 * low + 1 : 7 * low] = 0.0
    system.B = (sparse.diags(keep) @ system.B).tocsr()
    with pytest.raises(SolverError, match=r"pressure block of cell 6 is not negative definite "):
        solve(system)


@pytest.mark.parametrize("condense", [True, False])
def test_pinned_pressure_is_left_out(ops_quad_k2, condense):
    """The factor returns p[0] = 0 exactly and never reads rhs_p[0]."""
    system = assemble(ops_quad_k2)
    factor = factorize(system, condense)
    rng = np.random.default_rng(0)
    rhs_u, rhs_p = rng.standard_normal(len(system.free)), rng.standard_normal(system.num_pressure_dofs)
    u, p = factor.solve(rhs_u, rhs_p)
    assert p[0] == 0.0 and np.abs(p).max() > 0
    rhs_p[0] += 1.0
    u2, p2 = factor.solve(rhs_u, rhs_p)
    assert np.array_equal(u, u2) and np.array_equal(p, p2)


@pytest.mark.parametrize("degree", [1, 2])
@pytest.mark.parametrize("condense", [True, False])
def test_pressure_alone_matches_solve(degree, condense):
    """The pressure-only path, which skips the interior velocities'
    substitutions, gives solve's pressure bit for bit."""
    system = assemble(ElementOps(generate_mesh("perturbed-polygon", 4), degree))
    factor = factorize(system, condense)
    rhs_p = np.random.default_rng(1).standard_normal(system.num_pressure_dofs)
    p = factor.solve(np.zeros(len(system.free)), rhs_p)[1]
    assert np.array_equal(factor.pressure(rhs_p), p) and np.abs(p).max() > 0


def test_residual_above_tolerance_raises(ops_quad_k1, monkeypatch):
    case = get_case("taylor-trig")
    system = assemble(ops_quad_k1, body_force=case.f, boundary_velocity=case.g)
    monkeypatch.setattr(solver, "RESIDUAL_TOL", 0.0)
    with pytest.raises(SolverError, match="exceeds"):
        solve(system)


def test_condensed_system_size(ops_quad_k1, ops_quad_k2):
    """The reduced system keeps the free edge DOFs and one pressure per cell,
    at k=1 (all pressures) and at k=2 (the constant ones)."""
    for ops in (ops_quad_k1, ops_quad_k2):
        report = solve(assemble(ops))
        n_interior_edges = int((~ops.mesh.boundary_edges).sum())
        expected = 2 * ops.dofmap.dim_edge * n_interior_edges + ops.mesh.num_cells
        assert report.num_reduced == expected
        assert np.allclose(report.velocity.coeffs, 0.0, atol=1e-13)


def test_condensed_lu_fill_stays_low():
    """The pressure elimination and the dissection order each keep the condensed LU's fill down."""
    for family, degree, n, bound in [
        # L+U by dissection, under COLAMD, and with only the interior
        # velocities eliminated: 73,850, 134,868 and 505,826 here,
        ("uniform-quad", 3, 8, 100_000),
        # and 581,296, 972,373 and 7,754,721 here
        ("perturbed-polygon", 2, 16, 750_000),
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
@pytest.mark.parametrize("condense", [True, False])
def test_lu_keeps_diagonal_pivots(mesh, degree, condense, request):
    """In the dissection order SuperLU interchanges no rows, condensed or not."""
    mesh = request.getfixturevalue(mesh) if isinstance(mesh, str) else generate_mesh(*mesh)
    lu = factorize(assemble(ElementOps(mesh, degree)), condense).lu
    assert np.array_equal(lu.perm_r, np.arange(lu.shape[0]))


def test_pressure_pivots_keep_their_scale():
    """With each cell's pressures scaled by its diameter, the condensed LU's
    smallest pressure pivot ratio, 1 / max |L_ij| over the pressure columns,
    stays above 0.1 and does not fall with h (unscaled it halves with h)."""
    ratios = []
    for n in (8, 16, 32):
        system = assemble(ElementOps(generate_mesh("uniform-quad", n), 2))
        factor = factorize(system)
        lu = factor.lu
        assert np.array_equal(lu.perm_c, np.arange(lu.shape[0]))
        pressure = factor.order[len(factor.order) - lu.shape[0] :] >= len(system.free)
        largest = abs(lu.L.tocsc()).max(axis=0).toarray().ravel()  # unit diagonal included
        ratios.append(1 / largest[pressure].max())
    assert min(ratios) > 0.1, ratios
    assert all(b >= a * (1 - 1e-9) for a, b in zip(ratios, ratios[1:])), ratios


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
    for path in (factorize, lambda s: factorize(s, condense=False)):
        events.clear()
        path(system)
        assert events == [("trim", 0), "splu"]


def test_dissection_order():
    """The LU's order of the edge DOFs and cell pressures: a permutation,
    reproducible, each edge's DOFs together, each cell's pressures after all
    of its free edges, and the first split's separator (the interior edges
    on x = 1/2) last among the edges."""
    mesh = generate_mesh("uniform-quad", 16)
    system = assemble(ElementOps(mesh, 2))
    n_f, n_p, dofmap = len(system.free), system.num_pressure_dofs, system.ops.dofmap
    de, interior_edges = 2 * dofmap.dim_edge, np.flatnonzero(~mesh.boundary_edges)
    middle = interior_edges[np.all(mesh.vertices[mesh.edges[interior_edges], 0] == 0.5, axis=1)]
    assert len(middle) == 16
    for condense, kept in [(True, 1), (False, dofmap.dim_cell_low)]:
        order = factorize(system, condense).order
        assert np.array_equal(order, factorize(system, condense).order)
        pinned = n_f  # pressure 0
        assert np.array_equal(np.sort(order), np.delete(np.arange(n_f + n_p), pinned))
        tail = order[len(order) - len(interior_edges) * de - mesh.num_cells * kept + 1 :]
        is_edge = tail < n_f
        assert tail[is_edge].min() >= dofmap.interior_size
        edge = np.full(len(tail), -1)
        edge[is_edge] = interior_edges[(tail[is_edge] - dofmap.interior_size) // de]
        cell = np.where(is_edge, -1, (tail - n_f) // dofmap.dim_cell_low)
        for c in range(mesh.num_cells):
            mine = np.flatnonzero(cell == c)
            assert len(mine) == kept - (c == 0)
            edges = np.flatnonzero(np.isin(edge, mesh.side_edge[mesh.side_cell == c]))
            assert mine.min(initial=len(tail)) > edges.max()
        edges = edge[is_edge].reshape(-1, de)
        assert (edges == edges[:, :1]).all()
        assert np.array_equal(np.sort(edges[-len(middle) :, 0]), middle)


def test_report_serializes(system_quad_k1):
    report = solve(system_quad_k1, condense=False)
    blob = json.loads(report.to_json())
    assert blob["condensed"] is False
    assert blob["num_pressure"] == system_quad_k1.num_pressure_dofs
    assert blob["num_reduced"] == len(system_quad_k1.free) + system_quad_k1.num_pressure_dofs
    assert blob["lu_fill"] == report.factor.lu.nnz > blob["num_reduced"]
    assert blob["residual"] <= 1e-10
    assert blob["wall_time"] > 0


def test_residuals_reported_small(ops_quad_k2):
    case = get_case("stream-quartic")
    system = assemble(ops_quad_k2, body_force=case.f, boundary_velocity=case.g)
    report = solve(system)
    assert report.residual <= 1e-10
    assert report.momentum_residual < 1e-8
    assert report.mass_residual < 1e-8
    assert report.num_free_velocity == len(system.free)
