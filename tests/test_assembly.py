"""Global assembly: matrix structure, energy identity, and data handling."""

import numpy as np
import pytest

from wgstokes.assembly import assemble
from wgstokes.errors import CompatibilityError
from wgstokes.mesh import generate_mesh
from wgstokes.projections import project_boundary_velocity, project_velocity
from wgstokes.quadrature import polygon_rule
from wgstokes.solver import solve
from wgstokes.spaces import PressureFunction, WeakFunction
from wgstokes.weakops import DATA_EXACTNESS, ElementOps

from conftest import PolyField, dof_indices, energy_at_points
from paper_checks import eval_b, gradient_energy, stabilizer_energy


@pytest.fixture(scope="module")
def system_quad_k1(ops_quad_k1):
    return assemble(ops_quad_k1)


@pytest.fixture(scope="module")
def system_poly_k2(ops_poly_k2):
    return assemble(ops_poly_k2)


def test_velocity_matrix_symmetric(system_quad_k1, system_poly_k2):
    for system in (system_quad_k1, system_poly_k2):
        A = system.A
        gap = abs(A - A.T).max()
        assert gap <= 1e-13 * abs(A).max()


def test_homogeneous_data_gives_zero_load(system_quad_k1):
    system = system_quad_k1
    assert np.all(system.load == 0.0)
    assert np.all(system.fixed_values == 0.0)
    assert system.boundary_flux == 0.0


def test_shapes_and_free_dofs(system_quad_k1):
    system = system_quad_k1
    dm = system.ops.dofmap
    assert system.A.shape == (dm.num_velocity_dofs, dm.num_velocity_dofs)
    assert system.B.shape == (dm.num_pressure_dofs, dm.num_velocity_dofs)
    assert np.array_equal(system.fixed_mask, dm.boundary_velocity_mask())
    assert len(system.free) + system.fixed_mask.sum() == dm.num_velocity_dofs


def test_matrix_energy_matches_matrix_free(system_poly_k2):
    system = system_poly_k2
    rng = np.random.default_rng(3)
    for _ in range(20):
        v = WeakFunction.random(system.ops.dofmap, rng)
        quad = float(v.coeffs @ (system.A @ v.coeffs))
        direct = energy_at_points(system.ops, v)
        assert abs(quad - direct) <= 1e-12 * max(abs(quad), 1.0)


def test_energy_equals_triple_bar_squared(system_quad_k1):
    system = system_quad_k1
    rng = np.random.default_rng(9)
    for _ in range(10):
        v = WeakFunction.random(system.ops.dofmap, rng)
        quad = float(v.coeffs @ (system.A @ v.coeffs))
        assert abs(quad - energy_at_points(system.ops, v)) <= 1e-12 * max(quad, 1.0)


def test_cauchy_schwarz(system_quad_k1):
    system = system_quad_k1
    rng = np.random.default_rng(12)
    for _ in range(10):
        v = WeakFunction.random(system.ops.dofmap, rng)
        w = WeakFunction.random(system.ops.dofmap, rng)
        cross = abs(float(v.coeffs @ (system.A @ w.coeffs)))
        bound = np.sqrt(energy_at_points(system.ops, v) * energy_at_points(system.ops, w))
        assert cross <= bound * (1 + 1e-12)


def test_divergence_matrix_matches_matrix_free(system_poly_k2):
    system = system_poly_k2
    rng = np.random.default_rng(5)
    for _ in range(10):
        v = WeakFunction.random(system.ops.dofmap, rng)
        q = PressureFunction.random(system.ops.dofmap, rng)
        quad = float(q.coeffs @ (system.B @ v.coeffs))
        direct = eval_b(system.ops, v, q)
        assert abs(quad - direct) <= 1e-12 * max(abs(quad), 1.0)


def test_stabilizer_and_gradient_split(system_quad_k1):
    """v'Av is the gradient part plus the stabilizer, each summed from the
    weak operators, and both pieces are nonnegative."""
    system = system_quad_k1
    rng = np.random.default_rng(7)
    v = WeakFunction.random(system.ops.dofmap, rng)
    g = gradient_energy(system.ops, v)
    s = stabilizer_energy(system.ops, v)
    assert g >= 0.0 and s >= 0.0
    assert np.isclose(g + s, v.coeffs @ (system.A @ v.coeffs), rtol=1e-13)


@pytest.mark.parametrize("degree", [1, 2])
def test_divergence_form_exact_for_polynomials(degree, poly_mesh_4):
    """b(Q_h u, q) equals the integral of (div u) q for polynomial data."""
    ops = ElementOps(poly_mesh_4, degree)
    rng = np.random.default_rng(degree)
    field = PolyField(degree + 1, rng)
    v = project_velocity(ops, field.u)
    q = PressureFunction.random(ops.dofmap, rng)
    exact = 0.0
    for c in range(ops.mesh.num_cells):
        rule = polygon_rule(ops.mesh.cell_vertices(c), DATA_EXACTNESS)
        qv = ops.cell_basis_low[c].eval(rule.points) @ q.cell(c)
        exact += rule.weights @ (field.div(rule.points) * qv)
    assert np.isclose(eval_b(ops, v, q), exact, rtol=1e-12, atol=1e-13)


def test_stabilizer_energy_decays_at_projection_order():
    """s(Q_h u, Q_h u) for smooth non-polynomial u shrinks like h^(2k)."""
    u = lambda pts: np.column_stack(
        [np.sin(np.pi * pts[:, 0]) * pts[:, 1], np.cos(pts[:, 0] + pts[:, 1])]
    )
    for degree in (1, 2):
        values, hs = [], []
        for n in (4, 8, 16):
            mesh = generate_mesh("uniform-quad", n)
            ops = ElementOps(mesh, degree)
            v = project_velocity(ops, u)
            values.append(stabilizer_energy(ops, v))
            hs.append(mesh.mesh_size)
        slope = np.polyfit(np.log(hs), np.log(values), 1)[0]
        assert slope >= 2 * degree - 0.2


def test_incompatible_boundary_data_rejected(ops_quad_k1):
    with pytest.raises(CompatibilityError):
        assemble(ops_quad_k1, boundary_velocity=lambda pts: pts.copy())


@pytest.mark.parametrize("degree", [1, 2])
@pytest.mark.parametrize("mesh", ["quad_mesh_4", "poly_mesh_4", "hostile_mesh"])
def test_boundary_flux_matches_closed_form(mesh, degree, request):
    """g = (eˣ, 0) leaves the unit square with net flux ∫₀¹ (e¹ - e⁰) dy = e - 1."""
    ops = ElementOps(request.getfixturevalue(mesh), degree)
    g = lambda pts: np.column_stack([np.exp(pts[:, 0]), np.zeros(len(pts))])
    with pytest.raises(CompatibilityError, match=r"net boundary flux 1\.718e\+00 "):
        assemble(ops, boundary_velocity=g)


def test_boundary_flux_reported_for_compatible_data(ops_quad_k1):
    g = lambda pts: np.column_stack([pts[:, 1], np.zeros(len(pts))])
    system = assemble(ops_quad_k1, boundary_velocity=g)
    assert abs(system.boundary_flux) <= 1e-12


def test_fixed_values_are_boundary_projection(ops_quad_k2):
    g = lambda pts: np.column_stack([pts[:, 1] ** 3, pts[:, 0] ** 2])
    system = assemble(ops_quad_k2, boundary_velocity=g)
    proj = project_boundary_velocity(ops_quad_k2, g)
    assert np.allclose(system.fixed_values, proj.coeffs, atol=1e-14)
    assert np.all(system.fixed_values[~system.fixed_mask] == 0.0)


@pytest.mark.parametrize(
    "family, degree", [("uniform-quad", 1), ("perturbed-polygon", 2), ("hexagonal", 3)]
)
def test_matrices_store_only_nonzeros(family, degree):
    """A and B keep no structural zeros; the LU's fill pattern is factorize's concern."""
    system = assemble(ElementOps(generate_mesh(family, 4, seed=1), degree))
    for mat in (system.A, system.B):
        assert mat.nnz == np.count_nonzero(mat.data)


@pytest.mark.parametrize(
    "family, degree, A_nnz, B_nnz",
    [("uniform-quad", 1, 51_328, 4_096), ("uniform-quad", 2, 147_712, 18_432)],
)
def test_symmetric_zeros_store_no_entries(family, degree, A_nnz, B_nnz):
    """On squares every integral that vanishes by symmetry (an odd edge power,
    a side and its mirror image) is an exact zero, so A and B store no entry
    below 1e-14 of their largest (at the one 7-point edge table without the
    rounding cut: A 71,970 and 310,268 entries, B 4,096 and 32,768)."""
    system = assemble(ElementOps(generate_mesh(family, 32), degree))
    assert (system.A.nnz, system.B.nnz) == (A_nnz, B_nnz)
    for mat in (system.A, system.B):
        assert np.abs(mat.data).min() > 1e-14 * np.abs(mat.data).max()


def test_polygon_divergence_keeps_no_odd_edge_remainders():
    """On perturbed polygons the odd edge moments of the constant vanish
    exactly, and B comes from the moment stacks with no cell mass times its
    own inverse: it stores at most 67,604 entries (69,822 with the first
    moments about the centroid as rounded sums, 71,460 with the cell
    centroids from absolute-coordinate shoelace sums, 94,304 as the mass
    times the divergence rows of G, 95,470 on the 2- and 3-point scheme
    rules, 100,040 on the one 7-point table without the rounding cut), and
    the scalar factor's L+U stays at most 684,582 (the condensed saddle
    matrix's was 3,488,232)."""
    system = assemble(ElementOps(generate_mesh("perturbed-polygon", 32, seed=0), 2))
    assert system.B.nnz <= 67_604
    assert solve(system).lu_fill <= 684_582


@pytest.mark.parametrize("family, degree", [("perturbed-polygon", 2), ("hexagonal", 3)])
def test_divergence_rows_are_mass_times_weak_divergence(family, degree):
    """B, built from the divergence moments, gives on any v the cell masses
    times its weak divergence, entry by entry to rounding."""
    ops = ElementOps(generate_mesh(family, 8, seed=0), degree)
    B = assemble(ops).B
    v = WeakFunction.random(ops.dofmap, np.random.default_rng(3))
    direct = np.einsum("crs,cs->cr", ops.mass_low, ops.weak_divergence(v)).ravel()
    assert np.abs(B @ v.coeffs - direct).max() <= 1e-13 * (abs(B) @ np.abs(v.coeffs)).max()


def test_divergence_rows_are_cell_local(system_quad_k1):
    """Each pressure DOF couples only to velocity DOFs of its own cell."""
    system = system_quad_k1
    dm, mesh = system.ops.dofmap, system.ops.mesh
    B = system.B.tocsr()
    interior, edge = dof_indices(dm)
    for c in range(mesh.num_cells):
        edges = edge[mesh.side_edge[mesh.side_cell == c]]
        allowed = set(interior[c].ravel()) | set(edges.ravel())
        for p in range(c * dm.dim_cell_low, (c + 1) * dm.dim_cell_low):
            cols = B.indices[B.indptr[p] : B.indptr[p + 1]]
            assert set(cols) <= allowed


def test_load_vector_is_interior_moments(ops_quad_k1):
    """Body-force moments land on interior DOFs only, matching cell_moments."""
    f = lambda pts: np.column_stack([pts[:, 0] * pts[:, 1], np.ones(len(pts))])
    system = assemble(ops_quad_k1, body_force=f)
    dm = ops_quad_k1.dofmap
    interior, edge = dof_indices(dm)
    all_moments = ops_quad_k1.cell_moments(f(ops_quad_k1.cell_data.points), ops_quad_k1.degree)
    for c, moments in enumerate(all_moments):
        assert np.allclose(system.load[interior[c]], moments, atol=1e-14)
    assert np.all(system.load[edge] == 0.0)
