"""Weak gradient / divergence / stabilizer oracles and the commutativity identity."""

import tracemalloc

import numpy as np
import pytest

from wgstokes import quadrature, weakops
from wgstokes.assembly import assemble
from wgstokes.basis import monomials
from wgstokes.cases import case_names, get_case
from wgstokes.errors import MeshValidationError
from wgstokes.mesh import FAMILIES, PolygonalMesh, generate_mesh
from wgstokes.quadrature import PolygonError, edge_rule, polygon_rule
from wgstokes.spaces import WeakFunction
from wgstokes.weakops import DATA_EXACTNESS, CellTable, EdgeTable, ElementOps

from conftest import PolyField, edge_basis, monomial_gradients, project, weak_gradient
from paper_checks import gradient_energy, stabilizer_energy


def _grad_values(ops, coeffs, c, pts):
    """Evaluate the (2, 2) gradient field encoded by low-basis coefficients."""
    vals = ops.cell_basis_low[c].eval(pts)  # (npts, nlow)
    return np.einsum("pr,ijr->pij", vals, coeffs)


def test_quadrature_failure_names_the_cell(quad_mesh_4, monkeypatch):
    def failing_rule(loops, exactness, starts):
        raise PolygonError(5, "ear clipping failed; polygon may be non-simple")

    monkeypatch.setattr(weakops, "polygon_rule", failing_rule)
    ops = ElementOps(quad_mesh_4, 1)  # the cell data rule is the only one triangulated
    with pytest.raises(MeshValidationError, match=r"^cell 5: ear clipping failed"):
        ops.cell_data


def test_ear_clipping_failure_names_the_cell(hostile_mesh, monkeypatch):
    """Only the U cell is ear-clipped; it is cell 1 once the cells are swapped."""

    def failing_clip(poly):
        raise ValueError("ear clipping failed; polygon may be non-simple")

    loops = [hostile_mesh.side_vertices[hostile_mesh.side_cell == c, 0] for c in (1, 0)]
    mesh = PolygonalMesh(hostile_mesh.vertices, loops)
    monkeypatch.setattr(quadrature, "_ear_clip", failing_clip)
    ops = ElementOps(mesh, 1)
    with pytest.raises(MeshValidationError, match=r"^cell 1: ear clipping failed"):
        ops.cell_data


@pytest.mark.parametrize("name", ["ops_poly_k2", "hostile_mesh"])
def test_cell_basis_lists_are_basis_values(name, request):
    """What perfbench/checks.py evaluates: ``cell_basis[c].eval`` is
    ``basis_values`` on cell c and ``cell_basis_low[c].eval`` its leading
    dim_cell_low columns, the P_{k-1} scaled monomials, bit for bit, at one
    (2,) point and at an (n, 2) stack."""
    ops = request.getfixturevalue(name)
    ops = ElementOps(ops, 2) if name == "hostile_mesh" else ops
    mesh, nlow = ops.mesh, ops.dofmap.dim_cell_low
    assert len(ops.cell_basis) == len(ops.cell_basis_low) == mesh.num_cells
    for c in range(mesh.num_cells):
        stack = np.vstack([mesh.cell_vertices(c), mesh.centroids[c]])
        for pts, n in ((stack[0], 1), (stack, len(stack))):  # array_equal checks the (n, dim) shapes
            values = ops.basis_values(pts, c).reshape(n, ops.dofmap.dim_cell)
            assert np.array_equal(ops.cell_basis[c].eval(pts), values)
            assert np.array_equal(ops.cell_basis_low[c].eval(pts), values[:, :nlow])
        low = monomials((stack - mesh.centroids[c]) / mesh.diameters[c], ops.degree - 1)
        assert np.array_equal(ops.cell_basis_low[c].eval(stack), low)


@pytest.mark.parametrize("degree", [1, 2, 3, 4, 5])
def test_stacks_match_per_cell_reference(degree, hostile_mesh):
    """The stacks reproduce a per-cell evaluation on each cell's own
    triangulated rule (2k+2) and Gauss edge rules (2k+1), on every family and
    on the hostile mesh.  The masses match to 1e-13 relative; so do the
    weak-gradient moments (grad_moments, side_moments) and the trace moments
    (edge_mass times trace), checked before any solve, which loses what the
    masses' conditioning costs (1e8 for P_{k-1} on the triangles at k = 5)
    in the stacks and in any reference alike."""

    def close(got, ref):
        return np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()

    for mesh in [generate_mesh(f, 4, seed=1) for f in FAMILIES] + [hostile_mesh]:
        ops = ElementOps(mesh, degree)
        nlow = ops.dofmap.dim_cell_low
        for c in range(mesh.num_cells):
            rule = polygon_rule(mesh.cell_vertices(c), 2 * degree + 2)
            scale = mesh.diameters[c]
            vals = ops.cell_basis[c].eval(rule.points)
            local = (rule.points - mesh.centroids[c]) / scale
            grads = monomial_gradients(local, degree - 1) / scale
            mass = vals.T @ (vals * rule.weights[:, None])
            assert close(ops.mass[c], mass)
            assert close(ops.mass_low[c], mass[:nlow, :nlow])
            moments = np.einsum("p,prj,pa->jra", rule.weights, grads, vals)  # (d_j phi_r, phi_a)_T
            assert close(ops.grad_moments[c], -moments)
            for h in np.flatnonzero(mesh.side_cell == c):
                e = mesh.side_edge[h]
                p0, p1 = mesh.vertices[mesh.edges[e]]
                erule = edge_rule(p0, p1, 2 * degree + 1)
                evals = edge_basis(degree - 1, p0, p1, erule.points)
                kvals = ops.cell_basis[c].eval(erule.points)
                mass_e = evals.T @ (evals * erule.weights[:, None])
                moments_e = evals.T @ (kvals * erule.weights[:, None])
                assert np.allclose(ops.edge_mass[e], mass_e, rtol=1e-13, atol=1e-15)
                assert close(ops.edge_mass[e] @ ops.trace[h], moments_e)
                assert close(ops.side_moments[h], moments_e[:, :nlow].T)  # <psi_b, q_r>_e
                if degree <= 3:  # past it, the edge mass's conditioning alone exceeds this
                    trace = np.linalg.solve(mass_e, moments_e)
                    assert np.allclose(ops.trace[h], trace, rtol=1e-12, atol=1e-13)
                assert (mesh.side_cell[h], mesh.side_edge[h]) == (c, e)


def test_constant_field_has_zero_operators(ops_quad_k1):
    ops = ops_quad_k1
    v = project(ops, lambda pts: np.tile([2.0, -3.0], (len(pts), 1)))
    g, mesh = weak_gradient(ops, v), ops.mesh
    assert np.allclose(g, 0.0, atol=1e-13)
    assert np.allclose(np.einsum("ciir->cr", g), 0.0, atol=1e-13)
    trace = np.einsum("hba,hia->hib", ops.trace, v.v0[mesh.side_cell])  # P_e v0 on every side
    assert np.allclose(trace - v.vb[mesh.side_edge], 0.0, atol=1e-13)


@pytest.mark.parametrize("ops_name", ["ops_quad_k1", "ops_quad_k2", "ops_poly_k2"])
def test_linear_field_gradient_oracle(ops_name, request):
    """For u = (x, 0) the weak gradient is identically [[1,0],[0,0]]."""
    ops = request.getfixturevalue(ops_name)
    u = lambda pts: np.column_stack([pts[:, 0], np.zeros(len(pts))])
    v = project(ops, u)
    grads = weak_gradient(ops, v)
    for c in range(ops.mesh.num_cells):
        g = grads[c]
        pts = polygon_rule(ops.mesh.cell_vertices(c), 2 * ops.degree + 2).points[:4]
        vals = _grad_values(ops, g, c, pts)
        assert np.allclose(vals, [[1.0, 0.0], [0.0, 0.0]], atol=1e-12)


def test_linear_field_divergence_oracle(ops_quad_k1):
    """u = (x, y) has weak divergence identically 2."""
    ops = ops_quad_k1
    v = project(ops, lambda pts: pts.copy())
    for c, d in enumerate(np.einsum("ciir->cr", weak_gradient(ops, v))):
        pts = polygon_rule(ops.mesh.cell_vertices(c), 2 * ops.degree + 2).points[:4]
        vals = ops.cell_basis_low[c].eval(pts) @ d
        assert np.allclose(vals, 2.0, atol=1e-12)


def test_projected_quadratic_on_unit_cell():
    """k=1 weak operators see the P0 shadow of grad (x^2, 0) on the unit square."""
    ops = ElementOps(generate_mesh("uniform-quad", 1), 1)
    u = lambda pts: np.column_stack([pts[:, 0] ** 2, np.zeros(len(pts))])
    v = project(ops, u)
    g = weak_gradient(ops, v)[0]
    mid = np.array([[0.5, 0.5]])
    vals = _grad_values(ops, g, 0, mid)
    # P0 average of [[2x, 0], [0, 0]] over the unit square
    assert np.allclose(vals, [[1.0, 0.0], [0.0, 0.0]], atol=1e-13)
    dvals = ops.cell_basis_low[0].eval(mid) @ np.trace(g)
    assert np.allclose(dvals, 1.0, atol=1e-13)


@pytest.mark.parametrize("degree", [1, 2])
def test_stabilizer_matrix_symmetric_psd(degree, poly_mesh_4):
    """The matrix of the jump stabilizer is symmetric positive semidefinite."""
    ops = ElementOps(poly_mesh_4, degree)
    n = ops.dofmap.num_velocity_dofs
    mesh = ops.mesh
    jump = lambda v: np.einsum("hba,hia->hib", ops.trace, v.v0[mesh.side_cell]) - v.vb[mesh.side_edge]
    jumps = np.stack([jump(WeakFunction(ops.dofmap, row)) for row in np.eye(n)])
    weight = ops.edge_mass[mesh.side_edge] / mesh.diameters[mesh.side_cell][:, None, None]
    S = np.einsum("ahir,hrs->ahis", jumps, weight).reshape(n, -1) @ jumps.reshape(n, -1).T
    assert np.allclose(S, S.T, atol=1e-14)
    assert np.linalg.eigvalsh(S).min() >= -1e-12
    v, w = np.random.default_rng(degree).standard_normal((2, n))
    s = [stabilizer_energy(ops, WeakFunction(ops.dofmap, x)) for x in (v + w, v - w)]
    assert np.isclose(v @ S @ w, (s[0] - s[1]) / 4)  # by polarization


def test_stabilizer_vanishes_for_conforming_linears(ops_quad_k2):
    """A projected polynomial of degree <= k has matching traces, so s(v,v)=0."""
    ops = ops_quad_k2
    u = lambda pts: np.column_stack([1 + pts[:, 0] - 2 * pts[:, 1], pts[:, 1] ** 2])
    v = project(ops, u)
    assert stabilizer_energy(ops, v) < 1e-24


def test_stabilizer_single_edge_oracle(ops_quad_k1):
    """v0 = 0 with a unit constant trace on one edge gives sum_T |e| / h_T."""
    ops = ops_quad_k1
    e = int(np.nonzero(~ops.mesh.boundary_edges)[0][0])
    v = WeakFunction.zeros(ops.dofmap)
    one = ops.solve_edge_mass(ops.edge_moments(lambda pts: np.ones(len(pts))))[e]
    v.vb[e, 0] = one
    length = np.linalg.norm(np.diff(ops.mesh.vertices[ops.mesh.edges[e]], axis=0))
    cells = ops.mesh.side_cell[ops.mesh.side_edge == e]
    expected = sum(length / ops.mesh.diameters[c] for c in cells)
    assert np.isclose(stabilizer_energy(ops, v), expected, rtol=1e-12)


@pytest.mark.parametrize("ops_name", ["ops_quad_k2", "ops_poly_k2"])
def test_commutativity_fixed_polynomial(ops_name, request):
    """Weak operators of the projected field equal projections of the exact ones."""
    ops = request.getfixturevalue(ops_name)
    u = lambda pts: np.column_stack([pts[:, 0] ** 3 * pts[:, 1], pts[:, 0]])
    grad = lambda pts: np.stack(
        [
            np.stack([3 * pts[:, 0] ** 2 * pts[:, 1], pts[:, 0] ** 3], axis=1),
            np.stack([np.ones(len(pts)), np.zeros(len(pts))], axis=1),
        ],
        axis=1,
    )
    div = lambda pts: 3 * pts[:, 0] ** 2 * pts[:, 1]
    g = weak_gradient(ops, project(ops, u))
    assert np.allclose(g, project(ops, grad, ops.degree - 1), atol=1e-12)
    assert np.allclose(np.einsum("ciir->cr", g), project(ops, div, ops.degree - 1), atol=1e-12)


@pytest.mark.parametrize("degree", [1, 2])
def test_commutativity_random_fields(degree, poly_mesh_4):
    ops = ElementOps(poly_mesh_4, degree)
    rng = np.random.default_rng(17)
    for _ in range(3):
        field = PolyField(degree + 2, rng)
        g = weak_gradient(ops, project(ops, field.u))
        pg = project(ops, field.grad, degree - 1)
        pd = project(ops, field.div, degree - 1)
        scale = max(np.abs(pg).max(), 1.0)
        assert np.abs(g - pg).max() <= 1e-12 * scale
        assert np.abs(np.einsum("ciir->cr", g) - pd).max() <= 1e-12 * scale


def test_zero_function_maps_to_zero(ops_quad_k1):
    ops = ops_quad_k1
    v = WeakFunction.zeros(ops.dofmap)
    assert gradient_energy(ops, v) == 0.0
    assert stabilizer_energy(ops, v) == 0.0
    assert np.all(weak_gradient(ops, v) == 0.0)


def test_interior_gradient_controlled_by_energy():
    """The broken H1 seminorm of v0 stays bounded by the energy norm under refinement."""
    rng = np.random.default_rng(23)
    maxima = []
    for n in (4, 8):
        ops = ElementOps(generate_mesh("uniform-quad", n), 1)
        A = assemble(ops).A
        cells = []  # each cell's rule weights and monomial gradients, which no field changes
        for c in range(ops.mesh.num_cells):
            rule = polygon_rule(ops.mesh.cell_vertices(c), 2 * ops.degree + 2)
            h = ops.mesh.diameters[c]
            cells.append((rule.weights, monomial_gradients((rule.points - ops.mesh.centroids[c]) / h, 1) / h))
        worst = 0.0
        for _ in range(50):
            v = WeakFunction(ops.dofmap, rng.standard_normal(ops.dofmap.num_velocity_dofs))
            v.coeffs[ops.dofmap.boundary_velocity_mask()] = 0.0
            energy = v.coeffs @ (A @ v.coeffs)
            broken = 0.0
            for c, (weights, grads) in enumerate(cells):
                g = np.einsum("pij,ci->pcj", grads, v.interior(c))
                broken += weights @ (g**2).sum(axis=(1, 2))
            worst = max(worst, broken / energy)
        maxima.append(worst)
    assert maxima[1] <= 10 * maxima[0]


@pytest.mark.parametrize("family", ["uniform-quad", "perturbed-polygon"])
@pytest.mark.parametrize("degree", [1, 2, 3])
def test_data_rule_at_rounding_floor(family, degree, monkeypatch):
    """Why DATA_EXACTNESS suffices: for every registered case, the data moments
    (cell moments of f, u and p, edge moments of u) agree with those of a rule
    four degrees higher to 1e-12 relative."""
    mesh = generate_mesh(family, 4, seed=0)
    ops = ElementOps(mesh, degree)
    ops.cell_data, ops.edge_data  # built now, at DATA_EXACTNESS
    monkeypatch.setattr(weakops, "DATA_EXACTNESS", DATA_EXACTNESS + 4)
    finer = ElementOps(mesh, degree)
    assert len(finer.cell_data.weights) > len(ops.cell_data.weights)
    assert finer.edge_data.weights.shape[1] > ops.edge_data.weights.shape[1]
    for name in case_names():
        case = get_case(name)
        for moments in (
            lambda o: o.cell_moments(case.f(o.cell_data.points), degree),
            lambda o: o.cell_moments(case.u(o.cell_data.points), degree),
            lambda o: o.cell_moments(case.p(o.cell_data.points), degree - 1),
            lambda o: o.edge_moments(case.u),
        ):
            got, ref = moments(ops), moments(finer)
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max(), name


@pytest.mark.parametrize(
    "family, points", [("uniform-quad", 3_136), ("hexagonal", 6_615), ("perturbed-polygon", 6_419)]
)
def test_data_rule_point_count(family, points):
    """The data rule at n=8 has 49 points per bilinear piece and one piece per
    pair of fan triangles (64 x 49 on squares), so a doubled rule shows here."""
    ops = ElementOps(generate_mesh(family, 8), 2)
    assert len(ops.cell_data.weights) == points


@pytest.mark.parametrize("degree", [2, 3])
def test_element_ops_peak_near_what_it_keeps(degree):
    """Building the operator stacks holds at most 3 times the memory the
    ElementOps keeps: the cell integrals come from the side points of the
    edge table it keeps, with no cell rule and no (points, dim, dim) array.
    The edge data table is the only quadrature table it keeps, and the weak
    gradient is kept once, as its moments, with no mass-solved copy."""
    mesh = generate_mesh("perturbed-polygon", 16)
    ElementOps(mesh, degree)  # first calls may allocate caches of their own
    tracemalloc.start()
    try:
        ops = ElementOps(mesh, degree)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ops.mass.shape[0] == mesh.num_cells
    tables = [name for name, v in vars(ops).items() if isinstance(v, (CellTable, EdgeTable))]
    assert tables == ["edge_data"]
    assert not hasattr(ops, "grad_interior") and not hasattr(ops, "grad_side")
    assert peak <= 3 * kept, peak / kept
