"""L2 projection oracles on closed-form geometries plus structural properties."""

import numpy as np
import pytest

from wgstokes.assembly import assemble
from wgstokes.mesh import PolygonalMesh, generate_mesh
from wgstokes.quadrature import edge_rule, polygon_rule
from wgstokes.spaces import WeakFunction
from wgstokes.weakops import ElementOps

from conftest import edge_basis, monomial_gradients, project


@pytest.fixture(scope="module")
def unit_cell_k1():
    """A single unit-square cell, degree 1."""
    return ElementOps(generate_mesh("uniform-quad", 1), 1)


@pytest.fixture(scope="module")
def unit_cell_k2():
    return ElementOps(generate_mesh("uniform-quad", 1), 2)


def test_interior_projection_reproduces_constants(unit_cell_k1):
    ops = unit_cell_k1
    v = project(ops, lambda pts: np.tile([1.0, 2.0], (len(pts), 1)))
    rule = polygon_rule(ops.mesh.cell_vertices(0), 2 * ops.degree + 2)
    vals = ops.cell_basis[0].eval(rule.points) @ v.interior(0).T
    assert np.allclose(vals, [1.0, 2.0], atol=1e-14)


def test_interior_projection_linear_fit_oracle(unit_cell_k1):
    """Best linear L2 fit of x^2 on the unit square is x - 1/6."""
    ops = unit_cell_k1
    u = lambda pts: np.column_stack([pts[:, 0] ** 2, np.zeros(len(pts))])
    v = project(ops, u)
    pts = np.array([[0.1, 0.3], [0.5, 0.9], [0.8, 0.2], [0.25, 0.75]])
    vals = ops.cell_basis[0].eval(pts) @ v.interior(0).T
    assert np.allclose(vals[:, 0], pts[:, 0] - 1.0 / 6.0, atol=1e-13)
    assert np.allclose(vals[:, 1], 0.0, atol=1e-14)


def test_edge_projection_mean_oracle(unit_cell_k1):
    """Degree-0 edge projection of (s, 0) is the midpoint value (1/2, 0)."""
    ops = unit_cell_k1
    # arclength parameter along the bottom edge (0,0)-(1,0) is x
    u = lambda pts: np.column_stack([pts[:, 0], np.zeros(len(pts))])
    v = project(ops, u)
    ends = ops.mesh.vertices[ops.mesh.edges]
    (e,) = [e for e in range(ops.mesh.num_edges) if np.allclose(ends[e][:, 1], 0)]
    assert np.allclose(v.vb[e], [[0.5], [0.0]], atol=1e-14)


def test_edge_projection_line_fit_oracle(unit_cell_k2):
    """Degree-1 edge projection of s^2 on a unit edge is the line s - 1/6."""
    ops = unit_cell_k2
    u = lambda pts: np.column_stack([pts[:, 0] ** 2, np.zeros(len(pts))])
    v = project(ops, u)
    ends = ops.mesh.vertices[ops.mesh.edges]
    (e,) = [e for e in range(ops.mesh.num_edges) if np.allclose(ends[e][:, 1], 0)]
    pts = np.column_stack([np.array([0.0, 0.25, 0.6, 1.0]), np.zeros(4)])
    vals = edge_basis(ops.degree - 1, *ends[e], pts) @ v.vb[e].T
    assert np.allclose(vals[:, 0], pts[:, 0] - 1.0 / 6.0, atol=1e-13)


def test_tensor_projection_constant_oracle(unit_cell_k1):
    """P0 tensor projection of grad (x^2, 0) on the unit square is [[1,0],[0,0]]."""
    ops = unit_cell_k1
    grad = lambda pts: np.stack(
        [
            np.stack([2 * pts[:, 0], np.zeros(len(pts))], axis=1),
            np.zeros((len(pts), 2)),
        ],
        axis=1,
    )
    proj = project(ops, grad, 0)
    assert proj.shape == (1, 2, 2, 1)
    assert np.allclose(proj[0, :, :, 0], [[1.0, 0.0], [0.0, 0.0]], atol=1e-14)


def test_scalar_projection_oracles(unit_cell_k1):
    ops = unit_cell_k1
    p7 = project(ops, lambda pts: np.full(len(pts), 7.0), 0)
    assert np.allclose(p7, [[7.0]], atol=1e-14)
    px = project(ops, lambda pts: pts[:, 0], 0)
    assert np.allclose(px, [[0.5]], atol=1e-14)


@pytest.mark.parametrize("degree", [1, 2])
def test_idempotence(degree):
    """Projecting a projected field changes nothing (to rounding)."""
    ops = ElementOps(generate_mesh("uniform-quad", 1), degree)
    rng = np.random.default_rng(4)
    u = lambda pts: np.column_stack([np.sin(3 * pts[:, 0]) * pts[:, 1], np.cos(pts[:, 1])])
    once = project(ops, u)
    as_field = lambda pts: ops.cell_basis[0].eval(pts) @ once.interior(0).T
    twice_int = project(ops, as_field)
    assert np.allclose(once.interior(0), twice_int.interior(0), atol=1e-12)
    p_once = project(ops, lambda pts: np.exp(pts[:, 0] * pts[:, 1]), degree - 1)
    p_field = lambda pts: ops.cell_basis_low[0].eval(pts) @ p_once[0]
    p_twice = project(ops, p_field, degree - 1)
    assert np.allclose(p_once, p_twice, atol=1e-14)
    del rng


def test_projection_self_adjoint(unit_cell_k2):
    """(Q0 f, g) = (f, Q0 g) for exactly integrated polynomial data."""
    ops = unit_cell_k2
    f = lambda pts: np.column_stack([pts[:, 0] ** 3, pts[:, 1] ** 2 * pts[:, 0]])
    g = lambda pts: np.column_stack([pts[:, 1] ** 3, pts[:, 0] ** 2])
    qf = project(ops, f)
    qg = project(ops, g)
    rule = polygon_rule(ops.mesh.cell_vertices(0), 8)
    w = rule.weights
    fv, gv = f(rule.points), g(rule.points)
    qfv = rule.points is not None and ops.cell_basis[0].eval(rule.points) @ qf.interior(0).T
    qgv = ops.cell_basis[0].eval(rule.points) @ qg.interior(0).T
    lhs = w @ np.sum(qfv * gv, axis=1)
    rhs = w @ np.sum(fv * qgv, axis=1)
    assert abs(lhs - rhs) < 1e-13


def test_linear_field_reproduced_everywhere(ops_quad_k1):
    """A linear velocity lies in the k=1 spaces: interior and traces match."""
    ops = ops_quad_k1
    u = lambda pts: np.column_stack([1 + 2 * pts[:, 0] - pts[:, 1], 3 * pts[:, 1]])
    v = project(ops, u)
    for c in (0, 3):
        rule = polygon_rule(ops.mesh.cell_vertices(c), 2 * ops.degree + 2)
        vals = ops.cell_basis[c].eval(rule.points) @ v.interior(c).T
        assert np.allclose(vals, u(rule.points), atol=1e-13)
    for e in (0, 5):
        p0, p1 = ops.mesh.vertices[ops.mesh.edges[e]]
        mid = 0.5 * (p0 + p1)[None, :]
        vals = edge_basis(ops.degree - 1, p0, p1, mid) @ v.vb[e].T
        assert np.allclose(vals, u(mid), atol=1e-13)


def test_boundary_projection_matches_full(ops_quad_k2):
    """Boundary blocks of the full projection equal the Dirichlet values that
    `assemble` fixes, and those are zero off the boundary edges.  g is
    divergence-free, so `assemble` accepts it."""
    ops = ops_quad_k2
    wave = lambda pts: np.sin(pts[:, 0] + pts[:, 1])
    g = lambda pts: np.column_stack([wave(pts), pts[:, 0] ** 2 - wave(pts)])
    full = project(ops, g)
    bdry = WeakFunction(ops.dofmap, assemble(ops, boundary_velocity=g).fixed_values)
    for e in np.nonzero(ops.mesh.boundary_edges)[0]:
        assert np.allclose(full.vb[e], bdry.vb[e], atol=1e-14)
    mask = ops.dofmap.boundary_velocity_mask()
    assert np.all(bdry.coeffs[~mask] == 0.0)


@pytest.mark.parametrize("degree", [1, 2])
def test_projection_error_rates(degree):
    """Approximation orders of the three projections for smooth data."""
    from paper_checks import projection_errors
    from wgstokes.analysis import fit_rate
    from wgstokes.cases import get_case

    case = get_case("taylor-trig")
    hs, verr, gerr, perr = [], [], [], []
    for n in (2, 4, 8):
        mesh = generate_mesh("uniform-quad", n)
        ops = ElementOps(mesh, degree)
        errs = projection_errors(ops, case)
        hs.append(mesh.mesh_size)
        verr.append(errs["velocity"])
        gerr.append(errs["gradient"])
        perr.append(errs["pressure"])
    assert fit_rate(hs, verr) >= degree + 1 - 0.1
    assert fit_rate(hs, gerr) >= degree - 0.1
    assert fit_rate(hs, perr) >= degree - 0.1


def test_trace_inequality_bounded_under_refinement():
    """Edge-to-cell norm ratios of polynomials stay bounded as h shrinks."""
    rng = np.random.default_rng(11)
    maxima = []
    for n in (2, 4, 8):
        ops = ElementOps(generate_mesh("uniform-quad", n), 2)
        worst = 0.0
        for c in range(ops.mesh.num_cells):
            coeffs = rng.standard_normal(ops.dofmap.dim_cell)
            rule = polygon_rule(ops.mesh.cell_vertices(c), 2 * ops.degree + 2)
            vals = ops.cell_basis[c].eval(rule.points) @ coeffs
            h = ops.mesh.diameters[c]
            local = (rule.points - ops.mesh.centroids[c]) / h
            grads = np.einsum("pij,i->pj", monomial_gradients(local, ops.degree) / h, coeffs)
            bulk = h ** -1 * rule.weights @ vals**2 + h * rule.weights @ (grads**2).sum(axis=1)
            for e in ops.mesh.side_edge[ops.mesh.side_cell == c]:
                erule = edge_rule(*ops.mesh.vertices[ops.mesh.edges[e]], 2 * ops.degree + 1)
                evals = ops.cell_basis[c].eval(erule.points) @ coeffs
                worst = max(worst, (erule.weights @ evals**2) / bulk)
        maxima.append(worst)
    assert maxima[2] <= 1.5 * max(maxima[0], maxima[1])


def test_projection_on_polygonal_cells(ops_poly_k2):
    """Constants are reproduced on general polygonal (Voronoi) cells too."""
    ops = ops_poly_k2
    v = project(ops, lambda pts: np.tile([3.0, -1.0], (len(pts), 1)))
    for c in range(ops.mesh.num_cells):
        rule = polygon_rule(ops.mesh.cell_vertices(c), 2 * ops.degree + 2)
        vals = ops.cell_basis[c].eval(rule.points) @ v.interior(c).T
        assert np.allclose(vals, [3.0, -1.0], atol=1e-13)
