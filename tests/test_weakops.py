"""Weak gradient / divergence / stabilizer oracles and the commutativity identity."""

import numpy as np
import pytest

from wgstokes import weakops
from wgstokes.assembly import eval_grad_product, eval_s
from wgstokes.basis import EdgeBasis
from wgstokes.errors import MeshValidationError
from wgstokes.mesh import generate_mesh
from wgstokes.quadrature import edge_rule
from wgstokes.projections import (
    project_divergence,
    project_gradient,
    project_velocity,
)
from wgstokes.spaces import WeakFunction
from wgstokes.weakops import ElementOps

from conftest import PolyField


def _grad_values(ops, coeffs, c, pts):
    """Evaluate the (2, 2) gradient field encoded by low-basis coefficients."""
    vals = ops.cell_basis_low[c].eval(pts)  # (npts, nlow)
    return np.einsum("pr,ijr->pij", vals, coeffs)


def test_quadrature_failure_names_the_cell(quad_mesh_4, monkeypatch):
    def failing_rule(poly, exactness):
        raise ValueError("ear clipping failed; polygon may be non-simple")

    monkeypatch.setattr(weakops, "polygon_rule", failing_rule)
    with pytest.raises(MeshValidationError, match=r"^cell 0: ear clipping failed"):
        ElementOps(quad_mesh_4, 1)


@pytest.mark.parametrize("degree", [1, 3])
def test_stacks_match_per_cell_reference(degree, poly_mesh_4, hostile_mesh):
    """The batched kernel reproduces a per-cell evaluation at each cell's own rule."""
    for mesh in (poly_mesh_4, hostile_mesh):
        ops = ElementOps(mesh, degree)
        for c in range(mesh.num_cells):
            rule = ops.cell_rule(c)
            vals = ops.cell_basis[c].eval(rule.points)
            assert np.allclose(ops.mass[c], vals.T @ (vals * rule.weights[:, None]), atol=1e-15)
            for s, e in enumerate(mesh.cell_edges[c]):
                h = ops.side_starts[c] + s
                erule = edge_rule(*mesh.edge_vertices(e), ops.edge_exactness)
                evals = EdgeBasis(degree - 1, *mesh.edge_vertices(e)).eval(erule.points)
                kvals = ops.cell_basis[c].eval(erule.points)
                mass_e = evals.T @ (evals * erule.weights[:, None])
                trace = np.linalg.solve(mass_e, evals.T @ (kvals * erule.weights[:, None]))
                assert np.allclose(ops.edge_mass[e], mass_e, rtol=1e-13, atol=1e-15)
                assert np.allclose(ops.trace[h], trace, rtol=1e-12, atol=1e-13)
                assert np.allclose(ops.side_normal[h], mesh.cell_normals(c)[s], atol=1e-15)
                assert (ops.side_cell[h], ops.side_edge[h]) == (c, e)


def test_constant_field_has_zero_operators(ops_quad_k1):
    ops = ops_quad_k1
    v = project_velocity(ops, lambda pts: np.tile([2.0, -3.0], (len(pts), 1)), data_degree=0)
    assert np.allclose(ops.weak_gradient(v), 0.0, atol=1e-13)
    assert np.allclose(ops.weak_divergence(v), 0.0, atol=1e-13)
    assert np.allclose(ops.trace_jump(v), 0.0, atol=1e-13)


@pytest.mark.parametrize("ops_name", ["ops_quad_k1", "ops_quad_k2", "ops_poly_k2"])
def test_linear_field_gradient_oracle(ops_name, request):
    """For u = (x, 0) the weak gradient is identically [[1,0],[0,0]]."""
    ops = request.getfixturevalue(ops_name)
    u = lambda pts: np.column_stack([pts[:, 0], np.zeros(len(pts))])
    v = project_velocity(ops, u, data_degree=1)
    grads = ops.weak_gradient(v)
    for c in range(ops.mesh.num_cells):
        g = grads[c]
        pts = ops.cell_rule(c).points[:4]
        vals = _grad_values(ops, g, c, pts)
        assert np.allclose(vals, [[1.0, 0.0], [0.0, 0.0]], atol=1e-12)


def test_linear_field_divergence_oracle(ops_quad_k1):
    """u = (x, y) has weak divergence identically 2."""
    ops = ops_quad_k1
    v = project_velocity(ops, lambda pts: pts.copy(), data_degree=1)
    for c, d in enumerate(ops.weak_divergence(v)):
        pts = ops.cell_rule(c).points[:4]
        vals = ops.cell_basis_low[c].eval(pts) @ d
        assert np.allclose(vals, 2.0, atol=1e-12)


def test_projected_quadratic_on_unit_cell():
    """k=1 weak operators see the P0 shadow of grad (x^2, 0) on the unit square."""
    ops = ElementOps(generate_mesh("uniform-quad", 1), 1)
    u = lambda pts: np.column_stack([pts[:, 0] ** 2, np.zeros(len(pts))])
    v = project_velocity(ops, u, data_degree=2)
    g = ops.weak_gradient(v)[0]
    mid = np.array([[0.5, 0.5]])
    vals = _grad_values(ops, g, 0, mid)
    # P0 average of [[2x, 0], [0, 0]] over the unit square
    assert np.allclose(vals, [[1.0, 0.0], [0.0, 0.0]], atol=1e-13)
    dvals = ops.cell_basis_low[0].eval(mid) @ ops.weak_divergence(v)[0]
    assert np.allclose(dvals, 1.0, atol=1e-13)


@pytest.mark.parametrize("degree", [1, 2])
def test_stabilizer_matrix_symmetric_psd(degree, poly_mesh_4):
    """The matrix of the jump stabilizer is symmetric positive semidefinite."""
    ops = ElementOps(poly_mesh_4, degree)
    n = ops.dofmap.num_velocity_dofs
    jumps = np.stack([ops.trace_jump(WeakFunction(ops.dofmap, row)) for row in np.eye(n)])
    weight = ops.edge_mass[ops.side_edge] / ops.mesh.diameters[ops.side_cell][:, None, None]
    S = np.einsum("ahir,hrs->ahis", jumps, weight).reshape(n, -1) @ jumps.reshape(n, -1).T
    assert np.allclose(S, S.T, atol=1e-14)
    assert np.linalg.eigvalsh(S).min() >= -1e-12
    v, w = np.random.default_rng(degree).standard_normal((2, n))
    form = eval_s(ops, WeakFunction(ops.dofmap, v), WeakFunction(ops.dofmap, w))
    assert np.isclose(v @ S @ w, form)


def test_stabilizer_vanishes_for_conforming_linears(ops_quad_k2):
    """A projected polynomial of degree <= k has matching traces, so s(v,v)=0."""
    ops = ops_quad_k2
    u = lambda pts: np.column_stack([1 + pts[:, 0] - 2 * pts[:, 1], pts[:, 1] ** 2])
    v = project_velocity(ops, u, data_degree=2)
    assert eval_s(ops, v, v) < 1e-24


def test_stabilizer_single_edge_oracle(ops_quad_k1):
    """v0 = 0 with a unit constant trace on one edge gives sum_T |e| / h_T."""
    ops = ops_quad_k1
    e = int(np.nonzero(~ops.mesh.boundary_edges)[0][0])
    v = WeakFunction.zeros(ops.dofmap)
    one = ops.solve_edge_mass(ops.edge_moments(lambda pts: np.ones(len(pts)), 0))[e]
    v.edge(e)[0] = one
    length = ops.mesh.edge_lengths()[e]
    expected = sum(
        length / ops.mesh.diameters[c]
        for c in range(ops.mesh.num_cells)
        if e in ops.mesh.cell_edges[c]
    )
    assert np.isclose(eval_s(ops, v, v), expected, rtol=1e-12)


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
    v = project_velocity(ops, u, data_degree=4)
    pg = project_gradient(ops, grad, data_degree=3)
    pd = project_divergence(ops, div, data_degree=3)
    assert np.allclose(ops.weak_gradient(v), pg, atol=1e-12)
    assert np.allclose(ops.weak_divergence(v), pd, atol=1e-12)


@pytest.mark.parametrize("degree", [1, 2])
def test_commutativity_random_fields(degree, poly_mesh_4):
    ops = ElementOps(poly_mesh_4, degree)
    rng = np.random.default_rng(17)
    for _ in range(3):
        field = PolyField(degree + 2, rng)
        v = project_velocity(ops, field.u, data_degree=field.degree)
        pg = project_gradient(ops, field.grad, data_degree=field.degree - 1)
        pd = project_divergence(ops, field.div, data_degree=field.degree - 1)
        scale = max(np.abs(pg).max(), 1.0)
        assert np.abs(ops.weak_gradient(v) - pg).max() <= 1e-12 * scale
        assert np.abs(ops.weak_divergence(v) - pd).max() <= 1e-12 * scale


def test_zero_function_maps_to_zero(ops_quad_k1):
    ops = ops_quad_k1
    v = WeakFunction.zeros(ops.dofmap)
    assert eval_grad_product(ops, v, v) == 0.0
    assert eval_s(ops, v, v) == 0.0
    assert np.all(ops.weak_gradient(v) == 0.0)
    assert np.all(ops.weak_divergence(v) == 0.0)


def test_interior_gradient_controlled_by_energy():
    """The broken H1 seminorm of v0 stays bounded by the energy norm under refinement."""
    rng = np.random.default_rng(23)
    maxima = []
    for n in (4, 8):
        ops = ElementOps(generate_mesh("uniform-quad", n), 1)
        worst = 0.0
        for _ in range(50):
            v = WeakFunction.random(ops.dofmap, rng, zero_boundary=True)
            energy = eval_grad_product(ops, v, v) + eval_s(ops, v, v)
            broken = 0.0
            for c in range(ops.mesh.num_cells):
                rule = ops.cell_rule(c)
                g = np.einsum("pij,ci->pcj", ops.cell_basis[c].eval_grad(rule.points), v.interior(c))
                broken += rule.weights @ (g**2).sum(axis=(1, 2))
            worst = max(worst, broken / energy)
        maxima.append(worst)
    assert maxima[1] <= 10 * maxima[0]
