"""DOF numbering and coefficient-container behavior."""

import numpy as np
import pytest

from wgstokes.errors import ConfigurationError
from wgstokes.mesh import generate_mesh
from wgstokes.spaces import DofMap, PressureFunction, WeakFunction


@pytest.fixture(scope="module")
def mesh():
    return generate_mesh("uniform-quad", 2)


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_dimensions(mesh, degree):
    dm = DofMap(mesh, degree)
    nk = (degree + 1) * (degree + 2) // 2
    assert dm.dim_cell == nk
    assert dm.dim_cell_low == degree * (degree + 1) // 2
    assert dm.dim_edge == degree
    assert dm.num_velocity_dofs == mesh.num_cells * 2 * nk + mesh.num_edges * 2 * degree
    assert dm.num_pressure_dofs == mesh.num_cells * dm.dim_cell_low


def test_degree_validation(mesh):
    with pytest.raises(ConfigurationError):
        DofMap(mesh, 0)
    with pytest.raises(ConfigurationError):
        DofMap(mesh, 1.5)


def test_blocks_partition_index_space(mesh):
    """Every global velocity index belongs to exactly one block."""
    dm = DofMap(mesh, 2)
    seen = np.zeros(dm.num_velocity_dofs, dtype=int)
    for c in range(mesh.num_cells):
        seen[dm.interior_dofs(c)] += 1
    for e in range(mesh.num_edges):
        seen[dm.edge_dofs(e)] += 1
    assert np.all(seen == 1)


def test_interior_edges_shared_by_two_cells(mesh):
    dm = DofMap(mesh, 1)
    refs = np.zeros(dm.num_velocity_dofs, dtype=int)
    for c in range(mesh.num_cells):
        refs[dm.interior_dofs(c)] += 1
    for e in mesh.side_edge:  # each side sees its edge once
        refs[dm.edge_dofs(e)] += 1
    for e in range(mesh.num_edges):
        expected = 1 if mesh.boundary_edges[e] else 2
        assert np.all(refs[dm.edge_dofs(e)] == expected)
    for c in range(mesh.num_cells):
        assert np.all(refs[dm.interior_dofs(c)] == 1)


def test_stacked_views_match_blocks(mesh):
    """The all-cell and all-edge views hold the per-entity blocks and write through."""
    dm = DofMap(mesh, 2)
    rng = np.random.default_rng(0)
    v = WeakFunction.random(dm, rng)
    p = PressureFunction.random(dm, rng)
    assert v.v0.shape == (mesh.num_cells, 2, dm.dim_cell)
    assert v.vb.shape == (mesh.num_edges, 2, dm.dim_edge)
    for c in range(mesh.num_cells):
        assert np.array_equal(v.v0[c], v.interior(c))
        assert np.array_equal(p.cellwise[c], p.cell(c))
    for e in range(mesh.num_edges):
        assert np.array_equal(v.vb[e], v.edge(e))
    v.vb[3] = 7.0
    assert np.all(v.coeffs[dm.edge_dofs(3)] == 7.0)


def test_boundary_mask(mesh):
    dm = DofMap(mesh, 1)
    mask = dm.boundary_velocity_mask()
    for e in range(mesh.num_edges):
        assert mask[dm.edge_dofs(e)].all() == bool(mesh.boundary_edges[e])
    for c in range(mesh.num_cells):
        assert not mask[dm.interior_dofs(c)].any()


def test_weak_function_views_write_through(mesh):
    dm = DofMap(mesh, 1)
    v = WeakFunction.zeros(dm)
    v.interior(0)[:] = 1.0
    v.edge(2)[:] = 3.0
    assert v.coeffs[dm.interior_dofs(0)].sum() == 2 * dm.dim_cell
    assert np.all(v.coeffs[dm.edge_dofs(2)] == 3.0)


def test_random_zero_boundary(mesh):
    dm = DofMap(mesh, 2)
    v = WeakFunction.random(dm, np.random.default_rng(1), zero_boundary=True)
    assert np.all(v.coeffs[dm.boundary_velocity_mask()] == 0.0)
    assert np.any(v.coeffs != 0.0)


def test_function_arithmetic(mesh):
    dm = DofMap(mesh, 1)
    rng = np.random.default_rng(2)
    v = WeakFunction.random(dm, rng)
    w = WeakFunction.random(dm, rng)
    assert np.allclose((v - w).coeffs, v.coeffs - w.coeffs)
    p = PressureFunction.random(dm, rng)
    q = PressureFunction.random(dm, rng)
    assert np.allclose((p - q).cell(1), p.cell(1) - q.cell(1))


def test_length_validation(mesh):
    dm = DofMap(mesh, 1)
    with pytest.raises(ValueError):
        WeakFunction(dm, np.zeros(3))
    with pytest.raises(ValueError):
        PressureFunction(dm, np.zeros(dm.num_pressure_dofs + 1))
