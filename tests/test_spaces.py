"""DOF numbering and coefficient-container behavior."""

import numpy as np
import pytest

from wgstokes.errors import ConfigurationError
from wgstokes.mesh import generate_mesh
from wgstokes.spaces import DofMap, PressureFunction, WeakFunction

from conftest import dof_indices


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
    """Every global velocity index belongs to exactly one block, and every
    pressure index to one cell; the DofMap's index arrays hold the blocks of
    the coefficient views."""
    dm = DofMap(mesh, 2)
    interior, edge = dof_indices(dm)
    assert interior.shape == (mesh.num_cells, 2, dm.dim_cell)
    assert edge.shape == (mesh.num_edges, 2, dm.dim_edge)
    assert np.array_equal(dm.cell_dofs, interior) and np.array_equal(dm.edge_dofs, edge)
    assert dm.cell_pressures.shape == (mesh.num_cells, dm.dim_cell_low)
    seen = np.zeros(dm.num_velocity_dofs, dtype=int)
    for c in range(mesh.num_cells):
        seen[interior[c]] += 1
    for e in range(mesh.num_edges):
        seen[edge[e]] += 1
    assert np.all(seen == 1)
    seen = np.zeros(dm.num_pressure_dofs, dtype=int)
    for c in range(mesh.num_cells):
        seen[dm.cell_pressures[c]] += 1
    assert np.all(seen == 1)


def test_interior_edges_shared_by_two_cells(mesh):
    dm = DofMap(mesh, 1)
    interior, edge = dof_indices(dm)
    refs = np.zeros(dm.num_velocity_dofs, dtype=int)
    for c in range(mesh.num_cells):
        refs[interior[c]] += 1
    for e in mesh.side_edge:  # each side sees its edge once
        refs[edge[e]] += 1
    for e in range(mesh.num_edges):
        expected = 1 if mesh.boundary_edges[e] else 2
        assert np.all(refs[edge[e]] == expected)
    for c in range(mesh.num_cells):
        assert np.all(refs[interior[c]] == 1)


def test_stacked_views_match_blocks(mesh):
    """The all-cell and all-edge views hold the per-entity blocks and write through."""
    dm = DofMap(mesh, 2)
    rng = np.random.default_rng(0)
    v = WeakFunction(dm, rng.standard_normal(dm.num_velocity_dofs))
    p = PressureFunction(dm, rng.standard_normal(dm.num_pressure_dofs))
    assert v.v0.shape == (mesh.num_cells, 2, dm.dim_cell)
    assert v.vb.shape == (mesh.num_edges, 2, dm.dim_edge)
    for c in range(mesh.num_cells):
        assert np.array_equal(v.v0[c], v.interior(c))
        assert np.array_equal(p.cellwise[c], p.cell(c))
        assert np.array_equal(v.coeffs[dm.cell_dofs[c]], v.v0[c])
        assert np.array_equal(p.coeffs[dm.cell_pressures[c]], p.cellwise[c])
    n_edge = 2 * dm.dim_edge  # edge-major after all interior blocks, x then y
    for e in range(mesh.num_edges):
        start = dm.interior_size + e * n_edge
        assert np.array_equal(v.vb[e].ravel(), v.coeffs[start : start + n_edge])
        assert np.array_equal(v.coeffs[dm.edge_dofs[e]], v.vb[e])
    v.vb[3] = 7.0
    assert np.all(v.coeffs[dof_indices(dm)[1][3]] == 7.0)


def test_boundary_mask(mesh):
    dm = DofMap(mesh, 1)
    mask = dm.boundary_velocity_mask()
    interior, edge = dof_indices(dm)
    for e in range(mesh.num_edges):
        assert mask[edge[e]].all() == bool(mesh.boundary_edges[e])
    for c in range(mesh.num_cells):
        assert not mask[interior[c]].any()


def test_weak_function_views_write_through(mesh):
    dm = DofMap(mesh, 1)
    v = WeakFunction.zeros(dm)
    interior, edge = dof_indices(dm)
    v.interior(0)[:] = 1.0
    v.vb[2] = 3.0
    assert v.coeffs[interior[0]].sum() == 2 * dm.dim_cell
    assert np.all(v.coeffs[edge[2]] == 3.0)


def test_function_arithmetic(mesh):
    dm = DofMap(mesh, 1)
    rng = np.random.default_rng(2)
    v, w = (WeakFunction(dm, x) for x in rng.standard_normal((2, dm.num_velocity_dofs)))
    assert np.allclose((v - w).coeffs, v.coeffs - w.coeffs)
    p, q = (PressureFunction(dm, x) for x in rng.standard_normal((2, dm.num_pressure_dofs)))
    assert np.allclose((p - q).cell(1), p.cell(1) - q.cell(1))


def test_length_validation(mesh):
    dm = DofMap(mesh, 1)
    with pytest.raises(ValueError):
        WeakFunction(dm, np.zeros(3))
    with pytest.raises(ValueError):
        PressureFunction(dm, np.zeros(dm.num_pressure_dofs + 1))
