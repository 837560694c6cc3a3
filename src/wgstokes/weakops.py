"""Discrete weak differential operators, held as stacks over cells and sides.

For a velocity field v = {v0, vb} on a cell T the weak gradient is the
tensor polynomial G in [P_{k-1}(T)]^{2x2} defined against every test
tensor q of the same space through integration by parts,

    (G, q)_T = -(v0, div q)_T + <vb, q n>_dT,

where div acts row-wise and n is the outward normal; the weak divergence
is the scalar analogue in P_{k-1}(T).  Both reduce to scalar problems per
velocity component, solved with the P_{k-1} mass matrix.

The stabilizer couples the trace of v0 with vb through the edgewise L2
projection: s_T(v, w) = h_T^{-1} <P_e v0 - vb, P_e w0 - wb>_dT summed over
the sides of T, where P_e projects onto the edge polynomial space.

:class:`ElementOps` builds every cell's quadrature rule with one
``polygon_rule`` call into one flat table (points, weights, the cell of
each point), evaluates the scaled monomials there once, and reduces per
cell with ``np.add.reduceat``; the edge rules come from one ``edge_rule``
call.  Side stacks follow the mesh's side table (one cell seeing one of its
edges, cell-major in loop order).  Edge-basis values at an edge's Gauss
points are the same reference table on every edge, since both use the
canonical parameter.  The local operators are stacks over cells or sides
(shapes below), built on scheme tables that integrate every scheme
integrand exactly (2k+2 on cells, 2k+1 on edges) and are not kept.  Every data
integral, polynomial or not, uses one more table per kind, exact to
DATA_EXACTNESS, built on first use and cached on the ElementOps until its
owner deletes it (a study level drops the cell table across the solve).
Every cell integral, the masses and moments here as well as the data
moments, is reduced one basis column at a time, so beside the table it
holds only (points, components) arrays, never one per basis function.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .basis import CellBasis, monomial_gradients, monomials, space_dimension
from .errors import MeshValidationError
from .quadrature import PolygonError, edge_rule, gauss_points, polygon_rule
from .spaces import DofMap

#: total exactness of every data rule: polynomial data of degree d (at most
#: 7 in the registry) meet a P_k basis exactly while d + k <= 12, so up to
#: k = 5, and smooth data agree with a rule four degrees higher to rounding
#: (test_data_rule_at_rounding_floor; at 10 they do not)
DATA_EXACTNESS = 12


@dataclass(frozen=True)
class CellTable:
    """All cell rules concatenated: points (N, 2), weights (N,), the owning
    cell of each point (N,), each cell's first point (n_cells,), and the
    P_k basis values (N, dim_cell); P_{k-1} values are the first columns."""

    points: np.ndarray
    weights: np.ndarray
    cell: np.ndarray
    starts: np.ndarray
    values: np.ndarray

    def integrate(self, field, columns):
        """Per-cell integrals of field (N, ...) times each column of columns (N, m).

        Returns (n_cells, ..., m).  The weights scale a copy of the field
        once, and one column is reduced at a time through one reused
        (N, ...) product, so no (N, ..., m) array is ever built.
        """
        per_point = (-1,) + (1,) * (np.ndim(field) - 1)  # an (N,) array against (N, ...) values
        f = self.weights.reshape(per_point) * field
        out = np.empty((len(self.starts),) + f.shape[1:] + (columns.shape[1],))
        product = np.empty_like(f)
        for a in range(columns.shape[1]):
            np.multiply(f, columns[:, a].reshape(per_point), out=product)
            out[..., a] = np.add.reduceat(product, self.starts, axis=0)
        return out


@dataclass(frozen=True)
class EdgeTable:
    """Gauss rules of all edges: points (n_edges, q, 2), weights (n_edges, q), and
    the edge-basis values (q, dim_edge), which every edge shares."""

    points: np.ndarray
    weights: np.ndarray
    values: np.ndarray


class ElementOps:
    """Local operator stacks for one (mesh, degree) pair.

    Attributes
    ----------
    mass : (n_cells, dim_cell, dim_cell)
        P_k cell masses; ``mass_low`` is the leading P_{k-1} block.
    edge_mass : (n_edges, dim_edge, dim_edge)
    grad_interior : (n_cells, 2, dim_cell_low, dim_cell)
        [c, j] maps a scalar's interior coefficients to the P_{k-1}
        coefficients of its weak derivative in direction j.
    grad_side : (n_sides, 2, dim_cell_low, dim_edge)
        The same from the edge coefficients seen through one side.
    trace : (n_sides, dim_edge, dim_cell)
        Edge projection of the P_k cell basis restricted to the side.
    """

    def __init__(self, mesh, degree):
        self.mesh = mesh
        self.degree = int(degree)
        self.dofmap = DofMap(mesh, degree)
        k = self.degree
        nlow = self.dofmap.dim_cell_low
        self.cell_exactness = 2 * k + 2
        self.edge_exactness = 2 * k + 1

        cq = self._cell_rules(self.cell_exactness)
        eq = self._edge_rules(self.edge_exactness)

        vals = cq.values
        self.mass = cq.integrate(vals, vals)
        self.mass_low = self.mass[:, :nlow, :nlow]
        # interior part tested with the gradients of the low basis, (N, j, r)
        grads_low = monomial_gradients(self._local(cq.points, cq.cell), k - 1).transpose(0, 2, 1)
        grads_low /= mesh.diameters[cq.cell][:, None, None]
        self.grad_interior = -np.linalg.solve(self.mass_low[:, None], cq.integrate(grads_low, vals))

        self.edge_mass = np.einsum("eq,qa,qb->eab", eq.weights, eq.values, eq.values)
        side_cell, side_edge = mesh.side_cell, mesh.side_edge
        side_vals = self.basis_values(eq.points[side_edge], side_cell[:, None])
        # edge-basis moments of the cell basis on each side: (n_sides, dim_edge, dim_cell)
        T = np.einsum("hq,qb,hqa->hba", eq.weights[side_edge], eq.values, side_vals)
        self.trace = np.linalg.solve(self.edge_mass[side_edge], T)
        flux = np.linalg.solve(self.mass_low[side_cell], T[:, :, :nlow].transpose(0, 2, 1))
        self.grad_side = mesh.side_normal[:, :, None, None] * flux[:, None]

    @cached_property
    def cell_basis(self):
        """Each cell's P_k basis as a CellBasis, built on first use: no study level reads it."""
        mesh = self.mesh
        return [CellBasis(self.degree, c, h) for c, h in zip(mesh.centroids, mesh.diameters)]

    @cached_property
    def cell_basis_low(self):
        """Each cell's P_{k-1} basis as a CellBasis, built on first use."""
        mesh = self.mesh
        return [CellBasis(self.degree - 1, c, h) for c, h in zip(mesh.centroids, mesh.diameters)]

    # -- quadrature tables ---------------------------------------------

    def _local(self, points, cells):
        """Scaled coordinates of points (..., 2) about the centroids of `cells` (...)."""
        mesh = self.mesh
        return (points - mesh.centroids[cells]) / mesh.diameters[cells][..., None]

    def basis_values(self, points, cells):
        """P_k basis values of `cells` (...) at points (..., 2); shape (..., dim_cell)."""
        return monomials(self._local(points, cells), self.degree)

    @cached_property
    def cell_data(self):
        """Rules of all cells for data integrals, exact to DATA_EXACTNESS and the scheme's."""
        return self._cell_rules(max(DATA_EXACTNESS, self.cell_exactness))

    @cached_property
    def edge_data(self):
        """Rules of all edges for data integrals, exact to DATA_EXACTNESS and the scheme's."""
        return self._edge_rules(max(DATA_EXACTNESS, self.edge_exactness))

    def _cell_rules(self, exactness):
        mesh = self.mesh
        loops = mesh.vertices[mesh.side_vertices[:, 0]]
        try:
            rule = polygon_rule(loops, exactness, mesh.side_starts)
        except PolygonError as err:
            raise MeshValidationError(f"cell {err.index}: {err}") from err
        return CellTable(
            points=rule.points,
            weights=rule.weights,
            cell=rule.owner,
            starts=np.searchsorted(rule.owner, np.arange(mesh.num_cells)),
            values=self.basis_values(rule.points, rule.owner),
        )

    def _edge_rules(self, exactness):
        ends = self.mesh.vertices[self.mesh.edges]
        rule = edge_rule(ends[:, 0], ends[:, 1], exactness)
        # Gauss points of the unit reference edge, in the canonical parameter;
        # the edge basis is the powers of t = s - 1/2
        s, _ = gauss_points(exactness)
        return EdgeTable(
            points=rule.points.reshape(-1, len(s), 2),
            weights=rule.weights.reshape(-1, len(s)),
            values=(s - 0.5)[:, None] ** np.arange(self.degree),
        )

    # -- weak operators applied to coefficient vectors --------------------

    def per_cell(self, side_values):
        """Sum a (n_sides, ...) stack over the sides of each cell; (n_cells, ...)."""
        return np.add.reduceat(side_values, self.mesh.side_starts, axis=0)

    def weak_gradient(self, v):
        """Weak gradients of v on all cells: (n_cells, 2, 2, dim_cell_low).

        Entry [c, i, j] holds the P_{k-1} coefficients of d v_i / d x_j.
        """
        sides = np.einsum("hjrb,hib->hijr", self.grad_side, v.vb[self.mesh.side_edge])
        return np.einsum("cjra,cia->cijr", self.grad_interior, v.v0) + self.per_cell(sides)

    def weak_divergence(self, v):
        """Weak divergences of v on all cells: (n_cells, dim_cell_low)."""
        grad = self.weak_gradient(v)
        return grad[:, 0, 0] + grad[:, 1, 1]

    def trace_jump(self, v):
        """Edge coefficients of (P_e v0 - vb) on every side: (n_sides, 2, dim_edge)."""
        interior = np.einsum("hba,hia->hib", self.trace, v.v0[self.mesh.side_cell])
        return interior - v.vb[self.mesh.side_edge]

    # -- data moments ------------------------------------------------------

    def cell_moments(self, func, degree):
        """Integrals of `func` against the degree-`degree` basis of every cell.

        func maps (n, 2) points to (n,) scalars or (n, d) stacks; returns
        (n_cells, dim) or (n_cells, d, dim) accordingly.  One basis column
        is reduced at a time (`CellTable.integrate`).
        """
        table = self.cell_data
        return table.integrate(func(table.points), table.values[:, : space_dimension(degree)])

    def edge_moments(self, func):
        """Integrals of `func` against the edge basis of every edge.

        Returns (n_edges, dim_edge) or (n_edges, d, dim_edge) for (n,) or (n, d) values.
        """
        table = self.edge_data
        n, q = table.weights.shape
        f = np.asarray(func(table.points.reshape(-1, 2)), dtype=float)
        f = f.reshape((n, q) + f.shape[1:])
        return np.einsum("eq,eq...,qb->e...b", table.weights, f, table.values)

    def solve_cell_mass(self, moments, degree=None):
        """Apply the inverse cell masses (degree k or k-1) to (n_cells, [d,] dim) moments."""
        n = space_dimension(self.degree if degree is None else degree)
        return _solve_stack(self.mass[:, :n, :n], moments)

    def solve_edge_mass(self, moments):
        """Apply the inverse edge masses to (n_edges, [d,] dim_edge) moments."""
        return _solve_stack(self.edge_mass, moments)


def _solve_stack(mats, moments):
    m = np.asarray(moments, dtype=float)
    rhs = m.reshape(len(m), -1, m.shape[-1]).transpose(0, 2, 1)
    return np.linalg.solve(mats, rhs).transpose(0, 2, 1).reshape(m.shape)
