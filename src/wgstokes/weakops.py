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

:class:`ElementOps` concatenates every cell's quadrature rule into one flat
table (points, weights, the cell of each point), evaluates the scaled
monomials there once, and reduces per cell with ``np.add.reduceat``.  A
*side* is one cell seeing one of its edges; sides are numbered cell-major
in loop order.  Edge-basis values at an edge's Gauss points are the same
reference table on every edge, since both use the canonical parameter.
The local operators are stacks over cells or sides (shapes below); the
scheme tables use the default exactness (2k+2 on cells, 2k+1 on edges),
which integrates every scheme integrand exactly.  Data-dependent integrals
build a table per call, at the exactness `data_exactness` assigns.
"""

from dataclasses import dataclass

import numpy as np

from .basis import CellBasis, EdgeBasis, monomial_gradients, monomials, space_dimension
from .errors import MeshValidationError
from .quadrature import edge_rule, gauss_points, polygon_rule
from .spaces import DofMap

#: total quadrature exactness used when data is not polynomial
NONPOLY_EXACTNESS = 20


def data_exactness(data_degree, degree):
    """Rule exactness for data of total degree `data_degree` times a P_degree function.

    None marks non-polynomial data, which gets NONPOLY_EXACTNESS.
    """
    return NONPOLY_EXACTNESS if data_degree is None else data_degree + degree


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

    def integrate(self, subscripts, first, *rest):
        """Per-cell integrals of einsum(subscripts, first, *rest), points on axis 0.

        The weights scale `first`, so the einsum result is the one (N, ...)
        temporary; the integrals have shape (n_cells, ...).
        """
        weighted = self.weights.reshape((-1,) + (1,) * (np.ndim(first) - 1)) * first
        return np.add.reduceat(np.einsum(subscripts, weighted, *rest), self.starts, axis=0)


@dataclass(frozen=True)
class EdgeTable:
    """Gauss rules of a set of edges: points (n, q, 2), weights (n, q), and
    the edge-basis values (q, dim_edge), which every edge shares."""

    points: np.ndarray
    weights: np.ndarray
    values: np.ndarray


class ElementOps:
    """Local operator stacks for one (mesh, degree) pair.

    Attributes
    ----------
    cell_quadrature : CellTable
    edge_quadrature : EdgeTable
        The scheme rules of all cells and all edges.
    mass : (n_cells, dim_cell, dim_cell)
        P_k cell masses; ``mass_low`` is the leading P_{k-1} block.
    edge_mass : (n_edges, dim_edge, dim_edge)
    side_cell, side_edge : (n_sides,)
        Cell and edge of each side; ``side_starts`` (n_cells,) is the
        first side of each cell, ``side_normal`` (n_sides, 2) its outward
        normal.
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
        cells = list(zip(mesh.centroids, mesh.diameters))
        self.cell_basis = [CellBasis(k, center, scale) for center, scale in cells]
        self.cell_basis_low = [CellBasis(k - 1, center, scale) for center, scale in cells]

        counts = np.array([len(loop) for loop in mesh.cells])
        self.side_cell = np.repeat(np.arange(mesh.num_cells), counts)
        self.side_edge = np.concatenate(mesh.cell_edges)
        self.side_starts = np.cumsum(counts) - counts
        start = mesh.vertices[np.concatenate(mesh.cells)]
        following = np.arange(len(start)) + 1
        following[self.side_starts + counts - 1] = self.side_starts
        t = start[following] - start
        # CCW loops: the outward normal is the tangent turned by -90 degrees
        self.side_normal = np.column_stack([t[:, 1], -t[:, 0]]) / np.hypot(*t.T)[:, None]

        self.cell_quadrature = cq = self._cell_table(self.cell_exactness)
        self.edge_quadrature = eq = self._edge_table(self.edge_exactness)

        vals = cq.values
        grads_low = monomial_gradients(self._local(cq.points, cq.cell), k - 1)
        grads_low /= mesh.diameters[cq.cell][:, None, None]
        self.mass = cq.integrate("pa,pb->pab", vals, vals)
        self.mass_low = self.mass[:, :nlow, :nlow]
        # interior part tested with the gradients of the low basis
        moments = cq.integrate("prj,pa->pjra", grads_low, vals)
        self.grad_interior = -np.linalg.solve(self.mass_low[:, None], moments)

        self.edge_mass = np.einsum("eq,qa,qb->eab", eq.weights, eq.values, eq.values)
        side_vals = self.basis_values(eq.points[self.side_edge], self.side_cell[:, None])
        # edge-basis moments of the cell basis on each side: (n_sides, dim_edge, dim_cell)
        T = np.einsum("hq,qb,hqa->hba", eq.weights[self.side_edge], eq.values, side_vals)
        self.trace = np.linalg.solve(self.edge_mass[self.side_edge], T)
        flux = np.linalg.solve(self.mass_low[self.side_cell], T[:, :, :nlow].transpose(0, 2, 1))
        self.grad_side = self.side_normal[:, :, None, None] * flux[:, None]

    # -- quadrature tables ---------------------------------------------

    def _local(self, points, cells):
        """Scaled coordinates of points (..., 2) about the centroids of `cells` (...)."""
        mesh = self.mesh
        return (points - mesh.centroids[cells]) / mesh.diameters[cells][..., None]

    def basis_values(self, points, cells):
        """P_k basis values of `cells` (...) at points (..., 2); shape (..., dim_cell)."""
        return monomials(self._local(points, cells), self.degree)

    def cell_rule(self, c, exactness=None):
        """Quadrature rule of cell c, exact to max(exactness, scheme exactness)."""
        ex = self.cell_exactness if exactness is None else max(exactness, self.cell_exactness)
        try:
            return polygon_rule(self.mesh.cell_vertices(c), ex)
        except ValueError as err:
            raise MeshValidationError(f"cell {c}: {err}") from err

    def cell_table(self, exactness=None):
        """Rules of all cells at the given exactness; the scheme table if it suffices."""
        if exactness is None or exactness <= self.cell_exactness:
            return self.cell_quadrature
        return self._cell_table(exactness)

    def _cell_table(self, exactness):
        rules = [self.cell_rule(c, exactness) for c in range(self.mesh.num_cells)]
        counts = np.array([len(rule.weights) for rule in rules])
        cell = np.repeat(np.arange(self.mesh.num_cells), counts)
        points = np.concatenate([rule.points for rule in rules])
        return CellTable(
            points=points,
            weights=np.concatenate([rule.weights for rule in rules]),
            cell=cell,
            starts=np.cumsum(counts) - counts,
            values=self.basis_values(points, cell),
        )

    def edge_table(self, exactness=None, edges=None):
        """Rules of the given edges (default: all); the scheme table if it suffices."""
        ex = self.edge_exactness if exactness is None else max(exactness, self.edge_exactness)
        if edges is None and ex == self.edge_exactness:
            return self.edge_quadrature
        return self._edge_table(ex, edges)

    def _edge_table(self, exactness, edges=None):
        edges = range(self.mesh.num_edges) if edges is None else edges
        rules = [edge_rule(*self.mesh.edge_vertices(e), exactness) for e in edges]
        # Gauss points of the unit reference edge, in the canonical parameter
        s, _ = gauss_points(exactness)
        reference = EdgeBasis(self.degree - 1, (0.0, 0.0), (1.0, 0.0))
        return EdgeTable(
            points=np.array([rule.points for rule in rules]).reshape(-1, len(s), 2),
            weights=np.array([rule.weights for rule in rules]).reshape(-1, len(s)),
            values=reference.eval(np.column_stack([s, np.zeros_like(s)])),
        )

    # -- weak operators applied to coefficient vectors --------------------

    def per_cell(self, side_values):
        """Sum a (n_sides, ...) stack over the sides of each cell; (n_cells, ...)."""
        return np.add.reduceat(side_values, self.side_starts, axis=0)

    def weak_gradient(self, v):
        """Weak gradients of v on all cells: (n_cells, 2, 2, dim_cell_low).

        Entry [c, i, j] holds the P_{k-1} coefficients of d v_i / d x_j.
        """
        sides = np.einsum("hjrb,hib->hijr", self.grad_side, v.vb[self.side_edge])
        return np.einsum("cjra,cia->cijr", self.grad_interior, v.v0) + self.per_cell(sides)

    def weak_divergence(self, v):
        """Weak divergences of v on all cells: (n_cells, dim_cell_low)."""
        grad = self.weak_gradient(v)
        return grad[:, 0, 0] + grad[:, 1, 1]

    def trace_jump(self, v):
        """Edge coefficients of (P_e v0 - vb) on every side: (n_sides, 2, dim_edge)."""
        interior = np.einsum("hba,hia->hib", self.trace, v.v0[self.side_cell])
        return interior - v.vb[self.side_edge]

    # -- data moments ------------------------------------------------------

    def cell_moments(self, func, degree, data_degree=None):
        """Integrals of `func` against the degree-`degree` basis of every cell.

        func maps (n, 2) points to (n,) scalars or (n, d) stacks; returns
        (n_cells, dim) or (n_cells, d, dim) accordingly.
        """
        table = self.cell_table(data_exactness(data_degree, degree))
        f = np.asarray(func(table.points), dtype=float)
        vals = table.values[:, : space_dimension(degree)]
        return table.integrate("p...,pa->p...a", f, vals)

    def edge_moments(self, func, data_degree=None, edges=None):
        """Integrals of `func` against the edge basis of the given edges (default: all).

        Returns (n, dim_edge) or (n, d, dim_edge) for (n,) or (n, d) values.
        """
        table = self.edge_table(data_exactness(data_degree, self.degree - 1), edges)
        n, q = table.weights.shape
        f = np.asarray(func(table.points.reshape(-1, 2)), dtype=float)
        f = f.reshape((n, q) + f.shape[1:])
        return np.einsum("eq,eq...,qb->e...b", table.weights, f, table.values)

    def solve_cell_mass(self, moments, degree=None):
        """Apply the inverse cell masses (degree k or k-1) to (n_cells, [d,] dim) moments."""
        n = space_dimension(self.degree if degree is None else degree)
        return _solve_stack(self.mass[:, :n, :n], moments)

    def solve_edge_mass(self, moments, edges=None):
        """Apply the inverse edge masses to (n, [d,] dim_edge) moments of `edges`."""
        return _solve_stack(self.edge_mass if edges is None else self.edge_mass[edges], moments)


def _solve_stack(mats, moments):
    m = np.asarray(moments, dtype=float)
    rhs = m.reshape(len(m), -1, m.shape[-1]).transpose(0, 2, 1)
    return np.linalg.solve(mats, rhs).transpose(0, 2, 1).reshape(m.shape)
