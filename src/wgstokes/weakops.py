"""Discrete weak differential operators, held as stacks over cells and sides.

For a velocity field v = {v0, vb} on a cell T the weak gradient is the
tensor polynomial G in [P_{k-1}(T)]^{2x2} defined against every test
tensor q of the same space through integration by parts,

    (G, q)_T = -(v0, div q)_T + <vb, q n>_dT,

where div acts row-wise and n is the outward normal; the weak divergence
is the scalar analogue in P_{k-1}(T).  Both reduce to scalar problems per
velocity component, solved with the P_{k-1} mass matrix; only the moments
on the right-hand side are kept, and each use applies the mass inverse once.

The stabilizer couples the trace of v0 with vb through the edgewise L2
projection: s_T(v, w) = h_T^{-1} <P_e v0 - vb, P_e w0 - wb>_dT summed over
the sides of T, where P_e projects onto the edge polynomial space.

:class:`ElementOps` keeps one edge table, the Gauss rules of all edges from
one ``edge_rule`` call, exact to DATA_EXACTNESS and the scheme's 2k+1; it
serves the edge stacks and the data moments alike.  Every scheme cell
integrand is a polynomial of degree <= 2k in the scaled coordinates
xi = (x - x_T)/h_T, and Euler's identity for homogeneous functions gives it
from the same side points on any simple polygon (Chin, Lasserre & Sukumar,
Comput. Mech. 56, 2015): int_T xi^a = h_T/(2+|a|) sum_s (xi_s . n_s) int_s xi^a,
where xi_s . n_s is constant on each side.  The masses and weak-gradient
moments are gathers on one table of these integrals per cell.  A side sum,
cell sum or edge mass within the rounding bound of its own terms is set to
an exact zero, so integrals that vanish by symmetry store no matrix entries.
Side stacks follow the mesh's side table (one cell seeing one of its edges,
cell-major in loop order); the edge basis at the Gauss points is one
reference table, since every edge uses the canonical parameter.  The only
cell rule is ``cell_data``, for data integrals: one ``polygon_rule`` call
splits every cell into bilinear pieces (for this rule only), exact to
DATA_EXACTNESS, built on first use and cached until its owner deletes it
(a study level drops it across the solve).  Its moments are reduced one
basis column at a time, so beside the table they hold only (points,
components) arrays, never one per basis function.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .basis import CellBasis, monomial_exponents, monomials, space_dimension
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
    grad_moments : (n_cells, 2, dim_cell_low, dim_cell)
        [c, j, r, a] = -(phi_a, d_j q_r)_T, the interior term of the weak gradient's moments.
    side_moments : (n_sides, dim_cell_low, dim_edge)
        <psi_b, q_r> on each side; times the normal's n_j, the side term of the same moments.
    trace : (n_sides, dim_edge, dim_cell)
        Edge projection of the P_k cell basis restricted to the side.
    edge_data : EdgeTable
        The Gauss rules of all edges, for the edge stacks and the data moments.
    """

    def __init__(self, mesh, degree):
        self.mesh = mesh
        self.degree = int(degree)
        self.dofmap = DofMap(mesh, degree)
        k = self.degree
        nlow = self.dofmap.dim_cell_low

        exactness = max(DATA_EXACTNESS, 2 * k + 1)
        ends = mesh.vertices[mesh.edges]
        rule = edge_rule(ends[:, 0], ends[:, 1], exactness)
        # Gauss points of the unit reference edge, in the canonical parameter;
        # the edge basis is the powers of t = s - 1/2
        s, _ = gauss_points(exactness)
        self.edge_data = eq = EdgeTable(
            points=rule.points.reshape(-1, len(s), 2),
            weights=rule.weights.reshape(-1, len(s)),
            values=(s - 0.5)[:, None] ** np.arange(k),
        )
        side_cell, side_edge = mesh.side_cell, mesh.side_edge
        # the cell basis at the side points, (n_sides, q, dim_cell), and its
        # edge-basis moments on each side, (n_sides, dim_edge, dim_cell)
        side_vals = self.basis_values(eq.points[side_edge], side_cell[:, None])
        T = np.einsum("hq,qb,hqa->hba", eq.weights[side_edge], eq.values, side_vals)

        # int_T xi^alpha for |alpha| <= 2k by Euler's identity, one column at a
        # time, each the side sum of one product of two P_k columns
        exps = np.array(monomial_exponents(k))
        products = _column(exps[:, None] + exps)  # (dim_cell, dim_cell) columns of P_2k
        pairs = np.divmod(np.unique(products, return_index=True)[1], len(exps))
        corner = self._local(mesh.vertices[mesh.side_vertices[:, 0]], side_cell)
        w = eq.weights[side_edge] * (corner * mesh.side_normal).sum(axis=1)[:, None]
        moments = np.empty((mesh.num_cells, len(pairs[0])))
        for col, (i, j) in enumerate(zip(*pairs)):
            terms = [w, side_vals[..., i], side_vals[..., j]]
            sums = self.per_cell(np.einsum("hq,hq,hq->h", *terms))
            magnitudes = self.per_cell(np.einsum("hq,hq,hq->h", *map(np.abs, terms)))
            moments[:, col] = _drop_rounding(sums, magnitudes, len(s))
            moments[:, col] /= 2.0 + exps[i].sum() + exps[j].sum()
        del terms  # its views would keep side_vals alive
        moments *= mesh.diameters[:, None]
        moments[:, 1:3] = 0.0  # int_T xi_x and int_T xi_y, zero about the centroid
        np.abs(side_vals, out=side_vals)
        magnitudes = np.einsum("hq,qb,hqa->hba", eq.weights[side_edge], np.abs(eq.values), side_vals)
        T = _drop_rounding(T, magnitudes, len(s))
        del side_vals, magnitudes  # the largest arrays here; the stacks below do not need them

        self.mass = np.take(moments, products, axis=1)  # C-ordered, unlike moments[:, products]
        self.mass_low = self.mass[:, :nlow, :nlow]
        # (d_j phi_r, phi_a)_T = alpha_rj / h_T int_T xi^(alpha_r - e_j + alpha_a): (c, j, r, a)
        low = exps[:nlow]
        shifted = np.maximum(low - np.eye(2, dtype=int)[:, None], 0)  # (j, r, 2)
        scale = low.T[:, :, None] / mesh.diameters[:, None, None, None]
        self.grad_moments = -scale * np.take(moments, _column(shifted[:, :, None] + exps), axis=1)

        self.edge_mass = _drop_rounding(
            np.einsum("eq,qa,qb->eab", eq.weights, eq.values, eq.values),
            np.einsum("eq,qa,qb->eab", eq.weights, np.abs(eq.values), np.abs(eq.values)),
            len(s),
        )
        self.trace = np.linalg.solve(self.edge_mass[side_edge], T)
        self.side_moments = T[:, :, :nlow].transpose(0, 2, 1).copy()

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
        """The only cell rule, for data integrals: all cells split into bilinear
        pieces by one ``polygon_rule`` call, exact to DATA_EXACTNESS and to 2k+2."""
        mesh = self.mesh
        loops = mesh.vertices[mesh.side_vertices[:, 0]]
        try:
            rule = polygon_rule(loops, max(DATA_EXACTNESS, 2 * self.degree + 2), mesh.side_starts)
        except PolygonError as err:
            raise MeshValidationError(f"cell {err.index}: {err}") from err
        return CellTable(
            points=rule.points,
            weights=rule.weights,
            cell=rule.owner,
            starts=np.searchsorted(rule.owner, np.arange(mesh.num_cells)),
            values=self.basis_values(rule.points, rule.owner),
        )

    # -- weak operators applied to coefficient vectors --------------------

    def per_cell(self, side_values):
        """Sum a (n_sides, ...) stack over the sides of each cell; (n_cells, ...)."""
        return np.add.reduceat(side_values, self.mesh.side_starts, axis=0)

    def weak_gradient(self, v):
        """Weak gradients of v on all cells: (n_cells, 2, 2, dim_cell_low).

        Entry [c, i, j] holds the P_{k-1} coefficients of d v_i / d x_j: the
        moments -(v0_i, d_j q_r)_T + <vb_i, q_r n_j>_dT, solved against the masses.
        """
        mesh = self.mesh
        vb = v.vb[mesh.side_edge]
        sides = np.einsum("hj,hrb,hib->hijr", mesh.side_normal, self.side_moments, vb)
        moments = np.einsum("cjra,cia->cijr", self.grad_moments, v.v0) + self.per_cell(sides)
        return self.solve_cell_mass(moments, self.degree - 1)

    def weak_divergence(self, v):
        """Weak divergences of v on all cells: (n_cells, dim_cell_low)."""
        grad = self.weak_gradient(v)
        return grad[:, 0, 0] + grad[:, 1, 1]

    def trace_jump(self, v):
        """Edge coefficients of (P_e v0 - vb) on every side: (n_sides, 2, dim_edge)."""
        interior = np.einsum("hba,hia->hib", self.trace, v.v0[self.mesh.side_cell])
        return interior - v.vb[self.mesh.side_edge]

    # -- data moments ------------------------------------------------------

    def cell_moments(self, field, degree):
        """Integrals of a field against the degree-`degree` basis of every cell.

        field holds (n,) scalars or (n, d) stacks at the `cell_data` points;
        returns (n_cells, dim) or (n_cells, d, dim) accordingly.  The weights
        scale a copy of the values once, and one basis column is reduced at a
        time through one reused (n, ...) product, so no (n, ..., dim) array is built.
        """
        table = self.cell_data
        per_point = (-1,) + (1,) * (np.ndim(field) - 1)  # an (n,) array against (n, ...) values
        f = table.weights.reshape(per_point) * field
        out = np.empty((len(table.starts),) + f.shape[1:] + (space_dimension(degree),))
        product = np.empty_like(f)
        for a in range(out.shape[-1]):
            np.multiply(f, table.values[:, a].reshape(per_point), out=product)
            out[..., a] = np.add.reduceat(product, table.starts, axis=0)
        return out

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


def _drop_rounding(sums, magnitudes, terms):
    """Zero, in place, the `sums` within terms * eps of their terms' `magnitudes`:
    the rounding bound of a sum of `terms` products, and all that an integral
    vanishing by symmetry leaves, which the sparse products would keep."""
    sums[np.abs(sums) <= terms * np.finfo(float).eps * magnitudes] = 0.0
    return sums


def _column(exps):
    """Column of each exponent pair (..., 2) in the `monomial_exponents` order."""
    return exps.sum(axis=-1) * (exps.sum(axis=-1) + 1) // 2 + exps[..., 1]


def _solve_stack(mats, moments):
    m = np.asarray(moments, dtype=float)
    rhs = m.reshape(len(m), -1, m.shape[-1]).transpose(0, 2, 1)
    return np.linalg.solve(mats, rhs).transpose(0, 2, 1).reshape(m.shape)
