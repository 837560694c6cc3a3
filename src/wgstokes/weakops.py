"""Discrete weak differential operators and local element matrices.

For a velocity field v = {v0, vb} on a cell T the weak gradient is the
tensor polynomial G in [P_{k-1}(T)]^{2x2} defined against every test
tensor q of the same space through integration by parts,

    (G, q)_T = -(v0, div q)_T + <vb, q n>_dT,

where div acts row-wise and n is the outward normal; the weak divergence
is the scalar analogue in P_{k-1}(T).  Both reduce to scalar problems per
velocity component, solved with the (factored) P_{k-1} mass matrix.

The stabilizer couples the trace of v0 with vb through the edgewise L2
projection: s_T(v, w) = h_T^{-1} <P_e v0 - vb, P_e w0 - wb>_dT summed over
the sides of T, where P_e projects onto the edge polynomial space.

:class:`ElementOps` precomputes, per cell, the factored mass matrices, the
weak-operator coefficient maps, and the local velocity/divergence/pressure
matrices used by assembly and analysis.  Quadrature rules are cached per
(entity, exactness); scheme matrices always use the default exactness
(2k+2 on cells, 2k+1 on edges), which integrates every scheme integrand
exactly.  Data-dependent integrals request higher exactness through the
``data_degree`` arguments.
"""

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .quadrature import edge_rule, polygon_rule
from .basis import CellBasis, EdgeBasis
from .spaces import DofMap

#: total quadrature exactness used when data is not polynomial
NONPOLY_EXACTNESS = 20


class ElementOps:
    """Per-cell operator workspace for one (mesh, degree) pair.

    Parameters
    ----------
    mesh : PolygonalMesh
    degree : int
        Velocity interior degree k >= 1.
    """

    def __init__(self, mesh, degree):
        self.mesh = mesh
        self.degree = int(degree)
        self.dofmap = DofMap(mesh, degree)
        k = self.degree
        self.cell_exactness = 2 * k + 2
        self.edge_exactness = 2 * k + 1
        self._cell_rules = {}
        self._edge_rules = {}

        self.edge_basis = [
            EdgeBasis(k - 1, *mesh.edge_vertices(e)) for e in range(mesh.num_edges)
        ]
        cells = list(zip(mesh.centroids, mesh.diameters))
        self.cell_basis = [CellBasis(k, center, scale) for center, scale in cells]
        self.cell_basis_low = [CellBasis(k - 1, center, scale) for center, scale in cells]

        self._build_edge_mass()
        self._build_cell_ops()

    # -- quadrature caches ---------------------------------------------

    def cell_rule(self, c, exactness=None):
        ex = self.cell_exactness if exactness is None else max(exactness, self.cell_exactness)
        key = (c, ex)
        rule = self._cell_rules.get(key)
        if rule is None:
            rule = polygon_rule(self.mesh.cell_vertices(c), ex)
            self._cell_rules[key] = rule
        return rule

    def edge_rule(self, e, exactness=None):
        ex = self.edge_exactness if exactness is None else max(exactness, self.edge_exactness)
        key = (e, ex)
        rule = self._edge_rules.get(key)
        if rule is None:
            rule = edge_rule(*self.mesh.edge_vertices(e), ex)
            self._edge_rules[key] = rule
        return rule

    def data_cell_exactness(self, data_degree):
        """Rule exactness for cell moments of data against the P_k basis."""
        if data_degree is None:
            return NONPOLY_EXACTNESS
        return data_degree + self.degree

    def data_edge_exactness(self, data_degree):
        if data_degree is None:
            return NONPOLY_EXACTNESS
        return data_degree + self.degree - 1

    # -- mass matrices ----------------------------------------------------

    def _build_edge_mass(self):
        self.edge_mass = []
        self._edge_mass_chol = []
        for e in range(self.mesh.num_edges):
            rule = self.edge_rule(e)
            vals = self.edge_basis[e].eval(rule.points)
            M = vals.T @ (vals * rule.weights[:, None])
            self.edge_mass.append(M)
            self._edge_mass_chol.append(cho_factor(M))

    def _build_cell_ops(self):
        mesh, k = self.mesh, self.degree
        nk = self.dofmap.dim_cell
        nlow = self.dofmap.dim_cell_low
        ne = self.dofmap.dim_edge
        self.mass_cell = []
        self._mass_cell_chol = []
        self.mass_low = []
        self._mass_low_chol = []
        self.grad_map = []  # (2, nlow, nsc): scalar weak-gradient components
        self.trace_proj = []  # per cell: list of (ne, nk) trace-projection maps
        self.stab_scalar = []  # (nsc, nsc)
        self.cell_matrix = []  # (nloc, nloc): gradient part + stabilizer
        self.div_matrix = []  # (nlow, nloc): weak-divergence coefficients
        self.pressure_coupling = []  # (nlow, nloc): mass-weighted divergence
        self.edge_owner = [None] * mesh.num_edges  # first (cell, side) seeing each edge

        for c in range(mesh.num_cells):
            rule = self.cell_rule(c)
            w = rule.weights[:, None]
            vals_k = self.cell_basis[c].eval(rule.points)
            vals_low = self.cell_basis_low[c].eval(rule.points)
            grads_low = self.cell_basis_low[c].eval_grad(rule.points)
            M_k = vals_k.T @ (vals_k * w)
            M_low = vals_low.T @ (vals_low * w)
            chol_low = cho_factor(M_low)
            self.mass_cell.append(M_k)
            self._mass_cell_chol.append(cho_factor(M_k))
            self.mass_low.append(M_low)
            self._mass_low_chol.append(chol_low)

            sides = mesh.cell_edges[c]
            m = len(sides)
            normals = mesh.cell_normals(c)
            nsc = nk + m * ne
            h_T = mesh.diameters[c]

            # moment blocks: interior part tested with grad of the low basis
            D = np.einsum("prj,p,pi->jri", grads_low, rule.weights, vals_k)  # (2, nlow, nk)

            rhs = np.zeros((2, nlow, nsc))
            rhs[:, :, :nk] = -D
            traces = []
            edge_blocks = []  # (T_s, F_s, M_e, chol_e) per side for the stabilizer
            for s, e in enumerate(sides):
                if self.edge_owner[e] is None:
                    self.edge_owner[e] = (c, s)
                erule = self.edge_rule(e)
                ew = erule.weights[:, None]
                evals = self.edge_basis[e].eval(erule.points)
                kvals = self.cell_basis[c].eval(erule.points)
                lowvals = self.cell_basis_low[c].eval(erule.points)
                T_s = evals.T @ (kvals * ew)  # (ne, nk)
                F_s = lowvals.T @ (evals * ew)  # (nlow, ne)
                col = slice(nk + s * ne, nk + (s + 1) * ne)
                for j in (0, 1):
                    rhs[j, :, col] = normals[s, j] * F_s
                traces.append(T_s)
                edge_blocks.append((T_s, e))
            W = np.empty((2, nlow, nsc))
            for j in (0, 1):
                W[j] = cho_solve(chol_low, rhs[j])
            self.grad_map.append(W)
            self.trace_proj.append(
                [cho_solve(self._edge_mass_chol[e], T_s) for T_s, e in edge_blocks]
            )

            # scalar stabilizer: h_T^{-1} <P_e u0 - ub, P_e w0 - wb>_e per side
            S = np.zeros((nsc, nsc))
            for s, (T_s, e) in enumerate(edge_blocks):
                M_e = self.edge_mass[e]
                R = self.trace_proj[c][s]  # (ne, nk): trace projection of P_k basis
                col = slice(nk + s * ne, nk + (s + 1) * ne)
                S[:nk, :nk] += T_s.T @ R
                S[:nk, col] -= T_s.T
                S[col, :nk] -= T_s
                S[col, col] += M_e
            S /= h_T
            self.stab_scalar.append(S)

            # vector-valued local matrices
            comp = self.dofmap.component_maps(c)
            nloc = 2 * nk + 2 * m * ne
            K_sc = W[0].T @ M_low @ W[0] + W[1].T @ M_low @ W[1] + S
            A_T = np.zeros((nloc, nloc))
            for i in (0, 1):
                A_T[np.ix_(comp[i], comp[i])] += K_sc
            self.cell_matrix.append(A_T)

            Dv = np.zeros((nlow, nloc))
            for j in (0, 1):
                Dv[:, comp[j]] = W[j]
            self.div_matrix.append(Dv)
            self.pressure_coupling.append(M_low @ Dv)

    # -- weak operators applied to coefficient vectors --------------------

    def weak_gradient(self, v, c):
        """Weak gradient of v on cell c: (2, 2, dim_cell_low) coefficients.

        Entry [i, j] holds the P_{k-1} coefficients of d v_i / d x_j.
        """
        comp = self.dofmap.component_maps(c)
        local = v.local(c)
        W = self.grad_map[c]
        out = np.empty((2, 2, self.dofmap.dim_cell_low))
        for i in (0, 1):
            sc = local[comp[i]]
            for j in (0, 1):
                out[i, j] = W[j] @ sc
        return out

    def weak_divergence(self, v, c):
        """Weak divergence of v on cell c: (dim_cell_low,) coefficients."""
        return self.div_matrix[c] @ v.local(c)

    def trace_jump(self, v, c, s):
        """Edge-space coefficients of (P_e v0 - vb) on side s of cell c; (2, dim_edge)."""
        e = self.mesh.cell_edges[c][s]
        R = self.trace_proj[c][s]
        return v.interior(c) @ R.T - v.edge(e)

    # -- data moments ------------------------------------------------------

    def cell_moments(self, c, func, degree, data_degree=None):
        """Integrals of `func` against the degree-`degree` cell basis.

        func maps (n, 2) points to (n,) scalars or (n, d) stacks; returns
        (dim,) or (d, dim) accordingly.
        """
        rule = self.cell_rule(c, self.data_cell_exactness(data_degree))
        basis = self.cell_basis[c] if degree == self.degree else self.cell_basis_low[c]
        vals = basis.eval(rule.points)
        f = np.asarray(func(rule.points), dtype=float)
        if f.ndim == 1:
            return vals.T @ (rule.weights * f)
        return (vals.T @ (rule.weights[:, None] * f)).T

    def edge_moments(self, e, func, data_degree=None):
        """Integrals of `func` against the edge basis; (dim,) or (d, dim)."""
        rule = self.edge_rule(e, self.data_edge_exactness(data_degree))
        vals = self.edge_basis[e].eval(rule.points)
        f = np.asarray(func(rule.points), dtype=float)
        if f.ndim == 1:
            return vals.T @ (rule.weights * f)
        return (vals.T @ (rule.weights[:, None] * f)).T

    def solve_cell_mass(self, c, moments, degree=None):
        """Apply the inverse cell mass matrix (degree k or k-1) to moments.

        Accepts (dim,) or (d, dim) stacks; the result has the same shape.
        """
        deg = self.degree if degree is None else degree
        chol = self._mass_cell_chol[c] if deg == self.degree else self._mass_low_chol[c]
        m = np.asarray(moments, dtype=float)
        return cho_solve(chol, m) if m.ndim == 1 else cho_solve(chol, m.T).T

    def solve_edge_mass(self, e, moments):
        m = np.asarray(moments, dtype=float)
        chol = self._edge_mass_chol[e]
        return cho_solve(chol, m) if m.ndim == 1 else cho_solve(chol, m.T).T
