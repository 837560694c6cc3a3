"""Shared fixtures and helpers for the test suite."""

import inspect

import numpy as np
import pytest
from scipy import linalg, sparse
from scipy.optimize import linprog
from scipy.sparse.linalg import splu, spsolve

from wgstokes import solver
from wgstokes.analysis import _project_data
from wgstokes.assembly import _cell_matrices
from wgstokes.basis import monomial_exponents, monomials, space_dimension
from wgstokes.cases import ManufacturedCase
from wgstokes.mesh import PolygonalMesh, generate_mesh
from wgstokes.quadrature import edge_rule, polygon_rule
from wgstokes.spaces import WeakFunction
from wgstokes.weakops import ElementOps


class PolyField:
    """Random vector polynomial of total degree d with analytic grad/div.

    Coefficients are drawn from the supplied generator, so fields are
    reproducible given a seed.  Derivatives are taken by exponent
    shifting, which keeps the analytic data exact to rounding.
    """

    def __init__(self, degree, rng):
        self.degree = degree
        self.exps = [(a, d - a) for d in range(degree + 1) for a in range(d + 1)]
        self.cx = rng.standard_normal(len(self.exps))
        self.cy = rng.standard_normal(len(self.exps))

    def _eval(self, coeffs, pts, dx=0, dy=0):
        out = np.zeros(len(pts))
        for (a, b), c in zip(self.exps, coeffs):
            if a < dx or b < dy:
                continue
            fac = c
            for i in range(dx):
                fac *= a - i
            for i in range(dy):
                fac *= b - i
            out += fac * pts[:, 0] ** (a - dx) * pts[:, 1] ** (b - dy)
        return out

    def u(self, pts):
        return np.column_stack([self._eval(self.cx, pts), self._eval(self.cy, pts)])

    def grad(self, pts):
        out = np.empty((len(pts), 2, 2))
        out[:, 0, 0] = self._eval(self.cx, pts, dx=1)
        out[:, 0, 1] = self._eval(self.cx, pts, dy=1)
        out[:, 1, 0] = self._eval(self.cy, pts, dx=1)
        out[:, 1, 1] = self._eval(self.cy, pts, dy=1)
        return out

    def div(self, pts):
        return self._eval(self.cx, pts, dx=1) + self._eval(self.cy, pts, dy=1)


def monomial_gradients(loc, degree):
    """Gradients of `monomials` in the local coordinates; shape (..., dim, 2).

    Differentiates each column by exponent shifting; `weakops` never
    evaluates these, so they are an oracle for its gathered moments.
    """
    out = np.zeros(loc.shape[:-1] + (space_dimension(degree), 2))
    for col, (a, b) in enumerate(monomial_exponents(degree)):
        if a:
            out[..., col, 0] = a * loc[..., 0] ** (a - 1) * loc[..., 1] ** b
        if b:
            out[..., col, 1] = b * loc[..., 0] ** a * loc[..., 1] ** (b - 1)
    return out


def edge_basis(degree, p0, p1, pts):
    """Edge basis of P_degree at on-edge points; shape (npts, degree + 1).

    The powers of t = (x - p0).(p1 - p0)/|p1 - p0|^2 - 1/2, which runs over
    [-1/2, 1/2] from the edge's canonical first vertex p0 to p1.  Stacks
    broadcast: (n, 1, 2) ends against (n, npts, 2) points give (n, npts, degree + 1).
    """
    d = np.subtract(p1, p0)
    t = ((np.atleast_2d(pts) - p0) * d).sum(axis=-1) / (d * d).sum(axis=-1) - 0.5
    return t[..., None] ** np.arange(degree + 1)


def weak_operators_at_points(ops, v):
    """Reference weak gradient and trace jumps of a discrete velocity, by
    point evaluation alone.

    Builds its own rules at the scheme's exactness (2k+2 on cells, 2k+1 on
    edges), solves every cell's weak gradient G from its definition,
    (G, q)_T = -(v0, div q)_T + <vb, q n>_dT for q in [P_{k-1}(T)]^{2x2}, and
    projects each side's v0 - vb on the edge polynomials.  Returns the P_{k-1}
    coefficients of G (n_cells, 2, 2, dim_cell_low), [c, i, j] those of
    d v_i / d x_j, with the cell masses they were solved against, and the edge
    coefficients of Q_b v0 - vb on every side (n_sides, 2, k) with their
    moments against the edge basis.  Reads the mesh and degree of `ops`, but
    none of its operator stacks, masses or tables.
    """
    mesh, k = ops.mesh, ops.degree
    nlow = space_dimension(k - 1)
    h, centroids = mesh.diameters, mesh.centroids

    loops = mesh.vertices[mesh.side_vertices[:, 0]]
    cell_rule = polygon_rule(loops, 2 * k + 2, mesh.side_starts)
    c, w = cell_rule.owner, cell_rule.weights
    loc = (cell_rule.points - centroids[c]) / h[c, None]
    low = monomials(loc, k - 1)  # (N, nlow)
    dlow = monomial_gradients(loc, k - 1) / h[c, None, None]  # (N, nlow, 2)
    v0 = np.einsum("pa,pia->pi", monomials(loc, k), v.v0[c])
    mass = np.zeros((mesh.num_cells, nlow, nlow))
    np.add.at(mass, c, w[:, None, None] * low[:, :, None] * low[:, None, :])
    rhs = np.zeros((mesh.num_cells, 2, 2, nlow))
    np.add.at(rhs, c, -np.einsum("p,pi,prj->pijr", w, v0, dlow))

    ends = mesh.vertices[mesh.edges]
    edge = edge_rule(ends[:, 0], ends[:, 1], 2 * k + 1)
    q = len(edge.weights) // mesh.num_edges
    pts, we = edge.points.reshape(-1, q, 2), edge.weights.reshape(-1, q)
    psi = edge_basis(k - 1, ends[:, None, 0], ends[:, None, 1], pts)  # (n_edges, q, k)
    vb = np.einsum("eqb,eib->eqi", psi, v.vb)

    sc, se = mesh.side_cell, mesh.side_edge
    side_loc = (pts[se] - centroids[sc][:, None]) / h[sc][:, None, None]
    side_low = monomials(side_loc, k - 1)  # (n_sides, q, nlow)
    flux = np.einsum("hq,hqi,hqr,hj->hijr", we[se], vb[se], side_low, mesh.side_normal)
    np.add.at(rhs, sc, flux)
    grad = np.linalg.solve(mass[:, None, None], rhs[..., None])[..., 0]  # (n_cells, 2, 2, nlow)

    diff = np.einsum("hqa,hia->hqi", monomials(side_loc, k), v.v0[sc]) - vb[se]
    moments = np.einsum("hq,hqb,hqi->hib", we[se], psi[se], diff)
    edge_mass = np.einsum("hq,hqa,hqb->hab", we[se], psi[se], psi[se])
    jump = np.linalg.solve(edge_mass[:, None], moments[..., None])[..., 0]
    return grad, mass, jump, moments


def energy_at_points(ops, v):
    """Reference |||v|||² of a discrete velocity, by point evaluation alone:
    (G, G) summed over the cells and h_T⁻¹ |Q_b v0 - vb|² over the sides,
    from `weak_operators_at_points`."""
    grad, mass, jump, moments = weak_operators_at_points(ops, v)
    stabilizer = np.einsum("hib,hib->h", jump, moments) / ops.mesh.diameters[ops.mesh.side_cell]
    return np.einsum("cijr,crs,cijs->", grad, mass, grad) + np.sum(stabilizer)


def weak_gradient(ops, v):
    """The weak gradient of v that the solve runs: (n_cells, 2, 2, dim_cell_low),
    [c, i, j] the P_{k-1} coefficients of d v_i / d x_j.  Applies each cell
    matrix batch's b, the weak-gradient moments in each direction of one
    component's DOFs, to v, and the inverse P_{k-1} masses to the result."""
    moments = np.empty((ops.mesh.num_cells, 2, 2, ops.dofmap.dim_cell_low))
    for batch in _cell_matrices(ops):
        moments[batch.cells] = np.einsum("crja,cia->cijr", batch.b, v.coeffs[batch.dofs])
    return ops.solve_cell_mass(moments, ops.degree - 1)


def project(ops, field, degree=None):
    """L2 projection of an exact field as `analysis._project_data` computes it:
    a velocity (degree None) as the WeakFunction {Q0 u, Qb u}, Qb u by the edge
    masses; any other field as its cellwise P_degree coefficients (n_cells, ..., dim)."""
    values = field(ops.cell_data.points)
    cells = _project_data(ops, values, ops.degree if degree is None else degree)[0]
    if degree is not None:
        return cells
    velocity = WeakFunction.zeros(ops.dofmap)
    velocity.v0[:] = cells
    velocity.vb[:] = ops.solve_edge_mass(ops.edge_moments(field))
    return velocity


def true_errors_at_points(ops, case, velocity, pressure):
    """Reference ||u - v0|| and ||p - p_h||, by point evaluation alone.

    Evaluates the exact fields and the discrete ones at the points of
    `ops.cell_data` and sums the weighted squared differences; reads no
    projection of the exact fields.
    """
    table = ops.cell_data

    def l2(exact, coeffs):
        """L2 distance from `exact` to cellwise polynomials with coeffs (n_cells, ..., dim)."""
        values = table.values[:, : coeffs.shape[-1]]
        approx = np.einsum("pr,p...r->p...", values, coeffs[table.cell])
        diff = (np.asarray(exact(table.points), dtype=float) - approx).reshape(len(approx), -1)
        return float(np.sqrt(table.weights @ (diff**2).sum(axis=1)))

    return l2(case.u, velocity.v0), l2(case.p, pressure.cellwise)


# -- manufactured cases, derived by sympy ------------------------------------
#
# The primitive expressions of every registered case, in x and y.  Their
# fields (u, p, f = -Δu + ∇p and grad u) are derived symbolically
# and printed by sympy.lambdify into wgstokes/case_fields.py; test_cases
# checks that module's text and values against this derivation.

# The stream case's velocity is the curl (d/dy, -d/dx) of this bubble.
_BUBBLE = "x**2*(1 - x)**2*y**2*(1 - y)**2"

CASE_EXPRESSIONS = {
    "poly-exact-k1": ("y", "-x", "0"),
    "poly-exact-k2": ("x**2 - 2*x*y", "y**2 - 2*x*y", "x + y - 1"),
    "stream-quartic": (f"diff({_BUBBLE}, y)", f"-diff({_BUBBLE}, x)", "x**3 - 1/4"),
    "taylor-trig": ("sin(pi*x)*cos(pi*y)", "-cos(pi*x)*sin(pi*y)", "cos(pi*x)*cos(pi*y)"),
}

CASE_FIELDS_HEADER = '''"""Fields of the registered manufactured cases, as numpy source.

Generated, not written: each function is the source sympy.lambdify prints
for one field of one case (velocity u, pressure p, body force
f = -Δu + ∇p and Jacobian grad_u), named <case>_<field>.  The primitive
expressions and their derivation live in tests/conftest.py;
tests/test_cases.py derives every field again, checks this text and its
values against it, and prints the module to commit when they differ.
"""

from numpy import cos, pi, sin
'''


def sympy_fields(ux, uy, p):
    """sympy expressions of the fields u, p, f and grad_u of a case given
    by its velocity components and pressure (strings in x and y)."""
    import sympy as sp

    x, y = sp.symbols("x y")
    ux, uy, p = sp.sympify(ux), sp.sympify(uy), sp.sympify(p)
    fx = -(sp.diff(ux, x, 2) + sp.diff(ux, y, 2)) + sp.diff(p, x)
    fy = -(sp.diff(uy, x, 2) + sp.diff(uy, y, 2)) + sp.diff(p, y)
    return {
        "u": [ux, uy],
        "p": p,
        "f": [sp.factor_terms(fx), sp.factor_terms(fy)],
        "grad_u": [[sp.diff(comp, var) for var in (x, y)] for comp in (ux, uy)],
    }


def lambdified_fields(ux, uy, p):
    """The fields of `sympy_fields`, each lambdified to a numpy function of (x, y)."""
    import sympy as sp

    fields = sympy_fields(ux, uy, p)
    return {name: sp.lambdify(sp.symbols("x y"), e, "numpy") for name, e in fields.items()}


def lambdified_case(name, ux, uy, p, data_degree, regularity="", description=""):
    """A ManufacturedCase whose fields sympy derives and lambdifies here."""
    fields = lambdified_fields(ux, uy, p)
    return ManufacturedCase(name, data_degree, regularity, description, **fields)


def case_fields_source():
    """The text of wgstokes/case_fields.py: lambdify's printout of every field."""
    defs = []
    for case, exprs in CASE_EXPRESSIONS.items():
        for field, fn in lambdified_fields(*exprs).items():
            name = f"{case.replace('-', '_')}_{field}"
            defs.append(inspect.getsource(fn).replace("_lambdifygenerated", name, 1))
    return CASE_FIELDS_HEADER + "".join("\n\n" + d for d in defs)


def dof_indices(dofmap):
    """Global velocity indices laid out as the (v0, vb) views of a WeakFunction."""
    idx = WeakFunction(dofmap, np.arange(dofmap.num_velocity_dofs, dtype=float))
    return idx.v0.astype(int), idx.vb.astype(int)


def lp_star_radius(loop):
    """Star radius of a CCW vertex loop by linear programming: the largest r
    with a centre x such that n_i . x + r <= n_i . p_i for every side i."""
    t = np.roll(loop, -1, axis=0) - loop
    normal = np.column_stack([t[:, 1], -t[:, 0]]) / np.hypot(*t.T)[:, None]
    A = np.column_stack([normal, np.ones(len(loop))])
    b = (normal * loop).sum(axis=1)
    res = linprog(c=[0.0, 0.0, -1.0], A_ub=A, b_ub=b, bounds=[(None, None)] * 3)
    assert res.success, res.message
    return res.x[2]


def dense_inf_sup(system):
    """Reference beta_h from a dense generalized eigensolve.

    Forms the dense pressure Schur complement S = B_f A_ff^{-1} B_fᵀ and
    takes the smallest eigenvalue of S q = lam M_p q on an orthonormal
    basis of the zero-mean pressures.  Small meshes only.
    """
    free = system.free
    Bt = system.B[:, free].T.toarray()
    S = Bt.T @ splu(system.A[free][:, free].tocsc()).solve(Bt)
    S = 0.5 * (S + S.T)
    Z = linalg.null_space(system.pressure_moments[None, :])
    M_p = system.pressure_mass().toarray()
    lam = linalg.eigh(Z.T @ S @ Z, Z.T @ M_p @ Z, eigvals_only=True)
    return float(np.sqrt(max(lam[0], 0.0)))


def full_solve(system):
    """Reference (u, p) of a SaddleSystem from its fields by plain scipy.

    A sparse LU of the full saddle matrix of the free velocities and the
    pressures, less the row and column of pressure 0 (pinned to 0), with
    one refinement step, then the shift to zero mean.  The constant
    pressure's coefficients are M_p⁻¹ m, m the pressure moments.  Shares
    no code with `solver`.
    """
    free, A, B, m = system.free, system.A, system.B, system.pressure_moments
    u = system.fixed_values.copy()
    B_f = B[1:][:, free]
    K = sparse.bmat([[A[free][:, free], -B_f.T], [-B_f, None]], format="csc")
    rhs = np.concatenate([system.load[free] - (A @ u)[free], B[1:] @ u])
    lu = splu(K)
    x = lu.solve(rhs)
    x += lu.solve(rhs - K @ x)  # LU rounding alone reaches 2e-9 on perturbed-polygon k=2 n=32
    u[free] = x[: len(free)]
    p = np.concatenate([[0.0], x[len(free) :]])
    constant = spsolve(system.pressure_mass().tocsc(), m)
    return u, p - (m @ p) / (m @ constant) * constant


@pytest.fixture
def splu_calls(monkeypatch):
    """Shapes of the sparse LU factorizations; `solver` makes every one."""
    calls = []

    def counting(matrix, *args, **kwargs):
        calls.append(matrix.shape)
        return splu(matrix, *args, **kwargs)

    monkeypatch.setattr(solver, "splu", counting)
    return calls


@pytest.fixture(scope="session")
def quad_mesh_4():
    return generate_mesh("uniform-quad", 4)


@pytest.fixture(scope="session")
def poly_mesh_4():
    return generate_mesh("perturbed-polygon", 4, seed=1)


@pytest.fixture(scope="session")
def hostile_mesh():
    """The unit square as a nonconvex U cell and the slot cell inside it.

    The U (ear-clipped: no vertex sees it whole) has collinear
    vertices on its bottom and left sides and a hanging vertex on the slot
    bottom, where the slot cell's side is split in two.  The U is not
    star-shaped (its kernel is empty), so it lies outside the paper's
    shape-regularity assumption; the identities tested on it do not need
    that assumption.
    """
    vertices = [
        (0, 0), (0.5, 0), (1, 0), (1, 1), (0.75, 1), (0.75, 0.25),
        (0.5, 0.25), (0.25, 0.25), (0.25, 1), (0, 1), (0, 0.5),
    ]  # fmt: skip
    return PolygonalMesh(vertices, [list(range(11)), [7, 6, 5, 4, 8]])


@pytest.fixture(scope="session")
def ops_quad_k1(quad_mesh_4):
    return ElementOps(quad_mesh_4, 1)


@pytest.fixture(scope="session")
def ops_quad_k2(quad_mesh_4):
    return ElementOps(quad_mesh_4, 2)


@pytest.fixture(scope="session")
def ops_poly_k2(poly_mesh_4):
    return ElementOps(poly_mesh_4, 2)


# -- acceptance reporting -------------------------------------------------
#
# The acceptance tests register one line per criterion here; the summary
# hook prints them after the run so they survive pytest's output capture.

ACCEPTANCE_LINES = []


def record_acceptance(name, passed, elapsed, detail=""):
    ACCEPTANCE_LINES.append(("PASS" if passed else "FAIL", name, elapsed, detail))


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for status, name, elapsed, detail in ACCEPTANCE_LINES:
        terminalreporter.write_line(f"{status}  {name:<34} {elapsed:7.2f}s  {detail}")
