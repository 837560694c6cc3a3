"""Saddle-point solves: cell-local elimination, one scalar sparse LU, and
the pressure by Lanczos.  The free velocities u_f and the pressures solve

    [ A_ff   -B_fᵀ ] [u_f]   [F_f - A_fx u_x]
    [ -B_f    0    ] [ p ] = [    B_x u_x    ],

x marking the Dirichlet DOFs.  A_ff is one scalar form's matrix for each
velocity component.  A CondensedFactor takes the cells' interior velocities
off it and factors the SPD edge Schur complement S by one sparse LU with
diagonal pivots, in a nested dissection order of the cells (George, SIAM J.
Numer. Anal. 10(2), 1973).  The zero-mean pressure solves B_f A_ff⁻¹ B_fᵀ p
= r by Lanczos-CG preconditioned by the pressure mass, against which that
operator's spectrum lies in [β_h², 2]: the step count is bounded by the
inf-sup constant, not by h (Verfürth, IMA J. Numer. Anal. 4, 1984).  A step
is one two-column solve by S's factor; β_h is the same operator's.
``condense=False``, the reference, is SuperLU's plain LU (COLAMD, partial
pivoting) of the whole matrix, pressure DOF 0 pinned by leaving it out; it
refines once and shifts p to zero mean.  Before each LU, glibc's
``malloc_trim(0)`` hands back the heap that assembly and the eliminations
freed, which SuperLU's factor could not reuse; without glibc the step is
skipped, with the same arithmetic.
"""

import ctypes
import dataclasses
import json
import time

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from .assembly import _scatter
from .errors import SolverError
from .spaces import PressureFunction, WeakFunction

# Largest admissible relative algebraic residual of a solve.
RESIDUAL_TOL = 1e-10

# The pressure's Lanczos stops at this relative mass-weighted residual.
PRESSURE_TOL = 1e-13

# Lanczos steps after which the pressure solve and beta_h give up.
LANCZOS_CAP = 400


try:  # glibc's malloc_trim; None where the C library has none, or cannot be opened
    malloc_trim = ctypes.CDLL(None).malloc_trim
    malloc_trim.argtypes = [ctypes.c_size_t]
except (OSError, TypeError, AttributeError):
    malloc_trim = None


@dataclasses.dataclass
class SolveReport:
    """Solution plus algebraic diagnostics and the factor that produced them."""

    velocity: WeakFunction
    pressure: PressureFunction
    residual: float
    momentum_residual: float
    mass_residual: float
    condensed: bool
    num_free_velocity: int
    num_pressure: int
    num_reduced: int
    lu_fill: int
    lanczos_steps: int
    wall_time: float
    factor: "CondensedFactor | None"  # None on the full path

    def to_json(self):
        fields = dataclasses.fields(self)[2:-1]  # the diagnostics
        return json.dumps({f.name: getattr(self, f.name) for f in fields})


def solve(system, condense=True):
    """Solve an assembled SaddleSystem with the factor of `factorize`, or with
    condense=False by one sparse LU of the whole free saddle matrix.

    The report keeps the factor; drop it when done with it.
    """
    t0 = time.perf_counter()
    free = system.free
    A, B, m = system.A, system.B, system.pressure_moments
    # boundary data sit on the fixed DOFs and are zero on the free ones
    u = system.fixed_values.copy()
    rhs_u, rhs_p = system.load - A @ u, B @ u  # rhs_u on the fixed rows goes unread

    if condense:
        factor = factorize(system)
        x, p, steps = factor.solve(rhs_u, rhs_p)
        u[free], lu = x[free], factor.lu
    else:  # pressure 0 pinned to 0 by leaving its row and column out
        factor, B_f = None, B[1:][:, free]
        K = sparse.bmat([[A[free][:, free], -B_f.T], [-B_f, None]], format="csc")
        rhs, lu, steps = np.concatenate([rhs_u[free], rhs_p[1:]]), _lu(K, "sparse"), 0
        x = lu.solve(rhs)
        x += lu.solve(rhs - K @ x)  # one refinement step: LU rounding grows with the mesh
        u[free], p = x[: len(free)], np.concatenate([[0.0], x[len(free) :]])

    if not np.isfinite(u).all() or not np.isfinite(p).all():
        raise SolverError("solve produced non-finite values (singular system?)")

    # pressure gauge: zero mean (m @ p integrates p_h), which the condensed p has to rounding
    mean = float(m @ p) / float(system.ops.mesh.areas.sum())
    p = p - mean * system.ops.dofmap.constant_pressure()

    # residuals on the full unpinned system (momentum tested on free rows only)
    r_mom = (A @ u - B.T @ p)[free] - system.load[free]
    r_mass = B @ u
    r_mean = float(m @ p)
    rhs_norm = float(np.linalg.norm(np.concatenate([rhs_u[free], rhs_p])))
    scale = max(rhs_norm, 1e-30)
    momentum_residual = float(np.linalg.norm(r_mom))
    mass_residual = float(np.linalg.norm(r_mass))
    residual = float(np.sqrt(momentum_residual**2 + mass_residual**2 + r_mean**2)) / scale
    if not residual <= RESIDUAL_TOL and rhs_norm > 0:
        raise SolverError(f"relative algebraic residual {residual:.3e} exceeds {RESIDUAL_TOL:g}")

    return SolveReport(
        velocity=WeakFunction(system.ops.dofmap, u),
        pressure=PressureFunction(system.ops.dofmap, p),
        residual=residual,
        momentum_residual=momentum_residual,
        mass_residual=mass_residual,
        condensed=condense,
        num_free_velocity=len(free),
        num_pressure=system.num_pressure_dofs,
        num_reduced=lu.shape[0] + (not condense),  # the full path's with the pinned pressure
        lu_fill=lu.nnz,  # SuperLU's own count: lu.L and lu.U are copies
        lanczos_steps=steps,
        wall_time=time.perf_counter() - t0,
        factor=factor,
    )


def lanczos(apply, start, done, lock):
    """Lanczos on the symmetric map `apply` from `start`, orthogonal to the unit
    vector `lock`; each new vector is orthogonalized against `lock` and all
    before it, until done(alpha, beta) holds for the running diagonal alpha
    and off-diagonal beta of the tridiagonal T, beta one longer: its last
    entry is the next off-diagonal.  Returns the vectors (rows) and T, built
    once; SolverError after LANCZOS_CAP steps."""
    V, a, b = np.zeros((LANCZOS_CAP + 2, len(start))), np.zeros(LANCZOS_CAP), np.zeros(LANCZOS_CAP + 1)
    V[0], V[1] = lock, start / np.linalg.norm(start)  # V's pages touched as reached
    for j in range(1, LANCZOS_CAP + 1):
        w = apply(V[j])
        w -= b[j - 1] * V[j - 1]  # b[0] = 0
        a[j - 1] = V[j] @ w
        w -= a[j - 1] * V[j]
        w -= V[: j + 1].T @ (V[: j + 1] @ w)  # full reorthogonalization, against `lock` too
        b[j] = np.linalg.norm(w)
        if done(a[:j], b[1 : j + 1]):
            return V[1 : j + 1], np.diag(a[:j]) + np.diag(b[1:j], 1) + np.diag(b[1:j], -1)
        np.divide(w, b[j], out=V[j + 1])
    raise SolverError(f"Lanczos reached its cap of {LANCZOS_CAP} steps on {len(start)} pressure DOFs")


class CondensedFactor:
    """The interior velocities' cell eliminations, ``steps`` (one per component
    and side count, batched over the cells: the eliminated unknowns, the rest, W, G), on
    the velocities and then the pressures, where the fixed velocities read 0;
    then one sparse LU (in csc) of the edge Schur complement S, whose rows
    hold the unknowns ``edges`` (n_S, 2) of each component.  With M_p = R Rᵀ, the
    pressure operator R⁻¹ S_p R⁻ᵀ is ``D`` + C S⁻¹ Cᵀ, and ``z``, Rᵀ of the
    constant pressure, normalized, is its null vector."""

    def __init__(self, S, C, D, R_inv, steps, edges, z):
        self.C, self.C_T, self.D, self.R_inv, self.steps, self.edges, self.z = C, C.T, D, R_inv, steps, edges, z
        symmetric = dict(SymmetricMode=True)  # S is SPD: diagonal pivots
        self.lu = _lu(S, "condensed", permc_spec="NATURAL", diag_pivot_thresh=0.0, options=symmetric)

    def _two(self, v):
        """S⁻¹ on both components (v and the result: x, then y), one two-column solve."""
        return self.lu.solve(v.reshape(2, -1).T).T.ravel()

    def operator(self, y):
        """R⁻¹ S_p R⁻ᵀ y."""
        return self.D @ y + self.C @ self._two(self.C_T @ y)

    def solve(self, rhs_u, rhs_p):
        """Velocity, 0 on the fixed rows (which rhs_u need not hold),
        zero-mean pressure, the pressure by Lanczos-CG, and its step count."""
        g, ws, p = np.concatenate([rhs_u, rhs_p]), [], slice(len(rhs_u), None)
        for index, rest, W, G in self.steps:
            ws.append(np.einsum("cij,cj->ci", W, g[index]))  # L⁻¹ f_c
            g -= np.bincount(rest.ravel(), np.einsum("cij,ci->cj", G, ws[-1]).ravel(), len(g))
        x, g_e = np.zeros(len(g)), g[self.edges.T].ravel()
        b = self.C @ self._two(g_e) - self.R_inv @ g[p]
        b -= self.z * (self.z @ b)
        y, steps = np.zeros(len(b)), 0
        if b.any():
            cg = [0.0, -1.0]  # β_{j-1}²/d_{j-1} and β_{j-1}(T_{j-1}⁻¹e₁)_{j-1}; at j = 1, 0 and -1

            def converged(alpha, beta):  # CG's residual β_j |(T_j⁻¹e₁)_j| by its pivots d_j (Saad §6.7)
                d = alpha[-1] - cg[0]
                cg[:] = beta[-1] ** 2 / d, -beta[-1] * cg[1] / d
                return abs(cg[1]) <= PRESSURE_TOL

            V, T = lanczos(self.operator, b, converged, self.z)  # y in the Lanczos basis: |b| T⁻¹e₁
            y, steps = np.linalg.norm(b) * (V.T @ np.linalg.solve(T, np.eye(len(T))[0])), len(T)
        x[p], x[self.edges.T] = self.R_inv.T @ y, self._two(g_e - self.C_T @ y).reshape(2, -1)
        for (index, rest, W, G), w in zip(self.steps[::-1], ws[::-1]):
            x[index] = np.einsum("cji,cj->ci", W, w - np.einsum("cij,cj->ci", G, x[rest]))
        return x[: len(rhs_u)], x[p], steps


def _lu(M, what, **options):
    """SuperLU's factor of M with `options`, once the freed heap is handed back."""
    if malloc_trim is not None:
        malloc_trim(0)  # the heap freed so far, back to the system before the LU maps its own
    try:
        return splu(M, **options)
    except RuntimeError as err:  # singular factorization
        raise SolverError(f"{what} factorization failed: {err}") from err


def _cholesky(K, sign, cells, name):
    """L Lᵀ = sign·K for a stack of symmetric cell blocks K, or a SolverError."""
    try:
        return np.linalg.cholesky(sign * K)
    except np.linalg.LinAlgError as err:
        lowest = np.linalg.eigvalsh(sign * K)[:, 0]
        c, kind = int(np.argmin(lowest)), "positive" if sign > 0 else "negative"
        message = f"{name} block of cell {cells[c]} is not {kind} definite (eigenvalue {sign * lowest[c]:.3e})"
        raise SolverError(message) from err


def _scalar_cells(batch, nk, n_u, R_inv):
    """A batch's scalar cell matrix a, bordered by -b of both components, less
    its interior block: with L Lᵀ that block, W = L⁻¹ and G = W K_ir, the
    two components' steps, and the (values, rows, columns) of S, C, D, R⁻¹."""
    (n, _, nv), low, R_inv = batch.dofs.shape, batch.b.shape[1], R_inv[batch.cells]
    K = np.zeros((n, nv + 2 * low, nv + 2 * low))  # [[a, -b_xᵀ, -b_yᵀ], [-b_x, 0, 0], [-b_y, 0, 0]]
    K[:, :nv, :nv] = batch.a[:, 0]
    K[:, nv:, :nv] = -batch.b.swapaxes(1, 2).reshape(n, 2 * low, nv)
    K[:, :nv, nv:] = K[:, nv:, :nv].swapaxes(1, 2)
    W = np.linalg.inv(_cholesky(K[:, :nk, :nk], 1, batch.cells, "interior"))
    G = W @ K[:, :nk, nk:]
    K, m = K[:, nk:, nk:] - G.swapaxes(1, 2) @ G, nv - nk  # on the edges, then the x and y pressures
    D = -(K[:, m : m + low, m : m + low] + K[:, m + low :, m + low :])  # B_i A_ii⁻¹ B_iᵀ
    _cholesky(-D[:, 1:, 1:], -1, batch.cells, "pressure")  # the interior controls the non-constant p
    steps, rows, edges = [], n_u + batch.pressures, batch.dofs[:, :, nk:]
    for c in range(2):  # the component's edges, then the cell's pressures
        rest, cols = np.concatenate([edges[:, c], rows], axis=1), np.r_[:m, m + c * low : m + (c + 1) * low]
        steps.append((batch.dofs[:, c, :nk], rest, W, G[:, :, cols]))
    C = R_inv @ K[:, m:, :m].reshape(n, 2, low, m).swapaxes(1, 2).reshape(n, low, 2 * m)
    edges, rows, cols = edges.reshape(n, -1), rows[..., None], rows[:, None]
    blocks = [(K[:, :m, :m], edges[:, :m, None], edges[:, None, :m]), (C, rows, edges[:, None])]
    return steps, blocks + [(R_inv @ D @ R_inv.swapaxes(1, 2), rows, cols), (R_inv, rows, cols)]


def factorize(system):
    """The condensed factor of the free saddle equations.

    Each cell sheds its interior velocities (an SPD block of a) by one
    Cholesky factor for both components, batched by side count.  What the
    cells leave, less the fixed edges, is summed in one coordinate pass
    each: on one component's edges into S, the pressures' couplings to the
    edges into C and the pressure blocks into D.
    """
    ops, n_u, n_p = system.ops, system.num_velocity_dofs, system.num_pressure_dofs
    edges, where = _dissection(ops), np.full(n_u + n_p, -1)
    # where: a pressure's number, a free edge unknown's column in C (x: S's row), else -1
    where[edges.T], where[n_u:] = np.arange(edges.size).reshape(2, -1), np.arange(n_p)
    R_inv = np.linalg.inv(R := np.linalg.cholesky(ops.mass_low))
    steps, left = zip(*(_scalar_cells(c, ops.dofmap.dim_cell, n_u, R_inv) for c in system._cells))
    del system._cells  # not held under the LU; the next read builds them again
    shapes = [(len(edges),) * 2, (n_p, edges.size)] + [(n_p, n_p)] * 2
    mats = [_scatter(s, [(M, where[i], where[j]) for M, i, j in b], "csc") for s, b in zip(shapes, zip(*left))]
    del left
    z = R[:, 0].ravel()  # Rᵀ of the constant pressure: each cell's first scaled monomial is 1
    return CondensedFactor(*mats, sum(steps, []), edges, z / np.linalg.norm(z))


def _dissection(ops):
    """Free edge DOFs by nested dissection of the cells, as (x, y) pairs.

    The cells are split in two at the median centroid along the wider
    side of their bounding box, and each half again, down to single
    cells; a cell's code is its path of left (0) and right (1) halves.  A
    free edge belongs to the separator of the split that parts its two
    cells, and the order is left half, right half, separator: the edges
    sort by the last leaf under their split, deeper splits first.  Each
    edge's DOFs stay together, x and y of each side by side.
    """
    mesh, n = ops.mesh, ops.mesh.num_cells
    depth, rows, s, start = (n - 1).bit_length(), np.arange(n), np.arange(n), np.zeros(1, dtype=int)
    code = np.zeros(n, dtype=np.int64)
    for _ in range(depth):  # s lists the cells by code; each split's cells start at `start`
        size = np.diff(start, append=n)
        node = np.repeat(np.arange(len(start)), size)
        x = mesh.centroids[s]
        extent = np.maximum.reduceat(x, start) - np.minimum.reduceat(x, start)
        wide = np.argmax(extent, axis=1)[node]
        s = s[np.lexsort((x[rows, wide], node))]
        code[s] = 2 * code[s] + (rows - start[node] >= size[node] // 2)
        start = np.flatnonzero(np.diff(code[s], prepend=-1))
    a, b = mesh.edge_cells[free := np.flatnonzero(~mesh.boundary_edges)].T
    height = np.frexp(code[a] ^ code[b])[1]  # of the split that parts the edge's cells
    order = np.argsort((code[a] | ((1 << height) - 1)) * (depth + 1) + height, kind="stable")
    return ops.dofmap.edge_dofs[free[order]].swapaxes(1, 2).reshape(-1, 2)
