"""Saddle-point solves, with optional static condensation.

The solved system couples the free velocity DOFs (interior blocks plus
interior-edge blocks) with the pressure DOFs:

    [ A_ff   -B_fᵀ ] [u_f]   [F_f - A_fx u_x]
    [ -B_f    0    ] [ p ] = [    B_x u_x    ]

where x marks the eliminated Dirichlet DOFs.  The pressure is fixed only
up to a constant, so pressure DOF 0 (the constant coefficient of cell 0)
is pinned to zero and its row and column are dropped; the pinned row's
equation follows from the others for compatible boundary data.  A shift
by the pressure mean then sets the zero-mean gauge.  The default path
factorizes the sparse matrix directly; static condensation first
eliminates the per-cell interior velocity blocks through dense local
Schur complements.
"""

import json
import time

import numpy as np
from scipy import sparse
from scipy.linalg import cho_factor, cho_solve
from scipy.sparse.linalg import splu

from .errors import SolverError
from .spaces import PressureFunction, WeakFunction


class SolveReport:
    """Solution plus algebraic diagnostics."""

    def __init__(
        self,
        velocity,
        pressure,
        residual,
        momentum_residual,
        mass_residual,
        condensed,
        num_free_velocity,
        num_pressure,
        num_reduced,
        wall_time,
    ):
        self.velocity = velocity
        self.pressure = pressure
        self.residual = residual
        self.momentum_residual = momentum_residual
        self.mass_residual = mass_residual
        self.condensed = condensed
        self.num_free_velocity = num_free_velocity
        self.num_pressure = num_pressure
        self.num_reduced = num_reduced
        self.wall_time = wall_time

    def to_json(self):
        return json.dumps(
            {
                "condensed": self.condensed,
                "residual": self.residual,
                "momentum_residual": self.momentum_residual,
                "mass_residual": self.mass_residual,
                "num_free_velocity": self.num_free_velocity,
                "num_pressure": self.num_pressure,
                "num_reduced": self.num_reduced,
                "wall_time": self.wall_time,
            }
        )


def solve(system, condense=False, residual_tol=1e-10):
    """Solve an assembled SaddleSystem by sparse LU factorization.

    Parameters
    ----------
    system : SaddleSystem
    condense : bool
        Eliminate interior velocity DOFs cell-by-cell first, solve the
        reduced system, then recover the interior unknowns.
    residual_tol : float
        Maximum admissible relative algebraic residual.
    """
    t0 = time.perf_counter()
    free = system.free
    fixed = system.fixed_mask
    ubar = system.fixed_values
    A, B, m = system.A, system.B, system.pressure_moments

    A_ff = A[free][:, free].tocsr()
    B_f = B[:, free].tocsr()
    rhs_u = system.load[free] - A[free][:, fixed] @ ubar[fixed]
    rhs_p = B[:, fixed] @ ubar[fixed]

    if condense:
        u_f, p, n_reduced = _condensed_solve(system, A_ff, B_f, rhs_u, rhs_p)
    else:
        n_reduced = None
        u_f, p = _solve_pinned(A_ff, -B_f.T, None, rhs_u, rhs_p, "sparse")

    if not np.isfinite(u_f).all() or not np.isfinite(p).all():
        raise SolverError("solve produced non-finite values (singular system?)")

    # full velocity vector: solved free DOFs + projected boundary data
    u_full = ubar.copy()
    u_full[free] = u_f
    # pressure gauge: shift the pinned solution to zero mean
    p = p - _pressure_mean(system, p)

    # residuals on the full unpinned system (momentum tested on free rows only)
    r_mom = (A @ u_full - B.T @ p)[free] - system.load[free]
    r_mass = B @ u_full
    r_mean = float(m @ p)
    rhs_norm = float(np.linalg.norm(np.concatenate([rhs_u, rhs_p])))
    scale = max(rhs_norm, 1e-30)
    momentum_residual = float(np.linalg.norm(r_mom))
    mass_residual = float(np.linalg.norm(r_mass))
    residual = float(np.sqrt(momentum_residual**2 + mass_residual**2 + r_mean**2)) / scale
    if not residual <= residual_tol and rhs_norm > 0:
        raise SolverError(
            f"relative algebraic residual {residual:.3e} exceeds {residual_tol:g}"
        )

    return SolveReport(
        velocity=WeakFunction(system.ops.dofmap, u_full),
        pressure=PressureFunction(system.ops.dofmap, p),
        residual=residual,
        momentum_residual=momentum_residual,
        mass_residual=mass_residual,
        condensed=condense,
        num_free_velocity=len(free),
        num_pressure=system.num_pressure_dofs,
        num_reduced=n_reduced,
        wall_time=time.perf_counter() - t0,
    )


def _pressure_mean(system, p):
    """Mean-value shift: returns s with mean(p - s) = 0.

    The first scaled monomial of every cell is the constant 1, so the
    shift sits on each cell's constant coefficient.
    """
    mean = float(system.pressure_moments @ p)  # integral of p_h over the domain
    area = float(system.ops.mesh.areas.sum())
    shift = np.zeros_like(p)
    shift[:: system.ops.dofmap.dim_cell_low] = mean / area
    return shift


def _solve_pinned(K_uu, K_up, K_pp, rhs_u, rhs_p, what):
    """Solve [[K_uu, K_up], [K_upᵀ, K_pp]] [u; p] = [rhs_u; rhs_p] with p[0] = 0.

    The constant pressure spans the kernel of the symmetric saddle
    matrix; dropping pressure row and column 0 removes it.  ``K_pp`` may
    be None for a zero block.  Returns u and the full pressure vector.
    """
    K_up = K_up.tocsc()[:, 1:]
    K_pp = None if K_pp is None else K_pp.tocsr()[1:, 1:]
    K = sparse.bmat([[K_uu, K_up], [K_up.T, K_pp]], format="csc")
    try:
        x = splu(K).solve(np.concatenate([rhs_u, rhs_p[1:]]))
    except RuntimeError as err:  # singular factorization
        raise SolverError(f"{what} factorization failed: {err}") from err
    n_u = K_uu.shape[0]
    return x[:n_u], np.concatenate([[0.0], x[n_u:]])


# -- static condensation ------------------------------------------------


def _condensed_solve(system, A_ff, B_f, rhs_u, rhs_p):
    """Eliminate interior velocity DOFs per cell, solve, and recover them.

    Interior DOFs couple only within their own cell, so the interior
    block of A_ff is block-diagonal and the Schur complement onto the
    edge and pressure unknowns assembles cell by cell.
    """
    ops = system.ops
    mesh = ops.mesh
    dofmap = ops.dofmap
    free = system.free

    # positions of each global free DOF inside the free numbering
    free_pos = np.full(dofmap.num_velocity_dofs, -1, dtype=int)
    free_pos[free] = np.arange(len(free))

    interior_free = []  # per cell: interior DOFs in free numbering
    edge_free = []  # per cell: free edge DOFs in free numbering
    for c in range(mesh.num_cells):
        interior_free.append(free_pos[dofmap.interior_dofs(c)])
        ed = np.concatenate([dofmap.edge_dofs(e) for e in mesh.cell_edges[c]])
        pos = free_pos[ed]
        edge_free.append(pos[pos >= 0])

    # reduced velocity unknowns = free edge DOFs (keep their free-number order)
    is_interior = np.zeros(len(free), dtype=bool)
    for idx in interior_free:
        is_interior[idx] = True
    edge_unknowns = np.nonzero(~is_interior)[0]
    red_pos = np.full(len(free), -1, dtype=int)
    red_pos[edge_unknowns] = np.arange(len(edge_unknowns))
    n_e = len(edge_unknowns)
    n_p = system.num_pressure_dofs

    A_csr = A_ff.tocsr()
    B_csr = B_f.tocsr()

    S_rows, S_cols, S_vals = [], [], []  # Schur corrections to the edge block
    C_rows, C_cols, C_vals = [], [], []  # edge-pressure coupling corrections
    P_rows, P_cols, P_vals = [], [], []  # pressure-pressure block
    rhs_e = rhs_u[edge_unknowns].copy()
    rhs_q = rhs_p.copy()
    factors = []

    for c in range(mesh.num_cells):
        iloc = interior_free[c]
        eloc = edge_free[c]
        pdofs = dofmap.pressure_dofs(c)
        Aii = A_csr[iloc][:, iloc].toarray()
        Aie = A_csr[iloc][:, eloc].toarray()
        Bi = B_csr[pdofs][:, iloc].toarray()
        Fi = rhs_u[iloc]
        try:
            chol = cho_factor(Aii)
        except np.linalg.LinAlgError as err:
            raise SolverError(f"interior block of cell {c} is singular: {err}") from err
        factors.append((chol, Aie, Bi, iloc, eloc, pdofs))
        Zi = cho_solve(chol, Aie)  # Aii^{-1} A_ie
        Yi = cho_solve(chol, Bi.T)  # Aii^{-1} B_iᵀ
        wi = cho_solve(chol, Fi)  # Aii^{-1} F_i
        epos = red_pos[eloc]
        gr, gc = np.meshgrid(epos, epos, indexing="ij")
        S_rows.append(gr.ravel())
        S_cols.append(gc.ravel())
        S_vals.append(-(Aie.T @ Zi).ravel())
        gr, gc = np.meshgrid(epos, pdofs, indexing="ij")
        C_rows.append(gr.ravel())
        C_cols.append(gc.ravel())
        C_vals.append((Aie.T @ Yi).ravel())
        gr, gc = np.meshgrid(pdofs, pdofs, indexing="ij")
        P_rows.append(gr.ravel())
        P_cols.append(gc.ravel())
        P_vals.append(-(Bi @ Yi).ravel())
        rhs_e[epos] -= Aie.T @ wi
        rhs_q[pdofs] += Bi @ wi

    S_ee = A_csr[edge_unknowns][:, edge_unknowns] + sparse.coo_matrix(
        (np.concatenate(S_vals), (np.concatenate(S_rows), np.concatenate(S_cols))),
        shape=(n_e, n_e),
    ).tocsr()
    C = sparse.coo_matrix(
        (np.concatenate(C_vals), (np.concatenate(C_rows), np.concatenate(C_cols))),
        shape=(n_e, n_p),
    ).tocsr() - B_csr[:, edge_unknowns].T
    P = sparse.coo_matrix(
        (np.concatenate(P_vals), (np.concatenate(P_rows), np.concatenate(P_cols))),
        shape=(n_p, n_p),
    ).tocsr()
    u_e, p = _solve_pinned(S_ee, C, P, rhs_e, rhs_q, "condensed")

    # recover interior unknowns cell by cell
    u_f = np.zeros(len(free))
    u_f[edge_unknowns] = u_e
    for c, (chol, Aie, Bi, iloc, eloc, pdofs) in enumerate(factors):
        rhs_i = rhs_u[iloc] - Aie @ u_f[eloc] + Bi.T @ p[pdofs]
        u_f[iloc] = cho_solve(chol, rhs_i)
    n_reduced = n_e + n_p
    return u_f, p, n_reduced
