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
eliminates the interior velocity DOFs, whose block of A_ff is
block-diagonal, one block per cell.
"""

import json
import time

import numpy as np
from scipy import sparse
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
        Eliminate the interior velocity DOFs first, solve the reduced
        edge-and-pressure system, then recover the interior unknowns.
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
    b = np.concatenate([rhs_u, rhs_p[1:]])
    try:
        lu = splu(K)
    except RuntimeError as err:  # singular factorization
        raise SolverError(f"{what} factorization failed: {err}") from err
    x = lu.solve(b)
    x += lu.solve(b - K @ x)  # one refinement step: LU rounding grows with the mesh
    n_u = K_uu.shape[0]
    return x[:n_u], np.concatenate([[0.0], x[n_u:]])


# -- static condensation ------------------------------------------------


def _condensed_solve(system, A_ff, B_f, rhs_u, rhs_p):
    """Eliminate the interior velocity DOFs, solve, and recover them.

    DofMap numbers the interior DOFs first, cell-major, and none of them
    is fixed, so they are the first ``interior_size`` free DOFs.  They
    couple only within their own cell: A_ii is block-diagonal with one SPD
    block per cell.  With A_ii = L Lᵀ and W = L⁻¹ (block-diagonal too),
    the Schur complement onto the edge and pressure unknowns is a few
    sparse products, symmetric by construction.
    """
    dofmap = system.ops.dofmap
    n_i, nb = dofmap.interior_size, 2 * dofmap.dim_cell
    n_cells = n_i // nb

    coo = A_ff[:n_i, :n_i].tocoo()
    blocks = np.zeros((n_cells, nb, nb))
    blocks[coo.row // nb, coo.row % nb, coo.col % nb] = coo.data
    try:
        L = np.linalg.cholesky(blocks)
    except np.linalg.LinAlgError as err:
        lowest = np.linalg.eigvalsh(blocks)[:, 0]
        c = int(np.argmin(lowest))
        raise SolverError(
            f"interior block of cell {c} is not positive definite "
            f"(smallest eigenvalue {lowest[c]:.3e})"
        ) from err
    cells = np.arange(n_cells)
    W = sparse.bsr_matrix((np.linalg.inv(L), cells, np.append(cells, n_cells)), shape=(n_i, n_i))

    G = (W @ A_ff[:n_i, n_i:]).tocsr()  # L⁻¹ A_ie
    H = (W @ B_f[:, :n_i].T).tocsr()  # L⁻¹ B_iᵀ
    w = W @ rhs_u[:n_i]  # L⁻¹ F_i
    S = A_ff[n_i:, n_i:] - G.T @ G
    C = G.T @ H - B_f[:, n_i:].T
    P = -(H.T @ H)
    u_e, p = _solve_pinned(S, C, P, rhs_u[n_i:] - G.T @ w, rhs_p + H.T @ w, "condensed")
    u_i = W.T @ (w - G @ u_e + H @ p)
    return np.concatenate([u_i, u_e]), p, len(u_e) + len(p)
