"""Saddle-point solves by static condensation, or in full as a reference.

The solved system couples the free velocity DOFs (interior blocks plus
interior-edge blocks) with the pressure DOFs:

    [ A_ff   -B_fᵀ ] [u_f]   [F_f - A_fx u_x]
    [ -B_f    0    ] [ p ] = [    B_x u_x    ]

where x marks the eliminated Dirichlet DOFs.  The pressure is fixed only
up to a constant, so pressure DOF 0 (the constant coefficient of cell 0)
is pinned to zero and its row and column are dropped; the pinned row's
equation follows from the others for compatible boundary data.  A shift
by the pressure mean then sets the zero-mean gauge.  Static condensation
first eliminates the interior velocity DOFs, whose block of A_ff is
block-diagonal, one block per cell; ``condense=False`` factorizes the
sparse matrix directly, as the reference the condensed path is checked
against, with every DOF pair that shares a cell stored for its column
ordering (`patterned_velocity_block`).  Either way `solve` hands its one SaddleFactor back, so the
level's inf-sup constant needs no other.
"""

import dataclasses
import json
import time

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from .errors import SolverError
from .spaces import PressureFunction, WeakFunction

# Largest admissible relative algebraic residual of a solve.
RESIDUAL_TOL = 1e-10


@dataclasses.dataclass
class SolveReport:
    """Solution plus algebraic diagnostics and the SaddleFactor that produced them."""

    velocity: WeakFunction
    pressure: PressureFunction
    residual: float
    momentum_residual: float
    mass_residual: float
    condensed: bool
    num_free_velocity: int
    num_pressure: int
    num_reduced: int | None
    wall_time: float
    factor: "SaddleFactor"

    def to_json(self):
        fields = dataclasses.fields(self)[2:-1]  # the diagnostics
        return json.dumps({f.name: getattr(self, f.name) for f in fields})


def solve(system, condense=True):
    """Solve an assembled SaddleSystem by sparse LU factorization.

    Parameters
    ----------
    system : SaddleSystem
    condense : bool
        Eliminate the interior velocity DOFs first, solve the reduced
        edge-and-pressure system, then recover the interior unknowns;
        False factorizes the full system instead.

    The report keeps the SaddleFactor; drop it when done with it.
    """
    t0 = time.perf_counter()
    free = system.free
    A, B, m = system.A, system.B, system.pressure_moments
    # boundary data sit on the fixed DOFs and are zero on the free ones
    u = system.fixed_values.copy()
    rhs_u, rhs_p = system.load[free] - (A @ u)[free], B @ u

    factor = factorize(system, condense)
    u[free], p = factor.solve(rhs_u, rhs_p)
    # one refinement step on the free equations: LU rounding grows with the mesh
    du, dp = factor.solve((system.load - A @ u + B.T @ p)[free], B @ u)
    u[free] += du
    p += dp

    if not np.isfinite(u).all() or not np.isfinite(p).all():
        raise SolverError("solve produced non-finite values (singular system?)")

    # pressure gauge: shift the pinned solution to zero mean (m @ p integrates p_h)
    mean = float(m @ p) / float(system.ops.mesh.areas.sum())
    p = p - mean * system.ops.dofmap.constant_pressure()

    # residuals on the full unpinned system (momentum tested on free rows only)
    r_mom = (A @ u - B.T @ p)[free] - system.load[free]
    r_mass = B @ u
    r_mean = float(m @ p)
    rhs_norm = float(np.linalg.norm(np.concatenate([rhs_u, rhs_p])))
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
        num_reduced=factor.num_velocity + factor.num_pressure if condense else None,
        wall_time=time.perf_counter() - t0,
        factor=factor,
    )


class SaddleFactor:
    """Sparse LU of the pinned matrix [[K_uu, K_up], [K_upᵀ, K_pp]].

    The constant pressure spans the kernel of the symmetric saddle
    matrix; dropping pressure row and column 0 (p[0] = 0) removes it.
    ``K_pp`` may be None for a zero block.  ``interior`` holds the
    elimination (W, G, H) of the interior velocity DOFs on the condensed
    path (see `factorize`), None on the full one.
    """

    def __init__(self, K_uu, K_up, K_pp, interior, what):
        K_up = K_up.tocsc()[:, 1:]
        K_pp = None if K_pp is None else K_pp.tocsr()[1:, 1:]
        K = sparse.bmat([[K_uu, K_up], [K_up.T, K_pp]], format="csc")
        try:
            self.lu = splu(K)
        except RuntimeError as err:  # singular factorization
            raise SolverError(f"{what} factorization failed: {err}") from err
        self.interior = interior
        self.num_velocity = K_uu.shape[0]
        self.num_pressure = K_up.shape[1] + 1

    def solve(self, rhs_u, rhs_p):
        """Free velocity and pressure (p[0] = 0); rhs_p[0], the pinned row, is unused."""
        if self.interior is None:
            return self._solve_pinned(rhs_u, rhs_p)
        W, G, H = self.interior
        n_i = W.shape[0]
        w = W @ rhs_u[:n_i]  # L⁻¹ F_i
        u_e, p = self._solve_pinned(rhs_u[n_i:] - G.T @ w, rhs_p + H.T @ w)
        return np.concatenate([W.T @ (w - G @ u_e + H @ p), u_e]), p

    def _solve_pinned(self, rhs_u, rhs_p):
        x = self.lu.solve(np.concatenate([rhs_u, rhs_p[1:]]))
        n_u = self.num_velocity
        return x[:n_u], np.concatenate([[0.0], x[n_u:]])


# -- factorization, by static condensation or in full ---------------------


def factorize(system, condense=True):
    """The pinned SaddleFactor of the free saddle equations, condensed or not.

    `solve` builds one; callers that do not solve may build it alone.
    For static condensation: DofMap numbers the interior DOFs first,
    cell-major, and none of them is fixed, so they are the first
    ``interior_size`` free DOFs.  They couple only within their own cell:
    A_ii is block-diagonal with one SPD block per cell.  With A_ii = L Lᵀ
    and W = L⁻¹ (block-diagonal too), the Schur complement onto the edge
    and pressure unknowns is a few sparse products, symmetric by
    construction.
    """
    free = system.free
    B_f = system.B[:, free].tocsr()
    if not condense:
        return SaddleFactor(patterned_velocity_block(system), -B_f.T, None, None, "sparse")
    A_ff = system.A[free][:, free].tocsr()
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
    S = A_ff[n_i:, n_i:] - G.T @ G
    C = G.T @ H - B_f[:, n_i:].T
    P = -(H.T @ H)
    return SaddleFactor(S, C, P, (W, G, H), "condensed")


def patterned_velocity_block(system):
    """A_ff (csr) storing every free DOF pair that shares a cell, for sparse LU.

    SuperLU's column ordering reads only the stored pattern, and the bare
    nonzeros, without the x-y couplings and the entries that cancel exactly,
    order far worse on squares: on uniform-quad, k=1, L+U of the pinned
    full system at n=16 is 230,352 with the pattern and 504,615 without,
    and of A_ff alone at n=64 3.27M against 13.4M.
    """
    dofmap, mesh, free = system.ops.dofmap, system.ops.mesh, system.free
    ni, ne = 2 * dofmap.dim_cell, 2 * dofmap.dim_edge
    # cell-DOF incidence: each cell's interior block and its sides' edge blocks
    rows = np.concatenate([np.repeat(np.arange(mesh.num_cells), ni), np.repeat(mesh.side_cell, ne)])
    edge_dofs = dofmap.interior_size + mesh.side_edge[:, None] * ne + np.arange(ne)
    cols = np.concatenate([np.arange(dofmap.interior_size), edge_dofs.ravel()])
    shape = (mesh.num_cells, dofmap.num_velocity_dofs)
    C = sparse.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=shape)[:, free]
    a, p = system.A[free][:, free].tocoo(), (C.T @ C).tocoo()
    data = np.concatenate([a.data, np.zeros(p.nnz)])
    rows, cols = np.concatenate([a.row, p.row]), np.concatenate([a.col, p.col])
    return sparse.csr_matrix((data, (rows, cols)), shape=a.shape)
