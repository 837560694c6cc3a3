"""Saddle-point solves by cell-local elimination, or in full as a reference.

The solved system couples the free velocity DOFs (interior blocks plus
interior-edge blocks) with the pressure DOFs:

    [ A_ff   -B_fᵀ ] [u_f]   [F_f - A_fx u_x]
    [ -B_f    0    ] [ p ] = [    B_x u_x    ]

where x marks the eliminated Dirichlet DOFs.  The pressure is fixed only
up to a constant, so pressure DOF 0 (the constant coefficient of cell 0)
is pinned to zero and its row and column are dropped; the pinned row's
equation follows from the others for compatible boundary data.  A shift
by the pressure mean then sets the zero-mean gauge.  A SaddleFactor is a
list of cell-local eliminations, then one sparse LU: by default the
interior velocities, then each cell's non-constant pressures, leaving the
free edge velocities and one pressure per cell.  ``condense=False``
eliminates nothing, as the reference the condensed path is checked
against.  `solve` hands its factor back, so β_h needs no other.
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
    """Solve an assembled SaddleSystem with the SaddleFactor of `factorize`.

    The report keeps the factor; drop it when done with it.
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
        num_reduced=factor.lu.shape[0] + 1 if condense else None,  # with the pinned pressure
        wall_time=time.perf_counter() - t0,
        factor=factor,
    )


class SaddleFactor:
    """Cell-local eliminations of a sparse symmetric matrix, then one sparse LU.

    ``steps`` are the `_eliminate` steps that reduced the matrix to K, in
    order; `splu` factors K.  The matrix is the pinned saddle matrix
    (`factorize`) or A_ff (`velocity_factor`).
    """

    def __init__(self, K, steps, what):
        self.steps = steps
        try:
            self.lu = splu(K.tocsc())
        except RuntimeError as err:  # singular factorization
            raise SolverError(f"{what} factorization failed: {err}") from err

    def apply(self, f):
        """K⁻¹ f: each step's forward substitution, the LU solve, then the back substitutions."""
        ws = []
        for cells, rest, W, G, sign in self.steps:
            ws.append(W @ f[cells])  # L⁻¹ f_c
            f = f[rest] - sign * (G.T @ ws[-1])
        x = self.lu.solve(f)
        for (cells, rest, W, G, sign), w in zip(self.steps[::-1], ws[::-1]):
            y = np.empty(len(cells) + len(rest))
            y[rest], y[cells] = x, sign * (W.T @ (w - G @ x))
            x = y
        return x

    def solve(self, rhs_u, rhs_p):
        """Free velocity and pressure (p[0] = 0); rhs_p[0], the pinned row, is unused."""
        x = self.apply(np.concatenate([rhs_u, rhs_p[1:]]))
        return x[: len(rhs_u)], np.concatenate([[0.0], x[len(rhs_u) :]])


def _eliminate(K, cells, sign, name):
    """Eliminate the unknowns ``cells`` (one row per cell) from symmetric K (csr).

    Their block K_cc must be sign × (block-diagonal SPD), one block per
    cell.  With K_cc = sign·L Lᵀ, W = L⁻¹ (block-diagonal too) and
    G = W K_cr, the Schur complement on the rest is K_rr - sign·GᵀG,
    symmetric by construction.  Returns it (csr) and the step
    (cells, rest, W, G, sign) that `SaddleFactor.apply` replays.
    """
    n_cells, nb = cells.shape
    cells = cells.ravel()
    rest = np.setdiff1d(np.arange(K.shape[0]), cells)
    K_c = K[cells]
    coo = K_c[:, cells].tocoo()
    blocks = np.zeros((n_cells, nb, nb))
    blocks[coo.row // nb, coo.row % nb, coo.col % nb] = sign * coo.data
    try:
        L = np.linalg.cholesky(blocks)
    except np.linalg.LinAlgError as err:
        lowest = np.linalg.eigvalsh(blocks)[:, 0]
        c, kind = int(np.argmin(lowest)), "positive" if sign > 0 else "negative"
        raise SolverError(
            f"{name} block of cell {c} is not {kind} definite (eigenvalue {sign * lowest[c]:.3e})"
        ) from err
    index = np.arange(n_cells)
    W = sparse.bsr_matrix((np.linalg.inv(L), index, np.append(index, n_cells)), shape=(n_cells * nb,) * 2)
    G = (W @ K_c[:, rest]).tocsr()
    return K[rest][:, rest] - sign * (G.T @ G), (cells, rest, W, G, sign)


def factorize(system, condense=True):
    """The pinned SaddleFactor of the free saddle equations, condensed or not.

    DofMap numbers the interior velocities first, cell-major, and fixes
    none; they couple only within their cell, so A_ii is block-diagonal
    SPD.  What is left of the pressure block, -B_i A_ii⁻¹ B_iᵀ, is
    block-diagonal by cell too, and negative definite on each cell's
    non-constant pressures: for v_b = 0, (∇_w·v, q) = -(v₀, ∇q).
    """
    free, dofmap = system.free, system.ops.dofmap
    B_f = system.B[1:][:, free]
    A_ff = system.A[free][:, free] if condense else patterned_velocity_block(system)
    K = sparse.bmat([[A_ff, -B_f.T], [-B_f, None]], format="csr")
    del A_ff, B_f  # so that the peak memory of the LU holds neither
    n_cells, n_low = system.ops.mesh.num_cells, dofmap.dim_cell_low
    eliminations = [(np.arange(dofmap.interior_size).reshape(n_cells, -1), 1, "interior")]
    if n_low > 1:  # numbered after the interior step: free edge DOFs, then pressures 1, 2, ...
        pressure = len(free) - dofmap.interior_size - 1 + np.arange(n_cells * n_low)
        eliminations.append((pressure.reshape(n_cells, n_low)[:, 1:], -1, "pressure"))
    steps = []
    for cells, sign, name in eliminations if condense else []:
        K, step = _eliminate(K, cells, sign, name)
        steps.append(step)
    return SaddleFactor(K, steps, "condensed" if condense else "sparse")


def velocity_factor(system):
    """A_ff's factor, interior velocities eliminated as in `factorize`: apply(f) = A_ff⁻¹ f."""
    interior = np.arange(system.ops.dofmap.interior_size).reshape(system.ops.mesh.num_cells, -1)
    S, step = _eliminate(system.A[system.free][:, system.free].tocsr(), interior, 1, "interior")
    return SaddleFactor(S, [step], "velocity")


def patterned_velocity_block(system):
    """A_ff (csr) storing every free DOF pair that shares a cell, for sparse LU.

    SuperLU's column ordering reads only the stored pattern; on uniform-quad,
    k=1, n=16 the pinned full system's L+U is 230,352 with it and 504,615
    with the bare nonzeros, which drop the x-y couplings and exact cancels.
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
