"""Saddle-point solves by cell-local elimination, then one sparse LU.

The solved system couples the free velocity DOFs (interior blocks plus
interior-edge blocks) with the pressure DOFs:

    [ A_ff   -B_fᵀ ] [u_f]   [F_f - A_fx u_x]
    [ -B_f    0    ] [ p ] = [    B_x u_x    ]

where x marks the eliminated Dirichlet DOFs.  The pressure is fixed only
up to a constant, so pressure DOF 0 (the constant coefficient of cell 0)
is pinned to zero by leaving it out of the solved unknowns; its equation
follows from the others for compatible boundary data.  A shift by the
pressure mean then sets the zero-mean gauge.  A SaddleFactor orders the
cell-local unknowns first and takes them off a leading block at a time
(the interior velocities, then each cell's non-constant pressures), then
factors the free edge velocities and one pressure per cell by sparse LU.
What is left is a planar mesh graph, and the LU takes it in a nested
dissection order of the cells (George, SIAM J. Numer. Anal. 10(2),
1973) with each cell's pressure after the last of its edges, so no
COLAMD ordering is run.  The pressures' zero diagonals have filled in by
the time they are reached, and with each cell's pressures scaled by 1/h_T
every pivot stays on the diagonal at every mesh size (as in de Niet &
Wubs, IMA J. Numer. Anal. 29(1), 2009).  ``condense=False`` leaves the
eliminations to the LU.  `solve` hands its factor back, so
β_h needs no other.

Right before each LU, glibc's ``malloc_trim(0)`` hands back the heap that
assembly and the eliminations freed: SuperLU's factor could not reuse it
and would land on top.  Without glibc (macOS, musl, Windows) the step is
skipped; the arithmetic is the same either way.
"""

import ctypes
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

# SuperLU keeps a diagonal pivot down to this fraction of its column's
# largest entry.  In the dissection order, with each cell's pressures
# scaled by its diameter, every diagonal pivot passes at every mesh size,
# and thresholds from 0 to 0.01 give the same factor.
PIVOT_THRESH = 0.01


try:  # glibc's malloc_trim; None where the C library has none, or cannot be opened
    malloc_trim = ctypes.CDLL(None).malloc_trim
    malloc_trim.argtypes = [ctypes.c_size_t]
except (OSError, TypeError, AttributeError):
    malloc_trim = None


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
    num_reduced: int
    lu_fill: int
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
        num_reduced=factor.lu.shape[0] + 1,  # with the pinned pressure
        lu_fill=factor.lu.nnz,  # SuperLU's own count: factor.lu.L and .U are copies
        wall_time=time.perf_counter() - t0,
        factor=factor,
    )


class SaddleFactor:
    """Cell-local eliminations of leading blocks of a sparse symmetric matrix, then one sparse LU.

    The saddle matrix was scaled to D K D on both sides by ``scale`` (in
    ``order``) and permuted to ``order``; unknowns left out of it, the
    pinned pressure, come out as 0.  ``steps`` are the `_eliminate` steps
    in turn, and `splu` factors what they leave, K, in csc: its caller
    converts it, so that no csr copy is held under the LU.  Each step is
    kept as (W, Wᵀ, G, Gᵀ, sign), its transposes made once.
    """

    def __init__(self, K, order, steps, what, scale):
        self.order = order
        self.scale = scale
        if malloc_trim is not None:
            malloc_trim(0)  # the heap freed so far, back to the system before the LU maps its own
        try:
            self.lu = splu(
                K,
                permc_spec="NATURAL",
                diag_pivot_thresh=PIVOT_THRESH,
                options=dict(SymmetricMode=True),
            )
        except RuntimeError as err:  # singular factorization
            raise SolverError(f"{what} factorization failed: {err}") from err
        # Gᵀ is a view; Wᵀ copies W's blocks, so it is built after the LU's peak
        self.steps = [(W, W.T, G, G.T, sign) for W, G, sign in steps]

    def apply(self, f, skip=0):
        """Solution for f: forward substitutions, LU solve, back substitutions, scatter.

        The first `skip` steps must meet a zero block of f, and their
        unknowns come out as 0: both of their substitutions are left out.
        """
        n = sum(step[0].shape[0] for step in self.steps[:skip])
        order, scale, steps = self.order[n:], self.scale[n:], self.steps[skip:]
        g, ws = f[order] * scale, []
        for W, _, _, Gt, sign in steps:
            ws.append(W @ g[: W.shape[0]])  # L⁻¹ f_c
            g = g[W.shape[0] :] - sign * (Gt @ ws[-1])
        x = self.lu.solve(g)
        for (_, Wt, G, _, sign), w in zip(steps[::-1], ws[::-1]):
            x = np.concatenate([sign * (Wt @ (w - G @ x)), x])
        out = np.zeros(len(f))
        out[order] = x * scale
        return out

    def solve(self, rhs_u, rhs_p):
        """Free velocity and pressure, p[0] = 0; rhs_p[0], the pinned row, is unused."""
        x = self.apply(np.concatenate([rhs_u, rhs_p]))
        return x[: len(rhs_u)], x[len(rhs_u) :]

    def pressure(self, rhs_p):
        """solve(0, rhs_p)'s pressure, bit for bit, without its velocity substitutions.

        A leading positive definite step eliminates velocities (the
        interior ones): they have a zero right-hand side and are not returned.
        """
        skip = int(bool(self.steps) and self.steps[0][-1] > 0)
        n_u = len(self.order) + 1 - len(rhs_p)  # the order leaves out the pinned pressure
        return self.apply(np.concatenate([np.zeros(n_u), rhs_p]), skip)[n_u:]


def _eliminate(K, n_cells, n, sign, name):
    """Eliminate the leading n unknowns of symmetric K (csr), n / n_cells per cell.

    Their block K_cc must be sign × (block-diagonal SPD), one block per
    cell.  With K_cc = sign·L Lᵀ, W = L⁻¹ (block-diagonal too) and
    G = W K_cr, the Schur complement on the rest is K_rr - sign·GᵀG,
    symmetric by construction.  Returns it (csr) and the step
    (W, G, sign) that `SaddleFactor.apply` replays.
    """
    nb = n // n_cells
    K_c = K[:n]
    coo = K_c[:, :n].tocoo()
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
    W = sparse.bsr_matrix((np.linalg.inv(L), index, np.append(index, n_cells)), shape=(n, n))
    G = (W @ K_c[:, n:]).tocsr()
    return K[n:, n:] - sign * (G.T @ G), (W, G, sign)


def factorize(system, condense=True):
    """The SaddleFactor of the free saddle equations, condensed or not.

    DofMap numbers the interior velocities first, cell-major, and fixes
    none; they couple only within their cell, so A_ii is block-diagonal
    SPD.  What is left of the pressure block, -B_i A_ii⁻¹ B_iᵀ, is
    block-diagonal by cell too, and negative definite on each cell's
    non-constant pressures: for v_b = 0, (∇_w·v, q) = -(v₀, ∇q).  So the
    order is: interior velocities, non-constant pressures (both
    cell-major), then the free edge DOFs by `_dissection`, each cell's
    constant pressure after its last edge (cell 0's is pinned).  Without
    condensing, the LU takes the interior velocities first and all of a
    cell's pressures after its last edge.

    Cell T's pressures are scaled by 1/h_T.  A pressure pivot, -bᵀA⁻¹b, is
    O(h²) and its column's largest entry, a coupling to an edge velocity,
    O(h), so unscaled the pivot ratio falls like h; scaled, both are O(1).
    """
    free, n_i, n_cells = system.free, system.ops.dofmap.interior_size, system.ops.mesh.num_cells
    p = len(free) + np.arange(system.num_pressure_dofs).reshape(n_cells, -1)
    kept = 1 if condense else p.shape[1]  # pressures per cell left to the LU
    tail = _dissection(system.ops, p[:, :kept])
    order = np.concatenate([np.arange(n_i), p[:, kept:].ravel(), tail])
    scale = np.ones(len(free) + system.num_pressure_dofs)
    scale[len(free) :] = np.repeat(1 / system.ops.mesh.diameters, p.shape[1])
    B_f = sparse.diags(scale[len(free) :]) @ system.B[:, free]
    # the unpermuted K is a temporary, gone before the LU's peak memory
    K = sparse.bmat([[system.A[free][:, free], -B_f.T], [-B_f, None]], format="csr")[order][:, order]
    del B_f
    steps = []
    for n, sign, name in [(n_i, 1, "interior"), (p[:, 1:].size, -1, "pressure")] if condense else []:
        if n:  # a k=1 cell has no non-constant pressure
            K, step = _eliminate(K, n_cells, n, sign, name)
            steps.append(step)
    K = K.tocsc()  # the csr goes before the LU
    return SaddleFactor(K, order, steps, "condensed" if condense else "sparse", scale[order])


def _dissection(ops, cell_unknowns):
    """Free edge DOFs by nested dissection of the cells, each cell's unknowns after its last edge.

    The cells are split in two at the median centroid along the wider
    side of their bounding box, and each half again, down to single
    cells; a cell's code is its path of left (0) and right (1) halves.  A
    free edge belongs to the separator of the split that parts its two
    cells, and the order is left half, right half, separator: the edges
    sort by the last leaf under their split, deeper splits first.  Each
    edge's DOFs stay together.  Row c of ``cell_unknowns`` (n_cells, m)
    follows cell c's last free edge, less its first entry in cell 0, the
    pinned pressure.  A cell's pressures couple only to its own
    velocities; once those are all eliminated, each zero diagonal has
    filled in with -bᵀ A⁻¹ b < 0, so the pivots can stay on the diagonal.
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
    a, b = mesh.edge_cells[~mesh.boundary_edges].T
    height = np.frexp(code[a] ^ code[b])[1]  # of the split that parts the edge's cells
    last_leaf = code[a] | ((1 << height) - 1)
    rank = np.argsort(np.argsort(last_leaf * (depth + 1) + height, kind="stable"))
    last = np.full(n, -1)  # each cell's last free edge
    np.maximum.at(last, np.concatenate([a, b]), np.tile(rank, 2))
    de = 2 * ops.dofmap.dim_edge
    unknowns = ops.dofmap.interior_size + np.arange(len(rank) * de)
    key = np.repeat(2 * rank, de)
    unknowns = np.concatenate([unknowns, cell_unknowns.ravel()[1:]])
    key = np.concatenate([key, np.repeat(2 * last + 1, cell_unknowns.shape[1])[1:]])
    return unknowns[np.argsort(key, kind="stable")]
