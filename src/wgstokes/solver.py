"""Saddle-point solves by cell-local elimination, then one sparse LU.

The solved system couples the free velocity DOFs (interior blocks plus
interior-edge blocks) with the pressure DOFs:

    [ A_ff   -B_fᵀ ] [u_f]   [F_f - A_fx u_x]
    [ -B_f    0    ] [ p ] = [    B_x u_x    ]

where x marks the eliminated Dirichlet DOFs.  The pressure is fixed only
up to a constant, so pressure DOF 0 (the constant coefficient of cell 0)
is pinned to zero by leaving it out of the solved unknowns; its equation
follows from the others for compatible boundary data.  A shift by the
pressure mean then sets the zero-mean gauge.  A SaddleFactor takes the
interior velocities, then the non-constant pressures off each cell's dense
saddle matrix, batched, sums what is left on the free edge velocities and
one pressure per cell into one matrix, and factors that by sparse LU.
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
from scipy.sparse.linalg import splu

from .assembly import _scatter
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
    """Cell-local eliminations, then one sparse LU (in csc) of what they leave, K.

    Unknowns: the free velocities, the pressures and a slot reading 0 (fixed
    velocities, pinned pressure, padding), scaled by ``scale``; ``order`` ends
    with K's.  ``steps``: the `_eliminate` steps, each a padded batch over the
    cells (eliminated unknowns, the rest, W, G, sign)."""

    def __init__(self, K, order, steps, what, scale):
        self.order, self.scale, self.steps = order, scale, steps
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

    def apply(self, f, skip=0):
        """Solution for f: forward substitutions, LU solve, back substitutions.

        The first `skip` steps must meet a zero block of f, and their
        unknowns come out as 0: both of their substitutions are left out.
        """
        g, ws, steps = np.append(f, 0.0) * self.scale, [], self.steps[skip:]
        for index, rest, W, G, sign in steps:
            ws.append(np.einsum("cij,cj->ci", W, g[index]))  # L⁻¹ f_c
            g -= np.bincount(rest.ravel(), sign * np.einsum("cij,ci->cj", G, ws[-1]).ravel(), len(g))
        x, lu_part = np.zeros(len(g)), self.order[len(self.order) - self.lu.shape[0] :]
        x[lu_part] = self.lu.solve(g[lu_part])
        for (index, rest, W, G, sign), w in zip(steps[::-1], ws[::-1]):
            x[index] = sign * np.einsum("cji,cj->ci", W, w - np.einsum("cij,cj->ci", G, x[rest]))
        return (x * self.scale)[:-1]

    def solve(self, rhs_u, rhs_p):
        """Free velocity and pressure, p[0] = 0; rhs_p[0], the pinned row, is unused."""
        x = self.apply(np.concatenate([rhs_u, rhs_p]))
        return x[: len(rhs_u)], x[len(rhs_u) :]

    def pressure(self, rhs_p):
        """solve(0, rhs_p)'s pressure, bit for bit, without its velocity substitutions.

        The leading positive definite steps (one per velocity component) eliminate
        the interior velocities: they have a zero right-hand side and are not returned.
        """
        skip = sum(step[-1] > 0 for step in self.steps)
        n_u = len(self.order) + 1 - len(rhs_p)  # the order leaves out the pinned pressure
        return self.apply(np.concatenate([np.zeros(n_u), rhs_p]), skip)[n_u:]


def _eliminate(K, n, sign, cells, name):
    """Eliminate the leading n unknowns of a stack of symmetric cell matrices K,
    whose block K_cc is sign·L Lᵀ in every cell.  With W = L⁻¹ and G = W K_cr,
    returns the Schur complement K_rr - sign·GᵀG, W and G."""
    try:
        L = np.linalg.cholesky(sign * K[:, :n, :n])
    except np.linalg.LinAlgError as err:
        lowest = np.linalg.eigvalsh(sign * K[:, :n, :n])[:, 0]
        c, kind = int(np.argmin(lowest)), "positive" if sign > 0 else "negative"
        raise SolverError(
            f"{name} block of cell {cells[c]} is not {kind} definite"
            f" (eigenvalue {sign * lowest[c]:.3e})"
        ) from err
    W = np.linalg.inv(L)
    G = W @ K[:, :n, n:]
    return K[:, n:, n:] - sign * (G.swapaxes(1, 2) @ G), W, G


def _condense(batch, nk, unknown, pressure, h_inv, sizes):
    """A batch's scaled cell saddle matrices, unknowns numbered by ``unknown`` and
    ``pressure``, less their leading blocks of ``sizes``: the steps' parts and the rest."""
    (n, _, nv), nlow = batch.dofs.shape, batch.b.shape[1]
    j = np.arange(2 * nv + nlow)
    K = np.zeros((n, len(j), len(j)))  # [[a, 0, -b_xᵀ], [0, a, -b_yᵀ], [-b_x, -b_y, 0]]
    K[:, :nv, :nv], K[:, nv:-nlow, nv:-nlow] = batch.a.swapaxes(0, 1)
    K[:, -nlow:, :-nlow] = -batch.b.reshape(n, nlow, -1) * h_inv[batch.cells, None, None]
    K[:, :-nlow, -nlow:] = K[:, -nlow:, :-nlow].swapaxes(1, 2)
    index = np.concatenate([unknown[batch.dofs].reshape(n, -1), pressure[batch.cells]], axis=1)
    # the interior velocities, the non-constant pressures, then the rest
    first = np.argsort(np.where(j < 2 * nv, 2 * (j % nv >= nk), 1 + (j == 2 * nv)), kind="stable")
    K = K.reshape(n, -1).take((first[:, None] * len(j) + first).ravel(), axis=1).reshape(K.shape)
    index, parts = index[:, first], []
    for size, sign, name in sizes:
        K, W, G = _eliminate(K, size, sign, batch.cells, name)
        live = G.any(axis=(0, 1))  # G keeps no column that is zero in every cell
        parts.append((index[:, :size], index[:, size:][:, live], W, G[:, :, live]))
        index = index[:, size:]
    return parts, (K, index[:, :, None], index[:, None, :])


def _pad(stacks, value):
    """The stacks joined along axis 0, each padded with ``value`` to the widest last axis."""
    width = max(x.shape[-1] for x in stacks)
    pads = [np.full(x.shape[:-1] + (width - x.shape[-1],), value) for x in stacks]
    return np.concatenate([np.concatenate(pair, axis=-1) for pair in zip(stacks, pads)])


def factorize(system, condense=True):
    """The SaddleFactor of the free saddle equations, condensed or not.

    The interior velocities couple only within their cell, where their block
    is SPD; what is left of a cell's pressure block, -B_i A_ii⁻¹ B_iᵀ, is negative
    definite on its non-constant pressures: for v_b = 0, (∇_w·v, q) = -(v₀, ∇q).
    So each cell sheds both (one step per velocity component; none for k=1
    pressures), batched by side count, and what the cells leave is summed into
    K in one coordinate pass, in `_dissection`'s order: the free edge DOFs, each
    cell's constant pressure after its last edge (cell 0's is pinned).  Without
    condensing there are no steps: K sums the whole cell matrices, the interior
    velocities first and all of a cell's pressures after its last edge.

    Cell T's pressures are scaled by 1/h_T.  A pressure pivot, -bᵀA⁻¹b, is
    O(h²) and its column's largest entry, a coupling to an edge velocity,
    O(h), so unscaled the pivot ratio falls like h; scaled, both are O(1).
    """
    ops, dm, mesh = system.ops, system.ops.dofmap, system.ops.mesh
    n_f, n_p, nlow = len(system.free), system.num_pressure_dofs, dm.dim_cell_low
    p = n_f + np.arange(n_p).reshape(mesh.num_cells, -1)
    kept = 1 if condense else nlow  # pressures per cell left to the LU
    tail = _dissection(ops, p[:, :kept])
    order = np.concatenate([np.arange(dm.interior_size), p[:, kept:].ravel(), tail])
    dummy = p.flat[0] = n_f + n_p  # the fixed velocities and the pinned pressure
    unknown = np.where(system.fixed_mask, dummy, np.cumsum(~system.fixed_mask) - 1)
    sizes = [(dm.dim_cell, 1, "interior")] * 2 + [(nlow - 1, -1, "pressure")] * (nlow > 1)
    sizes, lu_part = (sizes, tail) if condense else ([], order)
    args = (dm.dim_cell, unknown, p, 1 / mesh.diameters, sizes)
    parts, left = zip(*(_condense(batch, *args) for batch in system._cells))
    del system._cells  # not held under the LU; the next read builds them again
    row = np.full(dummy + 1, len(lu_part), np.int32)  # unknowns outside K: a last row and column
    row[lu_part] = np.arange(len(lu_part))
    K = _scatter((len(lu_part) + 1,) * 2, [(R, row[i], row[j]) for R, i, j in left], "csc")[:-1, :-1]
    steps = [
        (*map(_pad, zip(*step), (dummy, dummy, 0.0, 0.0)), sign)
        for step, (_, sign, _) in zip(zip(*parts), sizes)
    ]
    del left, parts  # the cell stacks go before the LU
    scale = np.concatenate([np.ones(n_f), np.repeat(1 / mesh.diameters, nlow), [0.0]])
    return SaddleFactor(K, order, steps, "condensed" if condense else "sparse", scale)


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
