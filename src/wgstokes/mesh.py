"""Polygonal meshes of the unit square.

A :class:`PolygonalMesh` is an immutable vertex/cell-loop structure with
derived edge connectivity.  Four built-in generators cover the mesh
families used throughout the package:

``uniform-triangle``
    n x n grid of squares, each split along the SW-NE diagonal.
``uniform-quad``
    n x n grid of squares.
``perturbed-polygon``
    Clipped Voronoi diagram of an n x n lattice of generator points,
    each jittered by a seeded RNG; produces general convex polygons
    (mostly pentagons and hexagons).
``hexagonal``
    Clipped Voronoi diagram of a triangular lattice: a honeycomb whose
    interior cells are hexagons and whose boundary cells are clipped.

The Voronoi families bound every cell by mirroring the generators across
all four sides of the square, so boundary edges land exactly on the
square and the cells partition it to machine precision.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linprog
from scipy.spatial import Voronoi

from .errors import ConfigurationError, MeshFormatError, MeshValidationError

FAMILIES = ("uniform-triangle", "uniform-quad", "perturbed-polygon", "hexagonal")

_MERGE_TOL = 1e-12  # vertex dedup for generated meshes (well below any feature)


class PolygonalMesh:
    """Conforming mesh of simple CCW polygons.

    Parameters
    ----------
    vertices : (nv, 2) float array
    cells : sequence of int sequences
        CCW vertex loops, 0-based.

    Derived attributes
    ------------------
    edges : (ne, 2) int array
        Unique edges, lower vertex index first (canonical orientation).
    cell_edges : list of (m,) int arrays
        Edge index of each cell side `i` (the side from loop vertex i to
        loop vertex i+1).
    edge_cells : (ne, 2) int array
        Cells seeing the edge in canonical / anti-canonical direction;
        -1 where absent.  Boundary edges have exactly one -1.
    areas, centroids, diameters : per-cell geometry
    mesh_size : float
        max cell diameter.
    """

    def __init__(self, vertices, cells):
        self.vertices = np.ascontiguousarray(vertices, dtype=float)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 2:
            raise MeshValidationError("vertices must be an (nv, 2) array")
        if not np.isfinite(self.vertices).all():
            raise MeshValidationError("non-finite vertex coordinates")
        self.cells = [np.asarray(c, dtype=int) for c in cells]
        self.num_vertices = len(self.vertices)
        self.num_cells = len(self.cells)
        self._validate_cells()
        self._build_edges()
        self._build_geometry()
        self.vertices.setflags(write=False)
        for arr in (self.edges, self.edge_cells, self.areas, self.centroids, self.diameters):
            arr.setflags(write=False)

    # -- construction -------------------------------------------------

    def _validate_cells(self):
        if self.num_cells == 0:
            raise MeshValidationError("mesh has no cells")
        for ci, loop in enumerate(self.cells):
            if len(loop) < 3:
                raise MeshValidationError(f"cell {ci} has fewer than 3 vertices")
            if (loop < 0).any() or (loop >= self.num_vertices).any():
                raise MeshValidationError(f"cell {ci} references a missing vertex")
            if len(np.unique(loop)) != len(loop):
                raise MeshValidationError(f"cell {ci} repeats a vertex")
            p = self.vertices[loop]
            x, y = p[:, 0], p[:, 1]
            area = 0.5 * np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)
            if area <= 0.0:
                raise MeshValidationError(
                    f"cell {ci} is not CCW or has non-positive area ({area:g})"
                )
            loop.setflags(write=False)
        sizes = np.array([len(loop) for loop in self.cells])
        for m in np.unique(sizes[sizes > 3]):
            group = np.nonzero(sizes == m)[0]
            crossed = group[_sides_cross(self.vertices[np.stack([self.cells[c] for c in group])])]
            if len(crossed):
                raise MeshValidationError(
                    f"cell {crossed[0]} is self-intersecting: two sides cross"
                )

    def _build_edges(self):
        edge_ids = {}
        edges = []
        edge_cells = []
        cell_edges = []
        for ci, loop in enumerate(self.cells):
            sides = np.empty(len(loop), dtype=int)
            for s in range(len(loop)):
                a, b = int(loop[s]), int(loop[(s + 1) % len(loop)])
                key = (a, b) if a < b else (b, a)
                e = edge_ids.get(key)
                if e is None:
                    e = len(edges)
                    edge_ids[key] = e
                    edges.append(key)
                    edge_cells.append([-1, -1])
                slot = 0 if a < b else 1  # canonical direction is low -> high
                if edge_cells[e][slot] != -1:
                    raise MeshValidationError(
                        f"edge {key} traversed twice in the same direction "
                        f"(cells {edge_cells[e][slot]} and {ci}): inconsistent orientation"
                    )
                edge_cells[e][slot] = ci
                sides[s] = e
            sides.setflags(write=False)
            cell_edges.append(sides)
        self.edges = np.asarray(edges, dtype=int)
        self.edge_cells = np.asarray(edge_cells, dtype=int)
        self.cell_edges = cell_edges
        self.num_edges = len(self.edges)
        counts = (self.edge_cells >= 0).sum(axis=1)
        if (counts == 0).any():
            raise MeshValidationError("internal error: edge with no incident cell")
        self.boundary_edges = counts == 1
        # An edge key seen by >2 cells would have tripped the slot check above,
        # but a non-manifold vertex pattern can still sneak through; Euler's
        # relation for a simply connected planar subdivision catches it.
        euler = self.num_vertices - self.num_edges + self.num_cells
        if euler != 1:
            raise MeshValidationError(
                f"mesh is not a simply connected planar subdivision (V-E+F = {euler})"
            )

    def _build_geometry(self):
        areas = np.empty(self.num_cells)
        centroids = np.empty((self.num_cells, 2))
        diameters = np.empty(self.num_cells)
        for ci, loop in enumerate(self.cells):
            p = self.vertices[loop]
            x, y = p[:, 0], p[:, 1]
            cross = x * np.roll(y, -1) - np.roll(x, -1) * y
            a = 0.5 * cross.sum()
            areas[ci] = a
            centroids[ci, 0] = np.sum((x + np.roll(x, -1)) * cross) / (6.0 * a)
            centroids[ci, 1] = np.sum((y + np.roll(y, -1)) * cross) / (6.0 * a)
            d = p[:, None, :] - p[None, :, :]
            diameters[ci] = np.sqrt((d * d).sum(-1).max())
        self.areas = areas
        self.centroids = centroids
        self.diameters = diameters
        self.mesh_size = float(diameters.max())

    # -- queries ------------------------------------------------------

    def cell_vertices(self, ci):
        """Vertex coordinates of cell `ci` as a CCW (m, 2) loop."""
        return self.vertices[self.cells[ci]]

    def cell_normals(self, ci):
        """Outward unit normals of cell `ci`, one per side; shape (m, 2)."""
        p = self.cell_vertices(ci)
        t = np.roll(p, -1, axis=0) - p
        lengths = np.hypot(t[:, 0], t[:, 1])
        # CCW loop: outward normal is the tangent rotated by -90 degrees
        return np.column_stack([t[:, 1], -t[:, 0]]) / lengths[:, None]

    def edge_vertices(self, e):
        """Endpoint coordinates of edge `e` in canonical order; shape (2, 2)."""
        return self.vertices[self.edges[e]]

    def edge_lengths(self):
        p = self.vertices[self.edges[:, 0]]
        q = self.vertices[self.edges[:, 1]]
        return np.hypot(*(q - p).T)

    def __repr__(self):
        return (
            f"PolygonalMesh({self.num_vertices} vertices, {self.num_edges} edges, "
            f"{self.num_cells} cells, h={self.mesh_size:.4g})"
        )


def _sides_cross(p):
    """For (n, m, 2) closed loops, whether two non-adjacent sides of each meet.

    Collinear sides meet only where they overlap, so a straight run of
    hanging vertices passes.
    """
    m = p.shape[1]
    i, j = np.triu_indices(m, 2)
    i, j = i[j - i < m - 1], j[j - i < m - 1]  # sides 0 and m-1 are adjacent
    q = np.roll(p, -1, axis=1)
    a, b, c, d = p[:, i], q[:, i], p[:, j], q[:, j]
    tol = 1e-12 * (p.max(axis=1) - p.min(axis=1)).max(axis=1)[:, None] ** 2

    def side(p0, p1, x):  # side of the line p0 -> p1 that x is on, 0 within tol
        u, v = p1 - p0, x - p0
        cross = u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]
        return np.where(np.abs(cross) <= tol, 0, np.sign(cross))

    s1, s2 = side(a, b, c), side(a, b, d)
    meet = (s1 * s2 <= 0) & (side(c, d, a) * side(c, d, b) <= 0)
    t = np.stack([((x - a) * (b - a)).sum(-1) for x in (c, d)])  # c, d along a -> b
    overlap = (t.max(0) >= -tol) & (t.min(0) <= ((b - a) ** 2).sum(-1) + tol)
    return (meet & ((s1 != 0) | (s2 != 0) | overlap)).any(axis=1)


# -- generators --------------------------------------------------------


def generate_mesh(family, n, seed=0, jitter=0.2):
    """Build a mesh of the unit square.

    Parameters
    ----------
    family : str
        One of ``uniform-triangle``, ``uniform-quad``, ``perturbed-polygon``,
        ``hexagonal``.
    n : int
        Subdivision count; the mesh size is proportional to 1/n.
    seed : int
        RNG seed for the perturbed-polygon family.
    jitter : float
        Jitter amplitude as a fraction of the lattice spacing.
    """
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ConfigurationError(f"subdivision count must be a positive integer, got {n!r}")
    if family == "uniform-quad":
        return _uniform_quad(n)
    if family == "uniform-triangle":
        return _uniform_triangle(n)
    if family == "perturbed-polygon":
        if not 0.0 <= jitter < 0.5:
            raise ConfigurationError(f"jitter must lie in [0, 0.5), got {jitter}")
        rng = np.random.default_rng(seed)
        h = 1.0 / n
        xs = (np.arange(n) + 0.5) * h
        X, Y = np.meshgrid(xs, xs, indexing="xy")
        pts = np.column_stack([X.ravel(), Y.ravel()])
        pts += rng.uniform(-jitter * h, jitter * h, size=pts.shape)
        verts, loops = _clipped_voronoi(pts)
        return PolygonalMesh(verts, loops)
    if family == "hexagonal":
        verts, loops = _clipped_voronoi(_triangular_lattice(n))
        return PolygonalMesh(verts, loops)
    raise ConfigurationError(f"unknown mesh family {family!r}; expected one of {FAMILIES}")


def refine_sequence(family, n0, levels, seed=0, jitter=0.2):
    """Meshes at n = n0 * 2**j for j = 0..levels-1 (mesh size halves per level)."""
    if levels < 1:
        raise ConfigurationError(f"levels must be >= 1, got {levels}")
    return [generate_mesh(family, n0 * 2**j, seed=seed, jitter=jitter) for j in range(levels)]


def _uniform_quad(n):
    xs = np.linspace(0.0, 1.0, n + 1)
    X, Y = np.meshgrid(xs, xs, indexing="xy")
    verts = np.column_stack([X.ravel(), Y.ravel()])
    vid = lambda i, j: j * (n + 1) + i
    loops = [
        [vid(i, j), vid(i + 1, j), vid(i + 1, j + 1), vid(i, j + 1)]
        for j in range(n)
        for i in range(n)
    ]
    return PolygonalMesh(verts, loops)


def _uniform_triangle(n):
    xs = np.linspace(0.0, 1.0, n + 1)
    X, Y = np.meshgrid(xs, xs, indexing="xy")
    verts = np.column_stack([X.ravel(), Y.ravel()])
    vid = lambda i, j: j * (n + 1) + i
    loops = []
    for j in range(n):
        for i in range(n):
            loops.append([vid(i, j), vid(i + 1, j), vid(i + 1, j + 1)])
            loops.append([vid(i, j), vid(i + 1, j + 1), vid(i, j + 1)])
    return PolygonalMesh(verts, loops)


def _triangular_lattice(n):
    a = 1.0 / n
    dy = np.sqrt(3.0) / 2.0 * a
    m = max(1, round(1.0 / dy))
    dy = 1.0 / m
    pts = []
    for j in range(m):
        off = 0.25 if j % 2 == 0 else 0.75
        for i in range(n):
            pts.append(((i + off) * a, (j + 0.5) * dy))
    return np.asarray(pts)


def _clipped_voronoi(pts):
    """Voronoi cells of `pts` clipped exactly to the unit square.

    Reflecting the generators across all four sides makes every original
    cell finite, with its boundary edges on the square's sides; the cells
    then partition the square exactly.
    """
    n = len(pts)
    mirrored = np.vstack(
        [
            pts,
            pts * [-1.0, 1.0],  # across x = 0
            pts * [-1.0, 1.0] + [2.0, 0.0],  # across x = 1
            pts * [1.0, -1.0],  # across y = 0
            pts * [1.0, -1.0] + [0.0, 2.0],  # across y = 1
        ]
    )
    vor = Voronoi(mirrored)
    verts = vor.vertices.copy()
    for coord in (0.0, 1.0):
        for dim in (0, 1):
            hit = np.abs(verts[:, dim] - coord) < 1e-10
            verts[hit, dim] = coord
    loops = []
    for i in range(n):
        region = vor.regions[vor.point_region[i]]
        if -1 in region:
            raise MeshValidationError("Voronoi region unexpectedly unbounded")
        vi = np.asarray(region, dtype=int)
        # cells are convex and contain their generator: sort CCW around it
        ang = np.arctan2(verts[vi, 1] - pts[i, 1], verts[vi, 0] - pts[i, 0])
        loops.append(vi[np.argsort(ang)])
    return _renumber(verts, loops)


def _renumber(verts, loops):
    """Keep only used vertices, merging coincident ones (tol _MERGE_TOL)."""
    used = sorted({int(v) for loop in loops for v in loop})
    remap = {}
    out_pts = []
    for u in used:
        p = verts[u]
        for j in range(len(out_pts) - 1, -1, -1):
            q = out_pts[j]
            if abs(p[0] - q[0]) < _MERGE_TOL and abs(p[1] - q[1]) < _MERGE_TOL:
                remap[u] = j
                break
        else:
            remap[u] = len(out_pts)
            out_pts.append(p)
    cells = []
    for loop in loops:
        seq = [remap[int(v)] for v in loop]
        seq = [v for i, v in enumerate(seq) if v != seq[i - 1]]  # drop merged repeats
        cells.append(seq)
    return np.asarray(out_pts), cells


# -- I/O ---------------------------------------------------------------

_HEADER = "wgmesh 2d v1"


def save_mesh(mesh, path):
    """Write the line-oriented text format (see `load_mesh`)."""
    with open(path, "w") as f:
        f.write(_HEADER + "\n")
        f.write(f"vertices {mesh.num_vertices}\n")
        for x, y in mesh.vertices:
            f.write(f"{float(x)!r} {float(y)!r}\n")
        f.write(f"cells {mesh.num_cells}\n")
        for loop in mesh.cells:
            f.write(" ".join(str(int(v)) for v in loop) + "\n")


def load_mesh(path):
    """Read a mesh written by `save_mesh`.

    Format: header line ``wgmesh 2d v1``; ``vertices N`` followed by N
    ``x y`` lines; ``cells M`` followed by M lines of space-separated CCW
    0-based vertex indices.  Edges are derived, never stored.
    """
    with open(path) as f:
        lines = f.read().splitlines()

    def fail(msg, ln):
        raise MeshFormatError(msg, line=ln)

    if not lines or lines[0].strip() != _HEADER:
        fail(f"expected header {_HEADER!r}", 1)
    ln = 1
    if ln >= len(lines) or not lines[ln].startswith("vertices "):
        fail("expected 'vertices N'", ln + 1)
    try:
        nv = int(lines[ln].split()[1])
    except (IndexError, ValueError):
        fail("expected 'vertices N' with integer N", ln + 1)
    verts = np.empty((nv, 2))
    for i in range(nv):
        ln += 1
        if ln >= len(lines):
            fail("unexpected end of file in vertex block", ln + 1)
        parts = lines[ln].split()
        if len(parts) != 2:
            fail(f"expected 'x y', got {lines[ln]!r}", ln + 1)
        try:
            verts[i] = [float(parts[0]), float(parts[1])]
        except ValueError:
            fail(f"bad coordinate in {lines[ln]!r}", ln + 1)
    ln += 1
    if ln >= len(lines) or not lines[ln].startswith("cells "):
        fail("expected 'cells M'", ln + 1)
    try:
        nc = int(lines[ln].split()[1])
    except (IndexError, ValueError):
        fail("expected 'cells M' with integer M", ln + 1)
    cells = []
    for i in range(nc):
        ln += 1
        if ln >= len(lines):
            fail("unexpected end of file in cell block", ln + 1)
        try:
            cells.append([int(t) for t in lines[ln].split()])
        except ValueError:
            fail(f"bad vertex index in {lines[ln]!r}", ln + 1)
    return PolygonalMesh(verts, cells)


# -- shape regularity ---------------------------------------------------


@dataclass
class ShapeRegularityReport:
    """Aspect proxies per cell: diameter/inradius and max/min edge ratio."""

    aspect: np.ndarray
    edge_ratio: np.ndarray
    max_aspect: float
    max_edge_ratio: float
    threshold: float
    flagged: np.ndarray = field(default_factory=lambda: np.array([], dtype=int))

    def summary(self):
        return (
            f"max diameter/inradius {self.max_aspect:.3f}, "
            f"max edge ratio {self.max_edge_ratio:.3f}, "
            f"{len(self.flagged)} cell(s) above threshold {self.threshold:g}"
        )


def shape_regularity(mesh, threshold=20.0):
    """Diameter/inradius and edge-length-ratio proxies for every cell.

    The inradius of a convex cell is found exactly as the Chebyshev center
    (a tiny linear program); for nonconvex cells the distance from the
    centroid to the boundary serves as a lower bound.  Cells whose
    diameter/inradius exceeds `threshold` are flagged, not rejected.
    """
    aspect = np.empty(mesh.num_cells)
    edge_ratio = np.empty(mesh.num_cells)
    for ci in range(mesh.num_cells):
        p = mesh.cell_vertices(ci)
        if mesh.areas[ci] <= 0.0:
            raise MeshValidationError(f"cell {ci} has non-positive area")
        normals = mesh.cell_normals(ci)
        lengths = np.hypot(*(np.roll(p, -1, axis=0) - p).T)
        edge_ratio[ci] = lengths.max() / lengths.min()
        if _is_convex(p):
            rho = _chebyshev_radius(p, normals)
        else:
            rho = _centroid_clearance(p, mesh.centroids[ci])
        aspect[ci] = mesh.diameters[ci] / rho
    flagged = np.nonzero(aspect > threshold)[0]
    return ShapeRegularityReport(
        aspect=aspect,
        edge_ratio=edge_ratio,
        max_aspect=float(aspect.max()),
        max_edge_ratio=float(edge_ratio.max()),
        threshold=threshold,
        flagged=flagged,
    )


def _is_convex(p):
    t = np.roll(p, -1, axis=0) - p
    cross = t[:, 0] * np.roll(t[:, 1], -1) - t[:, 1] * np.roll(t[:, 0], -1)
    return bool((cross > -1e-14 * np.abs(cross).max()).all())


def _chebyshev_radius(p, normals):
    # max r s.t. n_i . x + r <= n_i . p_i  (the largest inscribed disc)
    m = len(p)
    A = np.column_stack([normals, np.ones(m)])
    b = np.einsum("ij,ij->i", normals, p)
    res = linprog(c=[0.0, 0.0, -1.0], A_ub=A, b_ub=b, bounds=[(None, None)] * 3)
    if not res.success or res.x[2] <= 0.0:
        raise MeshValidationError("inscribed-disc LP failed; degenerate cell?")
    return float(res.x[2])


def _centroid_clearance(p, centroid):
    q = np.roll(p, -1, axis=0)
    d = q - p
    tt = np.clip(np.einsum("ij,ij->i", centroid - p, d) / (d * d).sum(1), 0.0, 1.0)
    proj = p + tt[:, None] * d
    return float(np.hypot(*(proj - centroid).T).min())
