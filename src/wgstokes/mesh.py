"""Polygonal meshes of the unit square.

A :class:`PolygonalMesh` is an immutable vertex/cell-loop structure with
derived edge connectivity, built on one *side table*: a side is one cell
seeing one of its edges, and sides are numbered cell-major in loop order.
Validation, edges and geometry are array operations over that table.
Four built-in generators cover the mesh families used throughout the
package:

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

The Voronoi families bound every cell by mirroring generators across the
four sides of the square, so boundary edges land exactly on the square
and the cells partition it to machine precision.  Only the generators
within a band of MIRROR_BAND lattice spacings of a side are mirrored,
and the cells are read off the Delaunay triangulation of these points.
The band is exact under a certificate: inside the square no mirror is
closer than its original, so a cell whose vertices all lie in the closed
square is the cell that mirroring every generator gives.  Every cell is
checked, and one that fails raises MeshValidationError.
"""

from itertools import combinations

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import Delaunay, cKDTree

from .errors import ConfigurationError, MeshValidationError
from .quadrature import loop_groups, polygon_geometry

FAMILIES = ("uniform-triangle", "uniform-quad", "perturbed-polygon", "hexagonal")

_MERGE_TOL = 1e-12  # vertex dedup for generated meshes (well below any feature)
JITTER = 0.2  # perturbed-polygon generator offsets, as a fraction of the lattice spacing
MIRROR_BAND = 3.0  # generators mirrored across a side lie this many spacings 1/sqrt(N) from it


class PolygonalMesh:
    """Conforming mesh of simple CCW polygons.

    Parameters
    ----------
    vertices : (nv, 2) float array
    cells : sequence of int sequences
        CCW vertex loops, 0-based.

    Side table
    ----------
    A side is one cell seeing one of its edges; side i of a cell runs from
    its loop vertex i to loop vertex i+1, and sides are numbered cell-major.
    side_cell, side_edge : (n_sides,) int arrays
        Cell and edge of each side; ``side_starts`` (n_cells,) is the first
        side of each cell.
    side_vertices : (n_sides, 2) int array
        Start and end vertex of each side.
    side_normal : (n_sides, 2) float array
        Outward unit normal of each side.

    Derived attributes
    ------------------
    edges : (ne, 2) int array
        Unique edges, lower vertex index first (canonical orientation),
        numbered by first appearance in the side table.
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
        self.num_vertices = len(self.vertices)
        self.num_cells = len(cells)
        self._build_sides(cells)
        self._build_geometry()
        self._build_edges()
        for arr in (self.vertices, self.side_cell, self.side_starts, self.side_vertices,
                    self.side_edge, self.side_normal, self.edges, self.edge_cells,
                    self.boundary_edges, self.areas, self.centroids, self.diameters):  # fmt: skip
            arr.setflags(write=False)

    # -- construction -------------------------------------------------

    def _build_sides(self, cells):
        if self.num_cells == 0:
            raise MeshValidationError("mesh has no cells")
        try:  # flat cells of 3 or more integers of either sign
            start = np.concatenate(cells, dtype=int, casting="same_kind")
            sizes = np.fromiter(map(len, cells), dtype=int, count=self.num_cells)
        except (TypeError, ValueError):  # a float, string, object, nested or scalar entry
            start = sizes = None
        if start is None or start.ndim != 1 or (sizes < 3).any():
            raise MeshValidationError(_malformed_cell(cells))
        self.side_starts = np.cumsum(sizes) - sizes
        self.side_cell = np.repeat(np.arange(self.num_cells), sizes)
        missing = (start < 0) | (start >= self.num_vertices)
        if missing.any():
            raise MeshValidationError(
                f"cell {self.side_cell[np.argmax(missing)]} references a missing vertex"
            )
        key = np.sort(self.side_cell * self.num_vertices + start)
        repeats = key[1:][key[1:] == key[:-1]]
        if len(repeats):
            raise MeshValidationError(f"cell {repeats[0] // self.num_vertices} repeats a vertex")
        successor = _successors(self.side_starts, len(start))
        self.side_vertices = np.column_stack([start, start[successor]])

    def _build_geometry(self):
        loops = self.vertices[self.side_vertices[:, 0]]
        self.areas, self.diameters = np.empty((2, self.num_cells))
        self.centroids = np.empty((self.num_cells, 2))
        for group, p in loop_groups(loops, self.side_starts):
            self.areas[group], self.centroids[group] = polygon_geometry(p)
            if (self.areas[group] <= 0.0).any():
                ci = group[np.argmax(self.areas[group] <= 0.0)]
                raise MeshValidationError(
                    f"cell {ci} is not CCW or has non-positive area ({self.areas[ci]:g})"
                )
            crossed = group[_sides_cross(p)]
            if len(crossed):
                raise MeshValidationError(
                    f"cell {crossed[0]} is self-intersecting: two sides cross"
                )
            d = p[:, :, None, :] - p[:, None, :, :]
            self.diameters[group] = np.sqrt((d * d).sum(-1).max(axis=(1, 2)))
        self.mesh_size = float(self.diameters.max())
        t = self.vertices[self.side_vertices[:, 1]] - loops
        # CCW loops: the outward normal is the tangent turned by -90 degrees
        self.side_normal = np.column_stack([t[:, 1], -t[:, 0]]) / np.hypot(*t.T)[:, None]

    def _build_edges(self):
        a, b = self.side_vertices.T
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        _, first, side_key = np.unique(
            lo * self.num_vertices + hi, return_index=True, return_inverse=True
        )
        order = np.argsort(first)  # number the edges by first appearance
        self.side_edge = np.argsort(order)[side_key]  # the inverse permutation
        self.edges = np.column_stack([lo, hi])[first[order]]
        self.num_edges = len(self.edges)
        # an edge is seen at most once per direction; canonical is low -> high
        slot = 2 * self.side_edge + (a > b)
        twice = np.bincount(slot) > 1
        if twice.any():
            cells = self.side_cell[slot == np.argmax(twice)]
            raise MeshValidationError(
                f"edge {tuple(self.edges[np.argmax(twice) // 2].tolist())} traversed twice "
                f"in the same direction (cells {cells[0]} and {cells[1]}): inconsistent orientation"
            )
        self.edge_cells = np.full(2 * self.num_edges, -1)
        self.edge_cells[slot] = self.side_cell
        self.edge_cells = self.edge_cells.reshape(-1, 2)
        self.boundary_edges = (self.edge_cells >= 0).sum(axis=1) == 1
        # An edge seen by >2 cells trips the direction check above, but a
        # non-manifold vertex pattern can still sneak through; Euler's
        # relation for a simply connected planar subdivision catches it.
        euler = self.num_vertices - self.num_edges + self.num_cells
        if euler != 1:
            raise MeshValidationError(
                f"mesh is not a simply connected planar subdivision (V-E+F = {euler})"
            )

    # -- queries ------------------------------------------------------

    def cell_vertices(self, ci):
        """Vertex coordinates of cell `ci` as a CCW (m, 2) loop."""
        end = self.side_starts[ci + 1] if ci + 1 < self.num_cells else len(self.side_cell)
        return self.vertices[self.side_vertices[self.side_starts[ci] : end, 0]]


def _malformed_cell(cells):
    """What is wrong with the first cell that is not a flat loop of 3 or more integers."""
    for c, cell in enumerate(cells):
        try:
            cell = np.asarray(cell)
        except ValueError:  # ragged
            cell = np.empty((0, 0))
        if cell.ndim != 1:
            return f"cell {c} is not a flat sequence of vertex indices"
        if len(cell) < 3:
            return f"cell {c} has fewer than 3 vertices"
        if not np.can_cast(cell.dtype, int, "same_kind"):
            return f"cell {c} has non-integer vertex indices"


def _successors(starts, total):
    """Index of the next vertex around its loop, for `total` stacked loop vertices."""
    nxt = np.arange(1, total + 1)
    nxt[np.append(starts[1:], total) - 1] = starts
    return nxt


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


def generate_mesh(family, n, seed=0):
    """Build a mesh of the unit square.

    Parameters
    ----------
    family : str
        One of ``uniform-triangle``, ``uniform-quad``, ``perturbed-polygon``,
        ``hexagonal``.
    n : int
        Subdivision count; the mesh size is proportional to 1/n.
    seed : int
        RNG seed for the perturbed-polygon family (checked for every family).
    """
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ConfigurationError(f"subdivision count must be a positive integer, got {n!r}")
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ConfigurationError(f"seed must be a non-negative integer, got {seed!r}")
    if family == "uniform-quad":
        verts, corner = _square_grid(n)
        quads = [corner, corner + 1, corner + n + 2, corner + n + 1]
        return PolygonalMesh(verts, np.column_stack(quads))
    if family == "uniform-triangle":
        verts, corner = _square_grid(n)
        tris = [[corner, corner + 1, corner + n + 2], [corner, corner + n + 2, corner + n + 1]]
        # the lower, then the upper triangle of each square
        return PolygonalMesh(verts, np.transpose(tris, (2, 0, 1)).reshape(-1, 3))
    if family == "perturbed-polygon":
        rng = np.random.default_rng(seed)
        h = 1.0 / n
        xs = (np.arange(n) + 0.5) * h
        X, Y = np.meshgrid(xs, xs, indexing="xy")
        pts = np.column_stack([X.ravel(), Y.ravel()])
        pts += rng.uniform(-JITTER * h, JITTER * h, size=pts.shape)
        return PolygonalMesh(*_clipped_voronoi(pts))
    if family == "hexagonal":
        return PolygonalMesh(*_clipped_voronoi(_triangular_lattice(n)))
    raise ConfigurationError(f"unknown mesh family {family!r}; expected one of {FAMILIES}")


def refinement_ladder(n0, levels):
    """Subdivision counts n0 * 2**j for j = 0..levels-1 (mesh size halves per level)."""
    if levels < 1:
        raise ConfigurationError(f"levels must be >= 1, got {levels}")
    if n0 < 1:
        raise ConfigurationError(f"n0 must be >= 1, got {n0}")
    return [n0 * 2**j for j in range(levels)]


def _square_grid(n):
    """Vertices of the (n+1) x (n+1) grid and each square's lower-left vertex, row-major."""
    xs = np.linspace(0.0, 1.0, n + 1)
    X, Y = np.meshgrid(xs, xs, indexing="xy")
    corner = np.arange(n)[:, None] * (n + 1) + np.arange(n)
    return np.column_stack([X.ravel(), Y.ravel()]), corner.ravel()


def _triangular_lattice(n):
    a = 1.0 / n
    dy = np.sqrt(3.0) / 2.0 * a
    m = max(1, round(1.0 / dy))
    dy = 1.0 / m
    J, I = np.meshgrid(np.arange(m), np.arange(n), indexing="ij")
    off = np.where(J % 2 == 0, 0.25, 0.75)
    return np.column_stack([((I + off) * a).ravel(), ((J + 0.5) * dy).ravel()])


def _clipped_voronoi(pts):
    """Voronoi cells of `pts` clipped exactly to the unit square (see the
    module docstring): each cell's vertices are the circumcentres of the
    Delaunay triangles around its generator."""
    n = len(pts)
    mirrored = [pts]
    for dim in (0, 1):
        for side in (0.0, 1.0):  # across x = 0, x = 1, y = 0, y = 1
            near = pts[np.abs(pts[:, dim] - side) < MIRROR_BAND / np.sqrt(n)]
            near[:, dim] = 2.0 * side - near[:, dim]
            mirrored.append(near)
    tri = Delaunay(np.vstack(mirrored))
    p = tri.points[tri.simplices]  # each triangle's circumcentre is a Voronoi vertex
    b, c = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
    bb, cc = (b * b).sum(axis=1), (c * c).sum(axis=1)
    centre = np.column_stack([c[:, 1] * bb - b[:, 1] * cc, b[:, 0] * cc - c[:, 0] * bb])
    verts = p[:, 0] + centre / (2.0 * (b[:, 0] * c[:, 1] - b[:, 1] * c[:, 0]))[:, None]
    for coord in (0.0, 1.0):
        verts[np.abs(verts - coord) < 1e-10] = coord
    corners = tri.simplices.ravel()  # a generator's cell: the triangles around it
    owner, loops = corners[corners < n], np.flatnonzero(corners < n) // 3
    # the certificate: no vertex outside the square, and no generator on the hull,
    # where its fan of triangles is open and its cell unbounded
    outside = ((verts < 0.0) | (verts > 1.0)).any(axis=1)
    bad = np.bincount(owner, outside[loops], minlength=n) > 0
    bad[tri.convex_hull[tri.convex_hull < n]] = True
    if bad.any():
        raise MeshValidationError(
            f"cell {np.argmax(bad)} is not certified: the generators mirrored within "
            f"{MIRROR_BAND:g} spacings of a side leave it unbounded or outside the unit square"
        )
    # cells are convex and contain their generator: sort CCW around it
    ang = np.arctan2(verts[loops, 1] - pts[owner, 1], verts[loops, 0] - pts[owner, 0])
    return _renumber(verts, loops[np.lexsort((ang, owner))], np.bincount(owner, minlength=n))


def _renumber(verts, loops, sizes):
    """Vertices and loops with only the used vertices, in order, and each
    cluster of vertices closer than _MERGE_TOL (max-norm) merged into its
    first; a loop drops a vertex merged into its predecessor.  `loops`
    stacks the vertex loops, `sizes` their lengths."""
    used, loops = np.unique(loops, return_inverse=True)
    pts = verts[used]
    n = len(pts)
    i, j = cKDTree(pts).query_pairs(_MERGE_TOL, p=np.inf, output_type="ndarray").T
    close = np.abs(pts[i] - pts[j]).max(axis=1) < _MERGE_TOL
    graph = coo_matrix((np.ones(close.sum()), (i[close], j[close])), shape=(n, n))
    label = connected_components(graph, directed=False)[1]
    first = np.unique(label, return_index=True)[1][label]  # each cluster's first vertex
    kept = first == np.arange(n)
    loops = (np.cumsum(kept) - 1)[first[loops]]
    starts = np.cumsum(sizes) - sizes
    predecessor = np.argsort(_successors(starts, len(loops)))  # the inverse permutation
    keep = loops != loops[predecessor]
    sizes = np.add.reduceat(keep, starts, dtype=int)
    return pts[kept], np.split(loops[keep], np.cumsum(sizes)[:-1])


# -- shape regularity ---------------------------------------------------


def shape_regularity(mesh):
    """Chunkiness of every cell: its diameter over its star radius, (n_cells,).

    The star radius is that of the largest disc with respect to which the
    cell is star-shaped (Brenner & Scott, section 4.2): the largest disc in
    the cell's kernel, the intersection of its sides' inner half-planes.  It
    is the optimum of max r subject to n_i . x + r <= n_i . p_i, which is
    a vertex of that polyhedron in (x, y, r); so every triple of side lines
    is solved, stacked per side count, and the largest feasible r kept.  For
    a convex cell it is the inradius.  A cell that is not star-shaped raises
    MeshValidationError.
    """
    p = mesh.vertices[mesh.side_vertices[:, 0]]
    # each side's constraint n . x + r <= n . p as the row [n, 1, n . p]
    normal = mesh.side_normal
    rows = np.column_stack([normal, np.ones(len(p)), np.einsum("ij,ij->i", normal, p)])
    rho = np.empty(mesh.num_cells)
    for group, s in loop_groups(rows, mesh.side_starts):
        triples = list(combinations(range(s.shape[1]), 3))
        A, b = s[:, triples, :3], s[:, triples, 3]
        solvable = np.abs(np.linalg.det(A)) > 1e-12  # singular where two of the sides face one way
        A[~solvable] = np.eye(3)
        x = np.linalg.solve(A, b[..., None])[..., 0]
        slack = s[:, None, :, 3] - np.einsum("gmj,gtj->gtm", s[..., :3], x)
        feasible = solvable & (slack.min(axis=2) >= -1e-12 * mesh.diameters[group, None])
        rho[group] = np.where(feasible, x[..., 2], -np.inf).max(axis=1)
    if (rho <= 0.0).any():
        raise MeshValidationError(
            f"cell {np.argmax(rho <= 0.0)} is not star-shaped: no disc lies in its kernel"
        )
    return mesh.diameters / rho
