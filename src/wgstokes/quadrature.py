"""Quadrature rules on edges and polygonal cells, built for many at once.

Polygons come as one stack of CCW vertex loops, (N, 2) points with the
first vertex of each loop in ``starts``; the same layout serves the mesh's
side table.  An m-gon is split into m - 2 triangles, fanned from its first
vertex whose fan triangles all have positive area (never a neighbour of a
hanging vertex), or ear-clipped when no vertex has that; only the ear-clipped
polygons are handled one at a time.  Each triangle carries a tensor
Gauss-Legendre rule mapped through the collapsed-square (Duffy)
transform, so a rule of requested polynomial exactness ``d`` integrates
every polynomial of total degree <= d exactly, with strictly positive
weights.  That rule is built once per exactness on the reference triangle
and mapped affinely onto all triangles of all polygons in one call.
Edge rules likewise take one segment or a stack of them.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss


@dataclass(frozen=True)
class QuadratureRule:
    """Points (n, 2), weights (n,) and the polygon or edge each point belongs
    to (n,), ordered by owner."""

    points: np.ndarray
    weights: np.ndarray
    owner: np.ndarray


class PolygonError(ValueError):
    """A polygon no rule can be built for; `index` is its place in the stack."""

    def __init__(self, index, message):
        super().__init__(message)
        self.index = int(index)


def gauss_points(exactness):
    """1D Gauss-Legendre nodes/weights on [0, 1] exact to degree `exactness`.

    Returns fresh arrays; the nodes are computed once per point count.
    """
    s, w = _gauss_nodes(max(1, (exactness + 2) // 2))
    return s.copy(), w.copy()


@lru_cache(maxsize=None)
def _gauss_nodes(n):
    x, w = leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


def edge_rule(p0, p1, exactness):
    """Gauss rules along the segments p0 -> p1, (2,) each or (n, 2) stacks.

    The points are segment-major; each segment's weights sum to its length.
    """
    p0 = np.asarray(p0, dtype=float)
    p1 = np.asarray(p1, dtype=float)
    s, w = gauss_points(exactness)
    d = p1 - p0
    pts = p0[..., None, :] + s[:, None] * d[..., None, :]
    lengths = np.hypot(d[..., 0], d[..., 1])
    owner = np.repeat(np.arange(pts.size // (2 * len(s))), len(s))
    return QuadratureRule(pts.reshape(-1, 2), (lengths[..., None] * w).ravel(), owner)


@lru_cache(maxsize=None)
def _reference_triangle(exactness):
    """Duffy-collapsed tensor rule on the unit triangle: points (q, 2), weights (q,).

    The weights sum to 1/2; the arrays are shared and read-only.
    """
    u, wu = gauss_points(exactness + 1)  # Duffy multiplies degree by (1 - u)
    v, wv = gauss_points(exactness + 1)
    U, V = np.meshgrid(u, v, indexing="ij")
    points = np.column_stack([U.ravel(), (V * (1.0 - U)).ravel()])
    ref = points, np.outer(wu * (1.0 - u), wv).ravel()
    for arr in ref:
        arr.setflags(write=False)
    return ref


def _cross(u, v):
    """z-component of u x v for (..., 2) vectors."""
    return u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]


def _doubled_areas(tris):
    """Twice the signed areas of a (..., 3, 2) stack of triangles."""
    a = tris[..., 0, :]
    return _cross(tris[..., 1, :] - a, tris[..., 2, :] - a)


def _map_triangles(tris, exactness):
    """The reference rule mapped affinely onto each of (t, 3, 2) CCW triangles.

    Returns points (t * q, 2) and weights (t * q,), triangle-major.
    """
    lam, w = _reference_triangle(exactness)
    a = tris[:, :1]
    pts = a + lam @ (tris[:, 1:] - a)  # a + lam1 (b - a) + lam2 (c - a)
    return pts.reshape(-1, 2), (_doubled_areas(tris)[:, None] * w).ravel()


def loop_groups(loops, starts):
    """For each vertex count m: the indices of the stacked loops with m
    vertices and their vertices as a (g, m, 2) array."""
    sizes = np.diff(starts, append=len(loops))
    for m in np.unique(sizes):
        group = np.nonzero(sizes == m)[0]
        yield group, loops[starts[group][:, None] + np.arange(m)]


def polygon_geometry(p):
    """Signed areas (...) and area centroids (..., 2) of (..., m, 2) vertex loops."""
    p = np.asarray(p, dtype=float)
    q = np.roll(p, -1, axis=-2)
    cross = _cross(p, q)
    doubled = cross.sum(axis=-1)
    moments = np.stack([((p[..., i] + q[..., i]) * cross).sum(axis=-1) for i in (0, 1)], -1)
    with np.errstate(divide="ignore", invalid="ignore"):  # degenerate loops
        return 0.5 * doubled, moments / (3.0 * doubled[..., None])


def _ear_clip(poly):
    """Split a simple polygon into CCW triangles (index triples) by ear clipping.

    An ear is a strictly convex corner whose closed triangle holds no other
    remaining vertex: clipping across a vertex on an ear's edge, such as a
    hanging vertex, would cut outside the polygon.
    """
    idx, tris = list(range(len(poly))), []
    while len(idx) > 3:
        for pos in range(len(idx)):
            ear = [idx[pos - 1], idx[pos], idx[(pos + 1) % len(idx)]]
            tri = poly[ear]
            area2 = _doubled_areas(tri[None])[0]
            # the other vertices relative to each corner, tested against each edge
            rel = poly[[j for j in idx if j not in ear]][:, None] - tri
            blocked = (_cross(np.roll(tri, -1, axis=0) - tri, rel) >= -1e-12 * area2).all(axis=1)
            if area2 > 0.0 and not blocked.any():
                tris.append(ear)
                del idx[pos]
                break
        else:
            raise ValueError("ear clipping failed; polygon may be non-simple")
    return tris + [idx]


def polygon_rule(loops, exactness, starts=(0,)):
    """One quadrature rule over simple CCW polygons, polygon-major, exact to
    total degree `exactness`.

    `loops` (N, 2) stacks the vertex loops; `starts` holds the first vertex
    of each (by default, one polygon).  An m-gon is split into m - 2 CCW
    triangles, fanned from its first vertex whose fan triangles all have
    positive area, or else ear-clipped.  A polygon no rule can be built
    for raises :class:`PolygonError` naming its index.
    """
    tris, owner = [], []
    for group, p in loop_groups(np.asarray(loops, dtype=float), np.asarray(starts)):
        m = p.shape[1]
        if m < 3:
            raise PolygonError(group[0], "polygon needs at least 3 vertices")
        areas = polygon_geometry(p)[0]
        if (areas <= 0.0).any():
            bad = group[np.argmax(areas <= 0.0)]
            raise PolygonError(bad, "polygon must be CCW with positive area")
        # Fan (p_j, p_j+i, p_j+i+1), i = 1..m-2, from the first vertex j whose
        # fan triangles are all positively oriented.
        i = np.arange(1, m - 1)
        corners = np.stack([np.zeros_like(i), i, i + 1], axis=-1)  # (m - 2, 3) from apex 0
        fans = p[:, (np.arange(m)[:, None, None] + corners) % m]  # (g, m, m - 2, 3, 2)
        sees = (_doubled_areas(fans) > 0.0).all(axis=2)  # (g, m): apex j sees all
        star = sees.any(axis=1)
        tris.append(fans[star, sees[star].argmax(axis=1)].reshape(-1, 3, 2))
        owner.append(np.repeat(group[star], m - 2))
        for c, poly in zip(group[~star], p[~star]):  # ear-clip the rest
            try:
                tris.append(poly[np.asarray(_ear_clip(poly))])
            except ValueError as err:
                raise PolygonError(c, str(err)) from err
            owner.append(np.full(m - 2, c))
    order = np.argsort(np.concatenate(owner), kind="stable")  # polygon-major
    pts, w = _map_triangles(np.concatenate(tris)[order], exactness)
    owner = np.concatenate(owner)[order]
    return QuadratureRule(pts, w, np.repeat(owner, len(w) // len(owner)))
