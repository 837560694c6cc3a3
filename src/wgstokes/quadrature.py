"""Quadrature rules on edges and polygonal cells, built for many at once.

Polygons come as one stack of CCW vertex loops, (N, 2) points with the
first vertex of each loop in ``starts``; the same layout serves the mesh's
side table.  An m-gon is fanned into m - 2 triangles from its first vertex
whose fan triangles all have positive area (never a neighbour of a hanging
vertex), or ear-clipped when no vertex has that; only the ear-clipped
polygons are handled one at a time.  Each rule piece is a bilinear image of
the unit square: two fan triangles whose union is strictly convex make one
quad, any other triangle the collapsed quad (a, b, c, a), the Duffy map.  A
tensor Gauss-Legendre rule exact to degree d + 1 in each variable, mapped onto
all pieces in one call, integrates every polynomial of total degree <= d
exactly (the Jacobian is linear in each variable), with positive weights.
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


def _cross(u, v):
    """z-component of u x v for (..., 2) vectors."""
    return u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]


def _doubled_areas(tris):
    """Twice the signed areas of a (..., 3, 2) stack of triangles."""
    a = tris[..., 0, :]
    return _cross(tris[..., 1, :] - a, tris[..., 2, :] - a)


def _corner_jacobians(quads):
    """The bilinear map's Jacobian at each corner of (..., 4, 2) quads: all > 0 iff strictly convex."""
    return _cross(quads - np.roll(quads, 1, axis=-2), np.roll(quads, -1, axis=-2) - quads)


def _map_quads(quads, exactness):
    """A tensor Gauss rule on the unit square, exact to degree `exactness` + 1
    in each variable, mapped bilinearly onto each of (t, 4, 2) pieces, whose
    corners sit at (0, 0), (1, 0), (1, 1), (0, 1).

    Returns points (t * q, 2) and weights (t * q,), piece-major.  The Jacobian
    is bilinear, so the shape functions interpolate its corner values exactly.
    """
    s, w = gauss_points(exactness + 1)  # the Jacobian adds one degree per variable
    u, v = (x.ravel() for x in np.meshgrid(s, s, indexing="ij"))
    shape = np.column_stack([(1 - u) * (1 - v), u * (1 - v), u * v, (1 - u) * v])  # (q, 4)
    weights = _corner_jacobians(quads) @ shape.T * np.outer(w, w).ravel()
    return (shape @ quads).reshape(-1, 2), weights.ravel()


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
    of each (by default, one polygon).  An m-gon is fanned into m - 2 CCW
    triangles from its first vertex whose fan triangles all have positive
    area, or else ear-clipped; fan triangles 2l + 1 and 2l + 2 form one
    bilinear piece where their union is strictly convex.  A polygon no rule
    can be built for raises :class:`PolygonError` naming its index.
    """
    pieces, owner = [], []
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
        apex = sees[star].argmax(axis=1)[:, None]
        loop = np.take_along_axis(p[star], (apex + np.arange(m))[..., None] % m, axis=1)
        # Triangles i, i + 1 (i odd): the quad (p_0, p_i, p_i+1, p_i+2) if strictly convex,
        # else (p_0, p_i, p_i+1, p_0), (p_0, p_i+1, p_i+2, p_0); a lone last one has p_i+2 = p_0.
        i = np.arange(1, m - 1, 2)
        ring = np.stack([0 * i, i, i + 1, i + 2, 0 * i], axis=-1) % m
        quads = loop[:, ring[:, [[0, 1, 2, 3], [0, 1, 2, 4], [0, 2, 3, 4]]]]  # (s, pairs, 3, 4, 2)
        convex = (_corner_jacobians(quads[:, :, 0]) > 0.0).all(axis=-1)  # (s, pairs)
        keep = np.stack([convex, ~convex, ~convex & (i + 2 < m)], axis=-1)
        pieces.append(quads[keep])
        owner.append(np.repeat(group[star], keep.sum(axis=(1, 2))))
        for c, poly in zip(group[~star], p[~star]):  # ear-clip the rest
            try:
                pieces.append(poly[np.asarray(_ear_clip(poly))][:, [0, 1, 2, 0]])
            except ValueError as err:
                raise PolygonError(c, str(err)) from err
            owner.append(np.full(m - 2, c))
    order = np.argsort(np.concatenate(owner), kind="stable")  # polygon-major
    pts, w = _map_quads(np.concatenate(pieces)[order], exactness)
    owner = np.concatenate(owner)[order]
    return QuadratureRule(pts, w, np.repeat(owner, len(w) // len(owner)))
