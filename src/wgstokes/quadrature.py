"""Quadrature rules on edges and polygonal cells.

Cells are integrated by fanning triangles out from the centroid when the
polygon is star-shaped with respect to it (always true for convex cells),
falling back to ear clipping otherwise.  Each triangle carries a tensor
Gauss-Legendre rule mapped through the collapsed-square (Duffy) transform,
so a rule of requested polynomial exactness ``d`` integrates every
polynomial of total degree <= d exactly, with strictly positive weights.
That rule is built once per exactness on the reference triangle and
mapped affinely onto all triangles of a polygon at once.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss


@dataclass(frozen=True)
class QuadratureRule:
    """Points (n, 2) for cells / (n,) parameters mapped to (n, 2) for edges,
    matching weights, and the polynomial exactness the rule was built for."""

    points: np.ndarray
    weights: np.ndarray
    exactness: int


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
    """Gauss rule along the segment p0 -> p1; weights sum to its length."""
    p0 = np.asarray(p0, dtype=float)
    p1 = np.asarray(p1, dtype=float)
    s, w = gauss_points(exactness)
    pts = p0[None, :] + s[:, None] * (p1 - p0)[None, :]
    length = float(np.hypot(*(p1 - p0)))
    return QuadratureRule(pts, w * length, exactness)


def triangle_rule(a, b, c, exactness):
    """Tensor Gauss rule on triangle (a, b, c) via the Duffy transform.

    The triangle must be positively oriented (CCW); weights are positive and
    sum to its area.
    """
    tri = np.asarray([a, b, c], dtype=float)
    if _doubled_areas(tri[None])[0] <= 0.0:
        raise ValueError("triangle_rule expects a CCW (positive-area) triangle")
    pts, w = _map_triangles(tri[None], exactness)
    return QuadratureRule(pts, w, exactness)


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
    """Twice the signed areas of a (t, 3, 2) stack of triangles."""
    return _cross(tris[:, 1] - tris[:, 0], tris[:, 2] - tris[:, 0])


def _map_triangles(tris, exactness):
    """The reference rule mapped affinely onto each of (t, 3, 2) CCW triangles.

    Returns points (t * q, 2) and weights (t * q,), triangle-major.
    """
    lam, w = _reference_triangle(exactness)
    a = tris[:, :1]
    pts = a + lam @ (tris[:, 1:] - a)  # a + lam1 (b - a) + lam2 (c - a)
    return pts.reshape(-1, 2), (_doubled_areas(tris)[:, None] * w).ravel()


def _shoelace(poly):
    """The loop's next vertices and the cross products x_i y_(i+1) - x_(i+1) y_i."""
    nxt = np.concatenate([poly[1:], poly[:1]])
    return nxt, _cross(poly, nxt)


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


def polygon_rule(poly, exactness):
    """Quadrature over a simple CCW polygon, exact to total degree `exactness`.

    Parameters
    ----------
    poly : (m, 2) array
        Vertex loop in CCW order.
    exactness : int
        Total polynomial degree integrated exactly.
    """
    poly = np.asarray(poly, dtype=float)
    if len(poly) < 3:
        raise ValueError("polygon needs at least 3 vertices")
    nxt, cross = _shoelace(poly)
    if cross.sum() <= 0.0:
        raise ValueError("polygon must be CCW with positive area")
    # Fan from the centroid when every fan triangle is positively oriented.
    tris = np.stack([np.broadcast_to(polygon_centroid(poly), poly.shape), poly, nxt], axis=1)
    if (_doubled_areas(tris) <= 0.0).any():
        tris = poly[np.asarray(_ear_clip(poly))]
    pts, w = _map_triangles(tris, exactness)
    return QuadratureRule(pts, w, exactness)


def polygon_area(poly):
    return 0.5 * float(_shoelace(np.asarray(poly, dtype=float))[1].sum())


def polygon_centroid(poly):
    """Area centroid of a simple CCW polygon."""
    poly = np.asarray(poly, dtype=float)
    nxt, cross = _shoelace(poly)
    return ((poly + nxt) * cross[:, None]).sum(axis=0) / (3.0 * cross.sum())
