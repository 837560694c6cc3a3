"""Quadrature rules on edges and polygonal cells.

Cells are integrated by fanning triangles out from the centroid when the
polygon is star-shaped with respect to it (always true for convex cells),
falling back to ear clipping otherwise.  Each triangle carries a tensor
Gauss-Legendre rule mapped through the collapsed-square (Duffy) transform,
so a rule of requested polynomial exactness ``d`` integrates every
polynomial of total degree <= d exactly, with strictly positive weights.
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
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    area2 = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    if area2 <= 0.0:
        raise ValueError("triangle_rule expects a CCW (positive-area) triangle")
    u, wu = gauss_points(exactness + 1)  # Duffy multiplies degree by (1 - u)
    v, wv = gauss_points(exactness + 1)
    U, V = np.meshgrid(u, v, indexing="ij")
    lam1 = U.ravel()
    lam2 = (V * (1.0 - U)).ravel()
    pts = a[None, :] + np.outer(lam1, b - a) + np.outer(lam2, c - a)
    w = (np.outer(wu * (1.0 - u), wv)).ravel() * area2
    return QuadratureRule(pts, w, exactness)


def _signed_area(poly):
    x, y = poly[:, 0], poly[:, 1]
    return 0.5 * np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)


def _ear_clip(poly):
    """Split a simple polygon into CCW triangles by ear clipping."""
    idx = list(range(len(poly)))
    tris = []
    guard = 0
    while len(idx) > 3:
        guard += 1
        if guard > 10000:
            raise ValueError("ear clipping failed; polygon may be non-simple")
        n = len(idx)
        clipped = False
        for pos in range(n):
            i0, i1, i2 = idx[pos - 1], idx[pos], idx[(pos + 1) % n]
            a, b, c = poly[i0], poly[i1], poly[i2]
            cross = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
            if cross <= 0.0:
                continue  # reflex corner, not an ear
            # no remaining vertex may sit inside the candidate ear
            others = [j for j in idx if j not in (i0, i1, i2)]
            if others and _any_inside(poly[others], a, b, c):
                continue
            tris.append((i0, i1, i2))
            del idx[pos]
            clipped = True
            break
        if not clipped:
            raise ValueError("ear clipping failed; polygon may be non-simple")
    tris.append(tuple(idx))
    return tris


def _any_inside(pts, a, b, c):
    def side(p, q, r):
        return (q[0] - p[0]) * (r[:, 1] - p[1]) - (q[1] - p[1]) * (r[:, 0] - p[0])

    eps = 1e-14
    return bool(
        np.any((side(a, b, pts) > eps) & (side(b, c, pts) > eps) & (side(c, a, pts) > eps))
    )


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
    if _signed_area(poly) <= 0.0:
        raise ValueError("polygon must be CCW with positive area")
    centroid = polygon_centroid(poly)
    # Fan from the centroid when every fan triangle is positively oriented.
    fans = []
    ok = True
    for i in range(len(poly)):
        a, b = poly[i], poly[(i + 1) % len(poly)]
        cross = (a[0] - centroid[0]) * (b[1] - centroid[1]) - (a[1] - centroid[1]) * (
            b[0] - centroid[0]
        )
        if cross <= 0.0:
            ok = False
            break
        fans.append((centroid, a, b))
    if not ok:
        fans = [(poly[i], poly[j], poly[k]) for i, j, k in _ear_clip(poly)]
    pts = []
    wts = []
    for a, b, c in fans:
        r = triangle_rule(a, b, c, exactness)
        pts.append(r.points)
        wts.append(r.weights)
    return QuadratureRule(np.vstack(pts), np.concatenate(wts), exactness)


def polygon_area(poly):
    return float(_signed_area(np.asarray(poly, dtype=float)))


def polygon_centroid(poly):
    """Area centroid of a simple CCW polygon."""
    poly = np.asarray(poly, dtype=float)
    x, y = poly[:, 0], poly[:, 1]
    xn, yn = np.roll(x, -1), np.roll(y, -1)
    cross = x * yn - xn * y
    a = 0.5 * cross.sum()
    cx = np.sum((x + xn) * cross) / (6.0 * a)
    cy = np.sum((y + yn) * cross) / (6.0 * a)
    return np.array([cx, cy])
