"""Scaled monomial bases on cells and edges.

Cell bases are monomials in ((x - x_T)/h_T, (y - y_T)/h_T) centered at the
cell centroid and scaled by the cell diameter; edge bases are monomials in
the arc-length parameter centered at the edge midpoint and scaled by the
edge length.  The scaling keeps local Gram matrices well conditioned
independently of the mesh size.
"""

import numpy as np


def monomial_exponents(degree):
    """Exponent pairs of the 2D monomials up to `degree`, degree-major.

    Order: (0,0), (1,0), (0,1), (2,0), (1,1), (0,2), ...
    """
    return [(d - j, j) for d in range(degree + 1) for j in range(d + 1)]


def space_dimension(degree):
    """dim P_degree in 2D."""
    return (degree + 1) * (degree + 2) // 2


class CellBasis:
    """Scaled monomial basis of P_degree on one cell.

    Parameters
    ----------
    degree : int
    center : (2,) array
        Scaling center (the cell centroid).
    scale : float
        Length scale (the cell diameter).
    """

    def __init__(self, degree, center, scale):
        self.degree = degree
        self.center = np.asarray(center, dtype=float)
        self.scale = float(scale)
        self.exponents = np.asarray(monomial_exponents(degree), dtype=int)
        self.dim = len(self.exponents)

    def _local(self, pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return (pts - self.center) / self.scale

    def eval(self, pts):
        """Basis values at physical points; shape (npts, dim)."""
        loc = self._local(pts)
        a = self.exponents[:, 0]
        b = self.exponents[:, 1]
        return loc[:, 0][:, None] ** a[None, :] * loc[:, 1][:, None] ** b[None, :]

    def eval_grad(self, pts):
        """Basis gradients at physical points; shape (npts, dim, 2)."""
        loc = self._local(pts)
        a = self.exponents[:, 0].astype(float)
        b = self.exponents[:, 1].astype(float)
        x = loc[:, 0][:, None]
        y = loc[:, 1][:, None]
        # d/dx [x^a y^b] = a x^(a-1) y^b, with the 0^(-1) case masked away
        ax = np.where(a >= 1, a, 0.0)[None, :]
        by = np.where(b >= 1, b, 0.0)[None, :]
        xa1 = x ** np.maximum(a - 1, 0)[None, :]
        yb1 = y ** np.maximum(b - 1, 0)[None, :]
        gx = ax * xa1 * (y ** b[None, :]) / self.scale
        gy = by * (x ** a[None, :]) * yb1 / self.scale
        return np.stack([gx, gy], axis=-1)


class EdgeBasis:
    """Scaled monomial basis of P_degree on one edge.

    Functions are monomials in t = s/len - 1/2 where s is the arc-length
    coordinate from the edge's first (canonical) vertex, so t runs over
    [-1/2, 1/2] regardless of which cell looks at the edge.
    """

    def __init__(self, degree, p0, p1):
        self.degree = degree
        self.p0 = np.asarray(p0, dtype=float)
        self.p1 = np.asarray(p1, dtype=float)
        d = self.p1 - self.p0
        self.length = float(np.hypot(*d))
        self.tangent = d / self.length
        self.dim = degree + 1

    def param(self, pts):
        """Centered arc-length parameter t in [-1/2, 1/2] of on-edge points."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return (pts - self.p0) @ self.tangent / self.length - 0.5

    def eval(self, pts):
        """Basis values at physical points on the edge; shape (npts, dim)."""
        t = self.param(pts)
        return t[:, None] ** np.arange(self.dim)[None, :]
