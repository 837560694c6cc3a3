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


def _powers(loc, degree):
    """Lists [x^0 .. x^degree] and [y^0 .. y^degree] at (..., 2) points."""
    px, py = [np.ones(loc.shape[:-1])], [np.ones(loc.shape[:-1])]
    for _ in range(degree):
        px.append(px[-1] * loc[..., 0])
        py.append(py[-1] * loc[..., 1])
    return px, py


def monomials(loc, degree):
    """Monomials up to `degree` at (..., 2) local coordinates; shape (..., dim).

    Columns follow `monomial_exponents`, so the values of a lower degree
    are the leading columns.
    """
    px, py = _powers(loc, degree)
    out = np.empty(loc.shape[:-1] + (space_dimension(degree),))
    for col, (a, b) in enumerate(monomial_exponents(degree)):
        out[..., col] = px[a] * py[b]
    return out


def monomial_gradients(loc, degree):
    """Gradients of `monomials` in the local coordinates; shape (..., dim, 2)."""
    px, py = _powers(loc, degree)
    out = np.zeros(loc.shape[:-1] + (space_dimension(degree), 2))
    for col, (a, b) in enumerate(monomial_exponents(degree)):
        if a:
            out[..., col, 0] = a * px[a - 1] * py[b]
        if b:
            out[..., col, 1] = b * px[a] * py[b - 1]
    return out


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
        self.dim = space_dimension(degree)

    def eval(self, pts):
        """Basis values at physical points; shape (npts, dim)."""
        return monomials((np.atleast_2d(pts) - self.center) / self.scale, self.degree)

    def eval_grad(self, pts):
        """Basis gradients at physical points; shape (npts, dim, 2)."""
        local = (np.atleast_2d(pts) - self.center) / self.scale
        return monomial_gradients(local, self.degree) / self.scale


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
