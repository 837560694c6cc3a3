"""Scaled monomial bases on cells.

Cell bases are monomials in ((x - x_T)/h_T, (y - y_T)/h_T) centered at the
cell centroid and scaled by the cell diameter.  The scaling keeps local Gram
matrices well conditioned independently of the mesh size.  Edge bases need
no class: they are the powers of t = s/len - 1/2 in the canonical arc-length
parameter s, the same on every edge, so `weakops` evaluates them once on the
reference edge.
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


def monomials(loc, degree):
    """Monomials up to `degree` at (..., 2) local coordinates; shape (..., dim).

    Columns follow `monomial_exponents`, so the values of a lower degree
    are the leading columns.
    """
    x, y = loc[..., 0], loc[..., 1]
    px, py = [1.0, x], [1.0, y]  # [x^0 .. x^degree], [y^0 ..]: a scalar 1, then views of loc
    for _ in range(1, degree):
        px.append(px[-1] * x)
        py.append(py[-1] * y)
    out = np.empty(loc.shape[:-1] + (space_dimension(degree),))
    for col, (a, b) in enumerate(monomial_exponents(degree)):
        np.multiply(px[a], py[b], out=out[..., col])
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
