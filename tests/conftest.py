"""Shared fixtures and helpers for the test suite."""

import numpy as np
import pytest

from wgstokes.mesh import PolygonalMesh, generate_mesh
from wgstokes.weakops import ElementOps


class PolyField:
    """Random vector polynomial of total degree d with analytic grad/div.

    Coefficients are drawn from the supplied generator, so fields are
    reproducible given a seed.  Derivatives are taken by exponent
    shifting, which keeps the analytic data exact to rounding.
    """

    def __init__(self, degree, rng):
        self.degree = degree
        self.exps = [(a, d - a) for d in range(degree + 1) for a in range(d + 1)]
        self.cx = rng.standard_normal(len(self.exps))
        self.cy = rng.standard_normal(len(self.exps))

    def _eval(self, coeffs, pts, dx=0, dy=0):
        out = np.zeros(len(pts))
        for (a, b), c in zip(self.exps, coeffs):
            if a < dx or b < dy:
                continue
            fac = c
            for i in range(dx):
                fac *= a - i
            for i in range(dy):
                fac *= b - i
            out += fac * pts[:, 0] ** (a - dx) * pts[:, 1] ** (b - dy)
        return out

    def u(self, pts):
        return np.column_stack([self._eval(self.cx, pts), self._eval(self.cy, pts)])

    def grad(self, pts):
        out = np.empty((len(pts), 2, 2))
        out[:, 0, 0] = self._eval(self.cx, pts, dx=1)
        out[:, 0, 1] = self._eval(self.cx, pts, dy=1)
        out[:, 1, 0] = self._eval(self.cy, pts, dx=1)
        out[:, 1, 1] = self._eval(self.cy, pts, dy=1)
        return out

    def div(self, pts):
        return self._eval(self.cx, pts, dx=1) + self._eval(self.cy, pts, dy=1)


@pytest.fixture(scope="session")
def quad_mesh_4():
    return generate_mesh("uniform-quad", 4)


@pytest.fixture(scope="session")
def poly_mesh_4():
    return generate_mesh("perturbed-polygon", 4, seed=1)


@pytest.fixture(scope="session")
def hostile_mesh():
    """The unit square as a nonconvex U cell and the slot cell inside it.

    The U (ear-clipped, not star-shaped about its centroid) has collinear
    vertices on its bottom and left sides and a hanging vertex on the slot
    bottom, where the slot cell's side is split in two.
    """
    vertices = [
        (0, 0), (0.5, 0), (1, 0), (1, 1), (0.75, 1), (0.75, 0.25),
        (0.5, 0.25), (0.25, 0.25), (0.25, 1), (0, 1), (0, 0.5),
    ]  # fmt: skip
    return PolygonalMesh(vertices, [list(range(11)), [7, 6, 5, 4, 8]])


@pytest.fixture(scope="session")
def ops_quad_k1(quad_mesh_4):
    return ElementOps(quad_mesh_4, 1)


@pytest.fixture(scope="session")
def ops_quad_k2(quad_mesh_4):
    return ElementOps(quad_mesh_4, 2)


@pytest.fixture(scope="session")
def ops_poly_k2(poly_mesh_4):
    return ElementOps(poly_mesh_4, 2)


# -- acceptance reporting -------------------------------------------------
#
# The acceptance tests register one line per criterion here; the summary
# hook prints them after the run so they survive pytest's output capture.

ACCEPTANCE_LINES = []


def record_acceptance(name, passed, elapsed, detail=""):
    ACCEPTANCE_LINES.append(("PASS" if passed else "FAIL", name, elapsed, detail))


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for status, name, elapsed, detail in ACCEPTANCE_LINES:
        terminalreporter.write_line(f"{status}  {name:<34} {elapsed:7.2f}s  {detail}")
