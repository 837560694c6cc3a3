from fractions import Fraction
from math import comb

import numpy as np
import pytest

from conftest import lp_star_radius
from wgstokes import quadrature
from wgstokes.mesh import PolygonalMesh, shape_regularity
from wgstokes.quadrature import (
    PolygonError,
    _ear_clip,
    edge_rule,
    gauss_points,
    polygon_geometry,
    polygon_rule,
)

# Irregular convex pentagon and its monomial integrals, computed symbolically
# (exact rational arithmetic, triangulated by hand) and frozen here.
PENTAGON = np.array([[0, 0], [0.8, -0.1], [1.0, 0.5], [0.4, 0.9], [-0.2, 0.6]])
PENTAGON_INTEGRALS = [
    # (a, b, integral of x^a y^b)
    (0, 0, 81 / 100),
    (1, 0, 491 / 1500),
    (0, 1, 181 / 600),
    (2, 1, 50909 / 750000),
    (3, 2, 5537543 / 262500000),
]

# Slotted square: unit square minus the triangle ((2/5,1),(3/5,1),(1/2,1/5)).
# Not star-shaped w.r.t. its centroid; only vertex 4, the slot's tip, sees
# it whole, so its fan starts past the first vertex.
# Oracle values are square-minus-triangle in exact arithmetic.
SLOTTED = np.array(
    [[0, 0], [1, 0], [1, 1], [0.6, 1.0], [0.5, 0.2], [0.4, 1.0], [0, 1]]
)
SLOTTED_INTEGRALS = [
    (0, 0, 23 / 25),
    (1, 0, 23 / 50),
    (0, 1, 331 / 750),
    (3, 2, 145229 / 1875000),
]

# U shapes: [0, 2]^2 minus the slot [1/2, 3/2] x [1/2, 2], with collinear
# vertices on the bottom and left sides; the second adds a hanging vertex
# on the slot's bottom.  No vertex sees a U whole, so they exercise the
# ear-clip path, which must not clip across a vertex lying on an ear's edge.
# Oracle values are square-minus-rectangle, exact.
U_SHAPE = np.array(
    [[0, 0], [1, 0], [2, 0], [2, 2], [1.5, 2], [1.5, 0.5], [0.5, 0.5], [0.5, 2], [0, 2], [0, 1]]
)
U_SHAPES = (U_SHAPE, np.insert(U_SHAPE, 6, [1.0, 0.5], axis=0))
U_INTEGRALS = {(0, 0): 5 / 2, (1, 0): 5 / 2, (0, 1): 17 / 8, (3, 2): 709 / 96}


def test_edge_rule_integrates_polynomials_exactly():
    p0, p1 = np.array([0.2, -0.3]), np.array([1.1, 0.7])
    length = np.linalg.norm(p1 - p0)
    for deg in range(9):
        rule = edge_rule(p0, p1, deg)
        # integrate the arc-length monomial s^deg along the edge
        s = np.linalg.norm(rule.points - p0, axis=1)
        got = np.sum(rule.weights * s**deg)
        assert got == pytest.approx(length ** (deg + 1) / (deg + 1), rel=1e-14)


def test_edge_rule_weights_sum_to_length():
    rule = edge_rule([0, 0], [3, 4], 5)
    assert rule.weights.sum() == pytest.approx(5.0, abs=1e-14)
    assert (rule.weights > 0).all()


def test_gauss_points_are_fresh_copies():
    """Memoized nodes must not be shared: a caller's edit cannot leak."""
    s, w = gauss_points(7)
    expected = s.copy(), w.copy()
    s[:] = -1.0
    w *= 0.0
    again = gauss_points(7)
    assert np.array_equal(again[0], expected[0]) and np.array_equal(again[1], expected[1])


def test_triangle_reference_factorials():
    # int over {x,y>=0, x+y<=1} of x^a y^b = a! b! / (a+b+2)!
    from math import factorial

    for a, b in [(0, 0), (1, 0), (0, 2), (2, 3), (4, 4)]:
        rule = polygon_rule([[0, 0], [1, 0], [0, 1]], a + b)
        got = np.sum(rule.weights * rule.points[:, 0] ** a * rule.points[:, 1] ** b)
        exact = factorial(a) * factorial(b) / factorial(a + b + 2)
        assert got == pytest.approx(exact, rel=1e-14)


def test_triangle_rejects_clockwise():
    with pytest.raises(PolygonError, match="CCW"):
        polygon_rule([[0, 0], [0, 1], [1, 0]], 2)


@pytest.mark.parametrize("a,b,exact", PENTAGON_INTEGRALS)
def test_pentagon_monomials(a, b, exact):
    rule = polygon_rule(PENTAGON, a + b)
    got = np.sum(rule.weights * rule.points[:, 0] ** a * rule.points[:, 1] ** b)
    assert got == pytest.approx(exact, rel=1e-13)


@pytest.mark.parametrize("a,b,exact", SLOTTED_INTEGRALS)
def test_slotted_square_monomials(a, b, exact):
    for poly, value in [(SLOTTED, exact)] + [(u, U_INTEGRALS[a, b]) for u in U_SHAPES]:
        rule = polygon_rule(poly, a + b)
        got = np.sum(rule.weights * rule.points[:, 0] ** a * rule.points[:, 1] ** b)
        assert got == pytest.approx(value, rel=1e-13)
        assert (rule.weights > 0).all()


def _fan_apexes(poly):
    """The vertices j whose fan triangles (p_j, p_j+i, p_j+i+1) are all CCW."""
    m = len(poly)
    apexes = []
    for j in range(m):
        a, crosses = poly[j], []
        for i in range(1, m - 1):
            b, c = poly[(j + i) % m] - a, poly[(j + i + 1) % m] - a
            crosses.append(b[0] * c[1] - b[1] * c[0])
        if min(crosses) > 0:
            apexes.append(j)
    return apexes


def test_u_shapes_have_no_fan_apex():
    # guard: the vertex fan must fail on the U shapes, otherwise the
    # ear-clip branch silently loses its only coverage
    assert _fan_apexes(SLOTTED) == [4]
    for u in U_SHAPES:
        assert _fan_apexes(u) == []


def test_disc_star_shaped_cell_needs_ear_clipping(monkeypatch):
    """The paper's cells are star-shaped with respect to a disc, and such a
    cell can have no vertex that sees it whole: this 7-gon's star radius is
    0.1504, yet every vertex fan has a reversed triangle, so only `_ear_clip`
    builds its rule."""
    poly = np.array(
        [[0.197, 0.115], [-0.033, 0.226], [-0.094, 0.216], [-0.495, 0.746],
         [-0.089, -0.458], [0.438, -0.124], [0.834, -0.034]]
    )  # fmt: skip
    assert _fan_apexes(poly) == []
    clipped = []
    monkeypatch.setattr(quadrature, "_ear_clip", lambda p: clipped.append(p) or _ear_clip(p))
    rule = polygon_rule(poly, 6)
    assert len(clipped) == 1
    x, y = rule.points.T
    for d in range(7):
        for a in range(d + 1):
            exact = float(_exact_monomial(poly, a, d - a))
            assert np.sum(rule.weights * x**a * y ** (d - a)) == pytest.approx(exact, abs=1e-14)
    mesh = PolygonalMesh(poly, [list(range(7))])
    rho = lp_star_radius(poly)
    assert rho == pytest.approx(0.1504, abs=1e-4)
    assert shape_regularity(mesh) == pytest.approx(mesh.diameters / rho, rel=1e-12)


def test_fan_pairs_make_bilinear_pieces(poly_mesh_4):
    """A convex m-gon carries ceil((m - 2) / 2) pieces, each of a triangle's size."""
    q = len(polygon_rule([[0, 0], [1, 0], [0, 1]], 6).weights)
    square = np.array([[0, 0], [1, 0], [1, 1], [0, 1]])
    voronoi = [poly_mesh_4.cell_vertices(c) for c in range(poly_mesh_4.num_cells)]
    hexagon = next(v for v in voronoi if len(v) == 6)
    for poly, pieces in [(PENTAGON[:3], 1), (square, 1), (PENTAGON, 2), (hexagon, 2)]:
        assert len(polygon_rule(poly, 6).weights) == pieces * q
    assert max(len(v) for v in voronoi) >= 7
    for poly in voronoi:  # convex cells
        assert len(polygon_rule(poly, 6).weights) == (len(poly) - 1) // 2 * q


# A convex quad that is not a parallelogram, so the bilinear Jacobian varies,
# and a pentagon that vertex 0 sees whole but whose first fan pair has a
# reflex corner at vertex 2: that pair falls back to two collapsed quads.
SKEW_QUAD = np.array([[0, 0], [3, 0.5], [2.5, 2], [0.5, 1.5]])
DART = np.array([[0, 0], [2, 0], [1.25, 0.75], [2, 2], [0, 2]])


def _exact_monomial(poly, a, b):
    """The integral of x^a y^b over the polygon in exact rationals: Green's
    theorem on x^(a+1) y^b / (a+1) dy along each side, expanded binomially."""
    verts = [tuple(map(Fraction, v)) for v in poly]
    total = Fraction(0)
    for (x0, y0), (x1, y1) in zip(verts, verts[1:] + verts[:1]):
        dx, dy = x1 - x0, y1 - y0
        total += dy * sum(
            comb(a + 1, i) * x0 ** (a + 1 - i) * dx**i * comb(b, j) * y0 ** (b - j) * dy**j
            / (i + j + 1)
            for i in range(a + 2)
            for j in range(b + 1)
        )
    return total / (a + 1)


@pytest.mark.parametrize("poly,pieces", [(SKEW_QUAD, 1), (DART, 3)], ids=["skew-quad", "dart"])
def test_bilinear_pieces_exact_to_total_degree(poly, pieces):
    q = len(polygon_rule([[0, 0], [1, 0], [0, 1]], 13).weights)
    assert len(polygon_rule(poly, 13).weights) == pieces * q
    exact = {(a, d - a): float(_exact_monomial(poly, a, d - a)) for d in range(14) for a in range(d + 1)}
    for d in range(14):
        rule = polygon_rule(poly, d)
        assert (rule.weights > 0).all()
        x, y = rule.points.T
        for (a, b), value in exact.items():
            if a + b <= d:
                assert np.sum(rule.weights * x**a * y**b) == pytest.approx(value, rel=1e-13), (d, a, b)


@pytest.mark.parametrize("a,b", [(0, 0), (1, 0), (0, 1), (3, 2), (5, 4)])
def test_hanging_vertex_square(a, b):
    # the midpoint of the bottom side must not leave a zero-area fan triangle
    square = np.array([[0, 0], [1, 0], [2, 0], [2, 2], [0, 2]])
    rule = polygon_rule(square, a + b)
    assert (rule.weights > 0).all()
    got = np.sum(rule.weights * rule.points[:, 0] ** a * rule.points[:, 1] ** b)
    assert got == pytest.approx(2 ** (a + b + 2) / ((a + 1) * (b + 1)), rel=1e-13)


def test_shifted_polynomial_on_both_paths():
    # same smooth polynomial, frozen symbolic values: fans from the first
    # vertex and from a later one, and an ear clipping
    def f(p):
        return (p[:, 0] - 1 / 3) ** 4 * (p[:, 1] + 1 / 7) ** 3

    rule = polygon_rule(PENTAGON, 7)
    assert np.sum(rule.weights * f(rule.points)) == pytest.approx(
        37236784969 / 17364375000000, rel=1e-13
    )
    rule = polygon_rule(SLOTTED, 7)
    assert np.sum(rule.weights * f(rule.points)) == pytest.approx(
        12492587543 / 1085273437500, rel=1e-13
    )
    rule = polygon_rule(U_SHAPE, 7)
    assert np.sum(rule.weights * f(rule.points)) == pytest.approx(
        1607660087 / 142248960, rel=1e-13
    )


def test_weights_positive_and_sum_to_area():
    for poly in (PENTAGON, SLOTTED):
        for deg in (0, 3, 8):
            rule = polygon_rule(poly, deg)
            assert (rule.weights > 0).all()
            assert rule.weights.sum() == pytest.approx(polygon_geometry(poly)[0], rel=1e-14)


def test_centroid_of_square():
    sq = np.array([[0, 0], [2, 0], [2, 2], [0, 2]])
    area, centroid = polygon_geometry(sq)
    assert centroid == pytest.approx([1, 1])
    assert area == pytest.approx(4.0)


def test_geometry_of_stacked_loops():
    areas, centroids = polygon_geometry([PENTAGON, np.roll(PENTAGON, 2, axis=0) + [1, 2]])
    assert areas == pytest.approx([81 / 100, 81 / 100], rel=1e-14)
    centroid = np.array([491 / 1500, 181 / 600]) / (81 / 100)  # moments of x, y over area
    np.testing.assert_allclose(centroids, [centroid, centroid + [1, 2]], rtol=1e-14)


def test_small_polygon_far_from_origin_keeps_its_centroid():
    """Pentagons of size h = 1/32 .. 1/128 near (0.8, 0.6) get their centroids
    to 1e-14 of h, against the exact centroids of their floating-point
    vertices (in absolute coordinates the shoelace sums lose 5e-13 of h at
    h = 1/32 and 2.5e-11 at h = 1/128)."""
    sizes = np.array([1 / 32, 1 / 64, 1 / 128])
    loops = PENTAGON * sizes[:, None, None] + np.array([[0.7, 0.4], [0.9, 0.8], [0.93, 0.61]])[:, None]
    centroids = polygon_geometry(loops)[1]
    for loop, centroid, h in zip(loops, centroids, sizes):
        area = _exact_monomial(loop, 0, 0)
        exact = [_exact_monomial(loop, 1, 0) / area, _exact_monomial(loop, 0, 1) / area]
        assert np.abs(centroid - np.array(exact, dtype=float)).max() <= 1e-14 * h


def test_batched_polygon_rule_equals_single_rules():
    """The ear-clipped polygon sits between fanned ones: its triangles
    must land in its own slot, not at the end."""
    polys = [PENTAGON, U_SHAPE, SLOTTED, np.roll(PENTAGON, 2, axis=0) + 2.0]
    starts = np.cumsum([0] + [len(p) for p in polys[:-1]])
    for exactness in (0, 5):
        rule = polygon_rule(np.vstack(polys), exactness, starts)
        singles = [polygon_rule(p, exactness) for p in polys]
        assert np.array_equal(rule.points, np.concatenate([r.points for r in singles]))
        assert np.array_equal(rule.weights, np.concatenate([r.weights for r in singles]))
        owners = [np.full(len(r.weights), i) for i, r in enumerate(singles)]
        assert np.array_equal(rule.owner, np.concatenate(owners))


def test_batched_polygon_rule_names_the_failing_polygon():
    clockwise = PENTAGON[::-1]
    with pytest.raises(PolygonError, match="CCW") as err:
        polygon_rule(np.vstack([PENTAGON, PENTAGON, clockwise]), 2, [0, 5, 10])
    assert err.value.index == 2
    with pytest.raises(PolygonError, match="at least 3") as err:
        polygon_rule(np.vstack([PENTAGON, PENTAGON[:2]]), 2, [0, 5])
    assert err.value.index == 1


def test_batched_edge_rule_equals_single_rules():
    rng = np.random.default_rng(4)
    p0, p1 = rng.standard_normal((2, 6, 2))
    for exactness in (1, 6):
        rule = edge_rule(p0, p1, exactness)
        singles = [edge_rule(a, b, exactness) for a, b in zip(p0, p1)]
        assert np.array_equal(rule.points, np.concatenate([r.points for r in singles]))
        assert np.array_equal(rule.weights, np.concatenate([r.weights for r in singles]))
        assert np.array_equal(rule.owner, np.repeat(np.arange(6), len(singles[0].weights)))


def test_exactness_scales_with_request():
    # degree-12 monomial needs a degree-12 rule; an under-resolved rule
    # must actually miss (sanity that `exactness` is honored, not padded)
    rule_lo = polygon_rule(PENTAGON, 2)
    rule_hi = polygon_rule(PENTAGON, 12)
    f = lambda p: p[:, 0] ** 8 * p[:, 1] ** 4
    lo = np.sum(rule_lo.weights * f(rule_lo.points))
    hi = np.sum(rule_hi.weights * f(rule_hi.points))
    assert abs(lo - hi) > 1e-12  # low rule is genuinely inexact
    rule_hi2 = polygon_rule(PENTAGON, 14)
    hi2 = np.sum(rule_hi2.weights * f(rule_hi2.points))
    assert hi == pytest.approx(hi2, rel=1e-13)  # converged once exact
