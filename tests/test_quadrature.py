import numpy as np
import pytest

from wgstokes.quadrature import (
    edge_rule,
    gauss_points,
    polygon_area,
    polygon_centroid,
    polygon_rule,
    triangle_rule,
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
# Not star-shaped w.r.t. its centroid, so it exercises the ear-clip path.
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
# on the slot's bottom.  Ear clipping must not clip across a vertex lying on
# an ear's edge.  Oracle values are square-minus-rectangle, exact.
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
        rule = triangle_rule([0, 0], [1, 0], [0, 1], a + b)
        got = np.sum(rule.weights * rule.points[:, 0] ** a * rule.points[:, 1] ** b)
        exact = factorial(a) * factorial(b) / factorial(a + b + 2)
        assert got == pytest.approx(exact, rel=1e-14)


def test_triangle_rejects_clockwise():
    with pytest.raises(ValueError):
        triangle_rule([0, 0], [0, 1], [1, 0], 2)


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


def test_slotted_square_is_not_star_shaped():
    # guard: the centroid fan must fail here, otherwise the ear-clip
    # branch silently loses its only coverage
    c = polygon_centroid(SLOTTED)
    crosses = []
    for i in range(len(SLOTTED)):
        a = SLOTTED[i] - c
        b = SLOTTED[(i + 1) % len(SLOTTED)] - c
        crosses.append(a[0] * b[1] - a[1] * b[0])
    assert min(crosses) < 0


def test_shifted_polynomial_on_both_paths():
    # same smooth polynomial, frozen symbolic values, one per decomposition path
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


def test_weights_positive_and_sum_to_area():
    for poly in (PENTAGON, SLOTTED):
        for deg in (0, 3, 8):
            rule = polygon_rule(poly, deg)
            assert (rule.weights > 0).all()
            assert rule.weights.sum() == pytest.approx(polygon_area(poly), rel=1e-14)


def test_centroid_of_square():
    sq = np.array([[0, 0], [2, 0], [2, 2], [0, 2]])
    assert polygon_centroid(sq) == pytest.approx([1, 1])
    assert polygon_area(sq) == pytest.approx(4.0)


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
