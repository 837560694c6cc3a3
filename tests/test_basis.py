import numpy as np
import pytest

from wgstokes.basis import monomial_exponents, monomials, space_dimension

from conftest import monomial_gradients


def scaled(degree, center, scale):
    """The P_degree cell basis about `center` with length `scale`, at (n, 2) points."""
    return lambda pts: monomials((np.asarray(pts, dtype=float) - center) / scale, degree)


def test_exponent_order_is_degree_major():
    assert monomial_exponents(2) == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    assert space_dimension(1) == 3
    assert space_dimension(2) == 6
    assert space_dimension(3) == 10


def test_first_function_is_one_and_center_kills_linears():
    vals = scaled(2, center=[0.3, 0.7], scale=0.5)([[0.3, 0.7]])
    assert vals[0, 0] == 1.0
    assert vals[0, 1:3] == pytest.approx([0.0, 0.0])


def test_scaling_normalizes_values():
    # at distance `scale` from the center, linear functions have unit size
    vals = scaled(1, center=[0.0, 0.0], scale=0.25)([[0.25, 0.0], [0.0, -0.25]])
    assert vals[0, 1] == pytest.approx(1.0)
    assert vals[1, 2] == pytest.approx(-1.0)


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_gradient_matches_finite_differences(degree):
    """The test oracle `monomial_gradients` differentiates the cell basis."""
    rng = np.random.default_rng(42)
    center, scale = np.array([0.4, 0.6]), 0.37
    basis = scaled(degree, center, scale)
    pts = rng.uniform(0.2, 0.8, size=(7, 2))
    eps = 1e-6
    grad = monomial_gradients((pts - center) / scale, degree) / scale
    for d in range(2):
        shift = np.zeros(2)
        shift[d] = eps
        fd = (basis(pts + shift) - basis(pts - shift)) / (2 * eps)
        assert grad[:, :, d] == pytest.approx(fd, abs=5e-9)

