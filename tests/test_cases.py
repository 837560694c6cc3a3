"""Manufactured-solution registry: self-consistency and lookup behavior."""

import copy
import os
import subprocess
import sys

import numpy as np
import pytest

from wgstokes.cases import case_names, get_case, list_cases, verify_case
from wgstokes.errors import ConfigurationError


def test_registry_contents():
    names = case_names()
    assert set(names) == {"poly-exact-k1", "poly-exact-k2", "stream-quartic", "taylor-trig"}
    rows = list_cases()
    assert [r[0] for r in rows] == list(names)
    assert all(len(r) == 3 for r in rows)


@pytest.mark.parametrize("name", case_names())
def test_registered_cases_verify(name):
    checks = verify_case(name)
    assert all(ok for ok, _ in checks.values())
    assert checks["divergence_free"][1] <= 1e-12
    assert checks["pressure_zero_mean"][1] <= 1e-10
    assert checks["force_consistent"][1] <= 1e-5
    assert checks["gradient_consistent"][1] <= 1e-5


@pytest.mark.parametrize("name", case_names())
def test_fields_return_float_arrays_of_their_rank(name):
    # constant entries (poly-exact-k1's zero pressure and its constant
    # Jacobian) come back broadcast to the points like the others
    case = get_case(name)
    pts = np.random.default_rng(3).uniform(size=(7, 2))
    shapes = {"u": (7, 2), "g": (7, 2), "f": (7, 2), "p": (7,), "grad_u": (7, 2, 2), "div_u": (7,)}
    for field, shape in shapes.items():
        values = getattr(case, field)(pts)
        assert isinstance(values, np.ndarray) and values.dtype == float, field
        assert values.shape == shape, field
    if name == "poly-exact-k1":  # u = (y, -x), p = 0
        assert np.array_equal(case.p(pts), np.zeros(7))
        jacobian = np.broadcast_to([[0.0, 1.0], [-1.0, 0.0]], (7, 2, 2))
        assert np.array_equal(case.grad_u(pts), jacobian)
        assert np.array_equal(case.u(pts), np.column_stack([pts[:, 1], -pts[:, 0]]))


def test_unknown_case_lists_alternatives():
    with pytest.raises(ConfigurationError) as exc:
        get_case("leaky-cavity")
    msg = str(exc.value)
    assert "leaky-cavity" in msg
    assert "taylor-trig" in msg


def test_case_lookup_is_cached():
    assert get_case("taylor-trig") is get_case("taylor-trig")


def test_sympy_is_not_imported_by_the_cli():
    # only building a case needs sympy; the package and its CLI import without it
    code = "import sys, wgstokes.cli\nprint('sympy' in sys.modules)\n"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.stdout.strip() == "False", out.stderr


def test_data_degrees():
    assert get_case("poly-exact-k1").data_degree == 1
    assert get_case("poly-exact-k2").data_degree == 2
    assert get_case("stream-quartic").data_degree == 7
    assert get_case("taylor-trig").data_degree is None


def test_dirichlet_data_is_velocity_trace():
    case = get_case("taylor-trig")
    assert case.g is case.u


def test_taylor_trig_pointwise_values():
    case = get_case("taylor-trig")
    pts = np.array([[0.25, 0.0], [0.5, 0.5]])
    u = case.u(pts)
    assert np.allclose(u[0], [np.sin(np.pi / 4), -np.cos(np.pi / 4) * 0.0], atol=1e-14)
    assert np.allclose(u[1], [np.sin(np.pi / 2) * np.cos(np.pi / 2), 0.0], atol=1e-14)
    p = case.p(pts)
    assert np.allclose(p[1], np.cos(np.pi / 2) ** 2, atol=1e-14)


def test_stream_function_case_vanishes_on_boundary():
    case = get_case("stream-quartic")
    t = np.linspace(0.0, 1.0, 7)
    for side in (
        np.column_stack([t, np.zeros_like(t)]),
        np.column_stack([t, np.ones_like(t)]),
        np.column_stack([np.zeros_like(t), t]),
        np.column_stack([np.ones_like(t), t]),
    ):
        assert np.abs(case.u(side)).max() <= 1e-14


def test_corrupted_force_detected():
    broken = copy.copy(get_case("poly-exact-k2"))
    broken.f = lambda pts: np.zeros((len(pts), 2))
    with pytest.raises(ConfigurationError, match="poly-exact-k2"):
        verify_case(broken)


def test_corrupted_divergence_detected():
    broken = copy.copy(get_case("taylor-trig"))
    broken.u = lambda pts: pts.copy()  # div = 2, not divergence-free
    with pytest.raises(ConfigurationError):
        verify_case(broken)
