"""Manufactured Stokes solutions for convergence studies.

Each case carries the exact velocity u (divergence-free), the exact
zero-mean pressure p, the body force f = -Δu + ∇p and the Jacobian
grad u; its boundary data g is u itself.  Every field is numpy source in
``case_fields``, generated from primitive expressions that the tests
derive symbolically (and check that source against), so nothing is
hand-transcribed; ``verify_case`` checks independently that the fields
solve the problem, from grad u and finite differences of u and p.
"""

import numpy as np

from . import case_fields
from .errors import ConfigurationError
from .quadrature import polygon_rule

#: the fields of a case, as named in ``case_fields``: <case>_<field>
FIELDS = ("u", "p", "f", "grad_u")


class ManufacturedCase:
    """Exact Stokes solution: field callables and their metadata.

    The fields u, p, f and grad_u are given as functions of the coordinate
    arrays (x, y), each returning an entry or a (nested) list of entries,
    as ``case_fields`` holds them; constant entries may be scalars.

    Attributes
    ----------
    name, description, regularity : str
    data_degree : int or None
        Total polynomial degree of the data fields; None if transcendental.
        Descriptive only: every data integral uses one rule, whatever it is.
    u, p, f, g : callables
        u, g, f map (n, 2) points to (n, 2); p maps to (n,).  g, the
        Dirichlet data, is u itself, read-only.
    grad_u : callable
        (n, 2, 2) Jacobians, entry [i, j] = d u_i / d x_j.
    """

    def __init__(self, name, data_degree, regularity, description, u, p, f, grad_u):
        self.name = name
        self.description = description
        self.regularity = regularity
        self.data_degree = data_degree
        self.u = _field(u, 2)
        self.p = _field(p)
        self.f = _field(f, 2)
        self.grad_u = _field(grad_u, 2, 2)

    @property
    def g(self):
        """The Dirichlet data: the velocity trace, so u itself."""
        return self.u


def _field(fn, *shape):
    """The field of fn(x, y), an entry or a nested list of entries, as a map
    from (n, 2) points to an (n, *shape) float array."""

    def call(pts):
        x, y = pts[:, 0], pts[:, 1]
        # constant entries are scalars: broadcast them to the points
        cols = [np.broadcast_to(np.asarray(e, dtype=float), x.shape) for e in _flat(fn(x, y))]
        return np.stack(cols, axis=-1).reshape(len(pts), *shape)

    return call


def _flat(entries):
    """The entries of a nested list, row-major; a lone entry as a list of one."""
    return [e for item in entries for e in _flat(item)] if isinstance(entries, list) else [entries]


# data degree, regularity and description of each case; its fields are the
# functions <case>_<field> of ``case_fields``
_CASE_DEFS = {
    # Rigid rotation u = (y, -x) with zero pressure: every projection is
    # reproduced exactly at k = 1 since all data lie in the discrete spaces.
    "poly-exact-k1": (1, "polynomial (degree 1)", "rigid rotation, zero pressure; exact at k = 1"),
    "poly-exact-k2": (
        2, "polynomial (degree 2)", "quadratic divergence-free field, linear pressure; exact at k = 2"
    ),
    "stream-quartic": (
        7,
        "polynomial (degree 7), homogeneous boundary data",
        "curl of a biquartic bubble stream function, cubic pressure",
    ),
    "taylor-trig": (
        None,
        "analytic (trigonometric), nonzero boundary data",
        "trigonometric cellular flow with cosine pressure",
    ),
}

_CASES = {
    name: ManufacturedCase(
        name, *meta, *(getattr(case_fields, f"{name.replace('-', '_')}_{f}") for f in FIELDS)
    )
    for name, meta in _CASE_DEFS.items()
}


def case_names():
    return sorted(_CASES)


def get_case(name):
    if name not in _CASES:
        known = ", ".join(case_names())
        raise ConfigurationError(f"unknown case {name!r}; registered cases: {known}")
    return _CASES[name]


def list_cases():
    """(name, description, regularity) rows for the registry."""
    return [(c.name, c.description, c.regularity) for c in map(get_case, case_names())]


def verify_case(case):
    """Check that a case's fields solve the Stokes problem.

    Accepts a registered name or a ManufacturedCase instance.  Four checks,
    each on the fields themselves: the trace of grad u vanishes at random
    interior points (divergence_free); p has zero mean over the unit square
    (pressure_zero_mean, a 24 x 24 Gauss rule); f agrees with -Δu + ∇p by
    central finite differences of u and p (force_consistent); grad u agrees
    with central finite differences of u (gradient_consistent).  The last
    ties grad u to u, so a u that is not divergence-free fails the first or
    the last.  g is u, so it needs no check of its own.

    Returns a dict of check names to (passed, worst_value) pairs; raises
    ConfigurationError if any check fails.
    """
    if isinstance(case, str):
        case = get_case(case)
    pts = np.random.default_rng(0).uniform(0.05, 0.95, size=(50, 2))
    h, tol = 1e-5, 1e-5  # finite-difference step, and the tolerance on f and grad u
    checks = {}

    grad_u = case.grad_u(pts)
    div_max = float(np.abs(grad_u[:, 0, 0] + grad_u[:, 1, 1]).max())
    checks["divergence_free"] = (div_max <= 1e-12, div_max)

    square = polygon_rule([(0, 0), (1, 0), (1, 1), (0, 1)], 45)
    mean = float(square.weights @ case.p(square.points))
    checks["pressure_zero_mean"] = (abs(mean) <= 1e-10, mean)

    # the shifted velocities serve both the Laplacian and the Jacobian
    ex, ey = np.array([h, 0.0]), np.array([0.0, h])
    right, left, up, down = (case.u(pts + e) for e in (ex, -ex, ey, -ey))
    lap_u = (right + left + up + down - 4 * case.u(pts)) / h**2
    grad_p = np.column_stack([case.p(pts + e) - case.p(pts - e) for e in (ex, ey)]) / (2 * h)
    f_err = float(np.abs(grad_p - lap_u - case.f(pts)).max())
    checks["force_consistent"] = (f_err <= tol, f_err)

    fd_grad = np.stack([right - left, up - down], axis=-1) / (2 * h)
    g_err = float(np.abs(fd_grad - grad_u).max())
    checks["gradient_consistent"] = (g_err <= tol, g_err)

    failures = [k for k, (ok, _) in checks.items() if not ok]
    if failures:
        detail = ", ".join(f"{k}={checks[k][1]:.3e}" for k in failures)
        raise ConfigurationError(f"case {case.name!r} failed verification: {detail}")
    return checks
