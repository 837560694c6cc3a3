"""Manufactured Stokes solutions for convergence studies.

Each case carries the exact velocity u (divergence-free), the exact
zero-mean pressure p, the body force f = -Δu + ∇p, and the boundary data
g = u restricted to the boundary.  Every field is numpy source in
``case_fields``, generated from primitive expressions that the tests
derive symbolically (and check that source against), so nothing is
hand-transcribed; ``verify_case`` cross-checks f against finite
differences of u and p as an independent guard.  Velocity fields built as
curl of a stream function are divergence-free by construction.
"""

import numpy as np

from . import case_fields
from .errors import ConfigurationError

#: the fields of a case, as named in ``case_fields``: <case>_<field>
FIELDS = ("u", "p", "f", "grad_u", "div_u")


class ManufacturedCase:
    """Exact Stokes solution: field callables and their metadata.

    The fields u, p, f, grad_u and div_u are given as functions of the
    coordinate arrays (x, y), each returning an entry or a (nested) list of
    entries, as ``case_fields`` holds them; constant entries may be scalars.

    Attributes
    ----------
    name, description, regularity : str
    data_degree : int or None
        Total polynomial degree of the data fields; None if transcendental.
        Descriptive only: every data integral uses one rule, whatever it is.
    u, p, f, g : callables
        u, g, f map (n, 2) points to (n, 2); p maps to (n,).
    grad_u : callable
        (n, 2, 2) Jacobians, entry [i, j] = d u_i / d x_j.
    div_u : callable
        (n,) divergence (identically zero, kept for verification).
    """

    def __init__(self, name, data_degree, regularity, description, u, p, f, grad_u, div_u):
        self.name = name
        self.description = description
        self.regularity = regularity
        self.data_degree = data_degree
        self.u = _field(u, 2)
        self.g = self.u  # Dirichlet data is the velocity trace
        self.p = _field(p)
        self.f = _field(f, 2)
        self.grad_u = _field(grad_u, 2, 2)
        self.div_u = _field(div_u)

    def __repr__(self):
        deg = "transcendental" if self.data_degree is None else f"degree {self.data_degree}"
        return f"ManufacturedCase({self.name!r}, {deg})"


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
    """Cross-check a case's internal consistency.

    Accepts a registered name or a ManufacturedCase instance.  Checks, in
    order: the analytic divergence vanishes pointwise; the pressure has
    zero mean over the unit square (high-order quadrature); f agrees with
    -Δu + ∇p evaluated by central finite differences of u and p at random
    interior points; g coincides with u on the boundary.

    Returns a dict of check names to (passed, worst_value) pairs; raises
    ConfigurationError if any check fails.
    """
    if isinstance(case, str):
        case = get_case(case)
    rng = np.random.default_rng(0)
    pts = rng.uniform(0.05, 0.95, size=(50, 2))

    checks = {}
    div_max = float(np.abs(case.div_u(pts)).max())
    checks["divergence_free"] = (div_max <= 1e-12, div_max)

    # zero pressure mean over the square via tensor Gauss quadrature
    from numpy.polynomial.legendre import leggauss

    xg, wg = leggauss(24)
    xg = 0.5 * (xg + 1.0)
    wg = 0.5 * wg
    X, Y = np.meshgrid(xg, xg, indexing="ij")
    W = np.outer(wg, wg).ravel()
    mean = float(W @ case.p(np.column_stack([X.ravel(), Y.ravel()])))
    checks["pressure_zero_mean"] = (abs(mean) <= 1e-10, mean)

    # f = -Δu + ∇p by finite differences
    h, tol = 1e-5, 1e-5  # step, and the tolerance on f and grad u
    ex = np.array([h, 0.0])
    ey = np.array([0.0, h])
    lap_u = (
        case.u(pts + ex) + case.u(pts - ex) + case.u(pts + ey) + case.u(pts - ey) - 4 * case.u(pts)
    ) / h**2
    grad_p = np.column_stack(
        [
            (case.p(pts + ex) - case.p(pts - ex)) / (2 * h),
            (case.p(pts + ey) - case.p(pts - ey)) / (2 * h),
        ]
    )
    fd_f = -lap_u + grad_p
    f_err = float(np.abs(fd_f - case.f(pts)).max())
    checks["force_consistent"] = (f_err <= tol, f_err)

    # gradient against finite differences (guards the generated Jacobian)
    fd_grad = np.empty((len(pts), 2, 2))
    fd_grad[:, :, 0] = (case.u(pts + ex) - case.u(pts - ex)) / (2 * h)
    fd_grad[:, :, 1] = (case.u(pts + ey) - case.u(pts - ey)) / (2 * h)
    g_err = float(np.abs(fd_grad - case.grad_u(pts)).max())
    checks["gradient_consistent"] = (g_err <= tol, g_err)

    # boundary data is the velocity trace
    t = rng.uniform(0, 1, size=len(pts))
    for side, bpts in (
        ("bottom", np.column_stack([t, np.zeros_like(t)])),
        ("top", np.column_stack([t, np.ones_like(t)])),
        ("left", np.column_stack([np.zeros_like(t), t])),
        ("right", np.column_stack([np.ones_like(t), t])),
    ):
        err = float(np.abs(case.g(bpts) - case.u(bpts)).max())
        checks[f"boundary_trace_{side}"] = (err == 0.0, err)

    failures = [k for k, (ok, _) in checks.items() if not ok]
    if failures:
        detail = ", ".join(f"{k}={checks[k][1]:.3e}" for k in failures)
        raise ConfigurationError(f"case {case.name!r} failed verification: {detail}")
    return checks
