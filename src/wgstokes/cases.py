"""Manufactured Stokes solutions for convergence studies.

Each case carries the exact velocity u (divergence-free), the exact
zero-mean pressure p, the body force f = -Δu + ∇p, and the boundary data
g = u restricted to the boundary.  All derived fields (gradient,
divergence, force) are produced symbolically from the primitive
expressions and lambdified to vectorized callables, so nothing is
hand-transcribed; ``verify_case`` cross-checks f against finite
differences of u and p as an independent guard.

The registry holds the primitive expressions as strings in x and y, and
sympy is imported only when a case is built, so importing the package or
its command line does not pay for it.  Velocity fields built as curl of a
stream function are divergence-free by construction.
"""

import numpy as np

from .errors import ConfigurationError


class ManufacturedCase:
    """Exact Stokes solution with analytically derived data fields.

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

    def __init__(self, name, ux, uy, p, data_degree, regularity, description):
        import sympy as sp

        self.name = name
        self.description = description
        self.regularity = regularity
        self.data_degree = data_degree
        x, y = sp.symbols("x y")
        ux, uy, p = sp.sympify(ux), sp.sympify(uy), sp.sympify(p)
        fx = -(sp.diff(ux, x, 2) + sp.diff(ux, y, 2)) + sp.diff(p, x)
        fy = -(sp.diff(uy, x, 2) + sp.diff(uy, y, 2)) + sp.diff(p, y)
        grads = [[sp.diff(comp, var) for var in (x, y)] for comp in (ux, uy)]
        div = sp.factor_terms(sp.diff(ux, x) + sp.diff(uy, y))

        self.u = _field([ux, uy])
        self.g = self.u  # Dirichlet data is the velocity trace
        self.p = _field(p)
        self.f = _field([sp.factor_terms(fx), sp.factor_terms(fy)])
        self.grad_u = _field(grads)
        self.div_u = _field(div)

    def __repr__(self):
        deg = "transcendental" if self.data_degree is None else f"degree {self.data_degree}"
        return f"ManufacturedCase({self.name!r}, {deg})"


def _field(exprs):
    """Vectorized field of an expression in x and y, or of a (nested) list of
    them: it maps (n, 2) points to an (n,) + list-shape float array."""
    import sympy as sp

    entries = np.array(exprs, dtype=object)
    fns = [sp.lambdify(sp.symbols("x y"), e, "numpy") for e in entries.flat]

    def call(pts):
        x, y = pts[:, 0], pts[:, 1]
        # constant expressions collapse to scalars: broadcast them to the points
        cols = [np.broadcast_to(np.asarray(fn(x, y), dtype=float), x.shape) for fn in fns]
        return np.stack(cols, axis=-1).reshape(len(pts), *entries.shape)

    return call


# The stream case's velocity is the curl (d/dy, -d/dx) of this bubble.
_BUBBLE = "x**2*(1 - x)**2*y**2*(1 - y)**2"

_CASE_DEFS = {
    # Rigid rotation with constant (zero) pressure: every projection is
    # reproduced exactly at k = 1 since all data lie in the discrete spaces.
    "poly-exact-k1": dict(
        ux="y",
        uy="-x",
        p="0",
        data_degree=1,
        regularity="polynomial (degree 1)",
        description="rigid rotation, zero pressure; exact at k = 1",
    ),
    "poly-exact-k2": dict(
        ux="x**2 - 2*x*y",
        uy="y**2 - 2*x*y",
        p="x + y - 1",
        data_degree=2,
        regularity="polynomial (degree 2)",
        description="quadratic divergence-free field, linear pressure; exact at k = 2",
    ),
    "stream-quartic": dict(
        ux=f"diff({_BUBBLE}, y)",
        uy=f"-diff({_BUBBLE}, x)",
        p="x**3 - 1/4",
        data_degree=7,
        regularity="polynomial (degree 7), homogeneous boundary data",
        description="curl of a biquartic bubble stream function, cubic pressure",
    ),
    "taylor-trig": dict(
        ux="sin(pi*x)*cos(pi*y)",
        uy="-cos(pi*x)*sin(pi*y)",
        p="cos(pi*x)*cos(pi*y)",
        data_degree=None,
        regularity="analytic (trigonometric), nonzero boundary data",
        description="trigonometric cellular flow with cosine pressure",
    ),
}

_CASES = {}


def case_names():
    return sorted(_CASE_DEFS)


def get_case(name):
    if name not in _CASE_DEFS:
        known = ", ".join(case_names())
        raise ConfigurationError(f"unknown case {name!r}; registered cases: {known}")
    if name not in _CASES:
        _CASES[name] = ManufacturedCase(name=name, **_CASE_DEFS[name])
    return _CASES[name]


def list_cases():
    """(name, description, regularity) rows for the registry."""
    return [
        (name, _CASE_DEFS[name]["description"], _CASE_DEFS[name]["regularity"])
        for name in case_names()
    ]


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

    # gradient against finite differences (guards the lambdified Jacobian)
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
