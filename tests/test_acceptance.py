"""Acceptance gate: the guaranteed identities, stability bounds, and rates.

Each test checks one advertised property at its stated tolerance and time
budget, and registers a PASS/FAIL line that the conftest summary hook
prints at the end of the run.  The convergence sweep (smooth case, two
degrees, two mesh families, four levels) runs once and feeds the rate,
error-equation, and incompressibility checks.
"""

import time

import numpy as np
import pytest

from wgstokes.analysis import discrete_inf_sup, error_bundle, fit_rate, project_case
from wgstokes.assembly import assemble
from wgstokes.cases import get_case
from wgstokes.mesh import generate_mesh
from wgstokes.projections import (
    project_gradient,
    project_pressure,
    project_velocity,
)
from wgstokes.solver import solve
from wgstokes.spaces import WeakFunction
from wgstokes.study import GATED_RATES, RATE_MARGIN
from wgstokes.weakops import ElementOps

from conftest import PolyField, energy_at_points, full_solve, record_acceptance
from paper_checks import (
    consistency_functionals,
    dual_norms,
    projection_errors,
    verify_error_equation,
    weak_divergence_norm,
)

SWEEP_CONFIGS = (
    (1, "uniform-quad"),
    (1, "perturbed-polygon"),
    (2, "uniform-quad"),
    (2, "perturbed-polygon"),
)


@pytest.fixture(scope="module")
def sweep():
    """Solve the smooth case on the full degree/family/level grid once.

    Collects per level: mesh size, the error bundle, the two error-equation
    residuals, and the weak-divergence norm of the computed velocity.
    """
    case = get_case("taylor-trig")
    t0 = time.perf_counter()
    levels = {}
    for degree, family in SWEEP_CONFIGS:
        rows = []
        for level in range(4):
            mesh = generate_mesh(family, 4 * 2**level, seed=0)
            ops = ElementOps(mesh, degree)
            system = assemble(ops, body_force=case.f, boundary_velocity=case.g)
            projection = project_case(ops, case)
            report = solve(system)
            bundle = error_bundle(system, projection, report.velocity, report.pressure)
            momentum, mass = verify_error_equation(system, case, projection, report)
            rows.append(
                {
                    "h": mesh.mesh_size,
                    "bundle": bundle,
                    "momentum": momentum,
                    "mass": mass,
                    "divergence": weak_divergence_norm(ops, report.velocity),
                }
            )
        levels[(degree, family)] = rows
    return {"levels": levels, "elapsed": time.perf_counter() - t0}


def test_commutativity_identities(hostile_mesh):
    """Weak operators of projected fields equal projections of exact ones."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    meshes = (generate_mesh("uniform-quad", 4), generate_mesh("perturbed-polygon", 4, seed=1))
    for degree in (1, 2):
        for mesh in meshes + (hostile_mesh,):
            ops = ElementOps(mesh, degree)
            for _ in range(5):
                field = PolyField(degree + 2, rng)
                v = project_velocity(ops, field.u)
                pg = project_gradient(ops, field.grad)
                pd = project_pressure(ops, field.div).cellwise
                scale = max(np.abs(pg).max(), np.abs(pd).max(), 1e-30)
                gap_g = np.abs(ops.weak_gradient(v) - pg).max()
                gap_d = np.abs(ops.weak_divergence(v) - pd).max()
                worst = max(worst, gap_g / scale, gap_d / scale)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-11 and elapsed < 5.0
    record_acceptance(
        "commutativity-identities", ok, elapsed, f"max relative gap {worst:.2e} (tol 1e-11)"
    )
    assert worst <= 1e-11
    assert elapsed < 5.0


def test_energy_norm_identity(ops_quad_k1, ops_poly_k2, hostile_mesh):
    """The velocity quadratic form reproduces the energy norm squared, as
    evaluated at quadrature points by the reference."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    worst = 0.0
    for ops in (ops_quad_k1, ops_poly_k2, ElementOps(hostile_mesh, 2)):
        A = assemble(ops).A
        for _ in range(50):
            v = WeakFunction.random(ops.dofmap, rng, zero_boundary=True)
            quad = float(v.coeffs @ (A @ v.coeffs))
            norm2 = energy_at_points(ops, v)
            worst = max(worst, abs(quad - norm2) / max(norm2, 1e-30))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 5.0
    record_acceptance(
        "energy-norm-identity", ok, elapsed, f"max relative gap {worst:.2e} (tol 1e-12)"
    )
    assert worst <= 1e-12
    assert elapsed < 5.0


def test_polynomial_exactness(hostile_mesh):
    """Divergence-free polynomial data is reproduced to rounding."""
    t0 = time.perf_counter()
    worst = {"interior": 0.0, "edge": 0.0, "pressure": 0.0}
    meshes = (generate_mesh("uniform-quad", 4), generate_mesh("perturbed-polygon", 4, seed=1))
    # poly-exact-k2 on the hostile mesh at k=2 and, as a P2 field in P3, at k=3
    runs = [(1, "poly-exact-k1", mesh) for mesh in meshes]
    runs += [(2, "poly-exact-k2", mesh) for mesh in meshes + (hostile_mesh,)]
    runs += [(3, "poly-exact-k2", hostile_mesh)]
    for degree, case_name, mesh in runs:
        case = get_case(case_name)
        ops = ElementOps(mesh, degree)
        system = assemble(ops, body_force=case.f, boundary_velocity=case.g)
        report = solve(system)
        qu = project_velocity(ops, case.u)
        qp = project_pressure(ops, case.p)
        gap_u = np.abs(report.velocity.coeffs - qu.coeffs)
        n_interior = ops.dofmap.interior_size
        worst["interior"] = max(worst["interior"], gap_u[:n_interior].max())
        worst["edge"] = max(worst["edge"], gap_u[n_interior:].max())
        worst["pressure"] = max(
            worst["pressure"], np.abs(report.pressure.coeffs - qp.coeffs).max()
        )
    elapsed = time.perf_counter() - t0
    top = max(worst.values())
    ok = top <= 1e-9 and elapsed < 10.0
    record_acceptance(
        "polynomial-exactness",
        ok,
        elapsed,
        f"max coefficient gap {top:.2e} (tol 1e-9)",
    )
    for value in worst.values():
        assert value <= 1e-9
    assert elapsed < 10.0


def test_convergence_rates(sweep):
    """Fitted error slopes reach the guaranteed orders on every grid axis."""
    t0 = time.perf_counter()
    failures = []
    fitted = {}
    for (degree, family), rows in sweep["levels"].items():
        hs = [row["h"] for row in rows]
        for name, target in GATED_RATES.items():
            values = [getattr(row["bundle"], name) for row in rows]
            rate = fit_rate(hs, values)
            fitted[(degree, family, name)] = rate
            if rate < target(degree) - RATE_MARGIN:
                failures.append(f"k={degree} {family} {name}: {rate:.3f}")
    elapsed = sweep["elapsed"] + (time.perf_counter() - t0)
    lowest_margin = min(
        fitted[key] - (GATED_RATES[key[2]](key[0]) - RATE_MARGIN) for key in fitted
    )
    ok = not failures and elapsed < 120.0
    record_acceptance(
        "convergence-rates",
        ok,
        elapsed,
        f"16 slopes fitted, min headroom {lowest_margin:+.3f}"
        + (f"; misses: {failures}" if failures else ""),
    )
    assert not failures, failures
    assert elapsed < 120.0


def test_inf_sup_stability():
    """The discrete pressure stability constant stays bounded under refinement."""
    t0 = time.perf_counter()
    ratios, minima = {}, {}
    for family in ("uniform-quad", "perturbed-polygon"):
        betas = []
        for n in (8, 16, 32):
            ops = ElementOps(generate_mesh(family, n, seed=0), 1)
            beta = discrete_inf_sup(assemble(ops))
            assert beta is not None
            betas.append(beta)
        ratios[family] = min(betas) / max(betas)
        minima[family] = min(betas)
    elapsed = time.perf_counter() - t0
    ok = (
        all(r >= 0.75 for r in ratios.values())
        and all(m > 0.01 for m in minima.values())
        and elapsed < 60.0
    )
    record_acceptance(
        "inf-sup-stability",
        ok,
        elapsed,
        f"min/max ratios {', '.join(f'{f}={r:.3f}' for f, r in ratios.items())} (floor 0.75)",
    )
    for family in ratios:
        assert ratios[family] >= 0.75, (family, ratios[family])
        assert minima[family] > 0.01
    assert elapsed < 60.0


def test_inf_sup_convergence():
    """beta_h converges as a uniform bound predicts: on uniform quads at k=1
    the slope of log beta_h against log h shrinks with each halving, and at
    n=8 beta_h falls strictly with the degree k = 1, 2, 3."""
    t0 = time.perf_counter()
    hs, betas = [], []
    for n in (8, 16, 32):
        mesh = generate_mesh("uniform-quad", n)
        hs.append(mesh.mesh_size)
        betas.append(discrete_inf_sup(assemble(ElementOps(mesh, 1))))
    slopes = np.diff(np.log(betas)) / np.diff(np.log(hs))
    mesh = generate_mesh("uniform-quad", 8)
    by_degree = [betas[0]] + [discrete_inf_sup(assemble(ElementOps(mesh, k))) for k in (2, 3)]
    elapsed = time.perf_counter() - t0
    shrinking = bool(np.all(np.diff(slopes) < 0))
    falling = bool(np.all(np.diff(by_degree) < 0))
    ok = shrinking and falling and elapsed < 10.0
    record_acceptance(
        "inf-sup-convergence",
        ok,
        elapsed,
        f"k=1 slopes per halving {', '.join(f'{s:.3f}' for s in slopes)} (shrinking); "
        f"n=8 beta_h for k=1..3 {', '.join(f'{b:.4f}' for b in by_degree)} (falling)",
    )
    assert shrinking, slopes
    assert falling, by_degree
    assert elapsed < 10.0


def test_pressure_steps_flat():
    """The pressure solve's Lanczos-CG step count, mass-preconditioned, stays
    flat as h falls on perturbed polygons at k=2: the algebraic face of the
    uniform inf-sup bound (M_p⁻¹S_p has its spectrum in [β_h², 2])."""
    t0 = time.perf_counter()
    case = get_case("taylor-trig")
    steps = []
    for n in (8, 16, 32, 64):
        ops = ElementOps(generate_mesh("perturbed-polygon", n, seed=0), 2)
        steps.append(solve(assemble(ops, body_force=case.f, boundary_velocity=case.g)).lanczos_steps)
    elapsed = time.perf_counter() - t0
    ok = max(steps) <= 45 and steps[-1] <= 1.3 * steps[0] and elapsed < 10.0
    record_acceptance(
        "pressure-steps-flat",
        ok,
        elapsed,
        f"Lanczos steps at n=8..64 {steps} (at most 45, n=64 at most 1.3x n=8)",
    )
    assert max(steps) <= 45, steps
    assert steps[-1] <= 1.3 * steps[0], steps
    assert elapsed < 10.0


def test_error_equation_residual(sweep):
    """The projected-error identity holds on every solved study level."""
    t0 = time.perf_counter()
    worst_momentum = max(row["momentum"] for rows in sweep["levels"].values() for row in rows)
    worst_mass = max(row["mass"] for rows in sweep["levels"].values() for row in rows)
    elapsed = time.perf_counter() - t0
    worst = max(worst_momentum, worst_mass)
    ok = worst <= 1e-9
    record_acceptance(
        "error-equation-residual",
        ok,
        elapsed,
        f"max residual {worst:.2e} over 16 levels (tol 1e-9)",
    )
    assert worst_momentum <= 1e-9
    assert worst_mass <= 1e-9


def test_consistency_decay():
    """Dual norms of the three consistency functionals decay at order k."""
    t0 = time.perf_counter()
    case = get_case("taylor-trig")
    failures = []
    slopes = {}
    for degree in (1, 2):
        hs = []
        norms = {"gradient": [], "pressure": [], "stabilizer": []}
        for n in (4, 8, 16, 32):
            mesh = generate_mesh("uniform-quad", n)
            ops = ElementOps(mesh, degree)
            functionals = consistency_functionals(ops, case, project_case(ops, case))
            values = dual_norms(assemble(ops), functionals)
            hs.append(mesh.mesh_size)
            for name in norms:
                norms[name].append(values[name])
        for name, series in norms.items():
            rate = fit_rate(hs, series, window=4)
            slopes[(degree, name)] = rate
            if rate < degree - RATE_MARGIN:
                failures.append(f"k={degree} {name}: {rate:.3f}")
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 30.0
    worst = min(slopes[(d, n)] - (d - RATE_MARGIN) for d, n in slopes)
    record_acceptance(
        "consistency-decay",
        ok,
        elapsed,
        f"6 slopes fitted, min headroom {worst:+.3f}" + (f"; misses: {failures}" if failures else ""),
    )
    assert not failures, failures
    assert elapsed < 30.0


def test_discrete_incompressibility(sweep):
    """Computed velocities are weakly divergence-free on every solved level."""
    t0 = time.perf_counter()
    worst = max(row["divergence"] for rows in sweep["levels"].values() for row in rows)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9
    record_acceptance(
        "discrete-incompressibility",
        ok,
        elapsed,
        f"max weak-divergence norm {worst:.2e} over 16 levels (tol 1e-9)",
    )
    assert worst <= 1e-9


def test_condensation_equivalence(ops_quad_k1, hostile_mesh):
    """Static condensation, and the uncondensed path, return the solution of
    a plain-scipy full solve."""
    t0 = time.perf_counter()
    case = get_case("taylor-trig")
    gap = 0.0
    for ops in (ops_quad_k1, ElementOps(hostile_mesh, 2)):
        system = assemble(ops, body_force=case.f, boundary_velocity=case.g)
        u, p = full_solve(system)
        full = solve(system, condense=False)
        red = solve(system)
        assert not full.condensed and red.condensed
        for report in (full, red):
            gap = max(
                gap,
                np.abs(report.velocity.coeffs - u).max(),
                np.abs(report.pressure.coeffs - p).max(),
            )
    elapsed = time.perf_counter() - t0
    ok = gap <= 1e-9 and elapsed < 5.0
    record_acceptance(
        "condensation-equivalence", ok, elapsed, f"max DOF gap {gap:.2e} (tol 1e-9)"
    )
    assert gap <= 1e-9
    assert elapsed < 5.0


def test_projection_rates():
    """The three local projections approximate smooth fields at full order."""
    t0 = time.perf_counter()
    case = get_case("taylor-trig")
    targets = {"velocity": lambda k: k + 1, "gradient": lambda k: k, "pressure": lambda k: k}
    failures = []
    slopes = {}
    for degree in (1, 2):
        hs = []
        series = {name: [] for name in targets}
        for n in (4, 8, 16, 32):
            mesh = generate_mesh("uniform-quad", n)
            errs = projection_errors(ElementOps(mesh, degree), case)
            hs.append(mesh.mesh_size)
            for name in targets:
                series[name].append(errs[name])
        for name, target in targets.items():
            rate = fit_rate(hs, series[name], window=4)
            slopes[(degree, name)] = rate
            if rate < target(degree) - RATE_MARGIN:
                failures.append(f"k={degree} {name}: {rate:.3f}")
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 20.0
    worst = min(
        slopes[(d, n)] - (targets[n](d) - RATE_MARGIN) for d, n in slopes
    )
    record_acceptance(
        "projection-rates",
        ok,
        elapsed,
        f"6 slopes fitted, min headroom {worst:+.3f}" + (f"; misses: {failures}" if failures else ""),
    )
    assert not failures, failures
    assert elapsed < 20.0
