"""Norms, rate fitting, inf-sup estimation, and the convergence record."""

import re
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.sparse.linalg import spsolve

from conftest import dense_inf_sup, energy_at_points, lambdified_case, true_errors_at_points
from paper_checks import (
    consistency_functionals,
    dual_norms,
    projection_errors,
    verify_error_equation,
    weak_divergence_norm,
)
from wgstokes import analysis, solver, weakops
from wgstokes.analysis import (
    CSV_COLUMNS,
    CaseProjection,
    ConvergenceRecord,
    discrete_inf_sup,
    error_bundle,
    fit_rate,
    project_case,
    rate_label,
)
from wgstokes.assembly import assemble
from wgstokes.cases import case_names, get_case
from wgstokes.errors import ConfigurationError, SolverError
from wgstokes.mesh import FAMILIES, generate_mesh
from wgstokes.quadrature import polygon_rule
from wgstokes.solver import factorize, solve
from wgstokes.spaces import PressureFunction, WeakFunction
from wgstokes.weakops import ElementOps


# -- rate fitting -------------------------------------------------------


def test_fit_rate_recovers_exact_power():
    hs = [0.5, 0.25, 0.125, 0.0625]
    values = [3.0 * h**2 for h in hs]
    assert abs(fit_rate(hs, values) - 2.0) <= 1e-12
    assert abs(fit_rate(hs, values, window=4) - 2.0) <= 1e-12


def test_fit_rate_tolerates_noise():
    rng = np.random.default_rng(0)
    hs = [2.0**-i for i in range(2, 7)]
    values = [h**1.5 * (1 + 0.01 * rng.uniform(-1, 1)) for h in hs]
    assert abs(fit_rate(hs, values, window=5) - 1.5) <= 0.05


def test_fit_rate_constant_sequence_is_flat():
    assert abs(fit_rate([0.5, 0.25, 0.125], [4.0, 4.0, 4.0])) <= 1e-12


def test_fit_rate_degenerate_inputs():
    assert fit_rate([0.5], [1.0]) is None
    assert fit_rate([0.5, 0.25], [1.0, 0.0]) is None  # one positive value left


def test_fit_rate_uses_finest_window():
    # coarse levels lie, fine levels converge at 2; window=3 sees only the fine part
    hs = [0.5, 0.25, 0.125, 0.0625, 0.03125]
    values = [10.0, 5.0] + [h**2 for h in hs[2:]]
    assert abs(fit_rate(hs, values, window=3) - 2.0) <= 1e-12


def test_rate_label_states():
    hs = [0.5, 0.25, 0.125]
    assert rate_label(hs, [1e-12, 1e-13, 1e-14]) == "exact"
    assert rate_label([0.5], [1.0]) == ""
    assert rate_label(hs, [h**2 for h in hs]) == "2.000"


# -- norms --------------------------------------------------------------


def test_triple_bar_of_zero(ops_quad_k1):
    """A zero error measures exactly zero, in the energy norm and in every
    other column of the error bundle, and its weak divergence too."""
    ops = ops_quad_k1
    v, p = WeakFunction.zeros(ops.dofmap), PressureFunction.zeros(ops.dofmap)
    bundle = error_bundle(assemble(ops), CaseProjection(v, p, 0.0, 0.0), v, p)
    assert set(bundle.as_dict().values()) == {0.0}
    assert weak_divergence_norm(ops, v) == 0.0


@pytest.mark.parametrize(
    "ops_name", ["ops_quad_k1", "ops_poly_k2", "hostile_k1", "hostile_k2", "hostile_k3"]
)
def test_triple_bar_squared_is_energy(ops_name, request):
    """|||v|||² = v'Av equals the point-evaluation reference for 20 random
    fields on each mesh, the hostile one (nonconvex, collinear and hanging
    vertices) included."""
    if ops_name.startswith("hostile"):
        ops = ElementOps(request.getfixturevalue("hostile_mesh"), int(ops_name[-1]))
    else:
        ops = request.getfixturevalue(ops_name)
    A = assemble(ops).A
    for x in np.random.default_rng(31).standard_normal((20, ops.dofmap.num_velocity_dofs)):
        v = WeakFunction(ops.dofmap, x)
        energy = energy_at_points(ops, v)
        assert abs(v.coeffs @ (A @ v.coeffs) - energy) <= 1e-12 * max(energy, 1.0)


def test_energy_is_norm_on_free_dofs(ops_quad_k1):
    """A restricted to the homogeneous subspace is positive definite."""
    system = assemble(ops_quad_k1)
    A_ff = system.A[system.free][:, system.free].toarray()
    lam = np.linalg.eigvalsh(A_ff)
    assert lam[0] > 0.0


# -- error bundles ------------------------------------------------------


def test_error_bundle_matches_projection_errors(ops_quad_k2):
    """With the zero discrete solution, the projected errors are the norms of
    the projections, evaluated at the data rule's points, and the true errors
    are the fields' own norms: the projection residuals of `projection_errors`
    added in quadrature."""
    ops = ops_quad_k2
    case = get_case("taylor-trig")
    zero_v, zero_p = WeakFunction.zeros(ops.dofmap), PressureFunction.zeros(ops.dofmap)
    projection = project_case(ops, case)
    bundle = error_bundle(assemble(ops), projection, zero_v, zero_p)
    proj = projection_errors(ops, case)
    assert proj["velocity"] == projection.velocity_residual
    assert proj["pressure"] == projection.pressure_residual
    table, nlow = ops.cell_data, ops.dofmap.dim_cell_low
    qu = np.einsum("pa,pia->pi", table.values, projection.velocity.v0[table.cell])
    qp = np.einsum("pr,pr->p", table.values[:, :nlow], projection.pressure.cellwise[table.cell])
    assert np.isclose(bundle.vel_l2_proj, np.sqrt(table.weights @ (qu**2).sum(axis=1)), rtol=1e-12)
    assert np.isclose(bundle.pres_l2, np.sqrt(table.weights @ qp**2), rtol=1e-12)
    for true, field in ((bundle.vel_l2_true, case.u), (bundle.pres_l2_true, case.p)):
        values = field(table.points).reshape(len(table.weights), -1)
        assert np.isclose(true, np.sqrt(table.weights @ (values**2).sum(axis=1)), rtol=1e-12)
    assert 0 < proj["velocity"] < bundle.vel_l2_true


def test_error_bundle_near_zero_for_exact_case():
    case = get_case("poly-exact-k2")
    ops = ElementOps(generate_mesh("uniform-quad", 4), 2)
    system = assemble(ops, body_force=case.f, boundary_velocity=case.g)
    report = solve(system)
    bundle = error_bundle(system, project_case(ops, case), report.velocity, report.pressure)
    assert bundle.triple_bar <= 1e-10
    assert bundle.vel_l2_proj <= 1e-11
    assert bundle.pres_l2 <= 1e-10
    d = bundle.as_dict()
    assert set(d) == {"triple_bar", "vel_l2_proj", "vel_l2_true", "pres_l2", "pres_l2_true"}


@pytest.mark.parametrize(
    "family, degree",
    [(f, k) for f in FAMILIES + ("hostile",) for k in (1, 2, 3)],
)
def test_true_errors_match_pointwise_reference(family, degree, request):
    """vel_l2_true and pres_l2_true, built from the projection residuals and
    the projected errors, equal ||u - v0|| and ||p - p_h|| summed point by
    point on the data rule, for a computed solution; triple_bar is
    sqrt(e'Ae) for e = Q_h u - u_h, and equals the point-evaluation energy
    of e."""
    if family == "hostile":
        mesh = request.getfixturevalue("hostile_mesh")
    else:
        mesh = generate_mesh(family, 4, seed=0)
    ops, case = ElementOps(mesh, degree), get_case("taylor-trig")
    system = assemble(ops, body_force=case.f, boundary_velocity=case.g)
    report = solve(system)
    projection = project_case(ops, case)
    bundle = error_bundle(system, projection, report.velocity, report.pressure)
    velocity, pressure = true_errors_at_points(ops, case, report.velocity, report.pressure)
    assert bundle.vel_l2_true == pytest.approx(velocity, rel=1e-11)
    assert bundle.pres_l2_true == pytest.approx(pressure, rel=1e-11)
    error = projection.velocity - report.velocity
    assert bundle.triple_bar == np.sqrt(error.coeffs @ (system.A @ error.coeffs))
    assert bundle.triple_bar == pytest.approx(np.sqrt(energy_at_points(ops, error)), rel=1e-12)


@pytest.mark.parametrize("measure", ["projection_errors", "error_bundle", "verify_error_equation"])
def test_exact_fields_read_once_at_the_data_points(ops_quad_k2, measure):
    """A projection and its residual read an exact field at the same cell
    data points, so each field is evaluated there once, not once per use;
    a level's errors read u and p in the projection pass alone, and the
    error-equation check reads only grad u, taking Q_h u and Q_h p from the
    level's projection."""
    ops, case = ops_quad_k2, get_case("taylor-trig")
    calls = dict.fromkeys(["u", "p", "grad_u"], 0)

    def counted(name):
        def field(x):
            calls[name] += x is ops.cell_data.points
            return getattr(case, name)(x)

        return field

    spied = SimpleNamespace(**{name: counted(name) for name in calls})
    if measure == "projection_errors":
        projection_errors(ops, spied)
        assert calls == {"u": 1, "p": 1, "grad_u": 1}
    elif measure == "verify_error_equation":
        system = assemble(ops, body_force=case.f, boundary_velocity=case.g)
        projection = project_case(ops, case)
        verify_error_equation(system, spied, projection, solve(system))
        assert calls == {"u": 0, "p": 0, "grad_u": 1}
    else:
        zero_v, zero_p = WeakFunction.zeros(ops.dofmap), PressureFunction.zeros(ops.dofmap)
        error_bundle(assemble(ops), project_case(ops, spied), zero_v, zero_p)
        assert calls == {"u": 1, "p": 1, "grad_u": 0}


def test_error_bundle_reads_no_field_and_no_cell_rule(monkeypatch):
    """After the projection pass and the table's deletion, error_bundle
    evaluates no case field and builds no cell rule: algebra on
    coefficient vectors alone."""
    ops, case = ElementOps(generate_mesh("perturbed-polygon", 4), 2), get_case("taylor-trig")
    calls = {"fields": 0, "polygon_rule": 0}

    def counted(field):
        def evaluate(x):
            calls["fields"] += 1
            return field(x)

        return evaluate

    spied = SimpleNamespace(u=counted(case.u), p=counted(case.p), grad_u=counted(case.grad_u))
    system = assemble(ops)
    projection = project_case(ops, spied)
    del ops.cell_data
    calls.update(fields=0)

    def counting_rule(*args, **kwargs):
        calls["polygon_rule"] += 1
        return polygon_rule(*args, **kwargs)

    monkeypatch.setattr(weakops, "polygon_rule", counting_rule)
    zero_v, zero_p = WeakFunction.zeros(ops.dofmap), PressureFunction.zeros(ops.dofmap)
    error_bundle(system, projection, zero_v, zero_p)
    assert calls == {"fields": 0, "polygon_rule": 0}
    assert "cell_data" not in vars(ops)


@pytest.mark.parametrize("family, degree", [("perturbed-polygon", 2), ("uniform-quad", 3)])
def test_data_kernels_stay_within_five_fields(family, degree):
    """Beside the data tables, a data moment and the projection pass against
    the exact fields hold at most 5 (points, 2) fields at once: no
    (points, 2, dim) array."""
    ops = ElementOps(generate_mesh(family, 8), degree)
    case = get_case("taylor-trig")
    field = ops.cell_data.points.nbytes  # one (points, 2) float field
    ops.edge_data  # both tables are built before the measurement
    runs = {
        "moments": lambda: ops.cell_moments(case.f(ops.cell_data.points), degree),
        "projection": lambda: project_case(ops, case),
    }
    for name, run in runs.items():
        run()  # first calls may allocate caches of their own
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5 * field, (name, peak / field)


# -- inf-sup ------------------------------------------------------------


def test_inf_sup_positive_and_family_consistent():
    betas = {}
    for family in ("uniform-quad", "perturbed-polygon"):
        ops = ElementOps(generate_mesh(family, 4), 1)
        betas[family] = discrete_inf_sup(assemble(ops))
    for beta in betas.values():
        assert 0.01 < beta < 10.0
    lo, hi = sorted(betas.values())
    assert hi <= 2 * lo


@pytest.mark.parametrize(
    "family, degree, n",
    [(f, k, 8) for f in FAMILIES for k in (1, 2, 3)]
    + [("perturbed-polygon", 2, 16)]
    + [("hostile", k, 1) for k in (1, 2, 3)],
)
def test_inf_sup_matches_dense_oracle(family, degree, n, request):
    """Lanczos on the solve's factor, on a new one, on one from `factorize`
    and on a new one in place of the full path's (None) gives the dense
    beta_h, on every mesh family and degree and on the nonconvex cell with
    a hanging node."""
    if family == "hostile":
        mesh = request.getfixturevalue("hostile_mesh")
    else:
        mesh = generate_mesh(family, n, seed=0)
    system = assemble(ElementOps(mesh, degree))
    expected = dense_inf_sup(system)
    assert discrete_inf_sup(system) == pytest.approx(expected, rel=1e-8)
    for factor in (solve(system).factor, factorize(system), solve(system, condense=False).factor):
        assert discrete_inf_sup(system, factor) == pytest.approx(expected, rel=1e-8)


@pytest.mark.parametrize("n", [4, 8])
def test_inf_sup_after_a_symmetric_solve(n):
    """After a solve of taylor-trig on squares, whose right-hand side has no
    component along the lowest mode, beta_h on the solve's factor is still the
    dense one: the eigensolve does not start from the solve's Krylov space
    (from there it reads 0.7468 against 0.6744 at n=8)."""
    case = get_case("taylor-trig")
    system = assemble(ElementOps(generate_mesh("uniform-quad", n), 1), body_force=case.f, boundary_velocity=case.g)
    report = solve(system)
    assert report.lanczos_steps > 0
    assert discrete_inf_sup(system, report.factor) == pytest.approx(dense_inf_sup(system), rel=1e-8)


def test_inf_sup_needs_two_pressure_dofs():
    system = assemble(ElementOps(generate_mesh("uniform-quad", 1), 1))
    with pytest.raises(ConfigurationError, match="has 1 pressure DOF"):
        discrete_inf_sup(system)


def test_inf_sup_eigensolve_failure_is_typed(ops_quad_k1, monkeypatch):
    """An eigensolve that reaches the Lanczos cap raises SolverError with the
    step count and the pressure DOF count."""
    monkeypatch.setattr(solver, "LANCZOS_CAP", 3)
    system = assemble(ops_quad_k1)
    with pytest.raises(SolverError, match=f"cap of 3 steps on {system.num_pressure_dofs} pressure DOFs"):
        discrete_inf_sup(system)


@pytest.mark.parametrize("routine", ["dstebz", "dstein"])
def test_inf_sup_lapack_failure_is_typed(ops_quad_k1, monkeypatch, routine):
    """A failure that LAPACK's tridiagonal eigensolver reports in beta_h's stop
    test raises SolverError naming the Lanczos step it met."""
    real = getattr(analysis, routine)

    def failing(*args):  # the real result, with stebz's info or stein's ifail set
        out = list(real(*args))
        out[-1] = 1 if routine == "dstebz" else np.ones_like(out[-1])
        return tuple(out)

    monkeypatch.setattr(analysis, routine, failing)
    with pytest.raises(SolverError, match=r"LAPACK stebz/stein failed .* at Lanczos step 2$"):
        discrete_inf_sup(assemble(ops_quad_k1))


def test_inf_sup_known_value():
    """Frozen regression value for the 4x4 uniform grid at k=1."""
    ops = ElementOps(generate_mesh("uniform-quad", 4), 1)
    beta = discrete_inf_sup(assemble(ops))
    assert np.isclose(beta, 0.796883, atol=2e-5)


# -- consistency functionals and the error equation ---------------------


@pytest.mark.parametrize("family, degree", [(f, k) for f in FAMILIES for k in (1, 2, 3)])
def test_project_case_equals_the_projections(family, degree):
    """project_case's Q_0 u and Q_h p are the L2 projections, for every
    registered case: what each misses at the cell data points is orthogonal,
    on that rule, to every basis function of its cell."""
    ops = ElementOps(generate_mesh(family, 8, seed=0), degree)
    table = ops.cell_data
    for case in map(get_case, case_names()):
        projection = project_case(ops, case)
        pairs = (case.u, projection.velocity.v0, degree), (case.p, projection.pressure.cellwise, degree - 1)
        for field, coeffs, d in pairs:
            exact = field(table.points)
            approx = np.einsum("pr,p...r->p...", table.values[:, : coeffs.shape[-1]], coeffs[table.cell])
            missed = ops.cell_moments(exact - approx, d)
            assert np.abs(missed).max() <= 1e-12 * np.abs(ops.cell_moments(exact, d)).max()


def test_consistency_functionals_vanish_for_polynomial_data():
    """Fields inside the discrete spaces have zero projection gaps."""
    case = lambdified_case("inline-poly", "x**2 - 2*x*y", "y**2 - 2*x*y", "x + y - 1", 2)
    ops = ElementOps(generate_mesh("perturbed-polygon", 3, seed=5), 2)
    vecs = consistency_functionals(ops, case, project_case(ops, case))
    for name in ("gradient", "pressure", "stabilizer", "total"):
        assert np.abs(vecs[name]).max() <= 1e-12


def test_consistency_dual_norms_positive_for_smooth_case(ops_quad_k1):
    ops, case = ops_quad_k1, get_case("taylor-trig")
    norms = dual_norms(assemble(ops), consistency_functionals(ops, case, project_case(ops, case)))
    assert set(norms) == {"gradient", "pressure", "stabilizer", "total"}
    for value in norms.values():
        assert value > 0.0
    assert norms["total"] <= norms["gradient"] + norms["pressure"] + norms["stabilizer"] + 1e-12


@pytest.mark.parametrize("family, degree", [("uniform-quad", 1), ("perturbed-polygon", 2)])
def test_dual_norms_match_sparse_solve(family, degree):
    """The one SuperLU factor of A_ff gives sqrt(L' A_ff⁻¹ L) of a plain sparse solve."""
    case = get_case("taylor-trig")
    ops = ElementOps(generate_mesh(family, 8, seed=0), degree)
    system = assemble(ops)
    vectors = consistency_functionals(ops, case, project_case(ops, case))
    vectors["random"] = np.random.default_rng(4).standard_normal(system.num_velocity_dofs)
    free = system.free
    A_ff = system.A[free][:, free].tocsc()
    got = dual_norms(system, vectors)
    for name, vec in vectors.items():
        expected = np.sqrt(vec[free] @ spsolve(A_ff, vec[free]))
        assert got[name] == pytest.approx(expected, rel=1e-12)


def test_dual_norm_of_zero_vector(ops_quad_k1):
    system = assemble(ops_quad_k1)
    out = dual_norms(system, {"zero": np.zeros(system.num_velocity_dofs)})
    assert out["zero"] == 0.0


@pytest.mark.parametrize("family", ["uniform-quad", "perturbed-polygon"])
def test_error_equation_residual_small(family):
    case = get_case("taylor-trig")
    ops = ElementOps(generate_mesh(family, 4, seed=3), 1)
    system = assemble(ops, body_force=case.f, boundary_velocity=case.g)
    report = solve(system)
    momentum, mass = verify_error_equation(system, case, project_case(ops, case), report)
    assert momentum <= 1e-9
    assert mass <= 1e-9


def test_src_factors_in_solver_only():
    """`solver.py` is the one module of the package that names `splu`."""
    src = Path(analysis.__file__).parent
    texts = {path.name: path.read_text() for path in sorted(src.glob("*.py"))}
    assert [name for name, text in texts.items() if re.search(r"\bsplu\b", text)] == ["solver.py"]


# -- convergence record and CSV ------------------------------------------


def _toy_record(with_beta=True):
    record = ConvergenceRecord()
    bundles = []
    for level, n in enumerate((2, 4)):
        h = 1.0 / n

        class Bundle:
            triple_bar = h**1
            vel_l2_proj = h**2
            vel_l2_true = 2 * h**2
            pres_l2 = h**1
            pres_l2_true = 3 * h**1

            def as_dict(self):
                return {
                    "triple_bar": self.triple_bar,
                    "vel_l2_proj": self.vel_l2_proj,
                    "vel_l2_true": self.vel_l2_true,
                    "pres_l2": self.pres_l2,
                    "pres_l2_true": self.pres_l2_true,
                }

        bundle = Bundle()
        bundles.append(bundle)
        record.add(level, h, n * n, bundle, beta_h=0.8 if with_beta else None)
    return record


def test_record_columns_and_rates():
    record = _toy_record()
    assert record.hs == [0.5, 0.25]
    assert record.column("cells") == [4, 16]
    rates = record.rates()
    assert rates["triple_bar"] == "1.000"
    assert rates["vel_l2_proj"] == "2.000"


def test_csv_shape_and_footer(tmp_path):
    record = _toy_record()
    path = tmp_path / "out.csv"
    record.write_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 4  # header + 2 levels + rates footer
    assert lines[-1].startswith("rates,,,")
    first = lines[1].split(",")
    assert first[0] == "0"
    assert float(first[1]) == 0.5
    assert first[-1] == repr(0.8)


def test_csv_blank_beta(tmp_path):
    record = _toy_record(with_beta=False)
    path = tmp_path / "out.csv"
    record.write_csv(path)
    for line in path.read_text().splitlines()[1:3]:
        assert line.endswith(",")


def test_csv_deterministic(tmp_path):
    record = _toy_record()
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    record.write_csv(p1)
    record.write_csv(p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_format_table_mentions_rates():
    text = _toy_record().format_table()
    assert "triple_bar" in text
    assert "rate" in text.lower()
