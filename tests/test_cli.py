"""End-to-end CLI behavior through main().  Only the BLAS-thread check
spawns processes: a thread count is fixed once BLAS is loaded."""

import copy
import importlib
import importlib.util
import inspect
import os
import pathlib
import pkgutil
import subprocess
import sys

import pytest

from scipy.sparse.linalg import splu

import wgstokes
from wgstokes import assembly, cases, solver
from wgstokes.assembly import SaddleSystem, assemble
from wgstokes.cases import get_case
from wgstokes.cli import build_parser, main
from wgstokes.mesh import generate_mesh
from wgstokes.solver import factorize, solve
from wgstokes.spaces import DofMap, PressureFunction, WeakFunction
from wgstokes.study import StudyConfig, run_study
from wgstokes.weakops import ElementOps


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "wgstokes" in capsys.readouterr().out


def test_requires_subcommand():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_cases_listing(capsys):
    assert main(["cases"]) == 0
    out = capsys.readouterr().out
    for name in ("poly-exact-k1", "poly-exact-k2", "stream-quartic", "taylor-trig"):
        assert name in out


def test_verify_ok(capsys):
    assert main(["verify", "--case", "taylor-trig"]) == 0
    out = capsys.readouterr().out
    assert "ok" in out
    assert "divergence_free" in out
    assert "FAIL" not in out
    names = [line.split()[1] for line in out.splitlines()]
    assert names == [
        "divergence_free", "pressure_zero_mean", "force_consistent", "gradient_consistent"
    ]


def test_verify_failing_case(capsys, monkeypatch):
    """A case whose fields fail a check exits 2, names the check on stderr and
    prints no row."""
    broken = copy.copy(get_case("taylor-trig"))
    broken.p = lambda pts: 1.0 + pts[:, 0]  # a mean of 3/2, and no longer the force's pressure
    monkeypatch.setitem(cases._CASES, "taylor-trig", broken)
    assert main(["verify", "--case", "taylor-trig"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "pressure_zero_mean" in captured.err and "force_consistent" in captured.err


def test_verify_unknown_case(capsys):
    assert main(["verify", "--case", "nope"]) == 2
    assert "error:" in capsys.readouterr().err


def test_study_exact_case_exits_clean(tmp_path, capsys):
    out = tmp_path / "study.csv"
    code = main(
        [
            "study",
            "--case",
            "poly-exact-k1",
            "--degree",
            "1",
            "--family",
            "uniform-quad",
            "--n0",
            "2",
            "--levels",
            "2",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    text = capsys.readouterr().out
    assert "exact" in text
    assert f"wrote {out}" in text
    lines = out.read_text().splitlines()
    assert lines[0].startswith("level,h,cells,triple_bar")
    assert lines[-1].startswith("rates,")


def test_study_rate_miss_exits_one(capsys):
    code = main(
        [
            "study",
            "--case",
            "taylor-trig",
            "--degree",
            "1",
            "--family",
            "uniform-quad",
            "--levels",
            "2",
        ]
    )
    assert code == 1
    assert "FAIL" in capsys.readouterr().out


def test_study_unknown_case_exits_two(capsys):
    assert main(["study", "--case", "bogus"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "bogus" in err


def test_study_csv_deterministic(tmp_path):
    args = [
        "study",
        "--case",
        "poly-exact-k1",
        "--degree",
        "1",
        "--family",
        "perturbed-polygon",
        "--n0",
        "2",
        "--levels",
        "2",
        "--seed",
        "7",
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_study_csv_independent_of_blas_threads(tmp_path):
    """OpenBLAS splits a long dot product across its threads, which moves a
    sum's last bit; the CSV must not depend on the thread count."""
    out = {}
    for threads in ("1", "2"):
        out[threads] = tmp_path / f"threads{threads}.csv"
        argv = ["study", "--degree", "1", "--family", "uniform-quad", "--out", str(out[threads])]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path), OPENBLAS_NUM_THREADS=threads)
        run = subprocess.run(
            [sys.executable, "-m", "wgstokes", *argv], env=env, capture_output=True, timeout=120
        )
        assert run.returncode == 0, run.stderr
    assert out["1"].read_bytes() == out["2"].read_bytes()


def test_study_grid_naming(tmp_path, capsys):
    out = tmp_path / "grid.csv"
    main(
        [
            "study",
            "--case",
            "poly-exact-k2",
            "--n0",
            "2",
            "--levels",
            "2",
            "--out",
            str(out),
        ]
    )
    capsys.readouterr()
    produced = sorted(p.name for p in tmp_path.iterdir())
    assert produced == [
        "grid-k1-perturbed-polygon.csv",
        "grid-k1-uniform-quad.csv",
        "grid-k2-perturbed-polygon.csv",
        "grid-k2-uniform-quad.csv",
    ]


def test_study_degree_off_the_grid_runs_both_families(tmp_path, capsys):
    out = tmp_path / "k3.csv"
    argv = ["study", "--case", "poly-exact-k1", "--degree", "3", "--n0", "2", "--levels", "1"]
    assert main(argv + ["--out", str(out)]) == 0
    capsys.readouterr()
    produced = sorted(p.name for p in tmp_path.iterdir())
    assert produced == ["k3-k3-perturbed-polygon.csv", "k3-k3-uniform-quad.csv"]


def test_study_condensed_matches(tmp_path):
    """--condense is accepted and changes nothing: every study condenses."""
    base = [
        "study",
        "--case",
        "poly-exact-k1",
        "--degree",
        "1",
        "--family",
        "uniform-quad",
        "--n0",
        "2",
        "--levels",
        "2",
    ]
    a, b = tmp_path / "plain.csv", tmp_path / "cond.csv"
    assert main(base + ["--out", str(a)]) == 0
    assert main(base + ["--condense", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_study_out_into_missing_directory_exits_two(tmp_path, capsys):
    missing = tmp_path / "missing"
    argv = ["study", "--degree", "1", "--family", "uniform-quad", "--levels", "2"]
    assert main(argv + ["--out", str(missing / "x.csv")]) == 2
    captured = capsys.readouterr()
    assert f"error: output directory {missing} does not exist" in captured.err
    assert "level" not in captured.out
    # an existing directory as the CSV path: rejected before the first level
    assert main(argv + ["--out", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert f"error: output path {tmp_path} is a directory" in captured.err
    assert captured.out == ""


def test_infsup_table(capsys):
    code = main(["infsup", "--n0", "2", "--levels", "2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "beta_h" in out
    assert "min" in out and "max" in out


def test_infsup_factorizes_once_per_level(splu_calls):
    for degree in ("1", "2"):
        splu_calls.clear()
        assert main(["infsup", "--degree", degree, "--n0", "2", "--levels", "2"]) == 0
        assert len(splu_calls) == 2


def test_global_matrices_built_only_where_read(monkeypatch):
    """`infsup` factors the condensed cell matrices and never builds the
    global A or B.  A study level builds each once: its solve reads them for
    the right-hand side and the residuals, before the LU, so that their
    coordinate transients do not land on top of the factor.  `solver` calls
    its own `_scatter`, so the spy sees A and B alone."""
    events, scatter = [], assembly._scatter

    def spy_scatter(shape, *args):
        events.append(shape)
        return scatter(shape, *args)

    def spy_splu(*args, **kwargs):
        events.append("splu")
        return splu(*args, **kwargs)

    monkeypatch.setattr(assembly, "_scatter", spy_scatter)
    monkeypatch.setattr(solver, "splu", spy_splu)
    assert main(["infsup", "--degree", "2", "--n0", "2", "--levels", "2"]) == 0
    assert events == ["splu", "splu"]
    events.clear()
    run_study(StudyConfig(case="poly-exact-k1", degree=2, n0=2, levels=2))
    expected = []
    for n in (2, 4):
        dm = DofMap(generate_mesh("uniform-quad", n), 2)
        expected += [(dm.num_velocity_dofs,) * 2, (dm.num_pressure_dofs, dm.num_velocity_dofs), "splu"]
    assert events == expected
    # built once on one system, and kept across the factorization that drops the cell matrices
    events.clear()
    system = assemble(ElementOps(generate_mesh("uniform-quad", 2), 2))
    A, B = system.A, system.B
    factorize(system)
    assert system.A is A and system.B is B
    n_u, n_p = system.num_velocity_dofs, system.num_pressure_dofs
    assert events == [(n_u, n_u), (n_p, n_u), "splu"]


def test_infsup_up_to_n64(capsys):
    """n = 64 has 4,096 pressure DOFs; beta_h still comes from one sparse factor."""
    code = main(["infsup", "--family", "uniform-quad", "--degree", "1", "--n0", "16", "--levels", "3"])
    assert code == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:4]]
    assert [int(row[3]) for row in rows] == [256, 1024, 4096]
    betas = [float(row[4]) for row in rows]
    assert betas == pytest.approx([0.588786, 0.532961, 0.501688], abs=1e-6)


def test_infsup_two_pressure_dofs(capsys):
    code = main(["infsup", "--family", "uniform-triangle", "--n0", "1", "--levels", "1"])
    assert code == 0
    assert "1.000000" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        ["infsup", "--n0", "1", "--levels", "1"],
        ["study", "--n0", "1", "--degree", "1", "--family", "uniform-quad"],
    ],
)
def test_one_pressure_dof_is_a_configuration_error(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "error: the mesh has 1 pressure DOF" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["infsup", "--levels", "0"],
        ["infsup", "--levels", "-2"],
        ["study", "--degree", "1", "--family", "uniform-quad", "--levels", "0"],
        ["study", "--degree", "1", "--family", "uniform-quad", "--levels", "-2"],
        ["infsup", "--n0", "0"],
        ["infsup", "--n0", "-2"],
        ["study", "--degree", "1", "--family", "uniform-quad", "--n0", "0"],
        ["study", "--degree", "1", "--family", "uniform-quad", "--n0", "-2"],
        ["study", "--family", "perturbed-polygon", "--seed", "-1"],
        ["study", "--seed", "-1"],
        ["infsup", "--family", "perturbed-polygon", "--seed", "-1"],
        ["infsup", "--degree", "0"],
        ["study", "--family", "uniform-quad", "--degree", "0"],
    ],
)
def test_no_levels_is_a_configuration_error(argv, tmp_path, capsys):
    """A ladder without levels or starting below n=1, a negative seed and a
    degree below 1 all fail before any output."""
    out = tmp_path / "study.csv"
    assert main(argv + (["--out", str(out)] if argv[0] == "study" else [])) == 2
    flag, value = argv[-2].lstrip("-"), argv[-1]
    rule = {"seed": "a non-negative integer", "degree": "an integer >= 1"}.get(flag, ">= 1")
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert f"{flag} must be {rule}, got {value}" in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_parser_defaults():
    args = build_parser().parse_args(["study"])
    assert args.case == "taylor-trig"
    assert args.n0 == 4 and args.levels == 4
    assert args.degree is None and args.family is None
    # every option on purpose: one that comes back, or a new one, is added here too
    assert set(vars(args)) == {"case", "command", "condense", "degree", "family", "levels", "n0", "out", "seed"}
    args = build_parser().parse_args(["infsup"])
    assert args.n0 == 8 and args.levels == 3
    assert set(vars(args)) == {"command", "degree", "family", "levels", "n0", "seed"}


def test_benchmark_entry_points_resolve(ops_quad_k1, ops_quad_k2):
    """Every program name the benchmark under perfbench/ wraps or reads still exists."""
    path = pathlib.Path(__file__).parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    sites = [site for sites in tracing.SPANS.values() for site in sites] + tracing.RULE_BUILDERS
    for module, attr in sites:
        assert hasattr(importlib.import_module(module), attr), f"{module}.{attr}"
    # what perfbench/checks.py reads
    assert len(ops_quad_k1.cell_basis) == len(ops_quad_k1.cell_basis_low) == 16
    assert ops_quad_k1.mesh.cell_vertices(0).shape == (4, 2)
    assert ops_quad_k1.cell_basis[0].eval(ops_quad_k1.mesh.centroids[0]).shape == (1, 3)
    assert callable(SaddleSystem.pressure_mass)
    # it passes the case's data degree to assemble, which accepts and ignores it
    assert "data_degree" in inspect.signature(assemble).parameters
    case = get_case("poly-exact-k2")
    assert case.data_degree == 2
    assert all(callable(getattr(case, field)) for field in ("u", "p", "f", "g"))
    assert "condense" in inspect.signature(solve).parameters
    # its "full vs condensed" check compares two different solvers: SuperLU's
    # plain LU of the whole saddle matrix, which keeps no factor, and the
    # condensed one, which takes each velocity component's interior block off
    # (one step per component and side count) and leaves the pressures to Lanczos
    for ops in (ops_quad_k1, ops_quad_k2):
        system = assemble(ops)
        full = solve(system, condense=False)
        assert full.factor is None and full.lanczos_steps == 0
        assert len(factorize(system).steps) == 2
    assert callable(WeakFunction.interior) and callable(PressureFunction.cell)


def test_public_names_are_pinned():
    """`wgstokes` exports these names and ships these modules, no more: a
    removed name that comes back, or a new export, fails here until it is
    added on purpose."""
    exports = sorted(
        name for name, value in vars(wgstokes).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    )
    assert exports == [
        "CompatibilityError", "ConfigurationError", "ConvergenceRecord", "DofMap", "ElementOps",
        "ErrorBundle", "FAMILIES", "ManufacturedCase", "MeshValidationError", "PolygonalMesh",
        "PressureFunction", "SaddleSystem", "SolveReport", "SolverError", "StudyConfig",
        "StudyResult", "WGError", "WeakFunction", "assemble", "case_names", "default_grid",
        "discrete_inf_sup", "error_bundle", "fit_rate", "generate_mesh", "get_case", "list_cases",
        "project_case", "run_study", "shape_regularity", "solve", "verify_case",
    ]  # fmt: skip
    assert sorted(module.name for module in pkgutil.iter_modules(wgstokes.__path__)) == [
        "__main__", "analysis", "assembly", "basis", "case_fields", "cases", "cli", "errors",
        "mesh", "quadrature", "solver", "spaces", "study", "weakops",
    ]  # fmt: skip
