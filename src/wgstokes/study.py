"""Convergence studies: the refinement loop behind the command line.

A study solves one manufactured case on a sequence of meshes halving in
size, measures the error bundle per level, fits convergence rates, and
compares them against the orders the method guarantees.  Every level
also reports the discrete inf-sup constant, computed from the same
factorization as the level's solve.
"""

import dataclasses

from .analysis import ConvergenceRecord, discrete_inf_sup, error_bundle, fit_rate, project_case
from .assembly import assemble
from .cases import get_case
from .mesh import generate_mesh, refinement_ladder
from .solver import solve
from .weakops import ElementOps

# Fitted rates may fall short of the guaranteed order by this much before
# a study is declared failed (absorbs preasymptotic wobble on 4 levels).
RATE_MARGIN = 0.1

# Columns gated on pass/fail, with the guaranteed order as a function of
# the velocity degree k.
GATED_RATES = {
    "triple_bar": lambda k: k,
    "vel_l2_proj": lambda k: k + 1,
    "pres_l2": lambda k: k,
}


@dataclasses.dataclass
class StudyConfig:
    """One convergence run: a case, a mesh family, and a refinement ladder."""

    case: str = "taylor-trig"
    family: str = "uniform-quad"
    degree: int = 1
    n0: int = 4
    levels: int = 4
    seed: int = 0


@dataclasses.dataclass
class StudyResult:
    """Record plus the pass/fail verdict against the guaranteed rates."""

    config: StudyConfig
    record: ConvergenceRecord
    rates: dict
    expected: dict
    passed: bool
    failures: list

    def summary_lines(self):
        lines = [
            f"case={self.config.case} family={self.config.family} "
            f"degree={self.config.degree} levels={self.config.levels} n0={self.config.n0}"
        ]
        lines.append(self.record.format_table())
        for name, target in self.expected.items():
            got = self.rates[name]
            shown = got if got else "n/a"
            lines.append(f"  {name}: rate {shown} (needs >= {target - RATE_MARGIN:.1f} or exact)")
        lines.append("PASS" if self.passed else "FAIL: " + ", ".join(self.failures))
        return lines


def run_study(config):
    """Run one convergence study and gate its fitted rates."""
    case = get_case(config.case)
    record = ConvergenceRecord()
    for level, n in enumerate(refinement_ladder(config.n0, config.levels)):
        record.add(level, *_run_level(config, case, n))
    return _gate(config, record)


def _run_level(config, case, n):
    """Solve and measure one level: (h, cells, errors, beta_h).  Its mesh,
    operators and system go on return, before the next level builds its own."""
    mesh = generate_mesh(config.family, n, seed=config.seed)
    ops = ElementOps(mesh, config.degree)
    system = assemble(ops, body_force=case.f, boundary_velocity=case.g)
    projection = project_case(ops, case)
    # nothing reads the cell data table again: held across the solve, it would sit under the factor
    del ops.cell_data
    report = solve(system)
    beta = discrete_inf_sup(system, report.factor)
    errors = error_bundle(system, projection, report.velocity, report.pressure)
    return mesh.mesh_size, mesh.num_cells, errors, beta


def _gate(config, record):
    rates = record.rates()
    expected = {name: order(config.degree) for name, order in GATED_RATES.items()}
    failures = []
    for name, target in expected.items():
        label = rates[name]
        if label == "exact":
            continue
        fitted = fit_rate(record.hs, record.column(name))
        if fitted is None or fitted < target - RATE_MARGIN:
            shown = "n/a" if fitted is None else f"{fitted:.3f}"
            failures.append(f"{name} rate {shown} below {target - RATE_MARGIN:.1f}")
    return StudyResult(
        config=config,
        record=record,
        rates=rates,
        expected=expected,
        passed=not failures,
        failures=failures,
    )


def default_grid(case="taylor-trig", n0=4, levels=4, seed=0):
    """The standard verification grid: degrees 1-2 on two mesh families, degree-major."""
    return [
        StudyConfig(case=case, family=family, degree=degree, n0=n0, levels=levels, seed=seed)
        for degree in (1, 2)
        for family in ("uniform-quad", "perturbed-polygon")
    ]
