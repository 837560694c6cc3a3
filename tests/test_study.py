"""Study driver: gating logic, grid construction, and record plumbing."""

import numpy as np
import pytest

from wgstokes import study, weakops
from wgstokes.analysis import error_bundle
from wgstokes.solver import solve
from wgstokes.study import GATED_RATES, RATE_MARGIN, StudyConfig, default_grid, run_study
from wgstokes.weakops import CellTable, EdgeTable


def test_exact_case_passes_gate():
    config = StudyConfig(case="poly-exact-k1", degree=1, levels=2, n0=2)
    result = run_study(config)
    assert result.passed
    assert result.failures == []
    assert result.rates["triple_bar"] == "exact"
    assert len(result.record.rows) == 2
    lines = result.summary_lines()
    assert any("PASS" in line for line in lines)
    assert any("case=poly-exact-k1" in line for line in lines)


def test_short_smooth_study_fails_gate():
    """Two coarse levels of the smooth case miss the pressure-rate target."""
    config = StudyConfig(case="taylor-trig", degree=1, levels=2, n0=4)
    result = run_study(config)
    assert not result.passed
    assert result.failures
    assert any("pres_l2" in msg for msg in result.failures)
    assert any("FAIL" in line for line in result.summary_lines())


def test_gated_rate_targets_scale_with_degree():
    assert GATED_RATES["triple_bar"](1) == 1
    assert GATED_RATES["vel_l2_proj"](2) == 3
    assert GATED_RATES["pres_l2"](2) == 2
    assert RATE_MARGIN == 0.1


def test_beta_recorded_by_default():
    config = StudyConfig(case="poly-exact-k1", degree=1, levels=1, n0=2)
    result = run_study(config)
    assert 0.5 < result.record.rows[0]["beta_h"] < 1.5


def test_one_factorization_per_level(splu_calls):
    """The solve's factor also serves the level's inf-sup constant, at k=2
    too, where two cell-local eliminations precede the one LU."""
    for degree in (1, 2):
        splu_calls.clear()
        config = StudyConfig(case="poly-exact-k1", degree=degree, levels=2, n0=2)
        result = run_study(config)
        assert len(splu_calls) == 2
        assert all(row["beta_h"] > 0 for row in result.record.rows)


def test_rule_tables_built_once_per_level(monkeypatch):
    """Each level builds one edge table, which serves the scheme and the
    data, and one cell rule, for the data only, whether the case's data are
    polynomial or not.  The cell rule serves assemble and the projection
    pass before the solve, and error_bundle after it reads no rule: 1 cell
    rule and 1 edge rule."""
    calls = {"polygon_rule": 0, "edge_rule": 0}
    for name in calls:
        builder = getattr(weakops, name)

        def counted(*args, name=name, builder=builder, **kwargs):
            calls[name] += 1
            return builder(*args, **kwargs)

        monkeypatch.setattr(weakops, name, counted)
    for case in ("taylor-trig", "poly-exact-k1"):
        calls.update(polygon_rule=0, edge_rule=0)
        run_study(StudyConfig(case=case, n0=2, levels=2))
        assert calls == {"polygon_rule": 2, "edge_rule": 2}, case


@pytest.mark.parametrize("family", ["hexagonal", "uniform-triangle"])
def test_degree_three_rate_gates_pass(family):
    """k=3 meets every gated rate on the hexagon and triangle families too
    (n = 2..16; the smallest headroom is uniform-triangle triple_bar's)."""
    result = run_study(StudyConfig(degree=3, family=family, n0=2, levels=4))
    assert result.passed, result.failures


def test_no_data_table_held_across_the_solve(monkeypatch):
    """The cell data table, the largest array of a level and the only cell
    rule, is gone before the solve, so no cell table sits under the factor;
    the edge data table is the only one left."""
    seen = []

    def spy(system, *args, **kwargs):
        kept = vars(system.ops).items()
        seen.append({name for name, v in kept if isinstance(v, (CellTable, EdgeTable))})
        return solve(system, *args, **kwargs)

    monkeypatch.setattr(study, "solve", spy)
    run_study(StudyConfig(case="taylor-trig", degree=2, levels=2, n0=2))
    assert len(seen) == 2 and all(tables <= {"edge_data"} for tables in seen), seen


def test_cell_bases_not_built_by_a_level(monkeypatch):
    """Nothing on a level's path reads the per-cell CellBasis lists, so
    they are built on first use only."""
    seen = []

    def spy(ops, *args, **kwargs):
        errors = error_bundle(ops, *args, **kwargs)
        seen.append({"cell_basis", "cell_basis_low"} & set(vars(ops)))
        return errors

    monkeypatch.setattr(study, "error_bundle", spy)
    run_study(StudyConfig(case="taylor-trig", degree=2, levels=2, n0=2))
    assert seen == [set(), set()]


def test_default_grid_covers_both_axes():
    configs = default_grid(levels=3, n0=2, seed=5)
    assert len(configs) == 4
    combos = {(c.degree, c.family) for c in configs}
    assert combos == {
        (1, "uniform-quad"),
        (1, "perturbed-polygon"),
        (2, "uniform-quad"),
        (2, "perturbed-polygon"),
    }
    assert all(c.levels == 3 and c.n0 == 2 and c.seed == 5 for c in configs)


def test_perturbed_family_seed_changes_mesh():
    a = run_study(StudyConfig(case="poly-exact-k1", family="perturbed-polygon", levels=1, n0=2, seed=0))
    b = run_study(StudyConfig(case="poly-exact-k1", family="perturbed-polygon", levels=1, n0=2, seed=1))
    assert not np.isclose(a.record.rows[0]["h"], b.record.rows[0]["h"], atol=1e-12)
