"""Tests of the benchmark itself, at tiny sizes.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py
"""

import io
import json
import pathlib
import sys
import time

import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from outputs import count_operations, parse_infsup_stdout, parse_study_csv  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from wgstokes import ElementOps, assemble, discrete_inf_sup, generate_mesh  # noqa: E402
from wgstokes.analysis import ConvergenceRecord, ErrorBundle  # noqa: E402

STUDY_CSV = """level,h,cells,triple_bar,vel_l2_proj,vel_l2_true,pres_l2,pres_l2_true,beta_h
0,0.19142690058889467,64,0.11985824117974372,0.005413087176412527,0.00545292928997772,0.006894508126730233,0.010106210265471406,0.5171980784588879
1,0.10232152873962726,256,0.030186441444226286,0.0006677206017537796,0.0006728048083211396,0.0014742880488731798,0.002383229780498191,0.49316727505549135
2,0.05075011840644965,1024,0.007551564010203368,8.318444665736242e-05,8.380839105663087e-05,0.0003311969927289406,0.0005715381100506056,
rates,,,2.080,3.142,3.142,2.284,2.161,
"""

INFSUP_STDOUT = """level          h   cells  p-dofs     beta_h
    0 3.5625e-01      20      60   0.539964
    1 1.8211e-01      72     216   0.508634
    2 9.1053e-02     288     864 (over cap)
min 0.508634  max 0.539964  min/max 0.9420
"""


@pytest.mark.parametrize("degree", [1, 2])
def test_dense_inf_sup_matches_discrete_inf_sup(degree):
    system = assemble(ElementOps(generate_mesh("uniform-quad", 4), degree))
    beta, kernel = checks.dense_inf_sup(system)
    assert beta == pytest.approx(discrete_inf_sup(system), rel=1e-10)
    assert kernel < 1e-12


def test_parse_study_csv_reads_levels_and_blank_beta():
    rows = parse_study_csv(STUDY_CSV)
    assert [row["level"] for row in rows] == [0, 1, 2]
    assert rows[2]["cells"] == 1024
    assert rows[1]["pres_l2"] == 0.0014742880488731798
    assert rows[2]["beta_h"] is None
    assert count_operations(WORKLOADS["saddle-polygon-k2"], rows) == (6, 1)


def test_parse_study_csv_round_trips_the_program_writer(tmp_path):
    record = ConvergenceRecord()
    beta = 1 / 3 + 2**-50
    for level, h in enumerate((0.5, 0.25)):
        errors = ErrorBundle(*(h ** (j + 1) / 3 for j in range(5)))
        record.add(level, h, 4 ** (level + 1), errors, None if level else beta)
    record.write_csv(tmp_path / "out.csv")
    rows = parse_study_csv((tmp_path / "out.csv").read_text())
    assert [row["h"] for row in rows] == record.hs
    assert [row["triple_bar"] for row in rows] == record.column("triple_bar")
    assert [row["beta_h"] for row in rows] == [beta, None]


def test_parse_study_csv_rejects_other_headers():
    with pytest.raises(ValueError):
        parse_study_csv("level,h\n0,1\n")


def test_parse_infsup_stdout_reads_table():
    rows = parse_infsup_stdout(INFSUP_STDOUT)
    assert [row["p_dofs"] for row in rows] == [60, 216, 864]
    assert rows[0]["beta_h"] == 0.539964
    assert rows[2]["beta_h"] is None
    assert count_operations(WORKLOADS["infsup-hex-k2"], rows) == (3, 1)


def test_count_operations_fails_missing_levels():
    rows = parse_study_csv(STUDY_CSV)[:1]
    assert count_operations(WORKLOADS["saddle-polygon-k2"], rows) == (6, 4)


def test_slope_recovers_a_power_law():
    hs = [0.5, 0.25, 0.125]
    assert checks.slope(hs, [3 * h**2.5 for h in hs]) == pytest.approx(2.5, abs=1e-12)


def test_printed_metrics_are_named_in_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert set(run.END_TO_END) == set(end_to_end)
    layers = set(tracing.Tracer().layer_metrics(0.0, 1.0)) | {"trace.overhead_s"}
    assert layers == set(per_layer)
    for name, unit in {**end_to_end, **per_layer}.items():
        assert run.unit_of(name) == unit
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)


def test_traced_layers_account_for_the_run():
    import contextlib

    import wgstokes.cli

    sites = [site for sites in tracing.SPANS.values() for site in sites] + tracing.RULE_BUILDERS
    saved = [(sys.modules[m], a, getattr(sys.modules[m], a)) for m, a in sites]
    tracer = tracing.Tracer()
    try:
        tracer.install(sys.modules)
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = wgstokes.cli.main(
                ["study", "--degree", "1", "--family", "uniform-quad", "--n0", "2", "--levels", "2"]
            )
        end = time.perf_counter()
    finally:
        for module, attr, original in saved:
            setattr(module, attr, original)
    assert code in (0, 1)  # two coarse levels need not meet the rates
    layers = tracer.layer_metrics(start, end)
    timed = [v for k, v in layers.items() if k.endswith("_s") and k != "cases.get_case_s"]
    assert sum(timed) == pytest.approx(end - start, rel=1e-9)
    assert layers["other_s"] >= 0
    assert layers["quadrature.points"] > 0 and layers["assembly.nnz"] > 0
    assert {span["level"] for span in tracer.spans} == {-1, 0, 1}
    assert all(span["parent"] is None for span in tracer.spans)
