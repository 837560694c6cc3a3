"""The fast demos run to completion and print what their docstrings promise.

Only the inf-sup scan is left out: it takes about 4 s and repeats a CLI
path that tests/test_cli.py already covers.  The level profile runs on a
small mesh.
"""

import re
import runpy
import sys
from pathlib import Path

import numpy as np

from wgstokes import analysis, solver

DEMOS = Path(__file__).resolve().parents[1] / "demos"


def _run(name, capsys):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    return capsys.readouterr().out


def test_convergence_study_demo(capsys):
    out = _run("convergence_study.py", capsys)
    families = re.findall(r"^case=taylor-trig family=(\S+) ", out, re.MULTILINE)
    assert families == ["uniform-quad", "perturbed-polygon"]
    assert re.findall(r"^(PASS|FAIL.*)$", out, re.MULTILINE) == ["PASS", "PASS"]


def test_static_condensation_demo(capsys):
    out = _run("static_condensation.py", capsys)
    gaps = [float(g) for g in re.findall(r"max DOF gap (\S+)", out)]
    assert len(gaps) == 4
    assert max(gaps) <= 1e-9


def test_weak_operator_identities_demo(capsys):
    out = _run("weak_operator_identities.py", capsys)
    gaps = [float(g) for g in re.findall(r"(?:gradient|divergence|fields) (\S+)", out)]
    assert len(gaps) == 6
    assert max(gaps) <= 1e-11


def test_level_profile_demo(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["level_profile.py", "perturbed-polygon", "2", "8"])
    # the demo wraps these in place; set to themselves, they are restored after the test
    monkeypatch.setattr(solver, "splu", solver.splu)
    monkeypatch.setattr(analysis, "lanczos", analysis.lanczos)
    monkeypatch.setattr(solver.CondensedFactor, "_two", solver.CondensedFactor._two)
    out = _run("level_profile.py", capsys)
    rows = re.findall(r"^(\S+) +(\S+) s +(\S+) s +(\S+) MB +(\S+) MB$", out, re.MULTILINE)
    stages = ["mesh", "ElementOps", "assemble", "project_case", "gstrf", "solve", "beta_h"]
    assert [row[0] for row in rows] == stages + ["error_bundle"]
    times, collecting, resident, peak = (
        np.array([row[i] for row in rows], dtype=float) for i in (1, 2, 3, 4)
    )
    assert (times >= 0).all()
    assert times[4] <= times[5] + 0.01  # the LU is part of the solve; printed to 2 decimals
    assert ((collecting >= 0) & (collecting <= times + 0.01)).all()  # printed to 3 and 2 decimals
    assert np.all(np.diff(peak) >= 0)  # a high-water mark
    assert not np.any(resident > peak)  # NaN where the resident set cannot be read
    assert 0 < float(re.search(r"beta_h (\S+)", out).group(1)) < 1
    line = r"^Lanczos steps: solve (\d+) \(S\^-1 (\S+) ms\), beta_h (\d+) \(S\^-1 (\S+) ms\)$"
    steps = re.search(line, out, re.MULTILINE).groups()
    assert all(int(count) > 0 for count in steps[::2])
    inverse = np.array(steps[1::2], dtype=float) / 1e3
    assert (inverse > 0).all()
    assert (inverse <= times[5:7] + 0.005).all()  # within the solve and beta_h rows, printed to 2 decimals
    kept = float(re.search(r"^ElementOps keeps (\S+) MB$", out, re.MULTILINE).group(1))
    assert 0 < kept < peak[1]  # printed right after the ElementOps row
    # 6,419 points over 64 cells: one 49-point piece per pair of fan triangles
    rule = re.search(r"^cell data rule ([\d,]+) points, (\S+) per cell$", out, re.MULTILINE)
    assert rule.groups() == ("6,419", "100.3")


def test_mesh_families_demo(capsys):
    out = _run("mesh_families.py", capsys)
    rows = re.findall(r"^  n=\d+ .* max diameter/star radius (\S+)$", out, re.MULTILINE)
    assert len(rows) == 12  # four families at three sizes
    # every family is shape regular: 2.83 on squares, 4.83 on triangles
    assert max(map(float, rows)) <= 5
