"""The fast demos run to completion and print what their docstrings promise.

The convergence, inf-sup and mesh-family demos take several seconds
each and repeat CLI paths that tests/test_cli.py already covers.
"""

import re
import runpy
from pathlib import Path

DEMOS = Path(__file__).resolve().parents[1] / "demos"


def _run(name, capsys):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    return capsys.readouterr().out


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
