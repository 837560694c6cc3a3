"""Parsers for what the CLI writes: the study CSV and the infsup table.

Standard library only, so run.py, the parent of every worker, stays small.
"""

import csv
import io
import math

ERROR_COLUMNS = ("triple_bar", "vel_l2_proj", "vel_l2_true", "pres_l2", "pres_l2_true")


def parse_study_csv(text):
    """Per-level rows of a study CSV (the trailing rates row is dropped).

    Each row maps ``level``, ``cells`` to ints, ``h`` and the error columns
    to floats, and ``beta_h`` to a float or None when the CSV leaves it blank.
    """
    reader = csv.DictReader(io.StringIO(text))
    expected = ("level", "h", "cells") + ERROR_COLUMNS + ("beta_h",)
    if tuple(reader.fieldnames or ()) != expected:
        raise ValueError(f"unexpected CSV header {reader.fieldnames}")
    rows = []
    for raw in reader:
        if raw["level"] == "rates":
            continue
        row = {"level": int(raw["level"]), "h": float(raw["h"]), "cells": int(raw["cells"])}
        for name in ERROR_COLUMNS:
            row[name] = float(raw[name])
        row["beta_h"] = float(raw["beta_h"]) if raw["beta_h"] else None
        rows.append(row)
    return rows


def parse_infsup_stdout(text):
    """Rows of ``wgstokes infsup`` output: level, h, cells, p_dofs, beta_h.

    ``beta_h`` is None where the table shows "(over cap)".
    """
    rows = []
    for line in text.splitlines():
        fields = line.split()
        if not fields or not fields[0].isdigit():
            continue
        if len(fields) == 6 and fields[4:] == ["(over", "cap)"]:
            beta = None
        elif len(fields) == 5:
            beta = float(fields[4])
        else:
            raise ValueError(f"unexpected infsup line {line!r}")
        rows.append(
            {
                "level": int(fields[0]),
                "h": float(fields[1]),
                "cells": int(fields[2]),
                "p_dofs": int(fields[3]),
                "beta_h": beta,
            }
        )
    return rows


def count_operations(workload, rows):
    """(attempted, failed) for one round of ``workload`` from its parsed rows.

    A study level counts once for its solve (it must be present with finite
    positive errors) and once for its beta_h; an infsup level once for its
    beta_h.  A level missing from the output fails all its operations.
    """
    by_level = {row["level"]: row for row in rows}
    failed = 0
    for level in range(workload.levels):
        row = by_level.get(level)
        if workload.command == "study":
            solved = row is not None and all(
                math.isfinite(row[name]) and row[name] > 0 for name in ERROR_COLUMNS
            )
            failed += not solved
        failed += row is None or row["beta_h"] is None
    return workload.operations_per_round(), failed
