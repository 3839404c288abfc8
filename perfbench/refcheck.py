"""Compare a run's CSV outputs with stored reference values.

The comparison is numeric, at the task's own tolerance, so that a correct
change to the arithmetic is not counted as a failure:

- correlators, contour and residue_identity carry a `tolerance` in their
  config; a cell passes when |x - ref| <= tol * (1 + |ref|), the same form
  the tasks use for their own checks.
- lr_scan, locality_scan and theorem_check have none.  Their cells pass
  when |x - ref| <= 1e-8 |ref| + floor, with the round-off floor
  eps * D * ||A|| ||B|| (Pauli observables, so the norms are 1).  A cell
  whose value and reference both lie below the floor is noise and is left
  out of the comparison; such lr_scan rows are counted as floor rows.

Byte-identity between two runs of the same code is checked separately, by
the caller, on the raw CSV bytes.
"""
from __future__ import annotations

import csv
import io
import math
from typing import Dict, List, Tuple

EPS = 2.0 ** -52
RTOL_NO_TOLERANCE = 1e-8
MAX_STORED_ROWS = 24

# Columns left out of the comparison, with the reason.
SKIPPED = {
    # bound = c_empirical * envelope, and c_empirical is set by the
    # round-off noise of the earliest rows; it is reported, not compared.
    ("lr_scan.csv", "bound"),
    # the refinement's own choice of node count; the value columns carry
    # the result it converged to.
    ("residue_identity.csv", "nodes"),
}

FLOOR_TASKS = ("lr_scan", "locality_scan", "theorem_check")


def tolerance(task: str, config: dict) -> Tuple[float, float]:
    """(rtol, atol) for a task's cells; atol is the round-off floor where
    the task has no tolerance of its own."""
    if task in FLOOR_TASKS:
        return RTOL_NO_TOLERANCE, round_off_floor(config)
    tol = float(config["tolerance"])
    return tol, tol


def round_off_floor(config: dict) -> float:
    return EPS * 2 ** int(config["model"]["n"])


def parse_csv(text: str) -> Tuple[List[str], List[List[float]]]:
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    return header, [[float(cell) for cell in row] for row in reader]


def stored_rows(count: int) -> List[int]:
    """Evenly spaced row indices, first and last included."""
    if count <= MAX_STORED_ROWS:
        return list(range(count))
    step = (count - 1) / (MAX_STORED_ROWS - 1)
    return sorted({round(i * step) for i in range(MAX_STORED_ROWS)})


def make_reference(files: Dict[str, str]) -> dict:
    """Reference entry for one config's CSV files (name -> text)."""
    out = {}
    for name, text in sorted(files.items()):
        header, rows = parse_csv(text)
        out[name] = {"header": header, "n_rows": len(rows),
                     "rows": [[i] + [float(f"{v:.12g}") for v in rows[i]]
                              for i in stored_rows(len(rows))]}
    return out


def _close(x: float, ref: float, rtol: float, atol: float) -> bool:
    if not (math.isfinite(x) and math.isfinite(ref)):
        return x == ref or (math.isnan(x) and math.isnan(ref))
    return abs(x - ref) <= rtol * abs(ref) + atol


def compare(task: str, config: dict, files: Dict[str, str],
            reference: dict) -> Tuple[List[str], int]:
    """Check CSV texts against a reference entry.

    Returns (problems, floor_rows): one message per mismatch, and the
    number of lr_scan rows whose commutator norm lies below the floor.
    """
    rtol, atol = tolerance(task, config)
    floored = task in FLOOR_TASKS
    problems: List[str] = []
    floor_rows = 0
    for name, ref in reference.items():
        if name not in files:
            problems.append(f"{name}: missing")
            continue
        header, rows = parse_csv(files[name])
        if header != ref["header"]:
            problems.append(f"{name}: header {header} != {ref['header']}")
            continue
        if len(rows) != ref["n_rows"]:
            problems.append(f"{name}: {len(rows)} rows, expected {ref['n_rows']}")
            continue
        if name == "lr_scan.csv":
            col = header.index("commutator_norm")
            floor_rows = sum(abs(row[col]) < atol for row in rows)
        for stored in ref["rows"]:
            i, want = stored[0], stored[1:]
            for col, x, r in zip(header, rows[i], want):
                if (name, col) in SKIPPED:
                    continue
                if floored and abs(x) < atol and abs(r) < atol:
                    continue
                if not _close(x, r, rtol, atol):
                    problems.append(f"{name} row {i} {col}: {x!r} vs "
                                    f"reference {r!r}")
    return problems, floor_rows
