"""Command-line driver for YAML-configured experiment runs.

    correlab run config.yaml [--outdir DIR] [--workers 1]
    correlab validate config.yaml

Every run is keyed by a hash of its validated configuration and lands in
<outdir>/<hash>/ as record.json, one or two CSV files, and a gnuplot
script.  Numeric CSV cells are written with repr(), so two runs of the
same configuration produce byte-identical CSV payloads.  The process exit
code is 0 exactly when the task's own invariants held.  Every run is
serial, in one thread: --workers takes only 1, and is kept for the command
lines that pass it.

The output directory defaults to $CORRELAB_OUTDIR, then ./correlab_runs.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys
import time
import warnings
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np
import yaml

from . import __version__
from .lattice import Interaction, Lattice, _finite_positive, build_model, \
    chain_lattice, grid_lattice
from .operators import PAULI, LocalOperator, _check_measured, single_site
from .spectral import DIM_CAP, eig_hermitian
from .thermal import _UnconvergedQuadrature, canonical_correlator, \
    gibbs_state, kms_function, ordinary_correlator
from .dynamics import _locality_envelopes, _lr_envelopes, locality_scan, \
    lr_commutator_scan
from .verify import _check_contour, _check_heights, _partners, \
    contour_decomposition, contour_grid, residue_identity, theorem_check

_DEFAULT_OUTDIR = "correlab_runs"

# A validator's result: (canonical config, run inputs).  The inputs are the
# canonical config with each section replaced by what it built: "model" by
# the Interaction, "a"/"b" by LocalOperators, "times" by the expanded list
# and "base_site" by the lattice label (None when not given).
_Validated = Tuple[dict, dict]
# A runner's result: (passed, summary, {csv name: rows}), each row a
# {column: value} mapping whose keys give the CSV header.  The scans and
# theorem_check pass on the library's verdict (result.passed); the
# tolerance gates of correlators, contour and residue_identity are here.
_Tables = Dict[str, List[dict]]
_Outcome = Tuple[bool, dict, _Tables]


class ConfigError(Exception):
    """Anything wrong with a configuration file."""


# ---------------------------------------------------------------------------
# YAML loading
# ---------------------------------------------------------------------------

class _StrictLoader(yaml.SafeLoader):
    """SafeLoader that refuses duplicate mapping keys, with line numbers."""

    def construct_mapping(self, node, deep=False):
        seen: Dict[object, int] = {}
        for key_node, _ in node.value:
            key = self.construct_object(key_node, deep=True)
            line = key_node.start_mark.line + 1
            try:
                first = seen.get(key)
            except TypeError:
                raise ConfigError(
                    f"unhashable mapping key at line {line}") from None
            if first is not None:
                raise ConfigError(
                    f"duplicate key {key!r} at line {line} "
                    f"(first defined at line {first})")
            seen[key] = line
        return super().construct_mapping(node, deep)


def _load_yaml(path: str) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None
    try:
        data = yaml.load(text, Loader=_StrictLoader)
    except ConfigError:
        raise
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}" if mark is not None else ""
        raise ConfigError(f"invalid YAML{where}: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError("top level of the config must be a mapping")
    return data


# ---------------------------------------------------------------------------
# Schema helpers
# ---------------------------------------------------------------------------

def _check_keys(mapping: dict, required: set, optional: set, where: str):
    if not isinstance(mapping, dict):
        raise ConfigError(f"{where} must be a mapping")
    keys = set(mapping)
    missing = required - keys
    if missing:
        raise ConfigError(f"{where}: missing required key(s) "
                          f"{sorted(map(str, missing))}")
    unknown = keys - required - optional
    if unknown:
        raise ConfigError(f"{where}: unknown key(s) {sorted(map(str, unknown))}; "
                          f"accepted keys are {sorted(map(str, required | optional))}")


def _num(x, where: str) -> float:
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise ConfigError(f"{where} must be a number, got {x!r}")
    if not math.isfinite(x):
        raise ConfigError(f"{where} must be finite, got {x!r}")
    return float(x)


def _checked(check, *args) -> None:
    """Run a library check on config values; its ValueError refuses the
    config, with the library's reason."""
    try:
        check(*args)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _positive(x, where: str) -> float:
    """x, a number the library's one rule finds finite and positive."""
    v = _num(x, where)
    _checked(_finite_positive, where, v)
    return v


def _optional_num(data: dict, key: str, out: dict) -> dict:
    """Copy data[key] into out, checked a number, when it is given."""
    if key in data:
        out[key] = _num(data[key], key)
    return out


def _intval(x, where: str) -> int:
    if isinstance(x, bool) or not isinstance(x, int):
        raise ConfigError(f"{where} must be an integer, got {x!r}")
    return int(x)


def _num_list(x, where: str) -> List[float]:
    if isinstance(x, (int, float)) and not isinstance(x, bool):
        return [_num(x, where)]
    if not isinstance(x, list) or not x:
        raise ConfigError(f"{where} must be a number or a nonempty list")
    return [_num(v, f"{where}[{i}]") for i, v in enumerate(x)]


def _time_grid(raw, where: str) -> Tuple[object, List[float]]:
    """A list of times, or {start, stop, step} for an inclusive grid."""
    if isinstance(raw, list):
        vals = [_num(v, f"{where}[{i}]") for i, v in enumerate(raw)]
        if not vals:
            raise ConfigError(f"{where} must not be empty")
        return vals, vals
    _check_keys(raw, {"start", "stop", "step"}, set(), where)
    start = _num(raw["start"], f"{where}.start")
    stop = _num(raw["stop"], f"{where}.stop")
    step = _positive(raw["step"], f"{where}.step")
    if stop < start:
        raise ConfigError(f"{where}.stop must not be below start")
    count = int(round((stop - start) / step))
    if abs(start + count * step - stop) > 1e-9 * max(1.0, abs(stop)):
        raise ConfigError(f"{where}: step does not evenly divide the interval")
    canon = {"start": start, "stop": stop, "step": step}
    return canon, [start + i * step for i in range(count + 1)]


def _site(x, where: str, lat: Lattice):
    """(canonical value, lattice label) of a site on the lattice."""
    if isinstance(x, int) and not isinstance(x, bool):
        canon, site = x, x
    elif isinstance(x, list) and len(x) == 2:
        canon = [_intval(x[0], f"{where}[0]"), _intval(x[1], f"{where}[1]")]
        site = tuple(canon)
    else:
        raise ConfigError(f"{where} must be an integer or a [row, col] pair")
    try:
        lat.index(site)
    except KeyError:
        raise ConfigError(f"{where} {site!r} is not on the lattice") from None
    return canon, site


def _pauli(x, where: str) -> str:
    """x, a Pauli letter.  lr_scan, locality_scan and theorem_check refuse
    I through the library (operators._check_measured); correlators and
    contour accept it, whose connected values are then exactly zero."""
    if not isinstance(x, str) or x not in PAULI:
        raise ConfigError(f"{where} must be one of {sorted(PAULI)}")
    return x


def _operator_section(raw, where: str,
                      lat: Lattice) -> Tuple[dict, LocalOperator]:
    _check_keys(raw, {"site", "op"}, set(), where)
    canon_site, site = _site(raw["site"], f"{where}.site", lat)
    name = _pauli(raw["op"], f"{where}.op")
    return {"site": canon_site, "op": name}, single_site(site, name)


def _model_section(raw, where: str = "model") -> Tuple[dict, Interaction]:
    """Build (canonical dict, interaction) from a model mapping."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{where} must be a mapping")
    keys = set(raw)
    if "name" not in keys:
        raise ConfigError(f"{where}: missing required key 'name'")
    name = raw["name"]
    if not isinstance(name, str):
        raise ConfigError(f"{where}.name must be a string")

    canon: dict = {"name": name}
    if "nx" in keys or "ny" in keys:
        if "n" in keys or "spacing" in keys:
            raise ConfigError(f"{where}: use either n (chain) or nx/ny (grid)")
        if not {"nx", "ny"} <= keys:
            raise ConfigError(f"{where}: a grid needs both nx and ny")
        nx = _intval(raw["nx"], f"{where}.nx")
        ny = _intval(raw["ny"], f"{where}.ny")
        size, build = nx * ny, lambda: grid_lattice(nx, ny)
        canon.update(nx=nx, ny=ny)
        geom = {"name", "nx", "ny"}
    elif "n" in keys:
        n = _intval(raw["n"], f"{where}.n")
        spacing = _num(raw["spacing"], f"{where}.spacing") if "spacing" in keys else 1.0
        size, build = n, lambda: chain_lattice(n, spacing=spacing)
        canon["n"] = n
        if "spacing" in keys:
            canon["spacing"] = spacing
        geom = {"name", "n", "spacing"}
    else:
        raise ConfigError(f"{where}: needs n (chain) or nx/ny (grid)")

    # checked before building: the lattice itself costs O(size^3)
    if size > math.log2(DIM_CAP):
        dim = 2 ** size if size <= 64 else f"2**{size}"
        raise ConfigError(
            f"{where}: window dimension {dim} exceeds the cap {DIM_CAP}")
    try:
        lat = build()
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None

    params = {}
    for k in sorted(keys - geom, key=str):
        v = raw[k]
        if not isinstance(k, str):
            raise ConfigError(f"{where}: parameter names must be strings")
        _num(v, f"{where}.{k}")  # kept as given: an int hashes as an int
        params[k] = v
    try:
        inter = build_model(name, lat, **params)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{where}: {exc}") from None
    canon.update(params)
    return canon, inter


# ---------------------------------------------------------------------------
# Per-task validation (canonical config with defaults materialized)
# ---------------------------------------------------------------------------

def _validate_residue_identity(data: dict) -> _Validated:
    _check_keys(data, {"task", "beta"},
                {"height_fractions", "half_width", "tolerance"}, "config")
    betas = _num_list(data["beta"], "beta")
    for beta in betas:
        _checked(_finite_positive, "beta", beta)
    fracs = _num_list(data.get("height_fractions", [0.0, 0.5, 1.0]),
                      "height_fractions")
    if any(not 0.0 <= f <= 1.0 for f in fracs):
        raise ConfigError("height_fractions must lie in [0, 1]")
    for beta in betas:
        _checked(_check_heights, beta, [f * beta for f in fracs])
    hw = _positive(data.get("half_width", 10.0), "half_width")
    tol = _positive(data.get("tolerance", 1e-8), "tolerance")
    canon = {"task": "residue_identity", "beta": betas,
             "height_fractions": fracs, "half_width": hw, "tolerance": tol}
    return canon, canon


def _validate_correlators(data: dict) -> _Validated:
    _check_keys(data, {"task", "model", "beta", "a", "b", "times"},
                {"tolerance"}, "config")
    model, inter = _model_section(data["model"])
    betas = _num_list(data["beta"], "beta")
    if any(b < 0 for b in betas):
        raise ConfigError("beta values must be nonnegative")
    a_c, a = _operator_section(data["a"], "a", inter.lattice)
    b_c, b = _operator_section(data["b"], "b", inter.lattice)
    times_c, ts = _time_grid(data["times"], "times")
    tol = _positive(data.get("tolerance", 1e-8), "tolerance")
    canon = {"task": "correlators", "model": model, "beta": betas,
             "a": a_c, "b": b_c, "times": times_c, "tolerance": tol}
    return canon, {**canon, "model": inter, "a": a, "b": b, "times": ts}


def _validate_contour(data: dict) -> _Validated:
    _check_keys(data, {"task", "model", "beta", "a", "b", "heights"},
                {"nodes", "half_width", "tolerance"}, "config")
    model, inter = _model_section(data["model"])
    a_c, a = _operator_section(data["a"], "a", inter.lattice)
    b_c, b = _operator_section(data["b"], "b", inter.lattice)
    canon = _optional_num(data, "half_width", {
        "task": "contour", "model": model, "beta": _num(data["beta"], "beta"),
        "a": a_c, "b": b_c, "heights": _num_list(data["heights"], "heights"),
        "nodes": _intval(data.get("nodes", 1024), "nodes"),
        "tolerance": _positive(data.get("tolerance", 1e-6), "tolerance")})
    _checked(_check_contour, canon["beta"], canon["nodes"],
             canon.get("half_width"), canon["heights"])
    return canon, {**canon, "model": inter, "a": a, "b": b}


def _validate_lr_scan(data: dict) -> _Validated:
    _check_keys(data, {"task", "model", "mu", "a", "b", "times"},
                {"velocity"}, "config")
    model, inter = _model_section(data["model"])
    mu = _num(data["mu"], "mu")
    a_c, a = _operator_section(data["a"], "a", inter.lattice)
    b_c, b = _operator_section(data["b"], "b", inter.lattice)
    times_c, ts = _time_grid(data["times"], "times")
    canon = _optional_num(data, "velocity", {
        "task": "lr_scan", "model": model, "mu": mu, "a": a_c, "b": b_c,
        "times": times_c})
    _checked(_lr_envelopes, inter, a, b, ts, mu, canon.get("velocity"))
    return canon, {**canon, "model": inter, "a": a, "b": b, "times": ts}


def _validate_locality_scan(data: dict) -> _Validated:
    _check_keys(data, {"task", "model", "mu", "a", "radii", "times"},
                {"velocity", "exponent_multiplier"}, "config")
    model, inter = _model_section(data["model"])
    mu = _num(data["mu"], "mu")
    a_c, a = _operator_section(data["a"], "a", inter.lattice)
    radii = _num_list(data["radii"], "radii")
    times_c, ts = _time_grid(data["times"], "times")
    canon = _optional_num(data, "velocity", {
        "task": "locality_scan", "model": model, "mu": mu, "a": a_c,
        "radii": radii, "times": times_c,
        "exponent_multiplier": _num(data.get("exponent_multiplier", 1.0),
                                    "exponent_multiplier")})
    _checked(_locality_envelopes, inter, a, radii, ts, mu,
             canon.get("velocity"), canon["exponent_multiplier"])
    return canon, {**canon, "model": inter, "a": a, "times": ts}


def _validate_theorem_check(data: dict) -> _Validated:
    _check_keys(data, {"task", "model", "beta", "mu", "distances"},
                {"base_site", "op"}, "config")
    model, inter = _model_section(data["model"])
    beta = _positive(data["beta"], "beta")
    mu = _positive(data["mu"], "mu")
    dists = _num_list(data["distances"], "distances")
    canon = {"task": "theorem_check", "model": model, "beta": beta, "mu": mu,
             "distances": dists, "op": _pauli(data.get("op", "Z"), "op")}
    _checked(_check_measured, "op", PAULI[canon["op"]])
    base = None
    if "base_site" in data:
        canon["base_site"], base = _site(data["base_site"], "base_site",
                                         inter.lattice)
    lat = inter.lattice
    _checked(_partners, lat, lat.sites[0] if base is None else base, dists)
    return canon, {**canon, "model": inter, "base_site": base}


def validate_config(data: dict) -> Tuple[str, dict, str, dict]:
    """Validate a raw mapping; returns (task, canonical config, hash, run
    inputs), the inputs being what the task's runner takes."""
    if "task" not in data:
        raise ConfigError("config is missing the required key 'task'")
    task = data["task"]
    if task not in _TASKS:
        raise ConfigError(f"unknown task {task!r}; available tasks: "
                          f"{', '.join(_TASKS)}")
    canonical, inputs = _TASKS[task][0](data)
    blob = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(blob.encode("utf-8")).hexdigest()[:12]
    return task, canonical, digest, inputs


# ---------------------------------------------------------------------------
# Artifact helpers
# ---------------------------------------------------------------------------

def _cells(row: dict) -> Dict[str, str]:
    """CSV cells of one row: a complex value fills <col>_re and <col>_im, a
    bool or int is written as an integer, a grid site label with str, and
    anything else as repr(float(x))."""
    out = {}
    for col, x in row.items():
        if isinstance(x, complex):
            out[f"{col}_re"] = repr(float(x.real))
            out[f"{col}_im"] = repr(float(x.imag))
        elif isinstance(x, int):
            out[col] = str(int(x))
        elif isinstance(x, tuple):
            out[col] = str(x)
        else:
            out[col] = repr(float(x))
    return out


def _fields(obj, *names: str) -> dict:
    """A table row of obj's attributes, in the order named."""
    return {n: getattr(obj, n) for n in names}


def _write_csv(path: Path, rows: List[dict]) -> None:
    cells = [_cells(r) for r in rows]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        wr = csv.writer(fh, lineterminator="\n")
        wr.writerow(cells[0])
        wr.writerows(c.values() for c in cells)


# ---------------------------------------------------------------------------
# Task runners: each takes the run inputs its validator built
# ---------------------------------------------------------------------------

def _run_residue_identity(cfg: dict) -> _Outcome:
    jobs = [(b, f) for b in cfg["beta"] for f in cfg["height_fractions"]]
    results = [residue_identity(b, f * b, half_width=cfg["half_width"])
               for b, f in jobs]
    rows = [{"beta": beta, "fraction": frac, **_fields(
        res, "height", "value", "defect", "nodes", "tail_bound",
        "endpoint_corrected")} for (beta, frac), res in zip(jobs, results)]
    defects = [r.defect for r in results]
    # a NaN defect fails the run and is the summary's maximum
    passed = all(d <= cfg["tolerance"] for d in defects)
    return passed, {"max_defect": float(np.max(defects)),
                    "tolerance": cfg["tolerance"],
                    "unconverged": sum(not r.converged for r in results)}, {
        "residue_identity.csv": rows}


def _run_correlators(cfg: dict) -> _Outcome:
    inter, ts = cfg["model"], cfg["times"]
    dec = eig_hermitian(inter)
    # the pair's blocks do not depend on beta: they are read once
    pair = kms_function(gibbs_state(dec, cfg["beta"][0]), cfg["a"], cfg["b"])
    tarr = np.asarray(ts)
    tol = cfg["tolerance"]

    def one(beta):
        fn = pair._at(gibbs_state(dec, beta))
        grid = {"f": fn.eval_grid(tarr), "g": fn.conjugate_eval_grid(tarr),
                "f_boundary": fn.eval_grid(tarr, imag=beta)}
        closed = canonical_correlator(fn, method="closed_form")
        quad = canonical_correlator(fn, method="quadrature")
        return grid, {
            "beta": beta, "ordinary": ordinary_correlator(fn),
            "canonical_closed": closed, "canonical_quadrature": quad,
            "route_gap": abs(closed - quad),
            "kms_gap": float(np.abs(grid["f_boundary"] - grid["g"]).max())}

    # the quadrature route warns, once per beta, when it stops unconverged
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", _UnconvergedQuadrature)
        results = [one(beta) for beta in cfg["beta"]]
    unconverged = 0
    for w in caught:
        if issubclass(w.category, _UnconvergedQuadrature):
            unconverged += 1
        else:
            warnings.showwarning(w.message, w.category, w.filename, w.lineno)
    sum_rows = [row for _, row in results]
    grid_rows = [{"beta": row["beta"], "time": t,
                  **{k: v[i] for k, v in grid.items()}}
                 for grid, row in results for i, t in enumerate(ts)]
    passed = all(
        row["route_gap"] <= tol * (1 + abs(row["canonical_closed"]))
        and row["kms_gap"] <= tol * (1 + np.abs(grid["f_boundary"]).max())
        for grid, row in results)
    summary = {f"max_{k}": float(np.max([r[k] for r in sum_rows]))
               for k in ("route_gap", "kms_gap")}
    summary.update(quadrature_unconverged=unconverged, tolerance=tol)
    return passed, summary, {"correlators.csv": grid_rows,
                             "correlators_summary.csv": sum_rows}


def _run_contour(cfg: dict) -> _Outcome:
    inter = cfg["model"]
    st = gibbs_state(inter, cfg["beta"])
    tol = cfg["tolerance"]
    grid = contour_grid(st, cfg["a"], cfg["b"], nodes=cfg["nodes"],
                        half_width=cfg.get("half_width"))

    results = [contour_decomposition(grid, h) for h in cfg["heights"]]
    rels = [dec.defect / (1 + abs(dec.direct)) for dec in results]
    rows = [_fields(dec, "height", "effective_height", "offset", "subtracted",
                    "nodes", "term_commutator", "term_bottom", "term_top",
                    "reconstruction", "direct", "defect") for dec in results]
    passed = all(rel <= tol for rel in rels)
    return passed, {"max_relative_defect": float(np.max(rels)),
                    "tolerance": tol}, {"contour.csv": rows}


def _run_lr_scan(cfg: dict) -> _Outcome:
    scan = lr_commutator_scan(cfg["model"], cfg["a"], cfg["b"], cfg["times"],
                              cfg["mu"], velocity=cfg.get("velocity"))
    # the bound column is fitted over the rows above the round-off floor,
    # so an eigensolver change at round-off does not move it
    c, c_res = scan.c_empirical, scan.c_empirical_resolved
    rows = [{**_fields(m, "time", "distance", "commutator_norm", "envelope"),
             "bound": c_res * m.envelope if np.isfinite(c_res) else float("inf")}
            for m in scan.measurements]
    summary = {"c_empirical": c, "velocity": scan.velocity,
               "distance": scan.distance, "mu": scan.mu,
               "noise_floor": scan.noise_floor, "floor_rows": scan.floor_rows,
               "c_empirical_resolved": c_res}
    return scan.passed, summary, {"lr_scan.csv": rows}


def _run_locality_scan(cfg: dict) -> _Outcome:
    scan = locality_scan(cfg["model"], cfg["a"], cfg["radii"], cfg["times"],
                         cfg["mu"], velocity=cfg.get("velocity"),
                         exponent_multiplier=cfg["exponent_multiplier"])
    rows = [_fields(m, "radius", "time", "error", "envelope")
            for m in scan.measurements]
    maxes = scan.max_error_by_radius()
    summary = {"c_empirical": scan.c_empirical, "velocity": scan.velocity,
               "max_error_by_radius": {str(r): maxes[r] for r in cfg["radii"]},
               "monotone_in_radius": scan.monotone_in_radius,
               "noise_floor": scan.noise_floor, "floor_rows": scan.floor_rows,
               "norm_route": scan.norm_route}
    return scan.passed, summary, {"locality_scan.csv": rows}


def _run_theorem_check(cfg: dict) -> _Outcome:
    res = theorem_check(cfg["model"], cfg["beta"], cfg["mu"],
                        cfg["distances"], base_site=cfg["base_site"],
                        op_name=cfg["op"])
    rows = [_fields(r, "distance", "site", "ordinary", "canonical")
            for r in res.rows]
    summary = {"xi": res.xi, "xi_prime": res.xi_prime,
               "xi_prime_empirical": res.xi_prime_empirical,
               "c_ordinary": res.c_ordinary, "c_prime": res.c_prime,
               "ordinary_fit_residual": res.ordinary_fit.residual,
               "canonical_fit_residual": res.canonical_fit.residual}
    return res.passed, summary, {"theorem_check.csv": rows}


# ---------------------------------------------------------------------------
# The task table: validator, runner and gnuplot script of each task
# ---------------------------------------------------------------------------

_PLOT_HEAD = ('set datafile separator ","\n'
              'set key autotitle columnhead\n'
              'set grid\n')

_TASKS: Dict[str, Tuple[Callable[[dict], _Validated],
                        Callable[[dict], _Outcome], str]] = {
    "lr_scan": (_validate_lr_scan, _run_lr_scan, _PLOT_HEAD + (
        'set logscale y\nset xlabel "t"\nset ylabel "norm"\n'
        'plot "lr_scan.csv" using 1:3 with linespoints title "commutator", \\\n'
        '     "lr_scan.csv" using 1:5 with lines title "bound"\n')),
    "locality_scan": (_validate_locality_scan, _run_locality_scan, _PLOT_HEAD + (
        'set logscale y\nset xlabel "t"\nset ylabel "approximation error"\n'
        'plot "locality_scan.csv" using 2:3:1 with points palette '
        'title "error (palette = radius)"\n')),
    "correlators": (_validate_correlators, _run_correlators, _PLOT_HEAD + (
        'set xlabel "t"\nset ylabel "Re F, Re G"\n'
        'plot "correlators.csv" using 2:3 with lines title "Re F(t)", \\\n'
        '     "correlators.csv" using 2:5 with lines title "Re G(t)"\n')),
    "contour": (_validate_contour, _run_contour, _PLOT_HEAD + (
        'set logscale y\nset xlabel "height b"\nset ylabel "defect"\n'
        'plot "contour.csv" using 1:16 with linespoints pt 7\n')),
    "theorem_check": (_validate_theorem_check, _run_theorem_check, _PLOT_HEAD + (
        'set logscale y\nset xlabel "distance"\nset ylabel "|correlator|"\n'
        'plot "theorem_check.csv" using 1:(sqrt($3**2+$4**2)) '
        'with linespoints title "ordinary", \\\n'
        '     "theorem_check.csv" using 1:(sqrt($5**2+$6**2)) '
        'with linespoints title "canonical"\n')),
    "residue_identity": (_validate_residue_identity, _run_residue_identity,
                         _PLOT_HEAD + (
        'set logscale y\nset xlabel "height b"\nset ylabel "|value - 1|"\n'
        'plot "residue_identity.csv" using 3:6 with points pt 7\n')),
}


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _resolve_outdir(flag: Optional[str]) -> Path:
    if flag:
        return Path(flag)
    env = os.environ.get("CORRELAB_OUTDIR")
    return Path(env) if env else Path(_DEFAULT_OUTDIR)


def _cmd_run(args) -> int:
    task, canonical, digest, inputs = validate_config(_load_yaml(args.config))
    out = _resolve_outdir(args.outdir) / digest
    out.mkdir(parents=True, exist_ok=True)
    _, runner, plot = _TASKS[task]
    t0 = time.perf_counter()
    passed, summary, tables = runner(inputs)
    for name, rows in tables.items():
        _write_csv(out / name, rows)
    elapsed = time.perf_counter() - t0
    (out / "plot.gp").write_text(plot, encoding="utf-8")
    record = {
        "task": task,
        "config": canonical,
        "config_hash": digest,
        "version": __version__,
        "passed": passed,
        "summary": summary,
        "files": sorted([*tables, "plot.gp"]),
        "elapsed_seconds": elapsed,
    }
    with open(out / "record.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    status = "passed" if passed else "FAILED"
    print(f"{task} {digest} {status} ({elapsed:.2f}s) -> {out}")
    return 0 if passed else 1


def _cmd_validate(args) -> int:
    task, canonical, digest, inputs = validate_config(_load_yaml(args.config))
    print(f"ok: task={task} hash={digest}")
    if "model" in canonical:
        lat = inputs["model"].lattice
        print(f"    model={canonical['model']['name']} sites={len(lat)} "
              f"dim={lat.window_dim(lat.sites)}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="correlab",
        description="Numerical laboratory for thermal correlations on "
                    "quantum spin lattices.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a YAML-configured experiment")
    p_run.add_argument("config", help="path to the YAML configuration")
    p_run.add_argument("--outdir", default=None,
                       help="output root (default: $CORRELAB_OUTDIR or "
                            f"./{_DEFAULT_OUTDIR})")
    p_run.add_argument("--workers", type=int, default=1, choices=(1,),
                       help="kept for old command lines: every run is "
                            "serial")

    p_val = sub.add_parser("validate", help="validate a configuration file")
    p_val.add_argument("config", help="path to the YAML configuration")

    args = parser.parse_args(argv)
    handler = {"run": _cmd_run, "validate": _cmd_validate}[args.command]
    try:
        return handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
