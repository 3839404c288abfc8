"""Command-line driver for YAML-configured experiment runs.

    correlab run config.yaml [--outdir DIR] [--workers N] [--verbose]
    correlab validate config.yaml
    correlab plot <run-dir>/record.json [--kind KIND]

Every run is keyed by a hash of its validated configuration and lands in
<outdir>/<hash>/ as record.json, one or two CSV files, and a gnuplot
script.  Numeric CSV cells are written with repr(), so two runs of the
same configuration produce byte-identical CSV payloads.  The process exit
code is 0 exactly when the task's own invariants held.

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
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np
import yaml

from . import __version__
from .lattice import Lattice, build_model, chain_lattice, grid_lattice
from .operators import PAULI, LocalOperator, embed, single_site
from .spectral import DIM_CAP, build_hamiltonian, eig_hermitian
from .thermal import canonical_correlator, gibbs_state, kms_function, \
    ordinary_correlator
from .dynamics import locality_scan, lr_commutator_scan
from .verify import contour_decomposition, residue_identity, theorem_check

_DEFAULT_OUTDIR = "correlab_runs"
_MONO_SLACK = 1e-12

# A runner's result: (passed, summary, {csv name: (header, rows)}).
_Tables = Dict[str, Tuple[List[str], List[List[str]]]]
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


def _positive(x, where: str) -> float:
    v = _num(x, where)
    if v <= 0:
        raise ConfigError(f"{where} must be positive")
    return v


def _optional_positive(data: dict, key: str, out: dict) -> dict:
    """Copy data[key] into out, checked positive, when it is given."""
    if key in data:
        out[key] = _positive(data[key], key)
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
    step = _num(raw["step"], f"{where}.step")
    if step <= 0:
        raise ConfigError(f"{where}.step must be positive")
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
    if not isinstance(x, str) or x not in PAULI:
        raise ConfigError(f"{where} must be one of {sorted(PAULI)}")
    return x


def _operator_section(raw, where: str, lat: Lattice) -> Tuple[dict, LocalOperator]:
    _check_keys(raw, {"site", "op"}, set(), where)
    canon_site, site = _site(raw["site"], f"{where}.site", lat)
    name = _pauli(raw["op"], f"{where}.op")
    return {"site": canon_site, "op": name}, single_site(site, name)


def _model_section(raw, where: str = "model"):
    """Build (canonical dict, lattice, interaction) from a model mapping."""
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
        if n < 1:
            raise ConfigError(f"{where}.n must be positive")
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
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ConfigError(f"{where}.{k} must be a number")
        if not math.isfinite(v):
            raise ConfigError(f"{where}.{k} must be finite, got {v!r}")
        params[k] = v
    try:
        inter = build_model(name, lat, **params)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{where}: {exc}") from None
    canon.update(params)
    return canon, lat, inter


# ---------------------------------------------------------------------------
# Per-task validation (canonical config with defaults materialized)
# ---------------------------------------------------------------------------

def _validate_residue_identity(data: dict) -> dict:
    _check_keys(data, {"task", "beta"},
                {"height_fractions", "half_width", "tolerance"}, "config")
    betas = _num_list(data["beta"], "beta")
    if any(b <= 0 for b in betas):
        raise ConfigError("beta values must be positive")
    fracs = _num_list(data.get("height_fractions", [0.0, 0.5, 1.0]),
                      "height_fractions")
    if any(not 0.0 <= f <= 1.0 for f in fracs):
        raise ConfigError("height_fractions must lie in [0, 1]")
    hw = _positive(data.get("half_width", 10.0), "half_width")
    tol = _num(data.get("tolerance", 1e-8), "tolerance")
    return {"task": "residue_identity", "beta": betas,
            "height_fractions": fracs, "half_width": hw, "tolerance": tol}


def _validate_correlators(data: dict) -> dict:
    _check_keys(data, {"task", "model", "beta", "a", "b", "times"},
                {"tolerance"}, "config")
    model, lat, _ = _model_section(data["model"])
    betas = _num_list(data["beta"], "beta")
    if any(b < 0 for b in betas):
        raise ConfigError("beta values must be nonnegative")
    a_c, _ = _operator_section(data["a"], "a", lat)
    b_c, _ = _operator_section(data["b"], "b", lat)
    times_c, _ = _time_grid(data["times"], "times")
    tol = _num(data.get("tolerance", 1e-8), "tolerance")
    return {"task": "correlators", "model": model, "beta": betas,
            "a": a_c, "b": b_c, "times": times_c, "tolerance": tol}


def _validate_contour(data: dict) -> dict:
    _check_keys(data, {"task", "model", "beta", "a", "b", "heights"},
                {"nodes", "half_width", "tolerance"}, "config")
    model, lat, _ = _model_section(data["model"])
    beta = _positive(data["beta"], "beta")
    a_c, _ = _operator_section(data["a"], "a", lat)
    b_c, _ = _operator_section(data["b"], "b", lat)
    heights = _num_list(data["heights"], "heights")
    if any(not 0.0 <= h <= beta for h in heights):
        raise ConfigError("heights must lie in [0, beta]")
    nodes = _intval(data.get("nodes", 1024), "nodes")
    if nodes < 8:
        raise ConfigError("nodes must be at least 8")
    out = {"task": "contour", "model": model, "beta": beta, "a": a_c,
           "b": b_c, "heights": heights, "nodes": nodes,
           "tolerance": _num(data.get("tolerance", 1e-6), "tolerance")}
    return _optional_positive(data, "half_width", out)


def _validate_lr_scan(data: dict) -> dict:
    _check_keys(data, {"task", "model", "mu", "a", "b", "times"},
                {"velocity"}, "config")
    model, lat, _ = _model_section(data["model"])
    mu = _positive(data["mu"], "mu")
    a_c, _ = _operator_section(data["a"], "a", lat)
    b_c, _ = _operator_section(data["b"], "b", lat)
    times_c, _ = _time_grid(data["times"], "times")
    out = {"task": "lr_scan", "model": model, "mu": mu, "a": a_c, "b": b_c,
           "times": times_c}
    return _optional_positive(data, "velocity", out)


def _validate_locality_scan(data: dict) -> dict:
    _check_keys(data, {"task", "model", "mu", "a", "radii", "times"},
                {"velocity", "exponent_multiplier"}, "config")
    model, lat, _ = _model_section(data["model"])
    mu = _positive(data["mu"], "mu")
    a_c, _ = _operator_section(data["a"], "a", lat)
    radii = _num_list(data["radii"], "radii")
    if any(r < 0 for r in radii):
        raise ConfigError("radii must be nonnegative")
    if sorted(radii) != radii:
        raise ConfigError("radii must be listed in increasing order")
    times_c, _ = _time_grid(data["times"], "times")
    out = {"task": "locality_scan", "model": model, "mu": mu, "a": a_c,
           "radii": radii, "times": times_c,
           "exponent_multiplier": _num(data.get("exponent_multiplier", 1.0),
                                       "exponent_multiplier")}
    return _optional_positive(data, "velocity", out)


def _validate_theorem_check(data: dict) -> dict:
    _check_keys(data, {"task", "model", "beta", "mu", "distances"},
                {"base_site", "op"}, "config")
    model, lat, _ = _model_section(data["model"])
    beta = _positive(data["beta"], "beta")
    mu = _positive(data["mu"], "mu")
    dists = _num_list(data["distances"], "distances")
    if len(dists) < 2:
        raise ConfigError("need at least two distances")
    out = {"task": "theorem_check", "model": model, "beta": beta, "mu": mu,
           "distances": dists, "op": _pauli(data.get("op", "Z"), "op")}
    if "base_site" in data:
        out["base_site"], _ = _site(data["base_site"], "base_site", lat)
    return out


def validate_config(data: dict) -> Tuple[str, dict, str]:
    """Validate a raw mapping; returns (task, canonical config, hash)."""
    if "task" not in data:
        raise ConfigError("config is missing the required key 'task'")
    task = data["task"]
    if task not in _TASKS:
        raise ConfigError(f"unknown task {task!r}; available tasks: "
                          f"{', '.join(_TASKS)}")
    canonical = _TASKS[task][0](data)
    blob = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(blob.encode("utf-8")).hexdigest()[:12]
    return task, canonical, digest


# ---------------------------------------------------------------------------
# Artifact helpers
# ---------------------------------------------------------------------------

def _f(x) -> str:
    return repr(float(x))


def _write_csv(path: Path, header: List[str], rows: List[List[str]]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        wr = csv.writer(fh, lineterminator="\n")
        wr.writerow(header)
        wr.writerows(rows)


def _parallel(fn, jobs, workers: int) -> list:
    if workers <= 1 or len(jobs) <= 1:
        return [fn(j) for j in jobs]
    with ThreadPoolExecutor(max_workers=workers) as ex:
        return list(ex.map(fn, jobs))


def _operators(cfg: dict, lat: Lattice, *keys: str) -> List[LocalOperator]:
    """The local operators named by cfg[key] for each key."""
    return [_operator_section(cfg[k], k, lat)[1] for k in keys]


# ---------------------------------------------------------------------------
# Task runners
# ---------------------------------------------------------------------------

def _run_residue_identity(cfg: dict, workers: int, verbose: bool) -> _Outcome:
    jobs = [(b, f) for b in cfg["beta"] for f in cfg["height_fractions"]]

    def one(job):
        beta, frac = job
        return residue_identity(beta, frac * beta,
                                half_width=cfg["half_width"])

    results = _parallel(one, jobs, workers)
    rows = []
    for (beta, frac), res in zip(jobs, results):
        if verbose:
            print(f"  beta={beta:g} height={res.height:g} "
                  f"defect={res.defect:.3e} nodes={res.nodes}")
        rows.append([_f(beta), _f(frac), _f(res.height), _f(res.value.real),
                     _f(res.value.imag), _f(res.defect), str(res.nodes),
                     _f(res.tail_bound), str(int(res.endpoint_corrected))])
    max_defect = max(r.defect for r in results)
    passed = max_defect <= cfg["tolerance"]
    return passed, {"max_defect": max_defect, "tolerance": cfg["tolerance"]}, {
        "residue_identity.csv": (
            ["beta", "fraction", "height", "value_re", "value_im",
             "defect", "nodes", "tail_bound", "endpoint_corrected"], rows)}


def _run_correlators(cfg: dict, workers: int, verbose: bool) -> _Outcome:
    _, lat, inter = _model_section(cfg["model"])
    dec = eig_hermitian(build_hamiltonian(inter).matrix)
    a, b = (embed(op, lat) for op in _operators(cfg, lat, "a", "b"))
    _, ts = _time_grid(cfg["times"], "times")
    tarr = np.asarray(ts)
    tol = cfg["tolerance"]

    def one(beta):
        st = gibbs_state(dec, beta)
        fn = kms_function(st, a, b)
        fvals = fn.eval_grid(tarr)
        gvals = fn.conjugate_eval_grid(tarr)
        bvals = fn.eval_grid(tarr, imag=beta)
        kms_gap = float(np.abs(bvals - gvals).max())
        ordv = ordinary_correlator(st, fn.a_energy, fn.b_energy, basis="energy")
        closed = canonical_correlator(st, fn.a_energy, fn.b_energy,
                                      method="closed_form", basis="energy")
        quad = canonical_correlator(st, fn.a_energy, fn.b_energy,
                                    method="quadrature", basis="energy")
        return fvals, gvals, bvals, kms_gap, ordv, closed, quad

    results = _parallel(one, cfg["beta"], workers)

    grid_rows, sum_rows = [], []
    passed = True
    max_route = 0.0
    max_kms = 0.0
    for beta, (fv, gv, bv, gap, ordv, closed, quad) in zip(cfg["beta"], results):
        for i, t in enumerate(ts):
            grid_rows.append([_f(beta), _f(t),
                              _f(fv[i].real), _f(fv[i].imag),
                              _f(gv[i].real), _f(gv[i].imag),
                              _f(bv[i].real), _f(bv[i].imag)])
        route = abs(closed - quad)
        bscale = 1.0 + float(np.abs(bv).max())
        ok = route <= tol * (1 + abs(closed)) and gap <= tol * bscale
        passed = passed and ok
        max_route = max(max_route, route)
        max_kms = max(max_kms, gap)
        if verbose:
            print(f"  beta={beta:g} route_gap={route:.3e} kms_gap={gap:.3e}")
        sum_rows.append([_f(beta), _f(ordv.real), _f(ordv.imag),
                         _f(closed.real), _f(closed.imag),
                         _f(quad.real), _f(quad.imag), _f(route), _f(gap)])
    summary = {"max_route_gap": max_route, "max_kms_gap": max_kms,
               "tolerance": tol}
    return passed, summary, {
        "correlators.csv": (
            ["beta", "time", "f_re", "f_im", "g_re", "g_im",
             "f_boundary_re", "f_boundary_im"], grid_rows),
        "correlators_summary.csv": (
            ["beta", "ordinary_re", "ordinary_im", "canonical_closed_re",
             "canonical_closed_im", "canonical_quadrature_re",
             "canonical_quadrature_im", "route_gap", "kms_gap"], sum_rows)}


def _run_contour(cfg: dict, workers: int, verbose: bool) -> _Outcome:
    _, lat, inter = _model_section(cfg["model"])
    st = gibbs_state(build_hamiltonian(inter).matrix, cfg["beta"])
    a, b = (embed(op, lat) for op in _operators(cfg, lat, "a", "b"))
    tol = cfg["tolerance"]

    def one(height):
        return contour_decomposition(st, a, b, height, nodes=cfg["nodes"],
                                     half_width=cfg.get("half_width"))

    results = _parallel(one, cfg["heights"], workers)
    rows = []
    passed = True
    worst = 0.0
    for dec in results:
        rel = dec.defect / (1 + abs(dec.direct))
        worst = max(worst, rel)
        passed = passed and rel <= tol
        if verbose:
            print(f"  b={dec.height:g} defect={dec.defect:.3e} "
                  f"subtracted={dec.subtracted}")
        rows.append([_f(dec.height), _f(dec.effective_height), _f(dec.offset),
                     str(int(dec.subtracted)), str(dec.nodes),
                     _f(dec.term_commutator.real), _f(dec.term_commutator.imag),
                     _f(dec.term_bottom.real), _f(dec.term_bottom.imag),
                     _f(dec.term_top.real), _f(dec.term_top.imag),
                     _f(dec.reconstruction.real), _f(dec.reconstruction.imag),
                     _f(dec.direct.real), _f(dec.direct.imag), _f(dec.defect)])
    return passed, {"max_relative_defect": worst, "tolerance": tol}, {
        "contour.csv": (
            ["height", "effective_height", "offset", "subtracted", "nodes",
             "term_commutator_re", "term_commutator_im", "term_bottom_re",
             "term_bottom_im", "term_top_re", "term_top_im",
             "reconstruction_re", "reconstruction_im", "direct_re",
             "direct_im", "defect"], rows)}


def _run_lr_scan(cfg: dict, workers: int, verbose: bool) -> _Outcome:
    _, lat, inter = _model_section(cfg["model"])
    a, b = _operators(cfg, lat, "a", "b")
    _, ts = _time_grid(cfg["times"], "times")
    scan = lr_commutator_scan(inter, a, b, ts, cfg["mu"],
                              velocity=cfg.get("velocity"))
    c = scan.c_empirical
    rows = []
    for m in scan.measurements:
        bound = c * m.envelope if np.isfinite(c) else float("inf")
        rows.append([_f(m.time), _f(m.distance), _f(m.commutator_norm),
                     _f(m.envelope), _f(bound)])
    if verbose:
        print(f"  distance={scan.distance:g} velocity={scan.velocity:.6g} "
              f"c_empirical={c:.6g}")
    passed = bool(np.isfinite(c)) and scan.violations() == 0
    summary = {"c_empirical": c, "velocity": scan.velocity,
               "distance": scan.distance, "mu": scan.mu,
               "violations": scan.violations()}
    return passed, summary, {"lr_scan.csv": (
        ["time", "distance", "commutator_norm", "envelope", "bound"], rows)}


def _run_locality_scan(cfg: dict, workers: int, verbose: bool) -> _Outcome:
    _, lat, inter = _model_section(cfg["model"])
    a, = _operators(cfg, lat, "a")
    _, ts = _time_grid(cfg["times"], "times")
    scan = locality_scan(inter, a, cfg["radii"], ts, cfg["mu"],
                         velocity=cfg.get("velocity"),
                         exponent_multiplier=cfg["exponent_multiplier"])
    rows = [[_f(m.radius), _f(m.time), _f(m.error), _f(m.envelope)]
            for m in scan.measurements]
    maxes = scan.max_error_by_radius()
    radii = cfg["radii"]
    monotone = all(maxes[radii[i + 1]] < maxes[radii[i]] + _MONO_SLACK
                   for i in range(len(radii) - 1))
    if verbose:
        for r in radii:
            print(f"  r={r:g} max_error={maxes[r]:.6e}")
    passed = monotone and bool(np.isfinite(scan.c_empirical))
    summary = {"c_empirical": scan.c_empirical, "velocity": scan.velocity,
               "max_error_by_radius": {str(r): maxes[r] for r in radii},
               "monotone_in_radius": monotone}
    return passed, summary, {"locality_scan.csv": (
        ["radius", "time", "error", "envelope"], rows)}


def _run_theorem_check(cfg: dict, workers: int, verbose: bool) -> _Outcome:
    _, lat, inter = _model_section(cfg["model"])
    base = (_site(cfg["base_site"], "base_site", lat)[1]
            if "base_site" in cfg else None)
    res = theorem_check(inter, cfg["beta"], cfg["mu"], cfg["distances"],
                        base_site=base, op_name=cfg["op"])
    rows = []
    for r in res.rows:
        rows.append([_f(r.distance), str(r.site),
                     _f(r.ordinary.real), _f(r.ordinary.imag),
                     _f(r.canonical.real), _f(r.canonical.imag)])
    if verbose:
        print(f"  xi={res.xi:.6g} xi'={res.xi_prime:.6g} "
              f"xi'_emp={res.xi_prime_empirical:.6g} c'={res.c_prime:.6g}")
    summary = {"xi": res.xi, "xi_prime": res.xi_prime,
               "xi_prime_empirical": res.xi_prime_empirical,
               "c_ordinary": res.c_ordinary, "c_prime": res.c_prime,
               "ordinary_fit_residual": res.ordinary_fit.residual,
               "canonical_fit_residual": res.canonical_fit.residual}
    return res.passed, summary, {"theorem_check.csv": (
        ["distance", "site", "ordinary_re", "ordinary_im",
         "canonical_re", "canonical_im"], rows)}


# ---------------------------------------------------------------------------
# The task table: validator, runner and gnuplot script of each task
# ---------------------------------------------------------------------------

_PLOT_HEAD = ('set datafile separator ","\n'
              'set key autotitle columnhead\n'
              'set grid\n')

_TASKS: Dict[str, Tuple[Callable[[dict], dict],
                        Callable[[dict, int, bool], _Outcome], str]] = {
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
    task, canonical, digest = validate_config(_load_yaml(args.config))
    out = _resolve_outdir(args.outdir) / digest
    out.mkdir(parents=True, exist_ok=True)
    if args.verbose:
        print(f"task {task} -> {out}")
    _, runner, plot = _TASKS[task]
    t0 = time.perf_counter()
    passed, summary, tables = runner(canonical, args.workers, args.verbose)
    for name, (header, rows) in tables.items():
        _write_csv(out / name, header, rows)
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
    task, canonical, digest = validate_config(_load_yaml(args.config))
    print(f"ok: task={task} hash={digest}")
    if "model" in canonical:
        m = canonical["model"]
        size = m.get("n", None)
        if size is None and "nx" in m:
            size = m["nx"] * m["ny"]
        print(f"    model={m['name']} sites={size} dim={2 ** size}")
    return 0


def _cmd_plot(args) -> int:
    path = Path(args.record)
    try:
        record = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read record {path}: {exc}") from None
    kind = args.kind or record.get("task")
    if kind not in _TASKS:
        raise ConfigError(f"no plot template for kind {kind!r}; "
                          f"available: {', '.join(sorted(_TASKS))}")
    target = path.parent / "plot.gp"
    target.write_text(_TASKS[kind][2], encoding="utf-8")
    print(str(target))
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
    p_run.add_argument("--workers", type=int, default=1,
                       help="threads for independent grid points")
    p_run.add_argument("--verbose", action="store_true",
                       help="print per-point progress")

    p_val = sub.add_parser("validate", help="validate a configuration file")
    p_val.add_argument("config", help="path to the YAML configuration")

    p_plot = sub.add_parser("plot", help="write a gnuplot script for a run")
    p_plot.add_argument("record", help="path to a run's record.json")
    p_plot.add_argument("--kind", default=None, choices=sorted(_TASKS),
                        help="plot template (default: the run's task)")

    args = parser.parse_args(argv)
    handler = {"run": _cmd_run, "validate": _cmd_validate,
               "plot": _cmd_plot}[args.command]
    try:
        return handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
