"""The benchmark's workloads: seeded correlab YAML configs, run in order.

The seed only picks one of VARIANTS input variants: the random-bond seed
and the observable sites.  Lattice size, real versus complex arithmetic and
every grid stay fixed, so the amount of work does not depend on the seed,
and the reference outputs of every variant can be stored (reference/).
"""
from __future__ import annotations

import hashlib
from typing import Dict, List, Tuple

VARIANTS = 16


def _yaml_value(v) -> str:
    if isinstance(v, dict):
        return "{" + ", ".join(f"{k}: {_yaml_value(x)}" for k, x in v.items()) + "}"
    if isinstance(v, list):
        return "[" + ", ".join(_yaml_value(x) for x in v) + "]"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def to_yaml(cfg: dict) -> str:
    """Flow-style YAML for a config made of dicts, lists, numbers, strings."""
    return "".join(f"{k}: {_yaml_value(v)}\n" for k, v in cfg.items())


def _grid(start: float, stop: float, step: float) -> dict:
    return {"start": start, "stop": stop, "step": step}


def decay_upgrade(v: int) -> List[Tuple[str, dict]]:
    # D = 1024.  Real arithmetic throughout: real eigh, real transforms,
    # closed-form thermal correlators.  Base site 0 or 1 keeps all seven
    # distances on the chain.
    return [("theorem_check", {
        "task": "theorem_check",
        "model": {"name": "random_bond_ising", "n": 10, "J": 1.0, "h": 2.0,
                  "seed": v},
        "beta": 0.5, "mu": 1.0,
        "distances": [2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0],
        "base_site": v % 2,
    })]


def lightcone(v: int) -> List[Tuple[str, dict]]:
    # D = 512, complex evolution.  The scan pair spans the chain (mirrored
    # by the seed); the locality site stays where balls up to radius 3 fit.
    n = 9
    model = {"name": "random_bond_ising", "n": n, "J": 1.0, "h": 1.0,
             "seed": v}
    a, b = (0, n - 1) if v % 2 == 0 else (n - 1, 0)
    return [
        ("lr_scan", {
            "task": "lr_scan", "model": model, "mu": 1.0,
            "a": {"site": a, "op": "Z"}, "b": {"site": b, "op": "Z"},
            "times": _grid(0.0, 2.0, 0.1),
        }),
        ("locality_scan", {
            "task": "locality_scan", "model": model, "mu": 1.0,
            "a": {"site": 2 + v % 5, "op": "Z"},
            "radii": [1.0, 2.0, 3.0],
            "times": _grid(0.0, 1.0, 0.25),
        }),
    ]


def strip(v: int) -> List[Tuple[str, dict]]:
    # D = 512.  Y observables make the energy-basis operators complex and
    # dense.  beta = 1 keeps the contour inside its conditioned range.
    n = 9
    s = v % 4
    model = {"name": "heisenberg_xxz", "n": n, "J": 1.0, "delta": 0.5}
    a = {"site": s, "op": "Y"}
    b = {"site": s + 5, "op": "Y"}
    return [
        ("correlators", {
            "task": "correlators", "model": model,
            "beta": [0.25, 0.5, 1.0, 2.0], "a": a, "b": b,
            "times": _grid(-4.0, 4.0, 0.05),
        }),
        ("contour", {
            "task": "contour", "model": model, "beta": 1.0, "a": a, "b": b,
            "heights": [0.0, 0.25, 0.5, 0.75, 1.0], "nodes": 1024,
        }),
        ("residue_identity", {
            "task": "residue_identity", "beta": [0.2, 0.5, 1.0, 2.0],
        }),
    ]


WORKLOADS = {
    "decay_upgrade": decay_upgrade,
    "lightcone": lightcone,
    "strip": strip,
}


def variant(seed: int) -> int:
    return seed % VARIANTS


def configs(workload: str, seed: int) -> List[Tuple[str, dict]]:
    """(name, config) pairs for one pass of the workload, in run order."""
    return WORKLOADS[workload](variant(seed))


def reference_key(task: str, cfg: dict) -> str:
    """Key of a config's stored reference outputs: equal configs share one."""
    return f"{task}-{hashlib.sha256(to_yaml(cfg).encode()).hexdigest()[:12]}"


def write_configs(workload: str, seed: int, directory) -> Dict[str, str]:
    """Write one YAML file per config; returns name -> path, in run order."""
    paths = {}
    for name, cfg in configs(workload, seed):
        path = directory / f"{name}.yaml"
        path.write_text(to_yaml(cfg), encoding="utf-8")
        paths[name] = str(path)
    return paths
