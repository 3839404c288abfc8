"""correlab benchmark: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  One run repeats passes for about S
seconds.  A pass is one fresh Python child that imports correlab from
src/ and calls `cli.main(["run", cfg, "--outdir", ..., "--workers", "1"])`
on each of the workload's configs in order: a closed loop with one client.
BLAS threads in every child are pinned to the number of usable cores.

--trace 0 prints the end-to-end metrics: the median pass wall time, the
median set-up time of the children and their median peak RSS.  --trace 1
alternates untraced and traced passes and prints the per-layer metrics of
the traced ones (per pass), the tracing overhead and a dense-LA floor
probe.  Every pass is checked against stored reference outputs and for
byte-identical CSVs across passes; the last line of standard output is one
JSON object with `correct`, `attempted`, `failed` and `metrics`.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import refcheck  # noqa: E402
import workloads  # noqa: E402
from child import THREAD_VARS  # noqa: E402

SETUP_PROBES = 5
MIN_PASSES = 3        # untraced passes with --trace 0
MIN_PASSES_TRACED = 2  # of each kind with --trace 1, which alternates
RUN_LIMIT = 165.0     # seconds; every child is stopped by then
FLOOR_RESERVE = 40.0  # seconds kept free for the floor probe with --trace 1
FLOOR_DIMS = (1024, 4096)
TASKS = sorted({task for w in workloads.WORKLOADS
                for task, _ in workloads.configs(w, 0)})


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = str(nproc())
    return env


class Work:
    """Working directory of one run, inside the checkout."""

    def __init__(self, workload: str, seed: int):
        self.dir = ROOT / ".bench_work" / f"{workload}-{seed}-{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.log = self.dir / "children.log"
        self.env = child_env()
        self.count = 0
        self.deadline = time.monotonic() + RUN_LIMIT

    def child(self, mode: str, *args: str) -> tuple:
        """Run one child to completion, or stop it at the run's deadline;
        returns (spawn time, result or None)."""
        self.count += 1
        result = self.dir / f"result-{self.count}.json"
        argv = [sys.executable, str(HERE / "child.py"), mode,
                "--result", str(result), *args]
        spawned = time.monotonic()
        with open(self.log, "ab") as log:
            proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT,
                                    env=self.env, cwd=self.dir)
            try:
                rc = proc.wait(timeout=max(0.0, self.deadline - spawned))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                rc = None
        if rc != 0 or not result.is_file():
            return spawned, None
        return spawned, json.loads(result.read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# One pass and its checks
# ---------------------------------------------------------------------------

def run_pass(work: Work, config_paths: Dict[str, str], traced: bool) -> dict:
    outdir = work.dir / f"pass-{work.count + 1}"
    args = ["--src", str(ROOT / "src"), "--outdir", str(outdir)]
    if traced:
        args.append("--trace")
    spawned, result = work.child("pass", *args, *config_paths.values())
    return {"traced": traced, "outdir": outdir, "spawned": spawned,
            "result": result}


def read_outputs(outdir: Path, task: str) -> Optional[dict]:
    """record.json and CSV texts of a task's run directory, or None."""
    dirs = [d for d in outdir.glob("*") if (d / "record.json").is_file()
            and json.loads((d / "record.json").read_text())["task"] == task]
    if len(dirs) != 1:
        return None
    record = json.loads((dirs[0] / "record.json").read_text(encoding="utf-8"))
    files = {}
    for name in record["files"]:
        if name.endswith(".csv"):
            path = dirs[0] / name
            if not path.is_file():
                return None
            files[name] = path.read_text(encoding="utf-8")
    return {"record": record, "files": files}


def check_pass(p: dict, tasks: List[str], reference: dict,
               first_hashes: Dict[str, str]) -> dict:
    """Per-task failures of one pass; fills first_hashes on the first pass."""
    failures: Dict[str, List[str]] = {}
    outputs: Dict[str, dict] = {}
    floor_rows = 0
    runs = p["result"]["runs"] if p["result"] else [None] * len(tasks)
    for task, run in zip(tasks, runs):
        problems = []
        if run is None or run["rc"] != 0:
            problems.append(f"exit code {None if run is None else run['rc']}")
        out = read_outputs(p["outdir"], task)
        if out is None:
            problems.append("missing artifact")
        else:
            outputs[task] = out
            if not out["record"]["passed"]:
                problems.append("record.json says FAILED")
            mismatches, rows = refcheck.compare(
                task, out["record"]["config"], out["files"], reference[task])
            problems += mismatches
            floor_rows += rows
            for name, text in out["files"].items():
                digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
                if first_hashes.setdefault(f"{task}/{name}", digest) != digest:
                    problems.append(f"{name}: bytes differ from the first pass")
        if problems:
            failures[task] = problems
    return {"failures": failures, "outputs": outputs, "floor_rows": floor_rows}


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def end_to_end(passes: List[dict], setups: List[float]) -> dict:
    ok = [p["result"] for p in passes]
    return {
        "wall_s": (statistics.median(r["wall_s"] for r in ok), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(r["maxrss_kb"] for r in ok) / 1024, "MB"),
    }


def per_layer(traced: List[dict], untraced: List[dict], floor: dict,
              health: dict) -> dict:
    """Per-pass means over the traced passes, plus ratios and diagnostics."""
    n = len(traced)
    spans: Dict[str, Dict[str, float]] = {}
    counters: Dict[str, float] = {}
    elapsed: Dict[str, float] = {t: 0.0 for t in TASKS}
    for p in traced:
        r = p["result"]
        for name, agg in r["trace"]["summary"].items():
            acc = spans.setdefault(name, {"calls": 0, "time_s": 0.0, "self_s": 0.0})
            for k in acc:
                acc[k] += agg[k] / n
        for name, value in r["trace"]["counters"].items():
            counters[name] = counters.get(name, 0.0) + value / n
        for task, out in p["check"]["outputs"].items():
            elapsed[task] += out["record"]["elapsed_seconds"] / n

    def get(name, key):
        return spans.get(name, {}).get(key, 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    def by_prefix(prefix):
        return {k[len(prefix):]: v for k, v in counters.items()
                if k.startswith(prefix)}

    eig_floor = sum(calls * floor[d]["eigh_s"]
                    for d, calls in by_prefix("eig_dim:").items())
    tr_floor, tr_complex = 0.0, 0.0
    for key, calls in by_prefix("transform:").items():
        d, kind, gemms = key.split(":")
        tr_floor += calls * int(gemms) * floor[d][f"{kind}gemm_s"]
        tr_complex += calls * (kind == "z")
    eig_dims = [int(d) for d in by_prefix("eig_dim:")]
    sn_eig = counters.get("spectral_norm_eigvalsh", 0.0)
    sn_svd = counters.get("spectral_norm_norm", 0.0)
    gl_calls = get("quadrature.gauss_legendre", "calls")
    cd_calls = get("verify.contour_decomposition", "calls")
    ri_calls = get("verify.residue_identity", "calls")
    walls_t = statistics.median(p["result"]["wall_s"] for p in traced)
    walls_u = statistics.median(p["result"]["wall_s"] for p in untraced)

    m = {
        "spectral.eig_hermitian.time_s": (get("spectral.eig_hermitian", "time_s"), "s"),
        "spectral.eig_hermitian.calls": (get("spectral.eig_hermitian", "calls"), "count"),
        "spectral.eig_hermitian.dim_max": (max(eig_dims, default=0), "states"),
        "spectral.eig_hermitian.floor_ratio": (
            ratio(get("spectral.eig_hermitian", "time_s"), eig_floor), "ratio"),
        "spectral.transform.time_s": (get("spectral.transform", "time_s"), "s"),
        "spectral.transform.calls": (get("spectral.transform", "calls"), "count"),
        "spectral.transform.complex_share": (
            ratio(tr_complex, get("spectral.transform", "calls")), "ratio"),
        "spectral.transform.floor_ratio": (
            ratio(get("spectral.transform", "time_s"), tr_floor), "ratio"),
        "spectral.build_hamiltonian.self_s": (get("spectral.build_hamiltonian", "self_s"), "s"),
        "operators.embed.time_s": (get("operators.embed", "time_s"), "s"),
        "operators.embed.calls": (get("operators.embed", "calls"), "count"),
        "operators.embed.bytes_computed": (counters.get("embed_bytes", 0.0), "B"),
        "operators.spectral_norm.time_s": (get("operators.spectral_norm", "time_s"), "s"),
        "operators.spectral_norm.calls": (get("operators.spectral_norm", "calls"), "count"),
        "operators.spectral_norm.eig_path_ratio": (ratio(sn_eig, sn_eig + sn_svd), "ratio"),
        "operators.conditional_expectation.time_s": (
            get("operators.conditional_expectation", "time_s"), "s"),
        "operators.conditional_expectation.calls": (
            get("operators.conditional_expectation", "calls"), "count"),
        "thermal.canonical_closed_form.time_s": (
            get("thermal.canonical_correlator.closed_form", "time_s"), "s"),
        "thermal.canonical_closed_form.calls": (
            get("thermal.canonical_correlator.closed_form", "calls"), "count"),
        "thermal.canonical_quadrature.time_s": (
            get("thermal.canonical_correlator.quadrature", "time_s"), "s"),
        "thermal.canonical_quadrature.calls": (
            get("thermal.canonical_correlator.quadrature", "calls"), "count"),
        "thermal.ordinary_correlator.time_s": (get("thermal.ordinary_correlator", "time_s"), "s"),
        "thermal.kms_grid.time_s": (get("thermal.kms_grid", "time_s"), "s"),
        "thermal.kms_grid.points": (counters.get("kms_grid_points", 0.0), "count"),
        "thermal.kms_point.time_s": (get("thermal.kms_point", "time_s"), "s"),
        "thermal.gibbs_state.self_s": (get("thermal.gibbs_state", "self_s"), "s"),
        "dynamics.lr_commutator_scan.self_s": (get("dynamics.lr_commutator_scan", "self_s"), "s"),
        "dynamics.lr_commutator_scan.points": (counters.get("lr_points", 0.0), "count"),
        "dynamics.lr_commutator_scan.floor_rows": (health["floor_rows"], "count"),
        "dynamics.locality_scan.self_s": (get("dynamics.locality_scan", "self_s"), "s"),
        "dynamics.locality_scan.points": (counters.get("locality_points", 0.0), "count"),
        "dynamics.evolution_context.self_s": (get("dynamics.evolution_context", "self_s"), "s"),
        "verify.theorem_check.self_s": (get("verify.theorem_check", "self_s"), "s"),
        "verify.contour_decomposition.self_s": (get("verify.contour_decomposition", "self_s"), "s"),
        "verify.contour_decomposition.calls": (cd_calls, "count"),
        "verify.contour_decomposition.subtracted_share": (
            ratio(counters.get("contour_subtracted", 0.0), cd_calls), "ratio"),
        "verify.residue_identity.time_s": (get("verify.residue_identity", "time_s"), "s"),
        "verify.residue_identity.nodes_mean": (
            ratio(counters.get("residue_nodes", 0.0), ri_calls), "count"),
        "quadrature.gauss_legendre.time_s": (get("quadrature.gauss_legendre", "time_s"), "s"),
        "quadrature.gauss_legendre.calls": (gl_calls, "count"),
        "quadrature.gauss_legendre.hit_ratio": (
            ratio(counters.get("gauss_hits", 0.0), gl_calls), "ratio"),
        "lattice.self_s": (sum(v["self_s"] for k, v in spans.items()
                               if k.startswith("lattice.")), "s"),
        "cli.validate.time_s": (get("cli.validate_config", "time_s"), "s"),
        "cli.io_s": (get("cli.main", "time_s") - sum(elapsed.values()), "s"),
        "thermal.route_gap_max": (health["route_gap"], "1"),
        "thermal.kms_gap_max": (health["kms_gap"], "1"),
        "verify.contour_decomposition.max_rel_defect": (health["contour_defect"], "1"),
        "verify.residue_identity.max_defect": (health["residue_defect"], "1"),
        "trace.overhead_share": (walls_t / walls_u - 1.0, "ratio"),
    }
    for task in TASKS:
        m[f"cli.{task}.time_s"] = (elapsed[task], "s")
    for d in FLOOR_DIMS:
        for op in ("eigh_s", "dgemm_s", "zgemm_s"):
            m[f"floor.{op}.d{d}"] = (floor[str(d)][op], "s")
    return m


def health_numbers(outputs: Dict[str, dict], floor_rows: int) -> dict:
    """Numerical-health diagnostics read from record.json summaries."""
    def summary(task, key):
        out = outputs.get(task)
        return float(out["record"]["summary"][key]) if out else 0.0
    return {"route_gap": summary("correlators", "max_route_gap"),
            "kms_gap": summary("correlators", "max_kms_gap"),
            "contour_defect": summary("contour", "max_relative_defect"),
            "residue_defect": summary("residue_identity", "max_defect"),
            "floor_rows": floor_rows}


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------

def load_reference(workload: str, seed: int) -> dict:
    """Stored reference outputs of this seed's configs, by task."""
    path = HERE / "reference" / f"{workload}.json"
    table = json.loads(path.read_text(encoding="utf-8"))
    return {task: table[workloads.reference_key(task, cfg)]
            for task, cfg in workloads.configs(workload, seed)}


def measure(workload: str, seed: int, seconds: float, trace: bool) -> int:
    work = Work(workload, seed)
    config_paths = workloads.write_configs(workload, seed, work.dir)
    tasks = list(config_paths)
    reference = load_reference(workload, seed)

    setups = []
    for _ in range(0 if trace else SETUP_PROBES):
        spawned, result = work.child("setup", "--src", str(ROOT / "src"))
        if result:
            setups.append(result["ready"] - spawned)

    passes: List[dict] = []
    hashes: Dict[str, str] = {}
    start = time.monotonic()
    last_start = work.deadline - (FLOOR_RESERVE if trace else 0.0)
    while True:
        p = run_pass(work, config_paths, traced=trace and len(passes) % 2 == 1)
        p["check"] = check_pass(p, tasks, reference, hashes)
        if p["result"]:
            setups.append(p["result"]["ready"] - p["spawned"])
        passes.append(p)
        now = time.monotonic()
        per_pass = (now - start) / len(passes)
        enough = len(passes) >= (2 * MIN_PASSES_TRACED if trace else MIN_PASSES)
        if now + per_pass > last_start or (
                enough and now - start + per_pass > seconds):
            break

    attempted = len(passes) * len(tasks)
    failed = sum(len(p["check"]["failures"]) for p in passes)
    usable = [p for p in passes if p["result"]]
    for i, p in enumerate(passes):
        for task, problems in p["check"]["failures"].items():
            print(f"FAILED pass {i + 1} {task}: " + "; ".join(problems[:5]))

    ctx = usable[0]["result"]["context"] if usable else {}
    ctx.update(nproc=nproc(), machine=platform.machine(),
               workload=workload, seed=seed, variant=workloads.variant(seed),
               passes=len(passes), traced_passes=sum(p["traced"] for p in passes))
    print("context " + json.dumps(ctx, sort_keys=True))
    print("pass_wall_s " + json.dumps([round(p["result"]["wall_s"], 4)
                                       for p in usable]))
    print(f"failed_share {failed / attempted:.6g} ({failed} of {attempted} CLI runs)")

    traced = [p for p in usable if p["traced"]]
    untraced = [p for p in usable if not p["traced"]]
    metrics: Dict[str, tuple] = {}
    if not trace and untraced and setups:
        metrics = end_to_end(untraced, setups)
    elif trace and traced and untraced:
        dims = {int(k.split(":")[1]) for p in traced
                for k in p["result"]["trace"]["counters"]
                if k.startswith(("eig_dim:", "transform:"))}
        _, floor = work.child("floor", "--dims",
                              ",".join(map(str, sorted(dims | set(FLOOR_DIMS)))))
        if floor:
            last = traced[-1]["check"]
            metrics = per_layer(traced, untraced, floor["floor"],
                                health_numbers(last["outputs"], last["floor_rows"]))
            metrics["context.nproc"] = (ctx["nproc"], "count")
            metrics["context.blas_threads"] = (ctx.get("blas_threads", -1), "count")
            print("floor " + json.dumps(floor["floor"], sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")

    correct = failed == 0 and bool(metrics)
    if correct:
        shutil.rmtree(work.dir, ignore_errors=True)
        try:
            work.dir.parent.rmdir()
        except OSError:
            pass
    else:
        print(f"outputs and child logs kept in {work.dir}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "correlab" / "__init__.py").is_file():
        print(f"perfbench: no correlab source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    return measure(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
