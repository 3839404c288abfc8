"""Checks of the benchmark's own code: span arithmetic, rebinding, the
node-count ledger and the reference comparison."""
import json
import subprocess
import sys
import textwrap
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import refcheck  # noqa: E402
import workloads  # noqa: E402
from spans import FirstSeen, Tracer, rebind, summarize, wrap  # noqa: E402


class ScriptedClock:
    def __init__(self, *ticks):
        self.ticks = list(ticks)

    def __call__(self):
        return self.ticks.pop(0)


def test_self_time_subtracts_direct_children_only():
    # outer [0, 10] holds mid [1, 7], which holds leaf [2, 5]; then a
    # sibling leaf [8, 9] directly under outer.
    t = Tracer(clock=ScriptedClock(0, 1, 2, 5, 7, 8, 9, 10))
    outer = t.open("outer")
    mid = t.open("mid")
    leaf = t.open("leaf")
    t.close(leaf)
    t.close(mid)
    leaf2 = t.open("leaf")
    t.close(leaf2)
    t.close(outer)
    s = summarize(t.spans)
    assert s["outer"] == {"calls": 1, "time_s": 10, "self_s": 10 - 6 - 1}
    assert s["mid"] == {"calls": 1, "time_s": 6, "self_s": 6 - 3}
    assert s["leaf"] == {"calls": 2, "time_s": 4, "self_s": 4}


def test_reentered_name_counts_inclusive_time_once():
    t = Tracer(clock=ScriptedClock(0, 2, 5, 10))
    a = t.open("f")
    b = t.open("f")
    t.close(b)
    t.close(a)
    s = summarize(t.spans)["f"]
    assert s["calls"] == 2
    assert s["time_s"] == 10          # not 10 + 3
    assert s["self_s"] == 10          # (10 - 3) + 3


def test_function_bound_under_several_names_is_counted_once_per_call():
    def helper(x):
        return x + 1

    def api(x):
        return home.helper(x) * 2

    home = types.ModuleType("pkg.home")
    home.helper, home.api = helper, api
    other = types.ModuleType("pkg.other")
    other.helper = helper              # "from .home import helper"
    other.alias = helper
    t = Tracer()
    for fn in (helper, api):
        assert rebind([home, other], fn, wrap(t, fn, fn.__name__)) >= 1
    assert other.helper is other.alias is home.helper
    assert other.helper(1) == 2
    assert home.api(1) == 4            # api -> helper through the module
    assert other.alias(5) == 6
    s = summarize(t.spans)
    assert s["helper"]["calls"] == 3
    assert s["api"]["calls"] == 1
    parents = [t.spans[p][0] for _, _, _, p in t.spans if p >= 0]
    assert parents == ["api"]


def test_first_seen_ledger():
    ledger = FirstSeen()
    hits = [ledger.observe(n) for n in (64, 128, 64, 64, 256, 128)]
    assert hits == [False, False, True, True, False, True]
    assert (ledger.calls, ledger.hits, ledger.ratio) == (6, 3, 0.5)
    assert FirstSeen().ratio == 0.0


def test_traced_child_counts_the_real_package(tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(textwrap.dedent("""\
        task: correlators
        model: {name: transverse_field_ising, n: 3, J: 1.0, h: 1.0}
        beta: [0.5, 1.0]
        a: {site: 0, op: Z}
        b: {site: 2, op: Z}
        times: {start: 0.0, stop: 1.0, step: 0.5}
        """), encoding="utf-8")
    result = tmp_path / "result.json"
    subprocess.run([sys.executable, str(BENCH / "child.py"), "pass",
                    "--src", str(BENCH.parent / "src"), "--result", str(result),
                    "--outdir", str(tmp_path / "out"), "--trace", str(cfg)],
                   check=True, capture_output=True, timeout=120)
    r = json.loads(result.read_text())
    assert [run["rc"] for run in r["runs"]] == [0]
    s, c = r["trace"]["summary"], r["trace"]["counters"]
    # eig_hermitian is bound in spectral, thermal, dynamics, cli and the
    # package namespace; the correlators task calls it once
    assert s["spectral.eig_hermitian"]["calls"] == 1
    assert c["eig_dim:8"] == 1
    assert s["cli.main"]["calls"] == 1
    # one quadrature-route canonical correlator per beta; its node counts
    # 64, 128, ... repeat across the two betas
    assert s["thermal.canonical_correlator.quadrature"]["calls"] == 2
    assert s["thermal.canonical_correlator.closed_form"]["calls"] == 2
    calls = s["quadrature.gauss_legendre"]["calls"]
    assert 4 <= calls and c["gauss_hits"] >= calls / 2
    # three grid evaluations of three points per beta
    assert s["thermal.kms_grid"]["calls"] == 6
    assert c["kms_grid_points"] == 18


def _lr_csv(norms):
    rows = ["time,distance,commutator_norm,envelope,bound"]
    for i, x in enumerate(norms):
        rows.append(f"{0.1 * i!r},2.0,{x!r},{0.5 * i!r},{x!r}")
    return "\n".join(rows) + "\n"


LR_CONFIG = {"model": {"name": "random_bond_ising", "n": 4}}   # floor 16 eps


def test_reference_check_rejects_a_perturbed_value():
    norms = [1e-15, 2e-15, 3e-9, 4e-5]
    ref = refcheck.make_reference({"lr_scan.csv": _lr_csv(norms)})
    ok, floor_rows = refcheck.compare("lr_scan", LR_CONFIG,
                                      {"lr_scan.csv": _lr_csv(norms)}, ref)
    assert ok == [] and floor_rows == 2
    bad = norms[:3] + [4e-5 * (1 + 1e-6)]
    problems, _ = refcheck.compare("lr_scan", LR_CONFIG,
                                   {"lr_scan.csv": _lr_csv(bad)}, ref)
    assert len(problems) == 1 and "row 3 commutator_norm" in problems[0]


def test_reference_check_accepts_changes_below_the_floor():
    floor = refcheck.round_off_floor(LR_CONFIG)
    norms = [1e-15, 2e-15, 3e-9, 4e-5]
    ref = refcheck.make_reference({"lr_scan.csv": _lr_csv(norms)})
    noisy = [0.9 * floor, 0.0, 3e-9 + 0.5 * floor, 4e-5 * (1 + 1e-9)]
    problems, floor_rows = refcheck.compare(
        "lr_scan", LR_CONFIG, {"lr_scan.csv": _lr_csv(noisy)}, ref)
    assert problems == [] and floor_rows == 2
    # the bound column follows c_empirical and is not compared
    assert ("lr_scan.csv", "bound") in refcheck.SKIPPED


def test_reference_check_uses_the_task_tolerance():
    text = "beta,route_gap\n0.5,1e-15\n1.0,0.25\n"
    ref = refcheck.make_reference({"s.csv": text})
    config = {"tolerance": 1e-8}
    near = "beta,route_gap\n0.5,5e-9\n1.0,0.25000001\n"
    far = "beta,route_gap\n0.5,5e-8\n1.0,0.25\n"
    assert refcheck.compare("correlators", config, {"s.csv": near}, ref)[0] == []
    assert len(refcheck.compare("correlators", config, {"s.csv": far}, ref)[0]) == 1
    assert refcheck.compare("correlators", config, {}, ref)[0] == ["s.csv: missing"]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_inputs_depend_on_the_seed_but_not_their_size(name, tmp_path):
    def sizes(cfgs):
        return [(task, cfg.get("model", {}).get("n"), cfg.get("times"),
                 cfg.get("distances"), cfg.get("heights"))
                for task, cfg in cfgs]

    same = workloads.configs(name, 3), workloads.configs(name, 3)
    assert same[0] == same[1]
    variants = [workloads.configs(name, s) for s in range(workloads.VARIANTS)]
    assert len({sizes(v).__repr__() for v in variants}) == 1
    assert len({repr(v) for v in variants}) > 1
    paths = workloads.write_configs(name, 3, tmp_path)
    assert list(paths) == [task for task, _ in same[0]]
