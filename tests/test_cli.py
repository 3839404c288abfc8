"""End-to-end checks of the command-line driver.

Most tests call cli.main() in-process for speed; one subprocess test
covers the ``python -m correlab`` entry.  Runs use tiny lattices so the
whole file stays in the seconds range.
"""
import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
import yaml

from correlab import cli


def write_config(tmp_path: Path, text: str, name: str = "cfg.yaml") -> str:
    path = tmp_path / name
    path.write_text(textwrap.dedent(text), encoding="utf-8")
    return str(path)


def run_cli(args):
    return cli.main(list(args))


RESIDUE_CFG = """\
    task: residue_identity
    beta: [1.0]
    height_fractions: [0.0, 0.5]
    """

CORRELATOR_CFG = """\
    task: correlators
    model: {name: transverse_field_ising, n: 3, J: 1.0, h: 1.0}
    beta: [0.0, 1.0]
    a: {site: 0, op: Z}
    b: {site: 2, op: Z}
    times: {start: 0.0, stop: 1.0, step: 0.5}
    """


# ---------------------------------------------------------------------------
# validate_config
# ---------------------------------------------------------------------------

def test_validate_config_canonicalizes_and_hashes():
    raw = {"task": "residue_identity", "beta": 1.0}
    task, canon, digest = cli.validate_config(dict(raw))
    assert task == "residue_identity"
    # scalars become lists, defaults are materialized
    assert canon["beta"] == [1.0]
    assert canon["height_fractions"] == [0.0, 0.5, 1.0]
    assert canon["half_width"] == 10.0
    assert len(digest) == 12
    # the hash is a function of the canonical config only
    _, _, again = cli.validate_config(dict(raw))
    assert again == digest
    _, _, other = cli.validate_config({"task": "residue_identity",
                                       "beta": 2.0})
    assert other != digest


# Digests computed before the validators were folded into shared checks.
# A change here renames every run directory, so it must be deliberate.
GOLDEN_HASHES = [
    ({"task": "lr_scan",
      "model": {"name": "random_bond_ising", "n": 5, "spacing": 2.0,
                "seed": 7},
      "mu": 2, "a": {"site": 0, "op": "Z"}, "b": {"site": 3, "op": "X"},
      "times": [0, 1], "velocity": 3}, "7f7a3b663fce"),
    ({"task": "locality_scan",
      "model": {"name": "transverse_field_ising", "n": 4, "J": 1, "h": 1.0},
      "mu": 1.0, "a": {"site": 0, "op": "Z"}, "radii": [0, 1.0],
      "times": {"start": 0.0, "stop": 1.0, "step": 0.5}}, "f1fa7f472107"),
    ({"task": "correlators",
      "model": {"name": "heisenberg_xxz", "nx": 2, "ny": 2, "J": 1,
                "delta": 0.5},
      "beta": 1.0, "a": {"site": [0, 1], "op": "Y"},
      "b": {"site": [1, 0], "op": "Z"}, "times": [0, 0.5],
      "tolerance": 1.0e-6}, "acb9fc264b3e"),
    ({"task": "contour",
      "model": {"name": "random_bond_ising", "n": 5, "spacing": 2.0,
                "seed": 7},
      "beta": 2, "a": {"site": 0, "op": "Z"}, "b": {"site": 3, "op": "X"},
      "heights": [0, 2], "nodes": 64, "half_width": 3}, "dd16362b04af"),
    ({"task": "theorem_check",
      "model": {"name": "transverse_field_ising", "n": 4, "J": 1, "h": 2.0},
      "beta": 0.5, "mu": 1, "distances": [1, 2]}, "23c0a3e6083b"),
    ({"task": "theorem_check",
      "model": {"name": "heisenberg_xxz", "nx": 2, "ny": 2, "J": 1,
                "delta": 0.5},
      "beta": 1, "mu": 2, "distances": [1.0, 2.0], "base_site": [1, 1],
      "op": "X"}, "e7015b54df25"),
    ({"task": "residue_identity", "beta": [0.5, 2],
      "height_fractions": [0, 1]}, "d534c7726146"),
]


@pytest.mark.parametrize("raw,digest", GOLDEN_HASHES,
                         ids=[f"{raw['task']}-{d}" for raw, d in GOLDEN_HASHES])
def test_canonical_hash_is_pinned(raw, digest):
    assert cli.validate_config(raw)[2] == digest


def test_validate_config_rejects_unknown_task():
    with pytest.raises(cli.ConfigError, match="unknown task"):
        cli.validate_config({"task": "frobnicate"})
    with pytest.raises(cli.ConfigError, match="task"):
        cli.validate_config({"beta": 1.0})


def test_validate_config_rejects_unknown_keys():
    with pytest.raises(cli.ConfigError, match="unknown key"):
        cli.validate_config({"task": "residue_identity", "beta": 1.0,
                             "extra": 2})


def test_validate_config_rejects_bool_as_number():
    with pytest.raises(cli.ConfigError, match="must be a number"):
        cli.validate_config({"task": "residue_identity", "beta": True})


def test_time_grid_divisibility():
    good = {"start": 0.0, "stop": 1.0, "step": 0.25}
    canon, vals = cli._time_grid(good, "times")
    assert vals == [0.0, 0.25, 0.5, 0.75, 1.0]
    with pytest.raises(cli.ConfigError, match="evenly divide"):
        cli._time_grid({"start": 0.0, "stop": 1.0, "step": 0.3}, "times")
    with pytest.raises(cli.ConfigError, match="positive"):
        cli._time_grid({"start": 0.0, "stop": 1.0, "step": -0.5}, "times")


def test_model_dimension_cap():
    # n = 100000 must be refused before an n x n lattice is built
    for n in (20, 100000):
        with pytest.raises(cli.ConfigError, match="exceeds the cap"):
            cli.validate_config({
                "task": "theorem_check",
                "model": {"name": "transverse_field_ising", "n": n,
                          "J": 1.0, "h": 1.0},
                "beta": 1.0, "mu": 1.0, "distances": [1.0, 2.0]})


def test_model_rejects_unknown_parameter():
    with pytest.raises(cli.ConfigError, match="model"):
        cli.validate_config({
            "task": "theorem_check",
            "model": {"name": "transverse_field_ising", "n": 4,
                      "J": 1.0, "h": 1.0, "bogus": 3.0},
            "beta": 1.0, "mu": 1.0, "distances": [1.0, 2.0]})


def test_operator_site_must_be_on_lattice():
    with pytest.raises(cli.ConfigError, match="not on the lattice"):
        cli.validate_config({
            "task": "lr_scan",
            "model": {"name": "transverse_field_ising", "n": 4,
                      "J": 1.0, "h": 1.0},
            "mu": 1.0,
            "a": {"site": 9, "op": "X"},
            "b": {"site": 0, "op": "Z"},
            "times": [0.0]})


# ---------------------------------------------------------------------------
# YAML strictness
# ---------------------------------------------------------------------------

def test_duplicate_yaml_keys_report_both_lines(tmp_path, capsys):
    cfg = write_config(tmp_path, """\
        task: residue_identity
        beta: [1.0]
        beta: [2.0]
        """)
    assert run_cli(["validate", cfg]) == 2
    err = capsys.readouterr().err
    assert "duplicate key 'beta' at line 3" in err
    assert "first defined at line 2" in err


def test_bare_scientific_notation_is_a_string(tmp_path, capsys):
    # YAML resolves 1e-8 (no dot in the mantissa) as a string; the
    # validator rejects it rather than silently coercing
    cfg = write_config(tmp_path, """\
        task: residue_identity
        beta: [1.0]
        tolerance: 1e-8
        """)
    assert run_cli(["validate", cfg]) == 2
    assert "must be a number" in capsys.readouterr().err
    ok = write_config(tmp_path, """\
        task: residue_identity
        beta: [1.0]
        tolerance: 1.0e-8
        """, name="ok.yaml")
    assert run_cli(["validate", ok]) == 0


def test_missing_file_and_non_mapping_top_level(tmp_path, capsys):
    assert run_cli(["validate", str(tmp_path / "nope.yaml")]) == 2
    assert "cannot read" in capsys.readouterr().err
    cfg = write_config(tmp_path, "- just\n- a\n- list\n")
    assert run_cli(["validate", cfg]) == 2
    assert "must be a mapping" in capsys.readouterr().err


def test_validate_prints_summary(tmp_path, capsys):
    cfg = write_config(tmp_path, CORRELATOR_CFG)
    assert run_cli(["validate", cfg]) == 0
    out = capsys.readouterr().out
    assert "ok: task=correlators" in out
    assert "model=transverse_field_ising" in out
    assert "dim=8" in out


# ---------------------------------------------------------------------------
# run: artifacts and exit codes
# ---------------------------------------------------------------------------

def test_run_residue_identity_artifacts(tmp_path, capsys):
    cfg = write_config(tmp_path, RESIDUE_CFG)
    assert run_cli(["run", cfg, "--outdir", str(tmp_path / "out")]) == 0
    out = capsys.readouterr().out
    assert "residue_identity" in out and "passed" in out

    runs = list((tmp_path / "out").iterdir())
    assert len(runs) == 1
    rundir = runs[0]
    record = json.loads((rundir / "record.json").read_text())
    assert record["task"] == "residue_identity"
    assert record["passed"] is True
    assert record["config_hash"] == rundir.name
    assert record["files"] == ["plot.gp", "residue_identity.csv"]
    assert record["summary"]["max_defect"] <= record["summary"]["tolerance"]
    assert (rundir / "plot.gp").exists()
    csv_text = (rundir / "residue_identity.csv").read_text()
    header, *rows = csv_text.splitlines()
    assert header.startswith("beta,fraction,height,")
    assert len(rows) == 2  # one beta, two fractions


def test_run_exit_one_when_invariant_fails(tmp_path, capsys):
    cfg = write_config(tmp_path, """\
        task: residue_identity
        beta: [1.0]
        height_fractions: [0.5]
        tolerance: 0.0
        """)
    assert run_cli(["run", cfg, "--outdir", str(tmp_path / "out")]) == 1
    assert "FAILED" in capsys.readouterr().out
    rundir = next((tmp_path / "out").iterdir())
    record = json.loads((rundir / "record.json").read_text())
    assert record["passed"] is False


def test_run_exit_two_on_config_error(tmp_path, capsys):
    for text in ("beta: [-1.0]\n", "beta: [1.0]\nhalf_width: 0.0\n"):
        cfg = write_config(tmp_path, "task: residue_identity\n" + text)
        assert run_cli(["run", cfg, "--outdir", str(tmp_path / "out")]) == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


CHAIN = {"name": "transverse_field_ising", "n": 3}


@pytest.mark.parametrize("override", [
    {"model": {"name": "transverse_field_ising", "nx": 0, "ny": 2}},
    {"model": dict(CHAIN, spacing=0.0)},
    {"model": dict(CHAIN, spacing=-1.0)},
    {"model": dict(CHAIN, h=float("nan"))},
    {"beta": float("inf")},
    {"distances": [1.0, float("nan")]},
    {"mu": float("inf")},
], ids=["grid-nx-0", "spacing-0", "spacing-negative", "h-nan", "beta-inf",
        "distance-nan", "mu-inf"])
def test_run_exit_two_on_degenerate_or_non_finite_config(tmp_path, capsys,
                                                         override):
    raw = {"task": "theorem_check", "model": CHAIN, "beta": 1.0, "mu": 1.0,
           "distances": [1.0, 2.0], **override}
    cfg = write_config(tmp_path, yaml.safe_dump(raw))
    assert run_cli(["run", cfg, "--outdir", str(tmp_path / "out")]) == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_outdir_environment_fallback(tmp_path, monkeypatch, capsys):
    target = tmp_path / "from-env"
    monkeypatch.setenv("CORRELAB_OUTDIR", str(target))
    cfg = write_config(tmp_path, RESIDUE_CFG)
    assert run_cli(["run", cfg]) == 0
    capsys.readouterr()
    assert target.exists() and any(target.iterdir())


def test_run_correlators_task(tmp_path, capsys):
    cfg = write_config(tmp_path, CORRELATOR_CFG)
    assert run_cli(["run", cfg, "--outdir", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    rundir = next((tmp_path / "out").iterdir())
    record = json.loads((rundir / "record.json").read_text())
    assert record["summary"]["max_route_gap"] <= 1e-8
    assert record["summary"]["max_kms_gap"] <= 1e-8

    grid = (rundir / "correlators.csv").read_text().splitlines()
    assert grid[0] == ("beta,time,f_re,f_im,g_re,g_im,"
                      "f_boundary_re,f_boundary_im")
    assert len(grid) == 1 + 2 * 3  # two betas, three times
    # the boundary columns must match the swapped-order correlator
    for line in grid[1:]:
        cells = [float(c) for c in line.split(",")]
        assert abs(cells[6] - cells[4]) < 1e-10
        assert abs(cells[7] - cells[5]) < 1e-10

    summary = (rundir / "correlators_summary.csv").read_text().splitlines()
    assert len(summary) == 1 + 2


def test_run_contour_task(tmp_path, capsys):
    cfg = write_config(tmp_path, """\
        task: contour
        model: {name: transverse_field_ising, n: 4, J: 1.0, h: 1.0}
        beta: 1.0
        a: {site: 0, op: Z}
        b: {site: 3, op: Z}
        heights: [0.5]
        nodes: 256
        """)
    assert run_cli(["run", cfg, "--outdir", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    rundir = next((tmp_path / "out").iterdir())
    record = json.loads((rundir / "record.json").read_text())
    assert record["summary"]["max_relative_defect"] <= 1e-6


def test_run_lr_scan_task(tmp_path, capsys):
    cfg = write_config(tmp_path, """\
        task: lr_scan
        model: {name: transverse_field_ising, n: 5, J: 1.0, h: 1.0}
        mu: 1.0
        a: {site: 0, op: Z}
        b: {site: 4, op: Z}
        times: [0.0, 0.2]
        """)
    assert run_cli(["run", cfg, "--outdir", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    rundir = next((tmp_path / "out").iterdir())
    record = json.loads((rundir / "record.json").read_text())
    assert record["summary"]["violations"] == 0
    assert record["summary"]["distance"] == 4.0
    rows = (rundir / "lr_scan.csv").read_text().splitlines()
    assert len(rows) == 1 + 2


def test_run_locality_scan_task(tmp_path, capsys):
    cfg = write_config(tmp_path, """\
        task: locality_scan
        model: {name: transverse_field_ising, n: 5, J: 1.0, h: 1.0}
        mu: 1.0
        a: {site: 2, op: Z}
        radii: [0.0, 1.0, 2.0]
        times: [0.0, 0.3]
        """)
    assert run_cli(["run", cfg, "--outdir", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    rundir = next((tmp_path / "out").iterdir())
    record = json.loads((rundir / "record.json").read_text())
    assert record["summary"]["monotone_in_radius"] is True
    errs = record["summary"]["max_error_by_radius"]
    assert errs["2.0"] <= errs["1.0"] <= errs["0.0"]


def test_run_theorem_check_task(tmp_path, capsys):
    cfg = write_config(tmp_path, """\
        task: theorem_check
        model: {name: transverse_field_ising, n: 6, J: 1.0, h: 2.0}
        beta: 0.5
        mu: 1.0
        distances: [2.0, 3.0, 4.0, 5.0]
        """)
    assert run_cli(["run", cfg, "--outdir", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    rundir = next((tmp_path / "out").iterdir())
    record = json.loads((rundir / "record.json").read_text())
    s = record["summary"]
    assert s["xi"] > 0 and s["c_prime"] > 0
    assert s["xi_prime"] >= max(4 * s["xi"], 2.0 / 1.0) - 1e-12
    rows = (rundir / "theorem_check.csv").read_text().splitlines()
    assert len(rows) == 1 + 4


# ---------------------------------------------------------------------------
# determinism and parallelism
# ---------------------------------------------------------------------------

def test_repeated_runs_are_byte_identical(tmp_path, capsys):
    cfg = write_config(tmp_path, """\
        task: theorem_check
        model: {name: transverse_field_ising, n: 6, J: 1.0, h: 2.0}
        beta: 0.5
        mu: 1.0
        distances: [2.0, 3.0, 4.0]
        """)
    assert run_cli(["run", cfg, "--outdir", str(tmp_path / "one")]) == 0
    assert run_cli(["run", cfg, "--outdir", str(tmp_path / "two")]) == 0
    capsys.readouterr()
    d1 = next((tmp_path / "one").iterdir())
    d2 = next((tmp_path / "two").iterdir())
    assert d1.name == d2.name  # same config, same hash
    b1 = (d1 / "theorem_check.csv").read_bytes()
    b2 = (d2 / "theorem_check.csv").read_bytes()
    assert b1 == b2
    r1 = json.loads((d1 / "record.json").read_text())
    r2 = json.loads((d2 / "record.json").read_text())
    r1.pop("elapsed_seconds"), r2.pop("elapsed_seconds")
    assert r1 == r2


def test_workers_do_not_change_output(tmp_path, capsys):
    cfg = write_config(tmp_path, """\
        task: residue_identity
        beta: [0.5, 1.0, 2.0]
        height_fractions: [0.0, 0.5, 1.0]
        """)
    assert run_cli(["run", cfg, "--outdir", str(tmp_path / "seq")]) == 0
    assert run_cli(["run", cfg, "--outdir", str(tmp_path / "par"),
                    "--workers", "4"]) == 0
    capsys.readouterr()
    seq = next((tmp_path / "seq").iterdir()) / "residue_identity.csv"
    par = next((tmp_path / "par").iterdir()) / "residue_identity.csv"
    assert seq.read_bytes() == par.read_bytes()


# ---------------------------------------------------------------------------
# plot
# ---------------------------------------------------------------------------

def test_plot_rewrites_script(tmp_path, capsys):
    cfg = write_config(tmp_path, RESIDUE_CFG)
    assert run_cli(["run", cfg, "--outdir", str(tmp_path / "out")]) == 0
    rundir = next((tmp_path / "out").iterdir())
    script = rundir / "plot.gp"
    original = script.read_text()
    script.unlink()
    assert run_cli(["plot", str(rundir / "record.json")]) == 0
    assert script.read_text() == original
    out = capsys.readouterr().out
    assert str(script) in out
    # explicit kind swaps the template
    assert run_cli(["plot", str(rundir / "record.json"),
                    "--kind", "lr_scan"]) == 0
    assert "lr_scan.csv" in script.read_text()


def test_plot_missing_record_is_config_error(tmp_path, capsys):
    assert run_cli(["plot", str(tmp_path / "absent.json")]) == 2
    assert "cannot read" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# module entry point
# ---------------------------------------------------------------------------

def test_module_invocation(tmp_path):
    cfg = write_config(tmp_path, RESIDUE_CFG)
    proc = subprocess.run([sys.executable, "-m", "correlab", "validate", cfg],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert "ok: task=residue_identity" in proc.stdout
