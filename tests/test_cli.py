"""End-to-end checks of the command-line driver.

Most tests call cli.main() in-process for speed; one subprocess test
covers the ``python -m correlab`` entry.  Runs use tiny lattices so the
whole file stays in the seconds range.
"""
import dataclasses
import json
import math
import re
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import pytest
import yaml

from correlab import Interaction, KMSFunction, LocalOperator, \
    SpectralDecomposition, cli, spectral, thermal


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

CONTOUR_CFG = """\
    task: contour
    model: {name: transverse_field_ising, n: 4, J: 1.0, h: 1.0}
    beta: 1.0
    a: {site: 0, op: Z}
    b: {site: 3, op: Z}
    heights: [0.5]
    nodes: 256
    """

LR_SCAN_CFG = """\
    task: lr_scan
    model: {name: transverse_field_ising, n: 5, J: 1.0, h: 1.0}
    mu: 1.0
    a: {site: 0, op: Z}
    b: {site: 4, op: Z}
    times: [0.0, 0.2]
    """

LOCALITY_CFG = """\
    task: locality_scan
    model: {name: transverse_field_ising, n: 5, J: 1.0, h: 1.0}
    mu: 1.0
    a: {site: 2, op: Z}
    radii: [0.0, 1.0, 2.0]
    times: [0.0, 0.3]
    """

THEOREM_CFG = """\
    task: theorem_check
    model: {name: transverse_field_ising, n: 6, J: 1.0, h: 2.0}
    beta: 0.5
    mu: 1.0
    distances: [2.0, 3.0, 4.0, 5.0]
    """

TASK_CFGS = [RESIDUE_CFG, CORRELATOR_CFG, CONTOUR_CFG, LR_SCAN_CFG,
             LOCALITY_CFG, THEOREM_CFG]


# ---------------------------------------------------------------------------
# validate_config
# ---------------------------------------------------------------------------

def test_validate_config_canonicalizes_and_hashes():
    raw = {"task": "residue_identity", "beta": 1.0}
    task, canon, digest, inputs = cli.validate_config(dict(raw))
    assert task == "residue_identity"
    assert inputs == canon  # no section to build
    # scalars become lists, defaults are materialized
    assert canon["beta"] == [1.0]
    assert canon["height_fractions"] == [0.0, 0.5, 1.0]
    assert canon["half_width"] == 10.0
    assert len(digest) == 12
    # the hash is a function of the canonical config only
    _, _, again, _ = cli.validate_config(dict(raw))
    assert again == digest
    _, _, other, _ = cli.validate_config({"task": "residue_identity",
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


def test_validate_config_returns_what_the_runner_takes():
    # the sections are built once: the runner gets the Interaction, the
    # operators, the expanded time list and the base-site label
    _, canon, _, inputs = cli.validate_config({
        "task": "lr_scan", "model": {"name": "heisenberg_xxz", "nx": 2,
                                     "ny": 2},
        "mu": 1.0, "a": {"site": [0, 1], "op": "Y"},
        "b": {"site": [1, 0], "op": "Z"},
        "times": {"start": 0.0, "stop": 1.0, "step": 0.5}})
    assert isinstance(inputs["model"], Interaction)
    assert len(inputs["model"].lattice) == 4
    assert isinstance(inputs["a"], LocalOperator)
    assert inputs["a"].support == ((0, 1),)
    assert inputs["times"] == [0.0, 0.5, 1.0]
    assert canon["times"] == {"start": 0.0, "stop": 1.0, "step": 0.5}
    assert inputs["mu"] == canon["mu"] == 1.0
    raw = dict(GOLDEN_HASHES[5][0])  # a grid, base_site [1, 1]
    assert cli.validate_config(raw)[3]["base_site"] == (1, 1)
    del raw["base_site"]
    assert cli.validate_config(raw)[3]["base_site"] is None


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


@pytest.mark.parametrize("betas, unconverged", [
    ([8.0], 1), ([0.2, 0.5, 1.0, 2.0], 0)], ids=["beta-8", "strip-betas"])
def test_run_residue_identity_counts_unconverged(tmp_path, capsys, betas,
                                                 unconverged):
    cfg = write_config(tmp_path, yaml.safe_dump(
        {"task": "residue_identity", "beta": betas,
         "height_fractions": [0.5] if unconverged else [0.0, 0.5, 1.0]}))
    # at beta = 8 the defect (6.2e3) also fails the tolerance
    expected_rc = 1 if unconverged else 0
    assert run_cli(["run", cfg, "--outdir", str(tmp_path / "out")]) == expected_rc
    capsys.readouterr()
    rundir = next((tmp_path / "out").iterdir())
    record = json.loads((rundir / "record.json").read_text())
    assert record["summary"]["unconverged"] == unconverged
    header = (rundir / "residue_identity.csv").read_text().splitlines()[0]
    assert header == ("beta,fraction,height,value_re,value_im,defect,nodes,"
                      "tail_bound,endpoint_corrected")


def test_run_residue_identity_fails_on_a_nan_defect(tmp_path, capsys,
                                                    monkeypatch):
    # max() skips a NaN that is not first: the run passed, its max_defect
    # the finite one, while the CSV row of the second check read nan
    real, calls = cli.residue_identity, []

    def nan_second(beta, height, half_width):
        calls.append(real(beta, height, half_width=half_width))
        if len(calls) == 1:
            return calls[0]
        return dataclasses.replace(calls[-1], value=complex("nan"))

    monkeypatch.setattr(cli, "residue_identity", nan_second)
    cfg = write_config(tmp_path, yaml.safe_dump(
        {"task": "residue_identity", "beta": [0.5, 1.0],
         "height_fractions": [0.0]}))
    assert run_cli(["run", cfg, "--outdir", str(tmp_path / "out")]) == 1
    capsys.readouterr()
    assert len(calls) == 2
    record = json.loads((next((tmp_path / "out").iterdir())
                         / "record.json").read_text())
    assert record["passed"] is False
    assert math.isnan(record["summary"]["max_defect"])


def test_residue_beta_past_the_top_edge_cap_is_a_config_error(tmp_path,
                                                              capsys):
    # beta^2 - b^2 = 841 at beta = 29, b = 0: the run raised OverflowError
    # in the tail bound and left an empty output directory
    cfg = write_config(tmp_path, yaml.safe_dump(
        {"task": "residue_identity", "beta": [0.5, 29.0]}))
    assert run_cli(["validate", cfg]) == 2
    assert run_cli(["run", cfg, "--outdir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.count("config error: beta=29.0 at height 0.0: the top edge "
                     "weight exp(beta^2 - b^2) = exp(841) exceeds "
                     "exp(700)") == 2, err
    assert not (tmp_path / "out").exists()
    # the rule is on beta^2 - b^2: at b = beta the top edge is e^{-t^2}
    cfg = write_config(tmp_path, yaml.safe_dump(
        {"task": "residue_identity", "beta": [29.0],
         "height_fractions": [1.0]}))
    assert run_cli(["validate", cfg]) == 0


@pytest.mark.parametrize("model, betas, unconverged", [
    ({"name": "transverse_field_ising", "n": 4, "J": 1.0, "h": 50.0},
     [500.0, 1000.0], 2),
    ({"name": "heisenberg_xxz", "n": 4, "J": 1.0, "delta": 0.5},
     [0.25, 0.5, 1.0, 2.0], 0)], ids=["beta-500-1000", "strip-betas"])
def test_run_correlators_counts_unconverged_quadrature(tmp_path, capsys, model,
                                                       betas, unconverged):
    # at beta (E_max - E_min) = 2e5 and 4e5 the quadrature route reaches
    # 512 nodes before two refinements agree; before, the flag was dropped.
    cfg = write_config(tmp_path, yaml.safe_dump(
        {"task": "correlators", "model": model, "beta": betas,
         "a": {"site": 0, "op": "Y"}, "b": {"site": 1, "op": "Y"},
         "times": [0.0, 0.5]}))
    assert run_cli(["run", cfg, "--outdir", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    rundir = next((tmp_path / "out").iterdir())
    record = json.loads((rundir / "record.json").read_text())
    assert record["summary"]["quadrature_unconverged"] == unconverged
    header = (rundir / "correlators_summary.csv").read_text().splitlines()[0]
    assert "unconverged" not in header


def test_run_correlators_shows_again_a_warning_it_does_not_count(
        tmp_path, capsys, monkeypatch):
    # the run records warnings to count the quadrature's unconverged ones;
    # any other warning is shown again, not swallowed, and not counted
    real = cli.canonical_correlator

    def noisy(fn, method="closed_form"):
        warnings.warn("probe warning", UserWarning)
        return real(fn, method=method)

    monkeypatch.setattr(cli, "canonical_correlator", noisy)
    cfg = write_config(tmp_path, CORRELATOR_CFG)
    with pytest.warns(UserWarning, match="probe warning"):
        assert run_cli(["run", cfg, "--outdir", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    rundir = next((tmp_path / "out").iterdir())
    record = json.loads((rundir / "record.json").read_text())
    assert record["summary"]["quadrature_unconverged"] == 0


@pytest.mark.parametrize("text, message", [
    (RESIDUE_CFG.replace("beta: [1.0]", "beta: [1.0, 0.0]"),
     "beta must be finite and positive, not 0.0"),
    (RESIDUE_CFG + "half_width: -1.0\n",
     "half_width must be finite and positive, not -1.0"),
    (RESIDUE_CFG + "tolerance: 0.0\n",
     "tolerance must be finite and positive, not 0.0"),
    (CORRELATOR_CFG.replace("step: 0.5", "step: -0.5"),
     "times.step must be finite and positive, not -0.5"),
], ids=["residue-beta", "half-width", "tolerance", "time-step"])
def test_positive_values_are_refused_with_the_library_reason(tmp_path, capsys,
                                                             text, message):
    # one finite-and-positive rule, lattice._finite_positive, for the
    # library and the CLI alike
    cfg = write_config(tmp_path, text)
    assert run_cli(["validate", cfg]) == 2
    assert f"config error: {message}" in capsys.readouterr().err


def test_run_exit_one_when_invariant_fails(tmp_path, capsys):
    # a tolerance far below the round-off defect (about 4e-16)
    cfg = write_config(tmp_path, """\
        task: residue_identity
        beta: [1.0]
        height_fractions: [0.5]
        tolerance: 1.0e-30
        """)
    assert run_cli(["run", cfg, "--outdir", str(tmp_path / "out")]) == 1
    assert "FAILED" in capsys.readouterr().out
    rundir = next((tmp_path / "out").iterdir())
    record = json.loads((rundir / "record.json").read_text())
    assert record["passed"] is False


_FAILING_RESIDUE_CFG = RESIDUE_CFG + "tolerance: 1.0e-30\n"


@pytest.mark.parametrize(
    "text, rc", [(t, 0) for t in TASK_CFGS] + [(_FAILING_RESIDUE_CFG, 1)],
    ids=[yaml.safe_load(t)["task"] for t in TASK_CFGS] + ["failed"])
def test_run_prints_only_its_status_line(tmp_path, capsys, text, rc):
    # every number a run computes is in its CSVs and record.json
    cfg = write_config(tmp_path, text)
    assert run_cli(["run", cfg, "--outdir", str(tmp_path / "out")]) == rc
    rundir = next((tmp_path / "out").iterdir())
    status = "passed" if rc == 0 else "FAILED"
    [line] = capsys.readouterr().out.splitlines()
    assert re.fullmatch(rf"{yaml.safe_load(text)['task']} {rundir.name} "
                        rf"{status} \(\d+\.\d\ds\) -> "
                        rf"{re.escape(str(rundir))}", line)


def test_run_exit_two_on_config_error(tmp_path, capsys):
    residue = "task: residue_identity\n"
    for text in (residue + "beta: [-1.0]\n",
                 residue + "beta: [1.0]\nhalf_width: 0.0\n",
                 # no result can meet a tolerance <= 0
                 residue + "beta: [1.0]\ntolerance: -1.0\n",
                 textwrap.dedent(CORRELATOR_CFG) + "tolerance: 0.0\n",
                 textwrap.dedent(CONTOUR_CFG) + "tolerance: -1.0e-6\n"):
        cfg = write_config(tmp_path, text)
        assert run_cli(["validate", cfg]) == 2
        assert run_cli(["run", cfg, "--outdir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.count("config error") == 2
        assert not (tmp_path / "out").exists()


def _correlators(old: str, new: str) -> str:
    """CORRELATOR_CFG with one fragment replaced."""
    assert old in CORRELATOR_CFG
    return CORRELATOR_CFG.replace(old, new)


_MODEL = "{name: transverse_field_ising, n: 3, J: 1.0, h: 1.0}"


@pytest.mark.parametrize("text, message", [
    ("task: residue_identity\nbeta: [1.0\n", "invalid YAML at line 3"),
    ("task: residue_identity\nbeta: [1.0]\n? [a, b]\n: 1\n",
     "unhashable mapping key at line 3"),
    (_correlators("a: {site: 0, op: Z}", "a: 3"), "a must be a mapping"),
    ("task: residue_identity\n",
     "config: missing required key(s) ['beta']"),
    (CONTOUR_CFG.replace("nodes: 256", "nodes: 2.5"),
     "nodes must be an integer, got 2.5"),
    (_correlators("{start: 0.0, stop: 1.0, step: 0.5}", "[]"),
     "times must not be empty"),
    (_correlators("stop: 1.0", "stop: -1.0"),
     "times.stop must not be below start"),
    (_correlators("site: 0", "site: [0, 1, 2]"),
     "a.site must be an integer or a [row, col] pair"),
    (_correlators("op: Z}\n    b", "op: W}\n    b"), "a.op must be one of"),
    (_correlators(_MODEL, "ising"), "model must be a mapping"),
    (_correlators(_MODEL, "{n: 3}"), "model: missing required key 'name'"),
    (_correlators(_MODEL, "{name: 5, n: 3}"), "model.name must be a string"),
    (_correlators("n: 3", "n: 3, nx: 1, ny: 3"),
     "model: use either n (chain) or nx/ny (grid)"),
    (_correlators("n: 3", "nx: 3"), "model: a grid needs both nx and ny"),
    (_correlators(_MODEL, "{name: transverse_field_ising}"),
     "model: needs n (chain) or nx/ny (grid)"),
    (_correlators("h: 1.0}", "h: 1.0, 7: 1.0}"),
     "model: parameter names must be strings"),
    ("task: residue_identity\nbeta: [1.0]\nheight_fractions: [0.5, 1.5]\n",
     "height_fractions must lie in [0, 1]"),
    (_correlators("beta: [0.0, 1.0]", "beta: [0.0, -1.0]"),
     "beta values must be nonnegative"),
], ids=["invalid-yaml", "unhashable-key", "section-not-a-mapping",
        "missing-key", "non-integer", "empty-time-list", "stop-below-start",
        "bad-site-form", "bad-pauli", "model-not-a-mapping",
        "model-name-missing", "model-name-not-a-string", "n-with-nx",
        "grid-without-ny", "no-geometry", "non-string-parameter-name",
        "height-fraction-outside", "negative-correlator-beta"])
def test_each_config_rule_exits_two_with_its_message(tmp_path, capsys, text,
                                                     message):
    cfg = write_config(tmp_path, text)
    assert run_cli(["validate", cfg]) == 2
    assert run_cli(["run", cfg, "--outdir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.count(f"config error: {message}") == 2, err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text", [LR_SCAN_CFG, LOCALITY_CFG],
                         ids=["lr_scan", "locality_scan"])
def test_overflowing_certified_velocity_is_a_config_error(tmp_path, capsys,
                                                          text):
    # e^{mu diam} overflows at mu = 800: every envelope would be NaN, and
    # the run would pass with c_empirical 0 on no row at all
    cfg = write_config(tmp_path, text.replace("mu: 1.0", "mu: 800.0"))
    assert run_cli(["validate", cfg]) == 2
    assert run_cli(["run", cfg, "--outdir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.count("config error") == 2
    assert err.count("velocity overflows at mu=800.0") == 2
    assert not (tmp_path / "out").exists()
    # a velocity of the config's own is not certified
    cfg = write_config(tmp_path, text.replace(
        "mu: 1.0", "mu: 800.0\n    velocity: 2.0"))
    assert run_cli(["validate", cfg]) == 0


@pytest.mark.parametrize("text, inside", [(LR_SCAN_CFG, 6.0),
                                          (LOCALITY_CFG, 5.6)],
                         ids=["lr_scan", "locality_scan"])
def test_envelope_that_is_not_finite_is_a_config_error(tmp_path, capsys,
                                                       text, inside):
    # at mu = 700 the certified velocity is finite, 8.1e304, but e^{-mu l}
    # underflows to 0 and e^{v|t|} - 1 overflows: every envelope was NaN
    # and the run passed with c_empirical 0; a given velocity of 1e4
    # overflows e^{v|t|} alike
    for change in ("mu: 700.0", "mu: 1.0\n    velocity: 10000.0"):
        cfg = write_config(tmp_path, text.replace("mu: 1.0", change))
        assert run_cli(["validate", cfg]) == 2
        assert run_cli(["run", cfg, "--outdir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.count("config error") == 2
        assert err.count("envelope is not finite") == 2
        assert not (tmp_path / "out").exists()
    # just inside, v t_max stays below the overflow of e^{v t}: the run
    # goes ahead and every envelope is a number
    cfg = write_config(tmp_path, text.replace("mu: 1.0", f"mu: {inside}"))
    assert run_cli(["run", cfg, "--outdir", str(tmp_path / "out")]) == 0
    record = json.loads(next((tmp_path / "out").glob("*/record.json"))
                        .read_text(encoding="utf-8"))
    assert 1.0e3 < record["summary"]["velocity"] < 1.0e4
    csv_text = next((tmp_path / "out").glob("*/*.csv")).read_text()
    assert "nan" not in csv_text and "inf" not in csv_text


@pytest.mark.parametrize("text, key", [
    (LR_SCAN_CFG, "a: {site: 0, op: Z}"), (LR_SCAN_CFG, "b: {site: 4, op: Z}"),
    (LOCALITY_CFG, "a: {site: 2, op: Z}"),
    (THEOREM_CFG, "distances: [2.0, 3.0, 4.0, 5.0]")],
    ids=["lr_scan-a", "lr_scan-b", "locality_scan-a", "theorem_check-op"])
def test_identity_is_refused_where_the_check_would_measure_nothing(
        tmp_path, capsys, text, key):
    # [B, tau_t(I)], tau_t(I) - E_r(tau_t(I)) and every connected
    # correlator of I vanish: lr_scan and locality_scan passed on zero
    # norms, and theorem_check passed with xi = 3.7e15
    changed = (key.replace("op: Z", "op: I") if "op: Z" in key
               else key + "\n    op: I")
    cfg = write_config(tmp_path, text.replace(key, changed))
    assert run_cli(["validate", cfg]) == 2
    assert run_cli(["run", cfg, "--outdir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.count("must not be I") == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text", [CORRELATOR_CFG, CONTOUR_CFG],
                         ids=["correlators", "contour"])
def test_identity_is_accepted_where_it_is_measured(tmp_path, text):
    cfg = write_config(tmp_path, text.replace("a: {site: 0, op: Z}",
                                              "a: {site: 0, op: I}"))
    assert run_cli(["validate", cfg]) == 0


def test_contour_beta_too_thin_for_the_offset_is_a_config_error(tmp_path,
                                                               capsys):
    cfg = write_config(tmp_path, CONTOUR_CFG.replace(
        "beta: 1.0", "beta: 1.0e-7").replace("[0.5]", "[0.0]"))
    assert run_cli(["validate", cfg]) == 2
    assert run_cli(["run", cfg, "--outdir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.count("config error") == 2 and "beta" in err
    assert not (tmp_path / "out").exists()


CHAIN = {"name": "transverse_field_ising", "n": 3}

# valid configs that the cases below break one key of
VALID = {
    "theorem_check": {"task": "theorem_check", "model": CHAIN, "beta": 1.0,
                      "mu": 1.0, "distances": [1.0, 2.0]},
    "locality_scan": {"task": "locality_scan", "model": CHAIN, "mu": 1.0,
                      "a": {"site": 1, "op": "Z"}, "radii": [0.0, 1.0],
                      "times": [0.0, 0.5]},
    # the residue identity's ceiling, the most nodes a contour may take
    "contour": {"task": "contour", "model": CHAIN, "beta": 1.0,
                "a": {"site": 0, "op": "Z"}, "b": {"site": 2, "op": "Z"},
                "heights": [0.5], "nodes": 16384},
}


@pytest.mark.parametrize("override", [
    {"model": {"name": "transverse_field_ising", "nx": 0, "ny": 2}},
    {"model": dict(CHAIN, spacing=0.0)},
    {"model": dict(CHAIN, spacing=-1.0)},
    {"model": dict(CHAIN, h=float("nan"))},
    {"beta": float("inf")},
    {"distances": [1.0, float("nan")]},
    {"mu": float("inf")},
    # a repeated distance would write its row twice and weight both fits
    {"distances": [1.0, 2.0, 2.0]},
    # two distances within the partner match select one site twice
    {"distances": [1.0, 1.0 + 1e-12, 2.0]},
    # no site of the 3-site chain lies 40 from the base: one row, no fit
    {"distances": [1.0, 40.0]},
    # a repeated radius would write its rows twice
    {"task": "locality_scan", "radii": [1.0, 1.0, 2.0]},
    # an envelope that does not decay in r cannot be failed
    {"task": "locality_scan", "exponent_multiplier": 0.0},
    {"task": "locality_scan", "exponent_multiplier": -1.0},
    # more nodes than that would only allocate larger node arrays
    {"task": "contour", "nodes": 16385},
    # the library's rules, passed on: nodes below the contour's floor,
    # heights just outside the strip, and a chain with no site
    {"task": "contour", "nodes": 7},
    {"task": "contour", "heights": [-1e-13]},
    {"task": "contour", "heights": [1.0 + 1e-13]},
    {"model": dict(CHAIN, n=0)},
], ids=["grid-nx-0", "spacing-0", "spacing-negative", "h-nan", "beta-inf",
        "distance-nan", "mu-inf", "distance-repeated", "partner-repeated",
        "one-realizable-distance", "radius-repeated",
        "exponent-multiplier-0", "exponent-multiplier-negative",
        "nodes-above-ceiling", "nodes-below-floor", "height-below-strip",
        "height-above-strip", "chain-n-0"])
def test_run_exit_two_on_degenerate_or_non_finite_config(tmp_path, capsys,
                                                         override):
    raw = {**VALID[override.get("task", "theorem_check")], **override}
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
    cfg = write_config(tmp_path, CONTOUR_CFG)
    assert run_cli(["run", cfg, "--outdir", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    rundir = next((tmp_path / "out").iterdir())
    record = json.loads((rundir / "record.json").read_text())
    assert record["summary"]["max_relative_defect"] <= 1e-6


def test_run_lr_scan_task(tmp_path, capsys):
    cfg = write_config(tmp_path, LR_SCAN_CFG)
    assert run_cli(["run", cfg, "--outdir", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    rundir = next((tmp_path / "out").iterdir())
    record = json.loads((rundir / "record.json").read_text())
    assert record["summary"]["distance"] == 4.0
    # eps * D * ||A|| ||B||; the t = 0 row (disjoint supports) lies below it
    assert record["summary"]["noise_floor"] == 2.0 ** -52 * 32
    assert record["summary"]["floor_rows"] == 1
    assert (0.0 < record["summary"]["c_empirical_resolved"]
            <= record["summary"]["c_empirical"])
    rows = (rundir / "lr_scan.csv").read_text().splitlines()
    assert len(rows) == 1 + 2


def test_lr_scan_bound_follows_the_resolved_prefactor(tmp_path, capsys):
    # the rows with t <= 0.3 are round-off and set c_empirical above
    # c_empirical_resolved; the bound column is fitted without them
    cfg = write_config(tmp_path, """\
    task: lr_scan
    model: {name: transverse_field_ising, n: 8, J: 1.0, h: 1.0}
    mu: 1.0
    a: {site: 0, op: Z}
    b: {site: 7, op: Z}
    times: {start: 0.0, stop: 1.0, step: 0.1}
    """)
    assert run_cli(["run", cfg, "--outdir", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    rundir = next((tmp_path / "out").iterdir())
    summary = json.loads((rundir / "record.json").read_text())["summary"]
    c_res = summary["c_empirical_resolved"]
    assert summary["floor_rows"] == 4
    assert summary["c_empirical"] > 1.5 * c_res > 0.0
    lines = (rundir / "lr_scan.csv").read_text().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, map(float, line.split(",")))) for line in lines[1:]]
    assert len(rows) == 11
    assert all(row["bound"] == c_res * row["envelope"] for row in rows)


def test_lr_scan_bound_is_infinite_with_the_prefactor(tmp_path, capsys):
    # overlapping supports: [Z0, X0] is 2 at t = 0 against a zero envelope
    cfg = write_config(tmp_path, LR_SCAN_CFG.replace("{site: 4, op: Z}",
                                                     "{site: 0, op: X}"))
    assert run_cli(["run", cfg, "--outdir", str(tmp_path / "out")]) == 1
    capsys.readouterr()
    rundir = next((tmp_path / "out").iterdir())
    summary = json.loads((rundir / "record.json").read_text())["summary"]
    assert summary["c_empirical_resolved"] == float("inf")
    lines = (rundir / "lr_scan.csv").read_text().splitlines()
    bound = lines[0].split(",").index("bound")
    assert [line.split(",")[bound] for line in lines[1:]] == ["inf", "inf"]


def test_run_locality_scan_task(tmp_path, capsys):
    cfg = write_config(tmp_path, LOCALITY_CFG)
    assert run_cli(["run", cfg, "--outdir", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    rundir = next((tmp_path / "out").iterdir())
    record = json.loads((rundir / "record.json").read_text())
    assert record["summary"]["monotone_in_radius"] is True
    errs = record["summary"]["max_error_by_radius"]
    assert errs["2.0"] <= errs["1.0"] <= errs["0.0"]
    assert record["summary"]["noise_floor"] == 2.0 ** -52 * 32  # eps D ||A||
    # the t = 0 rows lie below it; Z in a transverse-field Ising chain is
    # flip-odd
    assert record["summary"]["floor_rows"] == 3
    assert record["summary"]["norm_route"] == "flip_odd"


def test_valid_configs_of_the_exit_two_cases_validate(tmp_path, capsys):
    for task, raw in VALID.items():
        cfg = write_config(tmp_path, yaml.safe_dump(raw), f"{task}.yaml")
        assert run_cli(["validate", cfg]) == 0
    capsys.readouterr()


def test_run_theorem_check_task(tmp_path, capsys):
    cfg = write_config(tmp_path, THEOREM_CFG)
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


def test_grid_sites_are_written_as_labels_and_rerun_byte_identical(
        tmp_path, capsys):
    # a grid site is a (row, col) tuple, written by str into one quoted cell
    cfg = write_config(tmp_path, """\
        task: theorem_check
        model: {name: transverse_field_ising, nx: 2, ny: 3, J: 1.0, h: 2.0}
        beta: 0.5
        mu: 1.0
        base_site: [0, 0]
        distances: [1.0, 2.0, 3.0]
        """)
    written = []
    for out in ("one", "two"):
        assert run_cli(["run", cfg, "--outdir", str(tmp_path / out)]) == 0
        rundir = next((tmp_path / out).iterdir())
        written.append((rundir / "theorem_check.csv").read_bytes())
    capsys.readouterr()
    assert written[0] == written[1]
    rows = written[0].decode().splitlines()
    assert [row.split(",")[0] for row in rows[1:]] == ["1.0", "2.0", "3.0"]
    assert [row.split('"')[1] for row in rows[1:]] == [
        "(0, 1)", "(0, 2)", "(1, 2)"]


def test_workers_takes_only_one(tmp_path, capsys):
    # runs are serial; --workers stays for the command lines that pass 1
    cfg = write_config(tmp_path, RESIDUE_CFG)
    with pytest.raises(SystemExit) as exc:
        run_cli(["run", cfg, "--outdir", str(tmp_path / "out"),
                 "--workers", "2"])
    assert exc.value.code == 2
    assert "--workers: invalid choice: 2" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _count_calls(monkeypatch, cls, name, calls):
    real = getattr(cls, name)

    def counted(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return real(*args, **kwargs)

    monkeypatch.setattr(cls, name, counted)


def test_contour_run_shares_one_grid_across_heights(tmp_path, capsys,
                                                    monkeypatch):
    # each operator's blocks are read once (spectral._energy_blocks), with
    # no dense transform, and F and G once on the nodes
    calls = {}
    _count_calls(monkeypatch, SpectralDecomposition, "transform", calls)
    _count_calls(monkeypatch, spectral, "_energy_blocks", calls)
    for name in ("eval_grid", "conjugate_eval_grid"):
        _count_calls(monkeypatch, KMSFunction, name, calls)
    cfg = write_config(tmp_path, CONTOUR_CFG.replace(
        "heights: [0.5]", "heights: [0.0, 0.25, 0.5, 0.75, 1.0]"))
    assert run_cli(["run", cfg, "--outdir", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    assert calls == {"_energy_blocks": 2, "eval_grid": 1,
                     "conjugate_eval_grid": 1}


def test_correlators_run_transforms_each_operator_once(tmp_path, capsys,
                                                       monkeypatch):
    # the pair's blocks are read once for all four beta, one block read
    # per operator and no dense transform
    calls = {}
    _count_calls(monkeypatch, SpectralDecomposition, "transform", calls)
    _count_calls(monkeypatch, spectral, "_energy_blocks", calls)
    cfg = write_config(tmp_path, CORRELATOR_CFG.replace(
        "beta: [0.0, 1.0]", "beta: [0.25, 0.5, 1.0, 2.0]"))
    assert run_cli(["run", cfg, "--outdir", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    assert calls == {"_energy_blocks": 2}


def test_strip_tasks_read_the_pair_in_the_sectors_alone(tmp_path, capsys,
                                                      monkeypatch):
    # the strip workload's pair at a smaller size: Y at two sites of XXZ
    # at h = 0, n = 8.  Every product thermal takes with the pair, every
    # pairing and every Duhamel kernel block is (D/2)-sized, no dense
    # transform is made, and a mirrored grid evaluates each |t| once
    half = 2 ** 8 // 2
    seen = {"widths": set(), "kernels": set(), "pairings": set()}
    matmul, kernel = thermal._matmul, thermal._duhamel_kernel
    paired = thermal._paired_sum

    def spy_matmul(left, c, out=None):
        pair, other = (left, c) if left.ndim == 3 else (c, left)
        assert pair.shape[1:] == (half, half)
        if pair is left:  # F or G: P or P^T against the phase columns
            seen["widths"].add(other.shape[1])
        return matmul(left, c, out)

    def spy_kernel(*args):
        kern = kernel(*args)
        seen["kernels"].add(kern.shape)
        return kern

    def spy_paired(weights, am, bm):
        seen["pairings"].add(am.shape + bm.shape)
        return paired(weights, am, bm)

    def refuse(*args, **kwargs):
        raise AssertionError("a dense transform was made")

    monkeypatch.setattr(thermal, "_matmul", spy_matmul)
    monkeypatch.setattr(thermal, "_duhamel_kernel", spy_kernel)
    monkeypatch.setattr(thermal, "_paired_sum", spy_paired)
    monkeypatch.setattr(SpectralDecomposition, "transform", refuse)
    head = ("model: {name: heisenberg_xxz, n: 8, J: 1.0, delta: 0.5}\n"
            "a: {site: 1, op: Y}\nb: {site: 5, op: Y}\n")
    # nine times -2, -1.5, ..., 2: five distinct |t|, ten phase columns
    correlators = write_config(tmp_path, head + (
        "task: correlators\nbeta: [0.5, 1.0]\n"
        "times: {start: -2.0, stop: 2.0, step: 0.5}\n"), "correlators.yaml")
    assert run_cli(["run", correlators, "--outdir", str(tmp_path / "c")]) == 0
    assert seen == {"widths": {10}, "kernels": {(half, half)},
                    "pairings": {(half, half, half, half)}}
    # 256 symmetric Gauss-Legendre nodes: 128 distinct |t|, and two phase
    # columns for each point value
    seen["widths"].clear()
    contour = write_config(tmp_path, head + (
        "task: contour\nbeta: 1.0\nheights: [0.0, 0.5, 1.0]\nnodes: 256\n"),
        "contour.yaml")
    assert run_cli(["run", contour, "--outdir", str(tmp_path / "k")]) == 0
    capsys.readouterr()
    assert seen["widths"] == {256, 2}


# ---------------------------------------------------------------------------
# plot.gp
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("text", TASK_CFGS,
                         ids=[yaml.safe_load(t)["task"] for t in TASK_CFGS])
def test_plot_script_reads_only_what_the_run_wrote(tmp_path, capsys, text):
    cfg = write_config(tmp_path, text)
    assert run_cli(["run", cfg, "--outdir", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    rundir = next((tmp_path / "out").iterdir())
    record = json.loads((rundir / "record.json").read_text())
    plots = re.findall(r'"([^"]+\.csv)" using (\S+)',
                       (rundir / "plot.gp").read_text())
    assert plots
    for name, spec in plots:
        assert name in record["files"]
        width = len((rundir / name).read_text().splitlines()[0].split(","))
        # a column is a bare index or a $n inside an expression
        cols = [int(c) for part in spec.split(":")
                for c in ([part] if part.isdigit()
                          else re.findall(r"\$(\d+)", part))]
        assert cols and all(1 <= c <= width for c in cols), (name, spec)


def test_plot_subcommand_is_gone(tmp_path, capsys):
    # run writes plot.gp itself; argparse refuses the unknown subcommand
    with pytest.raises(SystemExit) as exc:
        run_cli(["plot", str(tmp_path / "record.json")])
    assert exc.value.code == 2
    assert "invalid choice: 'plot'" in capsys.readouterr().err


def test_run_options_are_pinned(capsys):
    # an added switch shows up here as a diff
    with pytest.raises(SystemExit) as exc:
        run_cli(["run", "--help"])
    assert exc.value.code == 0
    usage = capsys.readouterr().out.split("\n\n")[0]
    assert re.findall(r"\[(-[-\w]+)", usage) == ["-h", "--outdir",
                                                 "--workers"]


def test_verbose_switch_is_gone(tmp_path, capsys):
    cfg = write_config(tmp_path, RESIDUE_CFG)
    with pytest.raises(SystemExit) as exc:
        run_cli(["run", cfg, "--outdir", str(tmp_path / "out"), "--verbose"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --verbose" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# module entry point
# ---------------------------------------------------------------------------

def test_module_invocation(tmp_path):
    cfg = write_config(tmp_path, RESIDUE_CFG)
    proc = subprocess.run([sys.executable, "-m", "correlab", "validate", cfg],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert "ok: task=residue_identity" in proc.stdout
