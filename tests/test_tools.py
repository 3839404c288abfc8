"""The repository's own tools, run as a reader would run them."""
import hashlib
import importlib.util
import pathlib
import subprocess
import sys

import yaml

from correlab import cli

TOOLS = pathlib.Path(__file__).resolve().parent.parent / "tools"

# 8 code lines: the import, def, both lines of the string that is not a
# docstring, both lines of the return, class and its assignment
FIXTURE = '''"""Module docstring,
over two lines."""
import os  # a trailing comment

# a comment line


def f(x):
    """Function docstring."""
    s = """a string
that is not a docstring"""
    return (x +
            1)


class C:
    """Class docstring."""
    y = 2
'''


def test_code_lines_counts_a_fixture(tmp_path):
    (tmp_path / "fixture.py").write_text(FIXTURE, encoding="utf-8")
    (tmp_path / "small.py").write_text('"""Only a docstring."""\n\nx = 1\n',
                                       encoding="utf-8")
    (tmp_path / "notes.txt").write_text("x = 1\n", encoding="utf-8")
    out = subprocess.run([sys.executable, str(TOOLS / "code_lines.py"),
                          str(tmp_path)], capture_output=True, text=True,
                         check=True).stdout
    assert out.splitlines() == ["     8  fixture.py", "     1  small.py",
                                "     9  total"]


# a two-module package and two runs of it: a script and a pytest selection
LAB_FIRST = '''"""First module."""


def used(x):
    """Doubles x."""
    if x > 0:
        return 2 * x
    return -x


def unused():
    return 1
'''

LAB_SECOND = '''import math


def g():
    try:
        return math.sqrt(4.0)
    except ValueError:
        raise


class C:
    """Never built."""

    def method(self):
        return 0
'''

LAB_REPORT = [
    "first.py: 2 of 7 statements never ran",
    "  first.py:8: return -x",
    "  first.py:12: return 1",
    "second.py: 2 of 9 statements never ran",
    "  second.py:8: raise",
    "  second.py:15: return 0",
]


def test_reach_prints_the_statements_a_run_never_reached(tmp_path):
    (tmp_path / "lab").mkdir()
    (tmp_path / "lab" / "first.py").write_text(LAB_FIRST, encoding="utf-8")
    (tmp_path / "lab" / "second.py").write_text(LAB_SECOND, encoding="utf-8")
    (tmp_path / "run.py").write_text(
        "from lab import first, second\n\nfirst.used(3)\nsecond.g()\n",
        encoding="utf-8")
    (tmp_path / "test_lab.py").write_text(
        "from lab import first, second\n\n\ndef test_lab():\n"
        "    assert first.used(3) == 6 and second.g() == 2.0\n",
        encoding="utf-8")
    for run in (["run.py"], ["pytest", "-q", "-p", "no:cacheprovider",
                             "test_lab.py"]):
        out = subprocess.run(
            [sys.executable, str(TOOLS / "reach.py"), "--package", "lab",
             *run], cwd=tmp_path, capture_output=True, text=True, check=True)
        assert out.stdout.splitlines()[-len(LAB_REPORT):] == LAB_REPORT


def _load_tool(name: str):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traffic_runs_each_workload_config_once_per_seed(monkeypatch, capsys):
    # cli.main stubbed: each call reads its config while it exists, and
    # the eighth run fails, which fails the whole traffic run
    calls = []

    def run(argv):
        calls.append((argv, yaml.safe_load(pathlib.Path(argv[1]).read_text())))
        return 1 if len(calls) == 8 else 0

    monkeypatch.setattr(cli, "main", run)
    assert _load_tool("traffic").main(["3", "20"]) == 1
    tasks = ["theorem_check", "lr_scan", "locality_scan", "correlators",
             "contour", "residue_identity"]
    assert [cfg["task"] for _, cfg in calls] == tasks * 2
    # seed 20 runs the variant 20 % 16 = 4
    assert [calls[i][1]["model"]["seed"] for i in (0, 6)] == [3, 4]
    for argv, _ in calls:
        assert argv[0] == "run" and argv[2] == "--outdir"
        assert argv[4:] == ["--workers", "1"]
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 12
    assert lines[7] == "seed 20 lightcone lr_scan: exit 1"
    assert sum(line.endswith("exit 0") for line in lines) == 11


def test_traffic_prints_the_digest_of_each_output(monkeypatch, capsys):
    # the stub writes one run's files; record.json gives its verdict alone
    def run(argv):
        out = pathlib.Path(argv[3]) / "abc"
        out.mkdir(parents=True, exist_ok=True)
        (out / "t.csv").write_bytes(b"x\n1\n")
        (out / "record.json").write_text('{"passed": true, "elapsed": 1}')
        return 0

    monkeypatch.setattr(cli, "main", run)
    assert _load_tool("traffic").main(["0"]) == 0
    digest = hashlib.sha256(b"x\n1\n").hexdigest()[:16]
    assert capsys.readouterr().out.splitlines()[-2:] == [
        "abc/record.json passed True", f"abc/t.csv {digest}"]


def test_traffic_defaults_to_every_variant(monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(cli, "main", lambda argv: calls.append(argv) or 0)
    assert _load_tool("traffic").main([]) == 0
    assert len(calls) == 16 * 6


def test_peak_prints_the_child_peak_after_each_config(tmp_path):
    # a TFIM n=4 theorem_check, twice, and a config the CLI refuses: one
    # line after the imports, one per config with its exit code, and the
    # BLAS thread count; the peak never falls
    cfg = tmp_path / "tfim4.yaml"
    cfg.write_text("task: theorem_check\n"
                   "model: {name: transverse_field_ising, n: 4, J: 1.0, "
                   "h: 2.0}\nbeta: 0.5\nmu: 1.0\ndistances: [1.0, 2.0, 3.0]\n",
                   encoding="utf-8")
    bad = tmp_path / "bad.yaml"
    bad.write_text("task: no_such_task\n", encoding="utf-8")
    run = subprocess.run([sys.executable, str(TOOLS / "peak.py"), str(cfg),
                          str(cfg), str(bad)], cwd=tmp_path,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 1
    lines = [line.split() for line in run.stdout.splitlines()]
    assert [line[0] for line in lines] == ["import", "tfim4.yaml",
                                           "tfim4.yaml", "bad.yaml", "blas"]
    assert [line[-2:] for line in lines[1:4]] == [["exit", "0"],
                                                  ["exit", "0"],
                                                  ["exit", "2"]]
    peaks = [float(line[1]) for line in lines[:4]]
    assert peaks == sorted(peaks) and peaks[0] > 0.0
    assert lines[4][:2] == ["blas", "threads"] and int(lines[4][2]) >= -1
    assert not list(tmp_path.glob("correlab_runs"))  # outputs in a temp dir
