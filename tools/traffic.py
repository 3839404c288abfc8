"""Run every benchmark workload config through the CLI, in this process.

    python tools/traffic.py [SEED ...]

SEED defaults to 0..15, one per input variant of perfbench/workloads.py,
the one benchmark module read.  For each seed and each workload there,
every config is written as YAML to a temporary directory and run with
`correlab.cli.main(["run", CFG, "--outdir", TMP, "--workers", "1"])`;
one line per run gives the seed, workload, config and exit code.  Then
one line per output file, sorted, gives `<hash>/<file>` and the first 16
hex digits of its SHA-256 for each CSV and plot.gp, and `passed` for each
record.json, whose timings differ from run to run.  So `diff` of two
trees' output checks that they give the same bits.  The exit status is 1
when any run exits nonzero, else 0.  The package is imported from src/,
first on sys.path.

Under the line tracer this lists what no workload reaches:

    PYTHONPATH=src python tools/reach.py tools/traffic.py
"""
from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _workloads():
    """perfbench/workloads.py, loaded by its path."""
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else list(argv)
    sys.path.insert(0, str(ROOT / "src"))
    from correlab import cli

    workloads = _workloads()
    seeds = [int(s) for s in args] or list(range(workloads.VARIANTS))
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        runs = Path(tmp) / "runs"
        for seed in seeds:
            for workload in workloads.WORKLOADS:
                cfgdir = Path(tmp) / f"{workload}-{seed}"
                cfgdir.mkdir()
                paths = workloads.write_configs(workload, seed, cfgdir)
                for name, cfg in paths.items():
                    with contextlib.redirect_stdout(io.StringIO()):
                        rc = cli.main(["run", cfg, "--outdir", str(runs),
                                       "--workers", "1"])
                    print(f"seed {seed} {workload} {name}: exit {rc}")
                    failed += rc != 0
        for path in sorted(runs.glob("*/*")):
            name = path.relative_to(runs).as_posix()
            if path.name == "record.json":
                record = json.loads(path.read_text(encoding="utf-8"))
                print(f"{name} passed {record['passed']}")
            else:
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
                print(f"{name} {digest[:16]}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
