"""Peak resident memory of CLI runs, config by config.

    python tools/peak.py CONFIG...

Runs the configs, in order, through
`correlab.cli.main(["run", CONFIG, "--outdir", TMP, "--workers", "1"])` in
one fresh child process, with the package imported from src/ as the
benchmark imports it.  The child prints its `ru_maxrss` (in MB of 1024 KB)
after importing numpy and the CLI, and again after each config with that
run's exit code, then the thread count the loaded BLAS reports
(perfbench/child.py's `blas_threads`, -1 when it cannot be asked).  The
exit status is 1 when any run exits nonzero, else 0.
"""
from __future__ import annotations

import contextlib
import importlib.util
import io
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def child(configs) -> int:
    """The child's work: import, run each config, print the peaks."""
    sys.path.insert(0, str(ROOT / "src"))
    import numpy  # noqa: F401
    from correlab import cli

    print(f"{'import':<40} {_peak_mb():9.2f} MB", flush=True)
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        for cfg in configs:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(["run", cfg, "--outdir", tmp, "--workers", "1"])
            print(f"{Path(cfg).name:<40} {_peak_mb():9.2f} MB  exit {rc}",
                  flush=True)
            failed += rc != 0
    path = ROOT / "perfbench" / "child.py"
    spec = importlib.util.spec_from_file_location("perfbench_child", path)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    print(f"{'blas threads':<40} {bench.blas_threads():9d}")
    return 1 if failed else 0


def main(argv=None) -> int:
    configs = sys.argv[1:] if argv is None else list(argv)
    if not configs:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import peak; "
            "sys.exit(peak.child(sys.argv[2:]))")
    return subprocess.run([sys.executable, "-c", code, str(ROOT / "tools"),
                           *map(str, configs)]).returncode


if __name__ == "__main__":
    sys.exit(main())
