"""Regenerate the stored reference outputs of every workload variant.

    python3 perfbench/make_reference.py [WORKLOAD ...]

Runs one untraced pass per variant, from the root of a checkout, and writes
reference/<workload>.json: for each distinct config, the CSV headers, row
counts and an evenly spaced subset of rows.  Run it only when a change to
the program's results is intended, and say so where the change is recorded.
"""
from __future__ import annotations

import json
import shutil
import sys

import refcheck
import run
import workloads


def main(argv) -> int:
    names = argv or sorted(workloads.WORKLOADS)
    for workload in names:
        table = {}
        for v in range(workloads.VARIANTS):
            work = run.Work(workload, v)
            paths = workloads.write_configs(workload, v, work.dir)
            p = run.run_pass(work, paths, traced=False)
            for task, cfg in workloads.configs(workload, v):
                out = run.read_outputs(p["outdir"], task)
                if p["result"] is None or out is None or not out["record"]["passed"]:
                    print(f"{workload} variant {v}: {task} failed; "
                          f"see {work.dir}", file=sys.stderr)
                    return 1
                table[workloads.reference_key(task, cfg)] = \
                    refcheck.make_reference(out["files"])
            shutil.rmtree(work.dir)
            print(f"{workload} variant {v}: {p['result']['wall_s']:.2f} s")
        path = run.HERE / "reference" / f"{workload}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(table, sort_keys=True, separators=(",", ":"))
                        + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
