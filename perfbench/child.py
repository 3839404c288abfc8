"""One benchmark child process.

    child.py setup --src SRC --result FILE
    child.py pass  --src SRC --result FILE --outdir DIR [--trace] CFG...
    child.py floor --result FILE --dims D,D,...

`setup` imports the program and stops.  `pass` imports it once, then calls
`correlab.cli.main(["run", cfg, ...])` on each config in order (one client,
`--workers 1`), optionally with every layer traced.  `floor` times raw
LAPACK/BLAS calls at the given dimensions.  Each writes one JSON result;
times that the parent compares with its own clock are time.monotonic()
readings, which on Linux share one system-wide clock.
"""
from __future__ import annotations

import argparse
import ctypes
import inspect
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from spans import FirstSeen, Tracer, rebind, summarize, wrap  # noqa: E402

LAYERS = ("lattice", "operators", "spectral", "thermal", "dynamics",
          "verify", "quadrature", "cli")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def import_program(src: str):
    sys.path.insert(0, src)
    import numpy  # noqa: F401
    import correlab  # noqa: F401
    import correlab.cli
    return correlab.cli


def blas_threads() -> int:
    """Threads the loaded OpenBLAS will use, or -1 when it cannot be asked."""
    names = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
             "openblas_get_num_threads")
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh
                if "openblas" in line.split()[-1].lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for name in names:
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return -1


def context() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas_name": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": blas_threads(),
            "thread_env": {v: os.environ.get(v) for v in THREAD_VARS}}


# ---------------------------------------------------------------------------
# Layer tracing
# ---------------------------------------------------------------------------

def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def instrument(tracer: Tracer) -> None:
    """Wrap every public function of each layer module at every module
    attribute where it is bound, plus the named public methods."""
    import numpy as np
    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "correlab" or name.startswith("correlab."))]
    gauss = FirstSeen()

    def transform_kind(args, kwargs):
        m = np.asarray(args[1])
        cplx = bool(np.iscomplexobj(m) and m.imag.any())
        gemms = 1 if np.count_nonzero(m) == np.count_nonzero(np.diagonal(m)) else 2
        tracer.count(f"transform:{m.shape[0]}:{'z' if cplx else 'd'}:{gemms}")

    def kms_points(args, kwargs):
        tracer.count("kms_grid_points", np.asarray(args[1]).size)

    def gauss_seen(args, kwargs):
        tracer.count("gauss_hits", gauss.observe(int(_arg(args, kwargs, 0, "n"))))

    hooks = {
        "spectral.eig_hermitian": dict(
            after=lambda a, k, r: tracer.count(f"eig_dim:{r.dim}")),
        "operators.embed": dict(
            after=lambda a, k, r: tracer.count("embed_bytes", r.matrix.nbytes)),
        "thermal.canonical_correlator": dict(
            name_of=lambda a, k: "thermal.canonical_correlator."
            + _arg(a, k, 3, "method", "closed_form")),
        "dynamics.lr_commutator_scan": dict(
            after=lambda a, k, r: tracer.count("lr_points", len(r.measurements))),
        "dynamics.locality_scan": dict(
            after=lambda a, k, r: tracer.count("locality_points", len(r.measurements))),
        "verify.contour_decomposition": dict(
            after=lambda a, k, r: tracer.count("contour_subtracted", r.subtracted)),
        "verify.residue_identity": dict(
            after=lambda a, k, r: tracer.count("residue_nodes", r.nodes)),
        "quadrature.gauss_legendre": dict(before=gauss_seen),
    }
    for layer in LAYERS:
        module = sys.modules[f"correlab.{layer}"]
        for attr, fn in list(vars(module).items()):
            if (attr.startswith("_") or not inspect.isfunction(fn)
                    or fn.__module__ != module.__name__):
                continue
            name = f"{layer}.{attr}"
            rebind(modules, fn, wrap(tracer, fn, name, **hooks.get(name, {})))

    spectral = sys.modules["correlab.spectral"]
    thermal = sys.modules["correlab.thermal"]
    methods = [
        (spectral.SpectralDecomposition, "transform", "spectral.transform",
         dict(before=transform_kind)),
        (thermal.KMSFunction, "eval", "thermal.kms_point", {}),
        (thermal.KMSFunction, "conjugate_eval", "thermal.kms_point", {}),
        (thermal.KMSFunction, "eval_grid", "thermal.kms_grid",
         dict(before=kms_points)),
        (thermal.KMSFunction, "conjugate_eval_grid", "thermal.kms_grid",
         dict(before=kms_points)),
    ]
    for cls, attr, name, hook in methods:
        setattr(cls, attr, wrap(tracer, getattr(cls, attr), name, **hook))

    # spectral_norm's path, counted at the numpy.linalg entry points
    for attr in ("eigvalsh", "norm"):
        fn = getattr(np.linalg, attr)

        def counted(*args, _fn=fn, _key=f"spectral_norm_{attr}", **kwargs):
            if tracer.current() == "operators.spectral_norm":
                tracer.count(_key)
            return _fn(*args, **kwargs)

        setattr(np.linalg, attr, counted)


# ---------------------------------------------------------------------------
# Modes
# ---------------------------------------------------------------------------

def run_pass(args) -> dict:
    cli = import_program(args.src)
    ready = time.monotonic()
    tracer = None
    if args.trace:
        tracer = Tracer()
        instrument(tracer)
    runs = []
    for cfg in args.configs:
        t0 = time.perf_counter()
        try:
            rc = cli.main(["run", cfg, "--outdir", args.outdir, "--workers", "1"])
        except SystemExit as exc:
            rc = exc.code
        except Exception:  # a crash counts as a failed run, the pass goes on
            traceback.print_exc()
            rc = -1
        runs.append({"config": cfg, "rc": rc, "start": t0,
                     "end": time.perf_counter()})
    out = {"ready": ready, "runs": runs,
           "wall_s": runs[-1]["end"] - runs[0]["start"],
           "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
           "context": context()}
    if tracer is not None:
        out["trace"] = {"summary": summarize(tracer.spans),
                        "counters": dict(tracer.counters)}
    return out


def run_setup(args) -> dict:
    import_program(args.src)
    return {"ready": time.monotonic()}


def run_floor(args) -> dict:
    """Median time of raw eigh, dgemm and zgemm on random D x D inputs."""
    import numpy as np
    rng = np.random.default_rng(0)
    np.linalg.eigh(np.eye(64))  # start the BLAS threads outside the timing
    out = {}
    for d in sorted({int(x) for x in args.dims.split(",")}):
        reps = 3 if d <= 1024 else 1
        a = rng.standard_normal((d, d))
        s = (a + a.T) / 2
        z = a + 1j * rng.standard_normal((d, d))
        row = {}
        for key, fn in (("eigh_s", lambda: np.linalg.eigh(s)),
                        ("dgemm_s", lambda: a @ a),
                        ("zgemm_s", lambda: z @ z)):
            times = []
            for _ in range(reps):
                t0 = time.perf_counter()
                fn()
                times.append(time.perf_counter() - t0)
            row[key] = statistics.median(times)
        out[str(d)] = row
        del a, s, z
    return {"floor": out}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "pass", "floor"))
    parser.add_argument("--src")
    parser.add_argument("--result", required=True)
    parser.add_argument("--outdir")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--dims")
    parser.add_argument("configs", nargs="*")
    args = parser.parse_intermixed_args(argv)
    result = {"setup": run_setup, "pass": run_pass,
              "floor": run_floor}[args.mode](args)
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
