"""One fresh entlab process, as a CLI user starts it.

Invoked by run.py as

    python3 bench/child.py SPEC_JSON

It imports entlab from the checkout's src/, makes the first BLAS call, prints
{"ready": true} (the parent times set-up up to that line), then calls
entlab.cli.run_experiment once per experiment in the spec and prints one JSON
result line.  SPEC_JSON holds the experiments, the seed, the report
directory, and optionally "trace" (a path to write spans to) and
"setup_only".
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _blas_threads() -> dict:
    """Thread count of every OpenBLAS loaded into this process."""
    import ctypes
    import os

    with open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh
                        if "openblas" in line.lower() and line.split()[-1].startswith("/")})
    threads = {}
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "scipy_openblas_get_num_threads64_"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                threads[os.path.basename(path)] = fn()
                break
    return threads


def _environment(np, scipy) -> dict:
    import platform

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas, "blas_threads": _blas_threads()}


def main() -> int:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, str(SRC))
    import numpy as np
    import scipy

    import entlab
    from entlab import cli

    if Path(entlab.__file__).resolve().parent != SRC / "entlab":
        raise ImportError(f"entlab imported from {entlab.__file__}, not from {SRC}")
    # the first BLAS call pays thread-pool start-up; every CLI run pays it
    np.linalg.eigh(np.eye(64) + 0.01)
    print(json.dumps({"ready": True}), flush=True)
    if spec.get("setup_only"):
        return 0

    # the roots are not in the geom-entropy report; keep the spectra the
    # experiment computes so the parent can check them against the reference
    spectra = []
    solve = entlab.rindler.discrete_spectrum

    def keep_spectrum(*args, **kwargs):
        spectrum = solve(*args, **kwargs)
        spectra.append([spectrum.epsilon, spectrum.ell_values.tolist()])
        return spectrum

    entlab.rindler.discrete_spectrum = keep_spectrum

    unwrapped = []
    tracer = None
    if spec.get("trace"):
        import spans
        tracer = spans.Tracer()
        unwrapped = tracer.install(entlab)

    runs = []
    error = None
    out_dir = Path(spec["out_dir"])
    for index, (experiment, params) in enumerate(spec["experiments"]):
        path = out_dir / f"{index}-{experiment}.csv"
        config = cli.ExperimentConfig(experiment=experiment, seed=spec["seed"],
                                      out=path, params=params)
        start = time.perf_counter()
        try:
            report = cli.run_experiment(config)
        except Exception as exc:  # a failed run is a result, not a crash
            error = f"{experiment}: {type(exc).__name__}: {exc}"
            break
        wall = time.perf_counter() - start
        runs.append({"experiment": experiment, "params": config.params,
                     "wall_s": wall, "passed": report.passed, "checks": report.checks,
                     "report": str(path), "report_bytes": path.stat().st_size})

    import resource

    if tracer is not None:
        tracer.dump(spec["trace"])
    print(json.dumps({
        "runs": runs, "error": error, "spectra": spectra, "unwrapped": unwrapped,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "environment": _environment(np, scipy),
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
