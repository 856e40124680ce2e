"""Benchmark entlab from the outside, as a CLI user runs it.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each sample is a fresh Python process (child.py) that imports entlab from
src/, makes its first BLAS call and calls entlab.cli.run_experiment for the
workload's experiments.  Samples repeat until S seconds have passed.  Every
report is checked against an independent oracle (checks.py).

--trace 0 prints the end-to-end metrics: wall_s, setup_s, peak_rss_mb.
--trace 1 alternates untraced and traced samples, adds one sample with BLAS
limited to one thread, and prints the per-layer metrics of the traced ones.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the line before it holds the details: every
sample, quartiles, the accuracy values with their tolerances, and the
machine.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import spans

ROOT = Path(__file__).resolve().parents[1]
CHILD = Path(__file__).resolve().parent / "child.py"
WORK = ROOT / ".bench_work"
SETUP_PROBES = 5
CHILD_TIMEOUT_S = 120.0
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


@dataclass(frozen=True)
class Workload:
    experiments: tuple  # ((experiment name, parameters), ...)
    tolerances: dict  # accuracy value name -> largest accepted value


WORKLOADS = {
    # eigensolve hot path: most of the time in smallest_eigenpair, no Bessel code
    "dmrg-growth": Workload(
        (("dmrg", {"local_dim": 8, "kept_states": 32, "target_length": 20,
                   "mass": 1.0, "gs_tolerance": 1e-10}),),
        {"energy_rel_err": 1e-9, "entropy_rel_err": 1e-6}),
    # root-search hot path: ell-batched K_{i ell} at small x plus bisection
    "regulator-sweep": Workload(
        (("geom-entropy", {"mass": 1.0, "ell_max": 20.0,
                           "epsilons": "0.1,0.05,0.025,0.0125"}),),
        {"ell_err_max": 1e-5}),
    # the Bessel layer the other way: one x-batch through the turning point,
    # and a 4 MB report through the cli writer
    "wave-profile": Workload(
        (("modes", {"ell": 8.0, "mass": 1.0, "samples": 100_000, "x_max": 30.0}),),
        {"wave_err_rel_max": 1e-10}),
    # quantum_state, the Fock diagonalization and the Kruskal chart; bound by
    # Python overhead in the cli runner loops
    "state-trials": Workload(
        (("symmetry", {"trials": 2000}), ("growth", {"trials": 2000}),
         ("truncation", {"states": 200}), ("oracle", {"fock_cutoff": 40}),
         ("kruskal", {"points": 20_000})),
        {"symmetry_err": 1e-9, "growth_violation": 1e-9, "truncation_err": 1e-10,
         "fock_energy_rel_err": 1e-10, "fock_entropy_err": 1e-8, "kruskal_err": 1e-10}),
}


def _child(spec: dict, env: dict | None = None) -> tuple[float | None, dict | None, str | None]:
    """Run child.py once.  Returns (set-up seconds, result, error)."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(CHILD), json.dumps(spec)],
                            stdout=subprocess.PIPE, bufsize=0, cwd=ROOT,
                            env=None if env is None else {**os.environ, **env})
    rest = b""
    try:
        # unbuffered pipe: readline takes the ready line and nothing after it
        readable, _, _ = select.select([proc.stdout], [], [], CHILD_TIMEOUT_S)
        line = proc.stdout.readline() if readable else b""
        setup = time.perf_counter() - start
        if line:
            rest, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, None, f"child timed out after {CHILD_TIMEOUT_S:.0f} s"
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if not line.startswith(b'{"ready"'):
        return None, None, f"child exited with code {proc.returncode} before set-up ended"
    lines = rest.decode().strip().splitlines()
    if proc.returncode != 0 or (not spec.get("setup_only") and not lines):
        return setup, None, f"child exited with code {proc.returncode}"
    return setup, json.loads(lines[-1]) if lines else None, None


def _sample(name: str, seed: int, work: Path, index: int, mode: str) -> dict:
    """One fresh process running the workload; mode is plain, traced or
    one_thread."""
    workload = WORKLOADS[name]
    spec = {"experiments": workload.experiments, "seed": seed, "out_dir": str(work)}
    trace_path = work / f"spans-{index}.json"
    if mode == "traced":
        spec["trace"] = str(trace_path)
    setup, result, error = _child(spec, ONE_THREAD if mode == "one_thread" else None)
    sample = {"mode": mode, "setup_s": setup, "wall_s": None, "failures": []}
    if error is not None:
        sample["failures"].append(error)
        return sample
    if result["error"] is not None:
        sample["failures"].append(result["error"])
        return sample
    sample["wall_s"] = sum(run["wall_s"] for run in result["runs"])
    sample["peak_rss_mb"] = result["peak_rss_mb"]
    sample["environment"] = result["environment"]
    sample["accuracy"] = {}
    for run in result["runs"]:
        values, failures = checks.check_run(run, result["spectra"], workload.tolerances)
        sample["accuracy"].update(values)
        sample["failures"].extend(failures)
        Path(run["report"]).unlink()
    threads = result["environment"]["blas_threads"]
    if mode == "one_thread" and set(threads.values()) != {1}:
        sample["failures"].append(f"BLAS not limited to one thread: {threads}")
    if mode == "traced":
        table = spans.aggregate(json.loads(trace_path.read_text()))
        sample["layers"] = spans.layer_metrics(table, sample["wall_s"])
        sample["layers"]["cli.report_bytes"] = sum(r["report_bytes"] for r in result["runs"])
        sample["unwrapped"] = result["unwrapped"]
        os.replace(trace_path, WORK / f"spans-{name}.json")
    return sample


def _spread(values: list[float]) -> dict:
    quartiles = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "q1": quartiles[0], "q3": quartiles[2],
            "n": len(values)}


def _unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("gflops_computed"):
        return "Gflop"
    if name.endswith("bytes"):
        return "bytes"
    if name.endswith("share"):
        return "ratio"
    return "count"


def _machine() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": model}


def measure(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run a workload for `seconds`; return (result line, detail line)."""
    workload = WORKLOADS[name]
    work = WORK / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    try:
        # set-up probes first: they also warm the file cache for the samples
        setups = []
        for _ in range(0 if trace else SETUP_PROBES):
            setup, _, error = _child({"setup_only": True})
            if error is not None:
                raise RuntimeError(f"set-up probe failed: {error}")
            setups.append(setup)
        modes = ("plain", "traced") if trace else ("plain",)
        samples = []
        start = time.perf_counter()
        while not samples or time.perf_counter() - start < seconds:
            for mode in modes:
                samples.append(_sample(name, seed, work, len(samples), mode))
        if trace:
            samples.append(_sample(name, seed, work, len(samples), "one_thread"))
        setups += [s["setup_s"] for s in samples if s["setup_s"] is not None]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(1 for s in samples if s["failures"])
    timed = {mode: [s for s in samples if s["mode"] == mode and s["wall_s"] is not None]
             for mode in ("plain", "traced", "one_thread")}
    detail = {"seed": seed, "seconds": seconds, "trace": int(trace),
              "machine": {**_machine(), **next((s["environment"] for s in samples
                                                 if "environment" in s), {})},
              "failed_share": failed / len(samples),
              "failures": sorted({f for s in samples for f in s["failures"]}),
              "samples": [{k: s.get(k) for k in ("mode", "setup_s", "wall_s", "peak_rss_mb")}
                          for s in samples]}
    accuracy = {}
    for s in samples:
        for key, value in s.get("accuracy", {}).items():
            accuracy[key] = max(value, accuracy.get(key, value))
    detail["accuracy"] = {key: {"value": value, "tolerance": workload.tolerances[key]}
                          for key, value in accuracy.items()}

    metrics = {}
    if not timed["plain"] or (trace and not timed["traced"]):
        return {"correct": False, "attempted": len(samples), "failed": failed,
                "metrics": metrics}, detail
    walls = [s["wall_s"] for s in timed["plain"]]
    detail["timings"] = {"wall_s": _spread(walls)}
    if not trace:
        detail["timings"]["setup_s"] = _spread(setups)
        detail["timings"]["peak_rss_mb"] = _spread([s["peak_rss_mb"] for s in timed["plain"]])
        for key, unit in END_TO_END_UNITS.items():
            metrics[key] = {"value": detail["timings"][key]["median"], "unit": unit}
    else:
        traced_walls = [s["wall_s"] for s in timed["traced"]]
        detail["timings"]["traced_wall_s"] = _spread(traced_walls)
        detail["unwrapped"] = timed["traced"][0]["unwrapped"]
        layers = {key: statistics.median(s["layers"][key] for s in timed["traced"])
                  for key in timed["traced"][0]["layers"]}
        layers["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
        if timed["one_thread"]:
            layers["single_thread.wall_s"] = timed["one_thread"][0]["wall_s"]
        metrics = {key: {"value": value, "unit": _unit(key)}
                   for key, value in sorted(layers.items())}
    return {"correct": failed == 0, "attempted": len(samples), "failed": failed,
            "metrics": metrics}, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark one entlab workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="keep starting samples until this much time has passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "entlab" / "__init__.py").is_file():
        print(f"error: no entlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    result, detail = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"workload": args.workload, **detail}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
