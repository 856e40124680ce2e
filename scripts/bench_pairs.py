#!/usr/bin/env python3
"""Compare two checkouts on the benchmark in alternating pairs, and write
the end-to-end result as one JSON file (a BENCH_*.json).

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR OUT_JSON [--pairs 10] [--seed 1]

Each run is `bench/run.py --workload W --seed S --seconds T --trace 0`,
started in the checkout it measures, with T the run_seconds of that
checkout's BENCHMARK.json.  Pair i runs the parent first when i is even and
the change first when it is odd.  For every workload and end-to-end metric
the file holds each side's per-run values, median and quartiles, and how
many pairs the change won and lost; a tie counts for neither.  It also
records every run's failed share and the machine of the first run.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def _run(root: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        raise RuntimeError(f"{root}: {workload} printed no result:\n{proc.stderr}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def _spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("out", type=Path)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.pairs < 2:  # the quartiles of a side need at least two runs
        parser.error("--pairs must be at least 2")

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    sides = {"parent": args.parent, "change": args.change}
    report = {"command": f"bench/run.py --seed {args.seed} --trace 0, "
                         f"--seconds {spec['run_seconds']}",
              "pairs": args.pairs, "machine": None, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = {side: [] for side in sides}
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                detail, result = _run(sides[side], workload, args.seed, spec["run_seconds"])
                report["machine"] = report["machine"] or detail["machine"]
                runs[side].append({"failed_share": detail["failed_share"],
                                   **{k: v["value"] for k, v in result["metrics"].items()}})
                print(f"{workload} pair {pair} {side}: "
                      f"{runs[side][-1].get('wall_s')}", file=sys.stderr, flush=True)
        entry = {"failed_share": {side: [r["failed_share"] for r in runs[side]]
                                  for side in sides}}
        for name, metric in metrics.items():
            values = {side: [r[name] for r in runs[side]] for side in sides}
            sign = 1.0 if metric["better"] == "lower" else -1.0
            diffs = [sign * (p - c) for p, c in zip(values["parent"], values["change"])]
            entry[name] = {
                "unit": metric["unit"], "better": metric["better"],
                **{side: {"runs": values[side], **_spread(values[side])} for side in sides},
                "change_wins": sum(d > 0 for d in diffs),
                "change_losses": sum(d < 0 for d in diffs)}
        report["workloads"][workload] = entry
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
