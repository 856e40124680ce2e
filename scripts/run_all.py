#!/usr/bin/env python3
"""Run every experiment with its default parameters and collect the reports
under results/ (CSV rows plus one JSON report each)."""

import sys
from pathlib import Path

from entlab.cli import ExperimentConfig, run_experiment
from entlab.experiments import EXPERIMENTS


def main() -> int:
    out_dir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("results")
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 0
    out_dir.mkdir(parents=True, exist_ok=True)
    failures = []
    for name in EXPERIMENTS:
        for fmt in ("csv", "json"):
            config = ExperimentConfig(experiment=name, seed=seed, fmt=fmt,
                                      out=out_dir / f"{name}.{fmt}")
            report = run_experiment(config)
        status = "PASS" if report.passed else "FAIL"
        print(f"{name:14s} {status}  rows={report.row_count:5d}  "
              f"wall={report.wall_clock_s:7.2f}s  "
              f"checks={sum(report.checks.values())}/{len(report.checks)}")
        if not report.passed:
            failures.append(name)
    if failures:
        print(f"failing experiments: {', '.join(failures)}")
        return 1
    print(f"all experiments passed; reports in {out_dir}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
