"""Command-line interface: read an experiment's config, run it, and write
its report.

Each experiment (see `experiments`) draws its randomness from a seeded
generator (PCG64), emits plot-ready rows to CSV or JSON, and recomputes its
pass/fail checks from the emitted rows.  Output files are byte-identical for
identical config + seed, and are written whole or not at all.

Exit codes: 0 pass, 1 assertion failure, 2 usage/config error or not enough
memory, 3 I/O error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__, experiments, numerics

__all__ = ["ExperimentConfig", "RunReport", "UsageError", "run_experiment", "main"]

RNG_NAME = "pcg64"


class UsageError(ValueError):
    """Bad experiment name, unknown key, or invalid parameter value."""


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    seed: int = 0
    out: Path | None = None
    fmt: str = "csv"
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.experiment not in experiments.EXPERIMENTS:
            raise UsageError(
                f"unknown experiment {self.experiment!r}; choose from "
                f"{', '.join(sorted(experiments.EXPERIMENTS))}")
        if self.fmt not in ("csv", "json"):
            raise UsageError(f"unknown format {self.fmt!r}")
        if isinstance(self.seed, bool) or not isinstance(self.seed, int):
            raise UsageError("seed must be an integer")
        if self.seed < 0:
            raise UsageError("seed must be >= 0")
        if self.out is not None:
            object.__setattr__(self, "out", Path(self.out))
        spec = experiments.EXPERIMENTS[self.experiment]
        unknown = set(self.params) - set(spec.defaults)
        if unknown:
            raise UsageError(
                f"unknown parameter(s) for {self.experiment}: "
                f"{', '.join(sorted(unknown))}")
        merged = dict(spec.defaults)
        for key, raw in self.params.items():
            merged[key] = _coerce(raw, spec.defaults[key], key)
        for key, low in spec.minimum.items():
            if merged[key] < low:
                raise UsageError(f"{key} must be >= {low}")
        for key, bound in spec.below.items():
            if merged[key] >= merged[bound]:
                raise UsageError(f"{key} must be < {bound}")
        object.__setattr__(self, "params", merged)

    @property
    def output_path(self) -> Path:
        return self.out if self.out is not None else Path(f"{self.experiment}.{self.fmt}")


@dataclass(frozen=True)
class RunReport:
    config: ExperimentConfig
    rows: list
    checks: dict
    passed: bool
    wall_clock_s: float

    def file_payload(self) -> dict:
        # wall clock deliberately left out: identical config + seed must
        # produce byte-identical files
        return {
            "experiment": self.config.experiment,
            "seed": self.config.seed,
            "rng": RNG_NAME,
            "parameters": self.config.params,
            "version": __version__,
            "rows": self.rows,
            "checks": self.checks,
            "passed": self.passed,
        }


def _coerce(raw, default, key):
    """`raw` as the type of `default`; a tuple default takes a
    comma-separated list of distinct floats."""
    try:
        if isinstance(default, int):
            # a bool is an int to Python, and int("True") fails
            return raw if type(raw) is int else int(str(raw))
        if isinstance(default, float):
            return _finite(raw if isinstance(raw, float) else str(raw))
        values = tuple(_finite(tok) for tok in str(raw).split(",") if tok.strip())
    except ValueError as exc:
        raise UsageError(f"bad value for {key}: {raw!r}") from exc
    if len(set(values)) < len(values):
        raise UsageError(f"{key} must hold distinct values: {raw!r}")
    return values


def _finite(text) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not a finite number")
    return value


# --- report serialization ---------------------------------------------------


def _write_report(report: RunReport, path: Path) -> None:
    """Write the report to a temporary sibling file, then move it into
    place, so that a failure never leaves a partial report.  A report with
    no rows is an empty CSV file or a JSON report with `rows: []`."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        if report.config.fmt == "csv":
            with open(tmp, "w", newline="") as fh:
                writer = csv.writer(fh, lineterminator="\n")
                if report.rows:
                    header = list(report.rows[0].keys())
                    writer.writerow(header)
                    writer.writerows([row[k] for k in header] for row in report.rows)
        else:
            with open(tmp, "w") as fh:
                json.dump(report.file_payload(), fh, indent=2)
                fh.write("\n")
        os.replace(tmp, path)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc.strerror or exc}") from exc
    finally:
        tmp.unlink(missing_ok=True)


def run_experiment(config: ExperimentConfig) -> RunReport:
    """Run one experiment, write its rows to the output path, and return the
    report with checks recomputed from the emitted rows."""
    experiment = experiments.EXPERIMENTS[config.experiment]
    rng = np.random.default_rng(config.seed)
    start = time.perf_counter()
    rows = experiment.run(config.params, rng)
    # a report with no rows checks nothing, so it fails
    checks = experiment.check(rows, config.params) if rows else {"rows_nonempty": False}
    wall = time.perf_counter() - start
    report = RunReport(config=config, rows=rows, checks=checks,
                       passed=all(checks.values()), wall_clock_s=wall)
    _write_report(report, config.output_path)
    return report


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entlab",
        description="Run a reproducible entanglement-laboratory experiment.")
    parser.add_argument("--experiment", help="experiment name")
    parser.add_argument("--config", type=Path,
                        help="flat key=value config file; flags override it")
    parser.add_argument("--seed", type=int, help="RNG seed (default 0)")
    parser.add_argument("--out", type=Path, help="output path "
                        "(default <experiment>.<format>)")
    parser.add_argument("--format", choices=("csv", "json"), dest="fmt",
                        help="output format (default csv)")
    return parser


def _parse_config_file(path: Path) -> dict:
    entries = {}
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(),
                                  start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise UsageError(f"{path}:{lineno}: expected key = value")
        key, _, value = stripped.partition("=")
        entries[key.strip()] = value.strip()
    return entries


_RESERVED_KEYS = ("experiment", "seed", "out", "format")


def _resolve_config(args) -> ExperimentConfig:
    file_entries = {}
    if args.config is not None:
        try:
            file_entries = _parse_config_file(args.config)
        except (OSError, UnicodeDecodeError) as exc:
            raise UsageError(f"cannot read config file: {exc}") from exc

    experiment = args.experiment or file_entries.get("experiment")
    if not experiment:
        raise UsageError("an experiment must be named via --experiment or the "
                         "config file")
    seed = args.seed if args.seed is not None else _coerce(
        file_entries.get("seed", 0), 0, "seed")
    out = args.out if args.out is not None else (
        Path(file_entries["out"]) if "out" in file_entries else None)
    fmt = args.fmt or file_entries.get("format", "csv")
    params = {k: v for k, v in file_entries.items() if k not in _RESERVED_KEYS}
    return ExperimentConfig(experiment=experiment, seed=seed, out=out,
                            fmt=fmt, params=params)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _resolve_config(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        report = run_experiment(config)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: not enough memory: {exc}", file=sys.stderr)
        return 2
    except numerics.NumericalError as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3

    for name, ok in report.checks.items():
        print(f"check {name}: {'pass' if ok else 'FAIL'}")
    print(f"{config.experiment}: {'PASS' if report.passed else 'FAIL'} "
          f"({len(report.rows)} rows -> {config.output_path})")
    print(f"wall clock: {report.wall_clock_s:.3f} s", file=sys.stderr)
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
