"""Command-line interface: read an experiment's config, run it, and write
its report.

Each experiment (see `experiments`) draws its randomness from a seeded
generator (PCG64), returns plot-ready columns, written as rows to CSV or JSON,
and recomputes its pass/fail checks from those columns.  Output files are
byte-identical for identical config + seed, and are written whole or not at all.

Exit codes: 0 pass, 1 assertion failure, 2 usage/config error or not enough
memory, 3 I/O error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import numpy.random  # numpy >= 2.4 loads it on first use, inside run_experiment's timing

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
    table: dict  # column name -> list of cells, every column of one length
    checks: dict
    passed: bool
    wall_clock_s: float

    @property
    def row_count(self) -> int:
        return len(next(iter(self.table.values()), ()))

    def file_payload(self) -> dict:
        # wall clock deliberately left out: identical config + seed must
        # produce byte-identical files
        return {
            "experiment": self.config.experiment,
            "seed": self.config.seed,
            "rng": RNG_NAME,
            "parameters": self.config.params,
            "version": __version__,
            "rows": [],  # _write_report writes the table's rows in here
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


_JSON_WORDS = {"None": "null", "True": "true", "False": "false",
               "nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_BLOCK_ROWS = 1024  # rows spelled and written at a time: bounds the writer's memory


def _cell(value, as_json: bool) -> str:
    """One cell: a string as csv.writer or json.dump spells it, None in CSV
    as an empty cell, and any other value in Python's spelling, which
    `_cells` maps to JSON's."""
    if isinstance(value, str):
        if as_json:
            return json.dumps(value)
        quoted = any(c in value for c in ',"\r\n')  # a separator, quote or line break
        return '"' + value.replace('"', '""') + '"' if quoted else value
    if value is None and not as_json:
        return ""
    return float.__repr__(value) if isinstance(value, float) else str(value)


def _cells(column: list, as_json: bool) -> list:
    """A column's cells as csv.writer (lineterminator "\\n") or json.dump
    spells them, a numpy float64 as a float and not in numpy's repr."""
    plain = set(map(type, column)) == {float}
    text = list(map(float.__repr__, column)) if plain else [_cell(v, as_json) for v in column]
    return list(map(_JSON_WORDS.get, text, text)) if as_json else text


def _write_report(report: RunReport, path: Path) -> None:
    """Write the report to a temporary sibling file, then move it into
    place, so that a failure never leaves a partial report.  Each column of
    a block of _BLOCK_ROWS rows is spelled at once.  A report with no rows is
    an empty CSV file or a JSON report with `rows: []`."""
    table, count, as_json = report.table, report.row_count, report.config.fmt == "json"
    if as_json:
        head, rows, tail = json.dumps(report.file_payload(), indent=2).partition('"rows": [')
        fields = (f"      {json.dumps(key)}: %s" for key in table)
        row = ",\n    {\n" + ",\n".join(fields) + "\n    }"
        head, tail = head + rows, ("\n  " if count else "") + tail + "\n"
    else:
        row = ",".join(["%s"] * len(table)) + "\n"
        head = ",".join(_cells(list(table), False)) + "\n" if count else ""
        tail = ""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", newline=None if as_json else "") as fh:
            fh.write(head)
            for start in range(0, count, _BLOCK_ROWS):
                cells = [_cells(column[start:start + _BLOCK_ROWS], as_json)
                         for column in table.values()]
                text = "".join(map(row.__mod__, zip(*cells)))
                fh.write(text[1:] if as_json and not start else text)  # no comma before row 0
            fh.write(tail)
        os.replace(tmp, path)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc.strerror or exc}") from exc
    finally:
        tmp.unlink(missing_ok=True)


def run_experiment(config: ExperimentConfig) -> RunReport:
    """Run one experiment, write its table to the output path, and return
    the report with checks recomputed from the emitted table."""
    experiment = experiments.EXPERIMENTS[config.experiment]
    rng = np.random.default_rng(config.seed)
    start = time.perf_counter()
    table = experiment.run(config.params, rng)
    # a report with no rows checks nothing, so it fails
    checks = (experiment.check(table, config.params) if any(table.values())
              else {"rows_nonempty": False})
    wall = time.perf_counter() - start
    report = RunReport(config=config, table=table, checks=checks,
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
          f"({report.row_count} rows -> {config.output_path})")
    print(f"wall clock: {report.wall_clock_s:.3f} s", file=sys.stderr)
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
