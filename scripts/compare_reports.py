#!/usr/bin/env python3
"""Compare the CSV and JSON reports that scripts/run_all.py writes into two
directories, e.g. from two checkouts at the same seed.

    python3 scripts/compare_reports.py DIR_A DIR_B

For each file it prints whether the two are byte-identical and, for a JSON
report that is not, the largest absolute and relative difference in each
float column.  It exits 1 when a file is missing from either directory, or
when two JSON reports differ in row count, in a cell that is not a float,
or in a check verdict or any other field; float differences alone never
fail.  A CSV that differs does not fail on its own: its JSON twin holds the
same rows and carries the comparison.
"""

import json
import math
import sys
from pathlib import Path


def _float_differences(rows_a, rows_b):
    """(column -> (max abs, max rel) over the cells that are finite floats
    on both sides, list of the other cells that differ)."""
    worst, mismatched = {}, []
    for index, (row_a, row_b) in enumerate(zip(rows_a, rows_b)):
        for key in row_a.keys() | row_b.keys():
            a, b = row_a.get(key), row_b.get(key)
            if all(isinstance(v, float) and math.isfinite(v) for v in (a, b)):
                diff = abs(a - b)
                rel = diff / max(abs(a), abs(b)) if diff else 0.0
                old_abs, old_rel = worst.get(key, (0.0, 0.0))
                worst[key] = (max(old_abs, diff), max(old_rel, rel))
            elif repr(a) != repr(b):  # repr: nan equals nan, 1 differs from 1.0
                mismatched.append(f"row {index} {key}: {a!r} != {b!r}")
    return worst, mismatched


def compare(path_a: Path, path_b: Path) -> list[str]:
    """Print the comparison of one report pair; return its failures."""
    raw_a, raw_b = path_a.read_bytes(), path_b.read_bytes()
    if raw_a == raw_b:
        print(f"{path_a.name}: byte-identical")
        return []
    print(f"{path_a.name}: differs")
    if path_a.suffix == ".csv":
        return []
    a, b = json.loads(raw_a), json.loads(raw_b)
    rows_a, rows_b = a.pop("rows"), b.pop("rows")
    failures = []
    if len(rows_a) != len(rows_b):
        failures.append(f"row counts {len(rows_a)} != {len(rows_b)}")
    worst, mismatched = _float_differences(rows_a, rows_b)
    for key, (diff, rel) in sorted(worst.items()):
        print(f"  {key:24s} max abs {diff:.2e}  max rel {rel:.2e}")
    failures.extend(mismatched)
    for key in sorted(a.keys() | b.keys()):
        if a.get(key) != b.get(key):
            failures.append(f"{key}: {a.get(key)!r} != {b.get(key)!r}")
    return [f"{path_a.name}: {failure}" for failure in failures]


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: compare_reports.py DIR_A DIR_B", file=sys.stderr)
        return 2
    dir_a, dir_b = Path(args[0]), Path(args[1])
    names = sorted({p.name for d in (dir_a, dir_b) for pattern in ("*.csv", "*.json")
                    for p in d.glob(pattern)})
    failures = []
    for name in names:
        if not (dir_a / name).is_file() or not (dir_b / name).is_file():
            failures.append(f"{name}: missing from "
                            f"{dir_b if (dir_a / name).is_file() else dir_a}")
            continue
        failures.extend(compare(dir_a / name, dir_b / name))
    for failure in failures:
        print(f"FAIL {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
