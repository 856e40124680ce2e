"""Generate the stored oracle reference data with mpmath alone.

    python3 bench/refdata.py           # rewrite bench/refdata/*.json
    python3 bench/refdata.py --check   # regenerate in memory; exit 1 unless
                                       # the stored files are reproduced byte for byte

Nothing here imports entlab: the roots come from mpmath's own sign scan and a
bracketed refine, and the wave values from mpmath's K_{i ell}(x), both in
40-digit arithmetic.  Takes about 15 s.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import mpmath
import numpy as np

DPS = 40
STORED_DIGITS = 30
REFDATA = Path(__file__).resolve().parent / "refdata"

# regulator-sweep: roots of ell -> K_{i ell}(mass * epsilon) on (ELL_LO, ELL_MAX]
MASS = 1.0
ELL_LO = 1e-4
ELL_MAX = 20.0
EPSILONS = (0.1, 0.05, 0.025, 0.0125)
# zeros are at least pi / ln(2 ell / x) > 0.35 apart below ell = 20 for these
# x, so a 0.01 scan cannot step over a pair
SCAN_INTERVALS = 2000

# wave-profile: K_{i 8}(x) on the modes grid linspace(x_max/n, x_max, n)
WAVE_ELL = 8.0
WAVE_SAMPLES = 100_000
WAVE_X_MAX = 30.0
# every multiple of 0.15, plus the four smallest decades of the grid
WAVE_INDICES = sorted({0, 1, 9, 99} | {500 * k - 1 for k in range(1, 201)})


def _text(value) -> str:
    return mpmath.nstr(value, STORED_DIGITS)


def _k_imag(ell, x):
    return mpmath.re(mpmath.besselk(mpmath.mpc(0, ell), x))


def regulator_roots() -> dict:
    roots = {}
    with mpmath.workdps(DPS):
        for eps in EPSILONS:
            x = mpmath.mpf(MASS * eps)

            def scaled(ell):
                # e^{pi ell / 2} K_{i ell}(x) is O(1), so the refine's
                # residual test binds at every ell
                return _k_imag(ell, x) * mpmath.exp(mpmath.pi * ell / 2)

            lo, hi = mpmath.mpf(ELL_LO), mpmath.mpf(ELL_MAX)
            grid = [lo + (hi - lo) * k / SCAN_INTERVALS for k in range(SCAN_INTERVALS + 1)]
            values = [scaled(ell) for ell in grid]
            found = []
            for a, b, fa, fb in zip(grid, grid[1:], values, values[1:]):
                if fa * fb < 0:
                    root = mpmath.findroot(scaled, (a, b), solver="anderson")
                    if not a <= root <= b:
                        raise RuntimeError(f"refine left the bracket [{a}, {b}]")
                    found.append(_text(root))
            roots[repr(eps)] = found
    return {"dps": DPS, "mass": MASS, "ell_lo": ELL_LO, "ell_max": ELL_MAX,
            "scan_intervals": SCAN_INTERVALS, "roots": roots}


def wave_values() -> dict:
    grid = np.linspace(WAVE_X_MAX / WAVE_SAMPLES, WAVE_X_MAX, WAVE_SAMPLES)
    with mpmath.workdps(DPS):
        ell = mpmath.mpf(WAVE_ELL)
        amplitude = mpmath.sqrt(mpmath.pi / (ell * mpmath.sinh(mpmath.pi * ell)))
        points = [[repr(float(grid[i])), _text(_k_imag(ell, mpmath.mpf(float(grid[i]))))]
                  for i in WAVE_INDICES]
    return {"dps": DPS, "ell": WAVE_ELL, "mass": 1.0, "samples": WAVE_SAMPLES,
            "x_max": WAVE_X_MAX, "amplitude": _text(amplitude), "points": points}


FILES = {"regulator_roots.json": regulator_roots, "wave_k8.json": wave_values}


def _encode(data: dict) -> str:
    return json.dumps(data, indent=1, sort_keys=True) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare a fresh generation with the stored files")
    args = parser.parse_args(argv)
    status = 0
    for name, make in FILES.items():
        text = _encode(make())
        path = REFDATA / name
        if args.check:
            same = path.is_file() and path.read_text() == text
            print(f"{name}: {'reproduced' if same else 'DIFFERS'}")
            status |= 0 if same else 1
        else:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
            print(f"wrote {path}")
    return status


if __name__ == "__main__":
    sys.exit(main())
