"""Independent oracles for the benchmark's experiments.

Each check reads one experiment's report as written to disk and returns the
accuracy values it measured and a list of failures.  The Gaussian chain
oracle below is the bench's own numpy code, not entlab's; the angular roots
and wave values come from the mpmath reference files that refdata.py writes.
"""

from __future__ import annotations

import csv
import functools
import json
from pathlib import Path

import numpy as np

REFDATA = Path(__file__).resolve().parent / "refdata"
# a grid point and a reference abscissa are the same x up to linspace rounding
_SAME_X = 1e-12


def gaussian_chain(n_sites: int, mass: float) -> tuple[float, float]:
    """Ground energy and entropy of the first n_sites // 2 sites (at least
    one) of the fixed-end harmonic chain, from its covariance matrices."""
    v = ((2.0 + mass ** 2) * np.eye(n_sites)
         - np.eye(n_sites, k=1) - np.eye(n_sites, k=-1))
    w, q = np.linalg.eigh(v)
    energy = 0.5 * float(np.sqrt(w).sum())
    block = max(1, n_sites // 2)
    x = (0.5 * (q / np.sqrt(w)) @ q.T)[:block, :block]
    p = (0.5 * (q * np.sqrt(w)) @ q.T)[:block, :block]
    nu = np.sqrt(np.linalg.eigvals(x @ p).real)
    nu = nu[nu > 0.5 + 1e-12]
    entropy = float(((nu + 0.5) * np.log(nu + 0.5) - (nu - 0.5) * np.log(nu - 0.5)).sum())
    return energy, entropy


@functools.lru_cache(maxsize=None)
def _reference(name: str) -> dict:
    return json.loads((REFDATA / name).read_text())


def _rows(path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _floats(rows, key) -> np.ndarray:
    return np.array([float(r[key]) for r in rows])


def _check_dmrg(run, spectra):
    params = run["params"]
    last = _rows(run["report"])[-1]
    length = int(last["chain_length"])
    failures = []
    if length != params["target_length"]:
        failures.append(f"chain stopped at {length} sites, target {params['target_length']}")
    energy, entropy = gaussian_chain(length, params["mass"])
    return {
        "energy_rel_err": abs(float(last["ground_energy"]) - energy) / abs(energy),
        "entropy_rel_err": abs(float(last["half_chain_entropy"]) - entropy) / abs(entropy),
    }, failures


def _check_geom_entropy(run, spectra):
    params = run["params"]
    ref = _reference("regulator_roots.json")
    failures = []
    if params["mass"] != ref["mass"]:
        return {}, [f"no reference roots for mass {params['mass']}"]
    computed = {eps: np.array(ells) for eps, ells in spectra}
    counts = {float(r["epsilon"]): int(r["n_modes"]) for r in _rows(run["report"])}
    err = 0.0
    for eps, n_modes in counts.items():
        ells = computed.get(eps)
        expected = ref["roots"].get(repr(eps))
        if ells is None or expected is None:
            failures.append(f"epsilon {eps}: no spectrum captured or no reference")
            continue
        expected = np.array([float(e) for e in expected if float(e) <= params["ell_max"]])
        if not ells.size == n_modes == expected.size:
            failures.append(f"epsilon {eps}: {ells.size} roots ({n_modes} reported), "
                            f"reference has {expected.size}")
            continue
        if ells.size:
            err = max(err, float(np.abs(ells - expected).max()))
    return {"ell_err_max": err}, failures


def _check_modes(run, spectra):
    params = run["params"]
    ref = _reference("wave_k8.json")
    if (params["ell"], params["mass"]) != (ref["ell"], ref["mass"]):
        return {}, [f"no reference wave for ell {params['ell']}, mass {params['mass']}"]
    data = np.loadtxt(run["report"], delimiter=",", skiprows=1, usecols=(0, 1), ndmin=2)
    x, wave = data[:, 0], data[:, 1]
    ref_x = np.array([float(p[0]) for p in ref["points"]])
    ref_k = np.array([float(p[1]) for p in ref["points"]])
    at = np.clip(np.searchsorted(x, ref_x), 1, x.size - 1)
    nearest = np.where(np.abs(x[at - 1] - ref_x) < np.abs(x[at] - ref_x), at - 1, at)
    on_grid = np.abs(x[nearest] - ref_x) <= _SAME_X * ref_x
    failures = []
    full_grid = (params["samples"], params["x_max"]) == (ref["samples"], ref["x_max"])
    if not on_grid.any() or (full_grid and not on_grid.all()):
        failures.append(f"{int(on_grid.sum())} of {ref_x.size} reference points on the grid")
        return {}, failures
    err = np.abs(wave[nearest[on_grid]] - ref_k[on_grid]) / float(ref["amplitude"])
    return {"wave_err_rel_max": float(err.max())}, failures


def _check_oracle(run, spectra):
    params = run["params"]
    last = _rows(run["report"])[-1]
    energy, entropy = gaussian_chain(params["n_sites"], params["mass"])
    return {
        "fock_energy_rel_err": abs(float(last["energy"]) - energy) / energy,
        "fock_entropy_err": abs(float(last["entropy_fock"]) - entropy),
    }, []


def _check_symmetry(run, spectra):
    rows = _rows(run["report"])
    diff = np.abs(_floats(rows, "s_left") - _floats(rows, "s_right"))
    return {"symmetry_err": float(diff.max())}, []


def _check_growth(run, spectra):
    rows = _rows(run["report"])
    loss = _floats(rows, "s_in") - _floats(rows, "s_out")
    return {"growth_violation": max(0.0, float(loss.max()))}, []


def _check_truncation(run, spectra):
    rows = _rows(run["report"])
    keep = _floats(rows, "keep_distance")
    failures = []
    if np.any(keep > _floats(rows, "best_random_distance") + 1e-12):
        failures.append("a random projection beat the Schmidt truncation")
    err = np.abs(keep - _floats(rows, "schmidt_tail"))
    return {"truncation_err": float(err.max())}, failures


def _check_kruskal(run, spectra):
    rows = [r for r in _rows(run["report"]) if r["status"] == "ok"]
    mass, r = _floats(rows, "mass"), _floats(rows, "r")
    rho = r / (2.0 * mass)
    uv = 16.0 * mass ** 2 * (rho - 1.0) * np.exp(rho - 1.0)
    chart = np.abs(_floats(rows, "uv") - uv) / uv
    err = max(float(_floats(rows, "rel_error").max()), float(chart.max()))
    return {"kruskal_err": err}, []


CHECKS = {
    "dmrg": _check_dmrg,
    "geom-entropy": _check_geom_entropy,
    "modes": _check_modes,
    "oracle": _check_oracle,
    "symmetry": _check_symmetry,
    "growth": _check_growth,
    "truncation": _check_truncation,
    "kruskal": _check_kruskal,
}


def check_run(run: dict, spectra: list, tolerances: dict) -> tuple[dict, list[str]]:
    """Accuracy values of one experiment run and every way it failed: the
    CLI's own checks, the oracle comparison, and each value against its
    tolerance."""
    values, failures = CHECKS[run["experiment"]](run, spectra)
    if not run["passed"]:
        failing = [name for name, ok in run["checks"].items() if not ok]
        failures.append(f"{run['experiment']}: CLI checks failed: {', '.join(failing)}")
    for name, value in values.items():
        if not value <= tolerances[name]:
            failures.append(f"{name} = {value:.3e} above tolerance {tolerances[name]:.1e}")
    return values, failures
