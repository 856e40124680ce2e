"""Experiment harness and command-line interface.

Each experiment draws its randomness from a seeded generator (PCG64), emits
plot-ready rows to CSV or JSON, and recomputes its pass/fail checks from the
emitted rows.  Output files are byte-identical for identical config + seed,
and are written whole or not at all.

Exit codes: 0 pass, 1 assertion failure, 2 usage/config error, 3 I/O error,
4 numerical failure.
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

from . import __version__, dmrg, harmonic_chain, numerics, quantum_state, rindler

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
        if self.experiment not in EXPERIMENTS:
            raise UsageError(
                f"unknown experiment {self.experiment!r}; choose from "
                f"{', '.join(sorted(EXPERIMENTS))}")
        if self.fmt not in ("csv", "json"):
            raise UsageError(f"unknown format {self.fmt!r}")
        defaults = EXPERIMENTS[self.experiment].defaults
        unknown = set(self.params) - set(defaults)
        if unknown:
            raise UsageError(
                f"unknown parameter(s) for {self.experiment}: "
                f"{', '.join(sorted(unknown))}")
        merged = dict(defaults)
        for key, raw in self.params.items():
            merged[key] = _coerce(raw, defaults[key], key)
        for key in EXPERIMENTS[self.experiment].at_least_one:
            if merged[key] < 1:
                raise UsageError(f"{key} must be >= 1")
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
    """`raw` as the type of `default`; every text parameter is a
    comma-separated list of floats."""
    try:
        if isinstance(default, str):
            _float_list(raw)
            return str(raw)
        if isinstance(default, int):
            return raw if isinstance(raw, int) else int(str(raw))
        return _finite(raw if isinstance(raw, float) else str(raw))
    except ValueError as exc:
        raise UsageError(f"bad value for {key}: {raw!r}") from exc


def _finite(text) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not a finite number")
    return value


def _float_list(text: str) -> list[float]:
    return [_finite(tok) for tok in str(text).split(",") if tok.strip()]


# --- experiments ------------------------------------------------------------


def _run_symmetry(params, rng):
    rows = []
    for trial in range(params["trials"]):
        d_l = int(rng.integers(2, params["max_dim"] + 1))
        d_r = int(rng.integers(2, params["max_dim"] + 1))
        state = quantum_state.random_state(d_l, d_r, rng)
        s_l = quantum_state.von_neumann_entropy(quantum_state.reduced_density_left(state))
        s_r = quantum_state.von_neumann_entropy(quantum_state.reduced_density_right(state))
        rows.append({"trial": trial, "d_left": d_l, "d_right": d_r,
                     "s_left": s_l, "s_right": s_r, "abs_diff": abs(s_l - s_r)})
    return rows


def _check_symmetry(rows, params):
    worst = max(r["abs_diff"] for r in rows)
    return {"entropies_equal": worst <= 1e-9}


def _random_mixed(dim, rng):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return quantum_state.DensityMatrix(rho / np.trace(rho).real)


def _run_growth(params, rng):
    d_l, d_r = params["dim_left"], params["dim_right"]
    rows = []
    for trial in range(params["trials"]):
        rho_l = _random_mixed(d_l, rng)
        rho_r = _random_mixed(d_r, rng)
        u = quantum_state.random_unitary(d_l * d_r, rng)
        out_l, out_r = quantum_state.evolve_product(rho_l, rho_r, u)
        s_in = (quantum_state.von_neumann_entropy(rho_l)
                + quantum_state.von_neumann_entropy(rho_r))
        s_out = (quantum_state.von_neumann_entropy(out_l)
                 + quantum_state.von_neumann_entropy(out_r))
        rows.append({"trial": trial, "s_in": s_in, "s_out": s_out,
                     "slack": s_out - s_in})
    return rows


def _check_growth(rows, params):
    return {"entropy_never_decreases": min(r["slack"] for r in rows) >= -1e-9}


def _run_truncation(params, rng):
    dim, keep = params["dim"], params["keep"]
    rows = []
    for index in range(params["states"]):
        state = quantum_state.random_state(dim, dim, rng)
        dec = quantum_state.schmidt(state)
        tail = float((dec.coefficients[keep:] ** 2).sum())
        projector = dec.left_vectors[:, :keep] @ dec.left_vectors[:, :keep].conj().T
        keep_distance = quantum_state.truncation_distance(
            state, projector @ state.coeff)
        best_random = np.inf
        for _ in range(params["random_projections"]):
            q, _ = np.linalg.qr(rng.standard_normal((dim, keep))
                                + 1j * rng.standard_normal((dim, keep)))
            dist = quantum_state.truncation_distance(state, q @ q.conj().T @ state.coeff)
            best_random = min(best_random, dist)
        rows.append({"state": index, "keep_distance": keep_distance,
                     "schmidt_tail": tail, "best_random_distance": best_random})
    return rows


def _check_truncation(rows, params):
    tail_err = max(abs(r["keep_distance"] - r["schmidt_tail"]) for r in rows)
    optimal = all(r["keep_distance"] <= r["best_random_distance"] + 1e-12 for r in rows)
    return {"distance_equals_schmidt_tail": tail_err <= 1e-10,
            "kept_projection_is_optimal": optimal}


def _run_oracle(params, rng):
    spec = harmonic_chain.ChainSpec(n_sites=params["n_sites"], mass=params["mass"])
    potential = harmonic_chain.build_potential(spec)
    gs = harmonic_chain.ground_state_covariance(potential)
    region = range(max(1, params["n_sites"] // 2))
    s_gauss = harmonic_chain.block_entropy(gs, region)
    exact_energy = harmonic_chain.ground_energy(potential)
    rows = []
    for d in (params["fock_cutoff"] // 2, params["fock_cutoff"]):
        state, energy = harmonic_chain.fock_ground_state(potential, d, cut=len(region))
        rho = quantum_state.reduced_density_left(state)
        s_fock = quantum_state.von_neumann_entropy(rho)
        rows.append({"fock_cutoff": d, "energy": energy,
                     "energy_exact": exact_energy, "entropy_fock": s_fock,
                     "entropy_gaussian": s_gauss,
                     "entropy_diff": abs(s_fock - s_gauss)})
    return rows


def _check_oracle(rows, params):
    converged = abs(rows[-1]["entropy_fock"] - rows[0]["entropy_fock"]) <= 1e-4
    return {"fock_cutoff_converged": converged,
            "gaussian_fock_agreement": rows[-1]["entropy_diff"] <= 1e-4}


def _dmrg_oracle(length, mass):
    spec = harmonic_chain.ChainSpec(n_sites=length, mass=mass)
    potential = harmonic_chain.build_potential(spec)
    gs = harmonic_chain.ground_state_covariance(potential)
    entropy = harmonic_chain.block_entropy(gs, range(length // 2))
    return harmonic_chain.ground_energy(potential), entropy


def _run_dmrg(params, rng):
    config = dmrg.DmrgConfig(local_dim=params["local_dim"],
                             kept_states=params["kept_states"],
                             target_length=params["target_length"],
                             mass=params["mass"],
                             gs_tolerance=params["gs_tolerance"])
    rows = []
    for it in dmrg.run(config):
        oracle_energy, oracle_entropy = _dmrg_oracle(it.chain_length, params["mass"])
        rows.append({
            "chain_length": it.chain_length,
            "ground_energy": it.ground_energy,
            "oracle_energy": oracle_energy,
            "half_chain_entropy": it.half_chain_entropy,
            "oracle_entropy": oracle_entropy,
            "truncation_weight": it.truncation_weight,
            "kept": it.kept,
        })
    return rows


def _check_dmrg(rows, params):
    last = rows[-1]
    energy_rel = abs(last["ground_energy"] - last["oracle_energy"]) / abs(last["oracle_energy"])
    entropy_rel = abs(last["half_chain_entropy"] - last["oracle_entropy"]) / abs(last["oracle_entropy"])
    return {"energy_within_1_percent": energy_rel <= 0.01,
            "entropy_within_5_percent": entropy_rel <= 0.05}


def _run_modes(params, rng):
    mode = rindler.AngularMode(ell=params["ell"], mass=params["mass"])
    n = params["samples"]
    x_max = params["x_max"]
    grid = np.linspace(x_max / n, x_max, n)
    values = rindler.angular_wave(mode, grid)
    return [{"x": float(x), "wave": float(k), "turning_point": mode.turning_point}
            for x, k in zip(grid, values)]


def _check_modes(rows, params):
    x_star = rows[0]["turning_point"]
    below = np.array([r["wave"] for r in rows if r["x"] < x_star])
    above = np.array([r["wave"] for r in rows if r["x"] > x_star])
    checks = {"decays_above_turning_point": rindler.sign_changes(above) == 0}
    if params["ell"] >= 2.0:
        checks["oscillates_below_turning_point"] = rindler.sign_changes(below) >= 1
    return checks


def _run_spectrum(params, rng):
    spectrum = rindler.discrete_spectrum(params["mass"], params["epsilon"],
                                         params["ell_max"])
    ells = spectrum.ell_values
    # |K_{i ell}(m epsilon)| in units of the wave's amplitude A(ell)
    residuals = np.abs(rindler.scaled_wave(ells, params["mass"] * params["epsilon"]))
    return [{"n": n, "ell": float(ell), "residual": float(residual),
             "boltzmann_factor": float(np.exp(-rindler.BETA * ell))}
            for n, (ell, residual) in enumerate(zip(ells, residuals))]


def _check_spectrum(rows, params):
    if not rows:
        return {"spectrum_nonempty": False}
    ells = [r["ell"] for r in rows]
    return {"spectrum_nonempty": True,
            "residuals_small": max(r["residual"] for r in rows) <= 1e-8,
            "ascending": all(b > a for a, b in zip(ells, ells[1:]))}


def _run_geom_entropy(params, rng):
    rows = []
    for eps in _float_list(params["epsilons"]):
        spectrum = rindler.discrete_spectrum(params["mass"], eps, params["ell_max"])
        rows.append({"epsilon": eps, "n_modes": len(spectrum),
                     "entropy": rindler.geometric_entropy(spectrum)})
    return rows


def _check_geom_entropy(rows, params):
    if not rows:
        return {"entropies_nonempty": False}
    ordered = sorted(rows, key=lambda r: -r["epsilon"])
    entropies = [r["entropy"] for r in ordered]
    counts = [r["n_modes"] for r in ordered]
    return {"entropies_nonempty": True,
            "entropy_grows_as_regulator_shrinks":
                all(b > a for a, b in zip(entropies, entropies[1:])),
            "mode_count_nondecreasing":
                all(b >= a for a, b in zip(counts, counts[1:]))}


def _run_kruskal(params, rng):
    rows = []
    masses = _float_list(params["masses"])
    base, extra = divmod(params["points"], max(1, len(masses)))
    for i, mass in enumerate(masses):
        per_mass = base + (i < extra)  # `points` round trips in all
        r_vals = 2 * mass + 8 * mass * (1.0 - rng.random(per_mass))  # (2M, 10M]
        t_vals = -10 * mass + 20 * mass * rng.random(per_mass)
        for r, t in zip(r_vals, t_vals):
            point = rindler.SchwarzschildPoint(r=float(r), t=float(t), mass=mass)
            kp = rindler.to_kruskal(point)
            back = rindler.from_kruskal(kp, mass)
            rel = max(abs(back.r - r) / abs(r),
                      abs(back.t - t) / max(1.0, abs(t)))
            rows.append({"status": "ok", "mass": mass, "r": float(r), "t": float(t),
                         "u": kp.u, "v": kp.v, "uv": kp.u * kp.v,
                         "rel_error": float(rel)})
        # probe sequence r -> 2M+: u v must vanish toward the horizon
        for k in range(1, 9):
            r = 2 * mass * (1.0 + 10.0 ** -k)
            kp = rindler.to_kruskal(rindler.SchwarzschildPoint(r=r, t=0.0, mass=mass))
            rows.append({"status": "probe", "mass": mass, "r": r, "t": 0.0,
                         "u": kp.u, "v": kp.v, "uv": kp.u * kp.v, "rel_error": None})
        # the horizon itself is rejected input; record that
        try:
            rindler.SchwarzschildPoint(r=2 * mass, t=0.0, mass=mass)
            status = "unexpectedly-accepted"
        except ValueError:
            status = "rejected"
        rows.append({"status": status, "mass": mass, "r": 2 * mass, "t": 0.0,
                     "u": None, "v": None, "uv": None, "rel_error": None})
    return rows


def _check_kruskal(rows, params):
    ok_rows = [r for r in rows if r["status"] == "ok"]
    if not ok_rows:
        return {"round_trips_nonempty": False}
    probes = [r for r in rows if r["status"] == "probe"]
    rejected = [r for r in rows if r["status"] == "rejected"]
    uv_by_mass = {}
    for r in probes:
        uv_by_mass.setdefault(r["mass"], []).append(r["uv"])
    vanishing = all(
        all(b < a for a, b in zip(seq, seq[1:])) and seq[-1] < 1e-6 * seq[0]
        for seq in uv_by_mass.values())
    return {"round_trip_within_1e10": max(r["rel_error"] for r in ok_rows) <= 1e-10,
            "uv_vanishes_at_horizon": vanishing,
            "horizon_input_rejected": len(rejected) == len(uv_by_mass)}


@dataclass(frozen=True)
class _Experiment:
    defaults: dict
    runner: callable
    evaluator: callable
    at_least_one: tuple = ()  # row counts: an empty report checks nothing


EXPERIMENTS = {
    "symmetry": _Experiment({"trials": 200, "max_dim": 10},
                            _run_symmetry, _check_symmetry, ("trials",)),
    "growth": _Experiment({"trials": 200, "dim_left": 3, "dim_right": 3},
                          _run_growth, _check_growth, ("trials",)),
    "truncation": _Experiment({"states": 50, "dim": 6, "keep": 3,
                               "random_projections": 200},
                              _run_truncation, _check_truncation, ("states",)),
    "oracle": _Experiment({"n_sites": 2, "mass": 1.0, "fock_cutoff": 20},
                          _run_oracle, _check_oracle),
    "dmrg": _Experiment({"mass": 1.0, "local_dim": 8, "kept_states": 16,
                         "target_length": 20, "gs_tolerance": 1e-10},
                        _run_dmrg, _check_dmrg),
    "modes": _Experiment({"ell": 8.0, "mass": 1.0, "samples": 600, "x_max": 30.0},
                         _run_modes, _check_modes, ("samples",)),
    "spectrum": _Experiment({"mass": 1.0, "epsilon": 0.1, "ell_max": 20.0},
                            _run_spectrum, _check_spectrum),
    "geom-entropy": _Experiment({"mass": 1.0, "ell_max": 20.0,
                                 "epsilons": "0.1,0.05,0.025"},
                                _run_geom_entropy, _check_geom_entropy),
    "kruskal": _Experiment({"points": 1000, "masses": "0.5,1,2"},
                           _run_kruskal, _check_kruskal, ("points",)),
}


# --- report serialization ---------------------------------------------------


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


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
                    for row in report.rows:
                        writer.writerow([_format_cell(row[key]) for key in header])
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
    experiment = EXPERIMENTS[config.experiment]
    rng = np.random.default_rng(config.seed)
    start = time.perf_counter()
    rows = experiment.runner(config.params, rng)
    checks = experiment.evaluator(rows, config.params)
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
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
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
