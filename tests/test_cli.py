import ast
import csv
import dataclasses
import importlib.util
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from entlab import cli, dmrg, experiments, numerics

ROOT = Path(__file__).resolve().parents[1]


def run_main(*args):
    return cli.main([str(a) for a in args])


def test_unknown_experiment_is_usage_error(tmp_path, capsys):
    assert run_main("--experiment", "nope") == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_unknown_config_key_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("experiment = symmetry\nbogus = 1\n")
    assert run_main("--config", cfg) == 2
    assert "bogus" in capsys.readouterr().err


def test_unwritable_output_is_io_error(tmp_path):
    out = tmp_path / "missing-dir" / "rows.csv"
    code = run_main("--experiment", "kruskal", "--out", out)
    assert code == 3


def test_missing_experiment_is_usage_error(capsys):
    assert run_main("--seed", "1") == 2


def test_symmetry_run_is_byte_identical_for_fixed_seed(tmp_path):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    out_c = tmp_path / "c.csv"
    assert run_main("--experiment", "symmetry", "--seed", "42", "--out", out_a) == 0
    assert run_main("--experiment", "symmetry", "--seed", "42", "--out", out_b) == 0
    assert run_main("--experiment", "symmetry", "--seed", "43", "--out", out_c) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    assert out_a.read_bytes() != out_c.read_bytes()


def test_dmrg_report_does_not_depend_on_blas_threads(tmp_path):
    reports = []
    for threads in ("1", "2"):
        out = tmp_path / f"dmrg-{threads}.csv"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [
                       str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
        subprocess.run([sys.executable, "-m", "entlab", "--experiment", "dmrg",
                        "--out", str(out)], env=env, check=True, capture_output=True)
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]


# a fresh process: importing entlab.cli loads neither scipy.special nor
# scipy.sparse, and no default run loads a module more (an ARPACK fallback
# in the default dmrg run would load scipy.sparse)
_IMPORTS = """
import json, sys
from pathlib import Path
import entlab.cli
scipy = sorted(m for m in sys.modules if m.split(".")[:2] in (["scipy", "special"],
                                                              ["scipy", "sparse"]))
before = set(sys.modules)
for experiment in entlab.cli.experiments.EXPERIMENTS:
    config = entlab.cli.ExperimentConfig(experiment, out=Path(sys.argv[1]) / experiment)
    assert entlab.cli.run_experiment(config).passed
print(json.dumps({"scipy": scipy, "loaded": sorted(set(sys.modules) - before)}))
"""


def test_cli_import_loads_no_scipy_and_runs_load_no_module(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", _IMPORTS, str(tmp_path)], env=env,
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == {"scipy": [], "loaded": []}


def test_text_output_path_writes_the_report(tmp_path):
    out = tmp_path / "s.csv"
    config = cli.ExperimentConfig(experiment="symmetry", out=str(out),
                                  params={"trials": 3})
    assert config.out == out
    assert cli.run_experiment(config).passed
    assert len(out.read_text().splitlines()) == 4


def test_csv_uses_lf_and_roundtrip_floats(tmp_path):
    out_csv = tmp_path / "rows.csv"
    out_json = tmp_path / "rows.json"
    assert run_main("--experiment", "growth", "--seed", "5", "--out", out_csv,
                    "--format", "csv") == 0
    assert run_main("--experiment", "growth", "--seed", "5", "--out", out_json,
                    "--format", "json") == 0
    raw = out_csv.read_bytes()
    assert b"\r" not in raw
    lines = raw.decode().splitlines()
    header = lines[0].split(",")
    payload = json.loads(out_json.read_text())
    assert len(lines) == len(payload["rows"]) + 1
    for line, row in zip(lines[1:], payload["rows"]):
        cells = dict(zip(header, line.split(",")))
        for key in ("s_in", "s_out", "slack"):
            # the shortest text that round-trips, as JSON writes it
            assert cells[key] == repr(float(cells[key]))
            assert float(cells[key]) == row[key]


def test_json_payload_structure_and_no_wall_clock(tmp_path):
    out = tmp_path / "report.json"
    assert run_main("--experiment", "oracle", "--seed", "0", "--out", out,
                    "--format", "json") == 0
    payload = json.loads(out.read_text())
    assert payload["experiment"] == "oracle"
    assert payload["seed"] == 0
    assert payload["rng"] == "pcg64"
    assert payload["passed"] is True
    assert payload["version"]
    assert "wall_clock" not in json.dumps(payload)
    assert all(payload["checks"].values())


def test_flags_override_config_file(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("experiment = truncation\nseed = 1\nstates = 4\n"
                   "random_projections = 20\nformat = json\n")
    out = tmp_path / "t.json"
    assert run_main("--config", cfg, "--seed", "9", "--out", out) == 0
    payload = json.loads(out.read_text())
    assert payload["seed"] == 9
    assert payload["parameters"]["states"] == 4
    assert len(payload["rows"]) == 4


def test_checks_recomputed_from_rows_pass_for_each_quick_experiment(tmp_path):
    quick = {
        "symmetry": {"trials": "20"},
        "growth": {"trials": "20"},
        "truncation": {"states": "4", "random_projections": "25"},
        "oracle": {"fock_cutoff": "12"},
        "modes": {"samples": "400"},
        "kruskal": {"points": "60"},
    }
    for name, params in quick.items():
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(f"experiment = {name}\n"
                       + "".join(f"{k} = {v}\n" for k, v in params.items()))
        out = tmp_path / f"{name}.json"
        code = run_main("--config", cfg, "--out", out, "--format", "json")
        payload = json.loads(out.read_text())
        assert code == 0, (name, payload["checks"])
        assert payload["passed"] is True


def test_spectrum_and_geom_entropy_experiments(tmp_path):
    cfg = tmp_path / "spectrum.cfg"
    cfg.write_text("experiment = spectrum\nepsilon = 0.2\nell_max = 5\n")
    out = tmp_path / "spectrum.json"
    assert run_main("--config", cfg, "--out", out, "--format", "json") == 0
    payload = json.loads(out.read_text())
    assert payload["checks"]["residuals_small"] is True

    cfg = tmp_path / "ge.cfg"
    cfg.write_text("experiment = geom-entropy\nell_max = 5\nepsilons = 0.2,0.1\n")
    out = tmp_path / "ge.json"
    assert run_main("--config", cfg, "--out", out, "--format", "json") == 0
    payload = json.loads(out.read_text())
    assert payload["checks"]["entropy_grows_as_regulator_shrinks"] is True
    assert payload["parameters"]["epsilons"] == [0.2, 0.1]
    assert [row["epsilon"] for row in payload["rows"]] == [0.2, 0.1]


def test_dmrg_experiment_and_failing_checks_exit_code(tmp_path):
    cfg = tmp_path / "dmrg.cfg"
    cfg.write_text("experiment = dmrg\ntarget_length = 8\nlocal_dim = 4\n"
                   "kept_states = 8\n")
    out = tmp_path / "dmrg.json"
    assert run_main("--config", cfg, "--out", out, "--format", "json") == 0
    payload = json.loads(out.read_text())
    assert payload["checks"]["energy_within_1_percent"] is True

    # a one-state truncation misses the oracle energy: flag the report, exit 1
    cfg.write_text("experiment = dmrg\ntarget_length = 8\nlocal_dim = 4\n"
                   "kept_states = 1\n")
    code = run_main("--config", cfg, "--out", tmp_path / "poor.json",
                    "--format", "json")
    assert code == 1
    payload = json.loads((tmp_path / "poor.json").read_text())
    assert payload["passed"] is False
    assert payload["checks"]["energy_within_1_percent"] is False
    assert set(payload["checks"]) == {"energy_within_1_percent",
                                      "entropy_within_5_percent"}


def test_dmrg_at_mass_1000_passes_against_its_oracle(tmp_path):
    # the half-chain entropy is 1.962718014010235e-12 (50-digit mpmath, 4 or
    # 20 sites); the oracle's error, 6.9e-10, is the float64 P's, and DMRG
    # reads 1.96239e-12
    cfg = tmp_path / "dmrg.cfg"
    cfg.write_text("experiment = dmrg\nmass = 1000\ntarget_length = 4\nlocal_dim = 4\n")
    out = tmp_path / "dmrg.json"
    assert run_main("--config", cfg, "--out", out, "--format", "json") == 0
    payload = json.loads(out.read_text())
    assert abs(payload["rows"][-1]["oracle_entropy"] / 1.962718014010235e-12 - 1.0) <= 3e-9
    assert payload["checks"] == {"energy_within_1_percent": True,
                                 "entropy_within_5_percent": True}


def test_dmrg_max_iterations_key_is_rejected(tmp_path, capsys):
    cfg = tmp_path / "dmrg.cfg"
    cfg.write_text("experiment = dmrg\ntarget_length = 12\nlocal_dim = 4\n"
                   "kept_states = 8\nmax_iterations = 2\n")
    assert run_main("--config", cfg, "--out", tmp_path / "short.json") == 2
    assert "max_iterations" in capsys.readouterr().err
    assert not (tmp_path / "short.json").exists()


def test_fock_oracle_potential_that_is_not_finite_square_symmetric_is_usage_error(
        tmp_path, capsys, monkeypatch, bad_potential):
    # only the Fock oracle sees the potential: the Gaussian side is stubbed
    potential = bad_potential[0]
    monkeypatch.setattr(experiments, "_gaussian_chain", lambda n, mass, cut: (potential, 1.0, 0.5))
    assert run_main("--experiment", "oracle", "--out", tmp_path / "o.csv") == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "o.csv").exists()


def test_dmrg_oversized_local_dim_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "dmrg.cfg"
    cfg.write_text("experiment = dmrg\nlocal_dim = 5000\n")
    assert run_main("--config", cfg, "--out", tmp_path / "big.json") == 2
    assert "local_dim 5000" in capsys.readouterr().err
    assert not (tmp_path / "big.json").exists()


def test_kruskal_records_rejected_boundary_probe(tmp_path):
    cfg = tmp_path / "kr.cfg"
    cfg.write_text("experiment = kruskal\npoints = 30\nmasses = 1\n")
    out = tmp_path / "kr.json"
    assert run_main("--config", cfg, "--out", out, "--format", "json") == 0
    payload = json.loads(out.read_text())
    statuses = [row["status"] for row in payload["rows"]]
    assert statuses.count("rejected") == 1
    assert payload["checks"]["horizon_input_rejected"] is True


def test_default_output_path_uses_experiment_name(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run_main("--experiment", "kruskal", "--seed", "1") == 0
    assert Path("kruskal.csv").exists()


def test_invalid_parameter_value_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("experiment = symmetry\ntrials = not-a-number\n")
    assert run_main("--config", cfg) == 2
    assert "bad value" in capsys.readouterr().err


def test_threads_config_key_is_rejected(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("experiment = symmetry\nthreads = 1\n")
    assert run_main("--config", cfg) == 2
    assert "threads" in capsys.readouterr().err


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_empty_spectrum_writes_empty_report_and_fails_check(tmp_path, fmt):
    cfg = tmp_path / "spectrum.cfg"
    cfg.write_text("experiment = spectrum\nell_max = 0.5\n")
    out = tmp_path / f"spectrum.{fmt}"
    with pytest.warns(UserWarning, match="no angular frequencies"):
        code = run_main("--config", cfg, "--out", out, "--format", fmt)
    assert code == 1
    if fmt == "csv":
        assert out.read_bytes() == b""
    else:
        payload = json.loads(out.read_text())
        assert payload["rows"] == []
        assert payload["checks"] == {"rows_nonempty": False}
    assert sorted(p.name for p in tmp_path.iterdir()) == ["spectrum.cfg", out.name]


def test_failed_write_leaves_no_partial_report(tmp_path, monkeypatch):
    def full_disk(path, *args, **kwargs):
        fh = open(path, *args, **kwargs)
        write = fh.write

        def partial_write(text):
            write(text[:len(text) // 2])
            raise OSError(28, "No space left on device")

        fh.write = partial_write
        return fh

    monkeypatch.setattr(cli, "open", full_disk, raising=False)
    code = run_main("--experiment", "kruskal", "--out", tmp_path / "kr.json",
                    "--format", "json")
    assert code == 3
    assert list(tmp_path.iterdir()) == []


def test_eigensolver_failure_is_numerical_failure_exit_code(tmp_path, capsys):
    # Davidson and ARPACK on a 9-dimensional sector, then on the default chain
    for settings in ("target_length = 2\nlocal_dim = 5\ngs_tolerance = 1e-18\n",
                     "gs_tolerance = 1e-17\n"):
        cfg = tmp_path / "dmrg.cfg"
        cfg.write_text("experiment = dmrg\n" + settings)
        out = tmp_path / "dmrg.csv"
        assert run_main("--config", cfg, "--out", out) == 4
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and "numerical failure" in err
        assert not out.exists()


def test_bessel_failure_is_numerical_failure_exit_code(tmp_path, capsys, monkeypatch):
    def failing(ell, x):
        raise cli.numerics.NumericalError("Bessel quadrature did not converge")

    monkeypatch.setattr(cli.numerics, "bessel_K_imag", failing)
    out = tmp_path / "spectrum.csv"
    assert run_main("--experiment", "spectrum", "--out", out) == 4
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and "numerical failure" in err
    assert list(tmp_path.iterdir()) == []


def test_out_of_memory_is_a_clean_error(tmp_path, capsys, monkeypatch):
    # as growth at dim_left = dim_right = 300, which draws a 90,000 x 90,000 unitary
    def exhausted(params, rng):
        raise MemoryError("Unable to allocate 121. GiB for an array with shape (90000, 90000)")

    growth = dataclasses.replace(experiments.EXPERIMENTS["growth"], run=exhausted)
    monkeypatch.setitem(experiments.EXPERIMENTS, "growth", growth)
    out = tmp_path / "growth.json"
    assert run_main("--experiment", "growth", "--out", out, "--format", "json") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: not enough memory: Unable to allocate")
    assert err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def _report(table, fmt):
    config = cli.ExperimentConfig(experiment="kruskal", fmt=fmt)
    return cli.RunReport(config=config, table=table, checks={"ok": True}, passed=True,
                         wall_clock_s=0.0)


WRITER_TABLES = {
    "cells": {
        "note": [None, "", None],
        "flag": [True, False, True],
        "count": [0, -7, 2 ** 70],
        "status": ["ok", "a,b", 'say "hi"'],
        "value": [-0.0, 0.1, 1e300],
        "special": [float("nan"), float("inf"), float("-inf")],
        "mixed": [None, 2.5, float("nan")],
        "np_float": [np.float64(0.1), np.float64(-0.0), np.float64("-inf")],
        "np_int": [np.int64(3), np.int64(-1), np.int64(2 ** 62)],
    },
    "empty": {"x": [], "wave": []},
}


@pytest.mark.parametrize("name", WRITER_TABLES)
def test_writer_matches_csv_writer_and_json_dump(tmp_path, name):
    table = WRITER_TABLES[name]
    rows = list(zip(*table.values()))

    expected_csv = io.StringIO()
    if rows:
        writer = csv.writer(expected_csv, lineterminator="\n")
        writer.writerow(table)
        writer.writerows(rows)
    cli._write_report(_report(table, "csv"), tmp_path / "t.csv")
    assert (tmp_path / "t.csv").read_bytes() == expected_csv.getvalue().encode()

    # json.dump takes no numpy scalars: give it the Python numbers they hold
    report = _report(table, "json")
    payload = report.file_payload()
    payload["rows"] = [{key: cell.item() if isinstance(cell, np.generic) else cell
                        for key, cell in zip(table, row)} for row in rows]
    expected_json = json.dumps(payload, indent=2) + "\n"
    cli._write_report(report, tmp_path / "t.json")
    assert (tmp_path / "t.json").read_bytes() == expected_json.encode()


QUICK_PARAMS = {
    "symmetry": {"trials": 5}, "growth": {"trials": 5},
    "truncation": {"states": 2, "random_projections": 5}, "oracle": {"fock_cutoff": 8},
    "dmrg": {"target_length": 4, "local_dim": 4, "kept_states": 8},
    "modes": {"samples": 50}, "spectrum": {"ell_max": 5.0},
    "geom-entropy": {"ell_max": 5.0, "epsilons": "0.2,0.1"}, "kruskal": {"points": 10},
}


@pytest.mark.parametrize("name", sorted(experiments.EXPERIMENTS))
def test_runner_returns_columns_of_one_length(name):
    params = cli.ExperimentConfig(experiment=name, params=QUICK_PARAMS[name]).params
    table = experiments.EXPERIMENTS[name].run(params, np.random.default_rng(0))
    assert all(type(column) is list for column in table.values())
    assert len({len(column) for column in table.values()}) == 1
    assert len(next(iter(table.values()))) > 0


NAN_CHECKS = [
    ("symmetry", "abs_diff", "entropies_equal"),
    ("growth", "slack", "entropy_never_decreases"),
    ("truncation", "keep_distance", "distance_equals_schmidt_tail"),
    ("spectrum", "residual", "residuals_small"),
    ("kruskal", "rel_error", "round_trip_within_1e10"),
]


@pytest.mark.parametrize("name, column, check", NAN_CHECKS, ids=[c for _, _, c in NAN_CHECKS])
def test_nan_in_the_second_row_fails_the_check(name, column, check):
    # Python's max and min skip a NaN unless it comes first
    params = cli.ExperimentConfig(experiment=name, params=QUICK_PARAMS[name]).params
    experiment = experiments.EXPERIMENTS[name]
    table = experiment.run(params, np.random.default_rng(0))
    assert experiment.check(table, params)[check] is True
    table[column][1] = float("nan")
    assert experiment.check(table, params)[check] is False


def test_best_random_distance_keeps_a_nan():
    coeff = np.full((2, 2), np.nan, dtype=complex)
    distance = experiments._best_random_distance(coeff, 1, 3, np.random.default_rng(0))
    assert np.isnan(distance)


LOWER_BOUNDS = [
    ("symmetry", "trials", 1), ("growth", "trials", 1), ("truncation", "states", 1),
    ("modes", "samples", 1), ("kruskal", "points", 1),
    ("symmetry", "max_dim", 2), ("growth", "dim_left", 1), ("growth", "dim_right", 1),
    ("truncation", "dim", 1), ("truncation", "keep", 1),
    ("truncation", "random_projections", 1), ("oracle", "fock_cutoff", 4)]


@pytest.mark.parametrize("experiment, key, low", LOWER_BOUNDS,
                         ids=[f"{e}-{k}" for e, k, _ in LOWER_BOUNDS])
def test_zero_row_count_is_usage_error(tmp_path, capsys, experiment, key, low):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"experiment = {experiment}\n{key} = {low - 1}\n")
    out = tmp_path / "rows.csv"
    assert run_main("--config", cfg, "--out", out) == 2
    assert capsys.readouterr().err.strip() == f"error: {key} must be >= {low}"
    assert not out.exists()


@pytest.mark.parametrize("config, named", [
    (b"experiment = symmetry\nseed = abc\n", "seed"),
    (b"experiment = symmetry\nseed = -1\n", "seed must be >= 0"),
    (b"experiment = symmetry\n# \xff\xfe not UTF-8\n", "config file"),
    (b"experiment = dmrg\nmass = nan\n", "mass"),
    (b"experiment = dmrg\ngs_tolerance = nan\n", "gs_tolerance"),
    (b"experiment = dmrg\nmass = -1\n", "mass"),
    # a mass whose square overflows, not an OverflowError traceback
    (b"experiment = dmrg\nmass = 1e155\n", "mass"),
    (b"experiment = oracle\nmass = 1e155\n", "mass"),
    (b"experiment = dmrg\ngs_tolerance = 0\n", "gs_tolerance"),
    (b"experiment = modes\nx_max = inf\n", "x_max"),
    (b"experiment = kruskal\nmasses = nan\n", "masses"),
    (b"experiment = geom-entropy\nepsilons = 0.1,inf\n", "epsilons"),
    # a repeated value would merge two sequences that the checks keep apart
    (b"experiment = kruskal\nmasses = 1,1\n", "masses"),
    (b"experiment = geom-entropy\nepsilons = 0.1,0.1\n", "epsilons"),
    # nothing truncated, or no cut in one site: every check would pass on nothing
    (b"experiment = truncation\ndim = 4\nkeep = 4\n", "keep must be < dim"),
    (b"experiment = oracle\nn_sites = 1\n", "n_sites must be >= 2"),
    # not "x must be positive" from the Bessel function
    (b"experiment = spectrum\nmass = 0\n", "mass must be positive"),
    (b"experiment = geom-entropy\nmass = -1\n", "mass must be positive"),
    (b"experiment = modes\nmass = 0\n", "mass must be positive"),
], ids=["seed", "seed-negative", "utf8", "dmrg-mass-nan", "gs-tolerance-nan",
        "dmrg-mass-negative", "dmrg-mass-overflow", "oracle-mass-overflow",
        "gs-tolerance-zero", "x-max-inf", "masses-nan", "epsilons-inf",
        "masses-duplicate", "epsilons-duplicate", "keep-not-below-dim",
        "oracle-one-site", "spectrum-mass-zero", "geom-entropy-mass-negative",
        "modes-mass-zero"])
def test_bad_input_is_usage_error_before_any_work(tmp_path, capsys, config, named):
    cfg = tmp_path / "exp.cfg"
    cfg.write_bytes(config)
    out = tmp_path / "rows.csv"
    assert run_main("--config", cfg, "--out", out) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.cfg"]


def test_negative_seed_flag_is_usage_error(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    assert run_main("--experiment", "symmetry", "--seed", -1, "--out", out) == 2
    assert capsys.readouterr().err == "error: seed must be >= 0\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("seed", [1.5, 2.0, "3", True, None],
                         ids=["float", "integral-float", "str", "bool", "none"])
def test_seed_that_is_not_an_integer_is_usage_error(seed):
    with pytest.raises(cli.UsageError, match="^seed must be an integer$"):
        cli.ExperimentConfig(experiment="symmetry", seed=seed)


@pytest.mark.parametrize("value", [True, False])
def test_bool_for_an_integer_parameter_is_usage_error(value):
    with pytest.raises(cli.UsageError, match=f"^bad value for trials: {value}$"):
        cli.ExperimentConfig(experiment="symmetry", params={"trials": value})


def test_kruskal_points_is_the_total_number_of_round_trips(tmp_path):
    cfg = tmp_path / "kr.cfg"
    cfg.write_text("experiment = kruskal\npoints = 2\nmasses = 0.5,1,2\n")
    out = tmp_path / "kr.json"
    assert run_main("--config", cfg, "--out", out, "--format", "json") == 0
    statuses = [row["status"] for row in json.loads(out.read_text())["rows"]]
    assert statuses.count("ok") == 2 and statuses.count("rejected") == 3


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("mass, code", [
    (1e-160, 2), (3.7e-151, 2), (3.8e-151, 0), (1.0, 0), (2.2e152, 0), (2.3e152, 2), (1e154, 2),
])
def test_kruskal_takes_the_masses_whose_uv_is_a_normal_float(tmp_path, capsys, mass, code):
    # u v is 1.6e-7 M^2 at the nearest probe and 64 e^4 M^2 at the farthest draw:
    # at 1e-160 it underflows, and at 1e154 the draws' u v overflows
    cfg = tmp_path / "kr.cfg"
    cfg.write_text(f"experiment = kruskal\npoints = 200\nmasses = {mass!r}\n")
    out = tmp_path / "kr.json"
    assert run_main("--config", cfg, "--out", out, "--format", "json") == code
    if code:
        assert "error: masses must lie in [3.729e-151, 2.268e+152]" in capsys.readouterr().err
        assert not out.exists()
    else:
        uv = [row["uv"] for row in json.loads(out.read_text())["rows"] if row["uv"] is not None]
        assert min(uv) >= np.finfo(float).tiny and max(uv) < np.inf


def test_geom_entropy_without_regulators_fails_check(tmp_path):
    cfg = tmp_path / "ge.cfg"
    cfg.write_text("experiment = geom-entropy\nepsilons =\n")
    out = tmp_path / "ge.json"
    assert run_main("--config", cfg, "--out", out, "--format", "json") == 1
    payload = json.loads(out.read_text())
    assert payload["rows"] == []
    assert payload["checks"] == {"rows_nonempty": False}


def test_kruskal_without_masses_fails_check(tmp_path):
    cfg = tmp_path / "kr.cfg"
    cfg.write_text("experiment = kruskal\nmasses =\n")
    out = tmp_path / "kr.json"
    assert run_main("--config", cfg, "--out", out, "--format", "json") == 1
    payload = json.loads(out.read_text())
    assert payload["rows"] == []
    assert payload["checks"] == {"rows_nonempty": False}


def test_cli_imports_no_physics_module():
    tree = ast.parse(Path(cli.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module == "entlab"):
            imported.add(node.module or "")
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    physics = {"dmrg", "harmonic_chain", "quantum_state", "rindler"}
    assert not {name.rpartition(".")[2] for name in imported} & physics


def _load_script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # main() runs only under __main__
    return module


def test_run_all_script_loads():
    module = _load_script("run_all")
    assert module.EXPERIMENTS is experiments.EXPERIMENTS
    assert callable(module.main)


def _write_reports(directory, rows, checks=None, name="dmrg.json"):
    directory.mkdir(exist_ok=True)
    payload = {"experiment": "dmrg", "rows": rows,
               "checks": checks or {"ok": True}, "passed": True}
    (directory / name).write_text(json.dumps(payload, indent=2) + "\n")


def test_compare_reports_prints_float_differences(tmp_path, capsys):
    compare = _load_script("compare_reports")
    rows = [{"kept": 4, "energy": 1.0, "note": None}, {"kept": 8, "energy": 2.0, "note": "x"}]
    _write_reports(tmp_path / "a", rows)
    _write_reports(tmp_path / "b", rows)
    assert compare.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 0
    assert capsys.readouterr().out == "dmrg.json: byte-identical\n"

    _write_reports(tmp_path / "b", [dict(rows[0], energy=1.5), rows[1]])
    assert compare.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "dmrg.json: differs"
    assert out[1].split() == ["energy", "max", "abs", "5.00e-01", "max", "rel", "3.33e-01"]
    assert len(out) == 2  # `kept` and `note` are not float columns


def test_compare_reports_compares_csv_bytes(tmp_path, capsys):
    compare = _load_script("compare_reports")
    rows = [{"kept": 4, "energy": 1.0}]
    for side, energy in (("a", "1.0"), ("b", "1.0000000000000002")):
        _write_reports(tmp_path / side, rows)
        (tmp_path / side / "dmrg.csv").write_text(f"kept,energy\n4,{energy}\n")
        (tmp_path / side / "modes.csv").write_text("x,wave\n1.0,2.0\n")
    # a CSV that differs only prints so: its JSON twin carries the comparison
    assert compare.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "dmrg.csv: differs", "dmrg.json: byte-identical", "modes.csv: byte-identical"]


@pytest.mark.parametrize("change", ["missing", "missing-csv", "rows", "cell", "verdict"])
def test_compare_reports_fails_on_structural_change(tmp_path, capsys, change):
    compare = _load_script("compare_reports")
    rows = [{"kept": 4, "energy": 1.0}, {"kept": 8, "energy": 2.0}]
    _write_reports(tmp_path / "a", rows)
    changed = {"missing": dict(rows=rows, name="other.json"),
               "missing-csv": dict(rows=rows),
               "rows": dict(rows=rows[:1]),
               "cell": dict(rows=[rows[0], dict(rows[1], kept=9)]),
               "verdict": dict(rows=rows, checks={"ok": False})}[change]
    _write_reports(tmp_path / "b", **changed)
    if change == "missing-csv":
        (tmp_path / "a" / "dmrg.csv").write_text("kept,energy\n4,1.0\n8,2.0\n")
    assert compare.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 1
    assert "FAIL " in capsys.readouterr().out


@pytest.mark.parametrize("pairs", ["1", "0"])
def test_bench_pairs_rejects_fewer_than_two_pairs(tmp_path, capsys, pairs):
    out = tmp_path / "bench.json"
    with pytest.raises(SystemExit) as exc:
        _load_script("bench_pairs").main([str(tmp_path), str(tmp_path), str(out), "--pairs", pairs])
    assert exc.value.code == 2
    assert "--pairs must be at least 2" in capsys.readouterr().err
    assert not out.exists()


def test_dmrg_sweep_prints_one_line_per_config(capsys):
    sweep = _load_script("dmrg_sweep")
    solve, eigsh, step = numerics.smallest_eigenpair, numerics.eigsh, dmrg.dmrg_step
    assert sweep.main(["--masses", "1", "1e8", "--local-dims", "8", "--kept", "8"]) == 0
    passed, failed = map(json.loads, capsys.readouterr().out.splitlines())
    assert (passed["exit"], passed["error"], passed["kept_off"]) == (0, None, [])
    assert passed["kept"] == [8] * 10 and passed["eigsh_calls"] == [0] * 10
    assert len(passed["solve_applications"]) == 10 and min(passed["solve_applications"]) > 0
    assert passed["applications"] == sum(passed["solve_applications"])
    assert passed["energy_rel_err"] < 1e-8
    # at mass 1, kept 8, the tail left at length 20 is about 1.7e-10
    assert 1e-10 < passed["truncation_weight"] < 3e-10
    # at mass 1e8 the first solve misses 1e-10 after one Lanczos attempt
    assert failed["exit"] == 4 and "1 Lanczos attempt" in failed["error"]
    assert failed["eigsh_calls"] == [1] and failed["kept"] == []
    assert failed["truncation_weight"] is None
    assert failed["solve_applications"] == [failed["applications"]]
    # the counting wrappers are taken off again
    assert (numerics.smallest_eigenpair, numerics.eigsh, dmrg.dmrg_step) == (solve, eigsh, step)
