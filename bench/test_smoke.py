"""Smoke tests of the benchmark at tiny sizes.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())

TINY = {
    "dmrg-growth": run.Workload(
        (("dmrg", {"local_dim": 6, "kept_states": 8, "target_length": 6, "mass": 1.0,
                   "gs_tolerance": 1e-10}),),
        {"energy_rel_err": 1e-4, "entropy_rel_err": 1e-2}),
    "regulator-sweep": run.Workload(
        (("geom-entropy", {"mass": 1.0, "ell_max": 4.0, "epsilons": "0.1,0.05"}),),
        run.WORKLOADS["regulator-sweep"].tolerances),
    "wave-profile": run.Workload(
        (("modes", {"ell": 8.0, "mass": 1.0, "samples": 2000, "x_max": 30.0}),),
        run.WORKLOADS["wave-profile"].tolerances),
    "state-trials": run.Workload(
        (("symmetry", {"trials": 5}), ("growth", {"trials": 5}),
         ("truncation", {"states": 3, "random_projections": 5}),
         ("oracle", {"fock_cutoff": 20}), ("kruskal", {"points": 30})),
        run.WORKLOADS["state-trials"].tolerances),
}


@pytest.fixture(autouse=True)
def tiny(monkeypatch):
    for name, workload in TINY.items():
        monkeypatch.setitem(run.WORKLOADS, name, workload)
    monkeypatch.setattr(run, "SETUP_PROBES", 1)


def _run(capsys, name, trace):
    code = run.main(["--workload", name, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-2]), json.loads(lines[-1])


def _declared(kind):
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_workload_prints_every_declared_metric(capsys, name, trace):
    code, detail, result = _run(capsys, name, trace)
    assert code == 0, detail["failures"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == (3 if trace else 1)
    printed = {key: m["unit"] for key, m in result["metrics"].items()}
    assert printed == _declared("per_layer" if trace else "end_to_end")
    assert detail["accuracy"], "no oracle comparison was made"
    if trace:
        assert detail["unwrapped"] == []
        # spans nest without overlap: the self times, cli's included, add up
        # to the traced wall time
        metrics = {key: m["value"] for key, m in result["metrics"].items()}
        covered = (metrics["trace.layer_share"]
                   + metrics["cli.run.self_s"] / detail["timings"]["traced_wall_s"]["median"])
        assert covered == pytest.approx(1.0, abs=0.01)


def test_declared_workloads_are_the_benchmark_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)


def test_forced_check_failure_is_counted(capsys, monkeypatch):
    strict = dataclasses.replace(TINY["dmrg-growth"],
                                 tolerances={"energy_rel_err": 0.0, "entropy_rel_err": 1e-2})
    monkeypatch.setitem(run.WORKLOADS, "dmrg-growth", strict)
    code, detail, result = _run(capsys, "dmrg-growth", 0)
    assert code == 1
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == 1
    assert detail["failed_share"] == 1.0
    assert any("energy_rel_err" in f for f in detail["failures"])


def test_exits_nonzero_without_program_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "wave-profile",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_reference_data_is_reproduced():
    pytest.importorskip("mpmath")
    import refdata

    assert refdata.main(["--check"]) == 0
