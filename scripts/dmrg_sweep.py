#!/usr/bin/env python3
"""Run the `dmrg` experiment over a grid of configs and print one JSON line
per config: how it ended, what its solves cost, and where it kept a number
of states other than min(kept_states, basis size).

    PYTHONPATH=src python3 scripts/dmrg_sweep.py [--tolerances 1e-10 1e-13]
        [--masses 0 0.1 1 10 1000] [--local-dims 2 4 8 12] [--kept 4 8 16 32]

Each config runs in this process at the default target_length, through the
experiment's own runner and check.  A line holds:

- `exit`: the command line's exit status for that run (0 pass, 1 a failed
  check, 2 a ValueError, 4 a NumericalError), and `error`, the exception's
  message or null;
- `applications`: operator applications over all solves, a failed one
  included;
- `eigsh_calls`: the ARPACK calls of each solve, counted by wrapping
  `numerics.eigsh`;
- `kept`: the states kept at each step (empty after an error), and
  `kept_off`: the steps, from 1, where that differs from
  min(kept_states, local_dim x the block's basis size), as
  [step, kept, expected];
- `energy_rel_err` and `entropy_rel_err`: |DMRG - oracle| / |oracle| at
  the last length, against the Gaussian oracle (null after an error, and
  the entropy's also where the oracle entropy is 0);
- `seconds`: the run's wall time.

The default grid (80 configs at one tolerance) takes about 7 s, and
`--tolerances 1e-10 1e-13` about 20 s, on a 2-vCPU x86_64 machine.
"""

import argparse
import itertools
import json
import sys
import time

import numpy as np

from entlab import dmrg, numerics
from entlab.experiments import EXPERIMENTS


def _sweep_one(params: dict) -> dict:
    """Run one `dmrg` config with counting wrappers around the solver, the
    ARPACK call and the growth step, and return its record."""
    solve, eigsh, step = numerics.smallest_eigenpair, numerics.eigsh, dmrg.dmrg_step
    applications = 0
    eigsh_calls = []
    expected = []

    def counted_eigsh(*args, **kwargs):
        eigsh_calls[-1] += 1
        return eigsh(*args, **kwargs)

    def counted_solve(apply, *args, **kwargs):
        def counted(vec):
            nonlocal applications
            applications += 1
            return apply(vec)

        eigsh_calls.append(0)
        return solve(counted, *args, **kwargs)

    def recorded_step(block, config):
        expected.append(min(config.kept_states, config.local_dim * block.basis_size))
        return step(block, config)

    experiment = EXPERIMENTS["dmrg"]
    record = dict(params, exit=0, error=None)
    table = None
    start = time.perf_counter()
    numerics.smallest_eigenpair, numerics.eigsh = counted_solve, counted_eigsh
    dmrg.dmrg_step = recorded_step
    try:
        table = experiment.run(params, np.random.default_rng(0))
        if not all(experiment.check(table, params).values()):
            record["exit"] = 1
    except ValueError as exc:
        record.update(exit=2, error=f"{type(exc).__name__}: {exc}")
    except numerics.NumericalError as exc:
        record.update(exit=4, error=f"{type(exc).__name__}: {exc}")
    finally:
        numerics.smallest_eigenpair, numerics.eigsh = solve, eigsh
        dmrg.dmrg_step = step
    record["seconds"] = round(time.perf_counter() - start, 3)

    kept = table["kept"] if table is not None else []
    record.update(applications=applications, eigsh_calls=eigsh_calls, kept=kept,
                  kept_off=[[i + 1, k, e] for i, (k, e) in enumerate(zip(kept, expected))
                            if k != e],
                  energy_rel_err=None, entropy_rel_err=None)
    if table is not None:
        for name, value, oracle in (("energy", "ground_energy", "oracle_energy"),
                                    ("entropy", "half_chain_entropy", "oracle_entropy")):
            truth = table[oracle][-1]
            if truth != 0.0:
                record[f"{name}_rel_err"] = abs(table[value][-1] - truth) / abs(truth)
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tolerances", type=float, nargs="+", default=[1e-10])
    parser.add_argument("--masses", type=float, nargs="+",
                        default=[0.0, 0.1, 1.0, 10.0, 1000.0])
    parser.add_argument("--local-dims", type=int, nargs="+", default=[2, 4, 8, 12])
    parser.add_argument("--kept", type=int, nargs="+", default=[4, 8, 16, 32])
    args = parser.parse_args(argv)

    for tol, mass, local_dim, kept in itertools.product(
            args.tolerances, args.masses, args.local_dims, args.kept):
        params = dict(EXPERIMENTS["dmrg"].defaults, mass=mass, local_dim=local_dim,
                      kept_states=kept, gs_tolerance=tol)
        print(json.dumps(_sweep_one(params)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
