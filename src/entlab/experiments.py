"""The nine experiments: each one's parameter defaults, the runner that
draws its rows from a seeded generator, and the check that recomputes its
pass/fail verdicts from those rows.

A runner takes the validated parameters and a numpy Generator and returns a
table: a dict of columns, each a list of the same length, in report order.
A check takes the table, never of zero length, and the parameters and
returns a dict of named booleans.  It reduces a column with np.max or
np.min, which return a NaN found anywhere in it, so that the check fails;
Python's max and min skip a NaN that does not come first.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from . import dmrg, harmonic_chain, quantum_state, rindler

__all__ = ["Experiment", "EXPERIMENTS"]


@dataclass(frozen=True)
class Experiment:
    defaults: dict  # a tuple default is a list of distinct finite floats
    run: callable
    check: callable
    minimum: dict = field(default_factory=dict)  # lower bound of each count
    below: dict = field(default_factory=dict)  # key -> the key it must be less than


def _run_symmetry(params, rng):
    # each trial sits zero-padded in a max_dim x max_dim slot: the padding adds
    # only zero eigenvalues to rho_L and rho_R, so their entropies are unchanged
    dim, trials = params["max_dim"], params["trials"]
    per_batch = max(1, _BATCH_ENTRIES // dim ** 2)
    table = {"trial": list(range(trials)), "d_left": [], "d_right": [],
             "s_left": [], "s_right": [], "abs_diff": []}
    for start in range(0, trials, per_batch):
        coeff = np.zeros((min(per_batch, trials - start), dim, dim), dtype=complex)
        for slot in coeff:
            d_l = int(rng.integers(2, dim + 1))
            d_r = int(rng.integers(2, dim + 1))
            table["d_left"].append(d_l)
            table["d_right"].append(d_r)
            # random_state's draw
            slot[:d_l, :d_r] = rng.standard_normal((d_l, d_r)) + 1j * rng.standard_normal((d_l, d_r))
        state = quantum_state.BipartiteState(coeff)
        s_l = quantum_state.von_neumann_entropy(quantum_state.reduced_density_left(state))
        s_r = quantum_state.von_neumann_entropy(quantum_state.reduced_density_right(state))
        table["s_left"] += s_l.tolist()
        table["s_right"] += s_r.tolist()
        table["abs_diff"] += np.abs(s_l - s_r).tolist()
    return table


def _check_symmetry(table, params):
    return {"entropies_equal": float(np.max(table["abs_diff"])) <= 1e-9}


def _run_growth(params, rng):
    # a trial draws rho_L's, rho_R's and U's Gaussian, each real part first
    dims = (params["dim_left"], params["dim_right"], params["dim_left"] * params["dim_right"])
    per_batch = max(1, _BATCH_ENTRIES // dims[2] ** 2)
    table = {"trial": list(range(params["trials"])), "s_in": [], "s_out": [], "slack": []}
    for start in range(0, params["trials"], per_batch):
        count = min(per_batch, params["trials"] - start)
        draw = np.split(rng.standard_normal((count, 2 * sum(d * d for d in dims))),
                        np.cumsum([2 * d * d for d in dims[:2]]), axis=1)
        g_l, g_r, g_u = (g.reshape(count, 2, d, d) for g, d in zip(draw, dims))
        # the mixed state g g^H / Tr is the reduced state of the pure state g^*
        rhos = tuple(quantum_state.reduced_density_left(
            quantum_state.BipartiteState(g[:, 0] - 1j * g[:, 1])) for g in (g_l, g_r))
        u = quantum_state.haar_unitary(g_u[:, 0] + 1j * g_u[:, 1])
        del draw, g_l, g_r, g_u  # free the raw draws before the evolution's products
        outs = quantum_state.evolve_product(*rhos, u)
        s_in, s_out = (sum(quantum_state.von_neumann_entropy(rho) for rho in pair)
                       for pair in (rhos, outs))
        table["s_in"] += s_in.tolist()
        table["s_out"] += s_out.tolist()
        table["slack"] += (s_out - s_in).tolist()
    return table


def _check_growth(table, params):
    return {"entropy_never_decreases": float(np.min(table["slack"])) >= -1e-9}


_BATCH_ENTRIES = 2 ** 14  # complex entries per stacked array of trials or projections


def _best_random_distance(coeff, keep, count, rng):
    """Smallest ||Q Q^H c - c||^2 over `count` random rank-`keep` projections,
    each Q from the QR of one complex Gaussian matrix, real part drawn first.
    A batch draws its projections in that order, so the stream is the same
    as one projection at a time."""
    dim = coeff.shape[0]
    per_batch = max(1, _BATCH_ENTRIES // dim ** 2)  # the residual is the largest array
    best = np.inf
    for start in range(0, count, per_batch):
        g = rng.standard_normal((min(per_batch, count - start), 2, dim, keep))
        q, _ = np.linalg.qr(g[:, 0] + 1j * g[:, 1])
        residual = q @ (q.conj().swapaxes(-1, -2) @ coeff)
        residual -= coeff
        # a complex residual viewed as floats: |z|^2 = re^2 + im^2
        # np.minimum, unlike min, keeps a NaN
        best = float(np.minimum(best, np.square(residual.view(float)).sum(axis=(-2, -1)).min()))
    return best


def _run_truncation(params, rng):
    dim, keep = params["dim"], params["keep"]
    table = {"state": list(range(params["states"])), "keep_distance": [],
             "schmidt_tail": [], "best_random_distance": []}
    for _ in table["state"]:
        state = quantum_state.random_state(dim, dim, rng)
        u, s, _ = quantum_state.schmidt(state)
        projector = u[:, :keep] @ u[:, :keep].conj().T
        table["keep_distance"].append(quantum_state.truncation_distance(
            state, projector @ state.coeff))
        table["schmidt_tail"].append(float((s[keep:] ** 2).sum()))
        table["best_random_distance"].append(_best_random_distance(
            state.coeff, keep, params["random_projections"], rng))
    return table


def _check_truncation(table, params):
    keep = table["keep_distance"]
    tail_err = float(np.max(np.abs(np.subtract(keep, table["schmidt_tail"]))))
    optimal = all(k <= b + 1e-12 for k, b in zip(keep, table["best_random_distance"]))
    return {"distance_equals_schmidt_tail": tail_err <= 1e-10,
            "kept_projection_is_optimal": optimal}


def _gaussian_chain(n_sites, mass, cut):
    """The chain's potential, its exact ground energy, and the exact
    entropy of its left `cut` sites."""
    potential = harmonic_chain.build_potential(n_sites, mass)
    gs = harmonic_chain.ground_state_covariance(potential)
    entropy = harmonic_chain.block_entropy(gs, range(cut))
    return potential, harmonic_chain.ground_energy(gs), entropy


def _run_oracle(params, rng):
    cut = params["n_sites"] // 2
    potential, exact_energy, s_gauss = _gaussian_chain(params["n_sites"], params["mass"], cut)
    table = {"fock_cutoff": [params["fock_cutoff"] // 2, params["fock_cutoff"]],
             "energy": [], "energy_exact": [exact_energy] * 2, "entropy_fock": [],
             "entropy_gaussian": [s_gauss] * 2, "entropy_diff": []}
    for d in table["fock_cutoff"]:
        state, energy = harmonic_chain.fock_ground_state(potential, d)
        s_fock = quantum_state.von_neumann_entropy(quantum_state.reduced_density_left(state))
        table["energy"].append(energy)
        table["entropy_fock"].append(s_fock)
        table["entropy_diff"].append(abs(s_fock - s_gauss))
    return table


def _check_oracle(table, params):
    entropy = table["entropy_fock"]
    return {"fock_cutoff_converged": abs(entropy[-1] - entropy[0]) <= 1e-4,
            "gaussian_fock_agreement": table["entropy_diff"][-1] <= 1e-4}


def _run_dmrg(params, rng):
    its = list(dmrg.run(dmrg.DmrgConfig(**params)))
    oracles = [_gaussian_chain(it.chain_length, params["mass"], it.chain_length // 2)
               for it in its]
    return {"chain_length": [it.chain_length for it in its],
            "ground_energy": [it.ground_energy for it in its],
            "oracle_energy": [energy for _, energy, _ in oracles],
            "half_chain_entropy": [it.half_chain_entropy for it in its],
            "oracle_entropy": [entropy for _, _, entropy in oracles],
            "truncation_weight": [it.truncation_weight for it in its],
            "kept": [it.kept for it in its]}


def _check_dmrg(table, params):
    # no division: the oracle entropy is exactly 0 when every mode is frozen
    energy, entropy = table["oracle_energy"][-1], table["oracle_entropy"][-1]
    energy_err = abs(table["ground_energy"][-1] - energy)
    entropy_err = abs(table["half_chain_entropy"][-1] - entropy)
    return {"energy_within_1_percent": energy_err <= 0.01 * abs(energy),
            "entropy_within_5_percent": entropy_err <= 0.05 * abs(entropy)}


def _run_modes(params, rng):
    n = params["samples"]
    x_max = params["x_max"]
    grid = np.linspace(x_max / n, x_max, n)
    values = rindler.angular_wave(params["ell"], grid, params["mass"])
    return {"x": grid.tolist(), "wave": values.tolist()}


def _check_modes(table, params):
    x_star = params["ell"] / params["mass"]  # the turning point
    x, wave = np.array(table["x"]), np.array(table["wave"])
    below, above = wave[x < x_star], wave[x > x_star]
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
    return {"n": list(range(len(ells))), "ell": ells.tolist(), "residual": residuals.tolist(),
            "boltzmann_factor": np.exp(-rindler.BETA * ells).tolist()}


def _check_spectrum(table, params):
    ells = table["ell"]
    return {"residuals_small": float(np.max(table["residual"])) <= 1e-8,
            "ascending": all(b > a for a, b in zip(ells, ells[1:]))}


def _run_geom_entropy(params, rng):
    table = {"epsilon": list(params["epsilons"]), "n_modes": [], "entropy": []}
    for eps in table["epsilon"]:
        spectrum = rindler.discrete_spectrum(params["mass"], eps, params["ell_max"])
        table["n_modes"].append(len(spectrum))
        table["entropy"].append(rindler.geometric_entropy(spectrum))
    return table


def _check_geom_entropy(table, params):
    # the regulators are distinct: largest first
    _, entropies, counts = zip(*sorted(zip(table["epsilon"], table["entropy"],
                                           table["n_modes"]), reverse=True))
    return {"entropy_grows_as_regulator_shrinks":
                all(b > a for a, b in zip(entropies, entropies[1:])),
            "mode_count_nondecreasing":
                all(b >= a for a, b in zip(counts, counts[1:]))}


def _extend(table, *columns):
    """Append a block of rows, given as its columns in the table's order."""
    for column, values in zip(table.values(), columns):
        column.extend(values)


def _run_kruskal(params, rng):
    table = {key: [] for key in ("status", "mass", "r", "t", "u", "v", "uv", "rel_error")}
    masses = params["masses"]
    base, extra = divmod(params["points"], max(1, len(masses)))
    for i, mass in enumerate(masses):
        per_mass = base + (i < extra)  # `points` round trips in all
        r = 2 * mass + 8 * mass * (1.0 - rng.random(per_mass))  # (2M, 10M]
        t = -10 * mass + 20 * mass * rng.random(per_mass)
        u, v = rindler.to_kruskal(r, t, mass)
        back_r, back_t = rindler.from_kruskal(u, v, mass)
        rel = np.maximum(np.abs(back_r - r) / np.abs(r),
                         np.abs(back_t - t) / np.maximum(1.0, np.abs(t)))
        _extend(table, ["ok"] * per_mass, [mass] * per_mass, r.tolist(), t.tolist(),
                u.tolist(), v.tolist(), (u * v).tolist(), rel.tolist())
        # probe sequence r -> 2M+: u v must vanish toward the horizon
        r = 2 * mass * (1.0 + 10.0 ** -np.arange(1.0, 9.0))
        u, v = rindler.to_kruskal(r, 0.0, mass)
        _extend(table, ["probe"] * r.size, [mass] * r.size, r.tolist(), [0.0] * r.size,
                u.tolist(), v.tolist(), (u * v).tolist(), [None] * r.size)
        # the horizon itself is rejected input; record that
        try:
            rindler.to_kruskal(2 * mass, 0.0, mass)
            status = "unexpectedly-accepted"
        except ValueError:
            status = "rejected"
        _extend(table, [status], [mass], [2 * mass], [0.0], [None], [None], [None], [None])
    return table


def _check_kruskal(table, params):
    # `points` >= 1 leaves at least one round trip; the masses are distinct
    status = table["status"]
    uv_by_mass = {}
    for s, mass, uv in zip(status, table["mass"], table["uv"]):
        if s == "probe":
            uv_by_mass.setdefault(mass, []).append(uv)
    vanishing = all(
        all(b < a for a, b in zip(seq, seq[1:])) and seq[-1] < 1e-6 * seq[0]
        for seq in uv_by_mass.values())
    round_trip = float(np.max([e for s, e in zip(status, table["rel_error"]) if s == "ok"]))
    return {"round_trip_within_1e10": round_trip <= 1e-10,
            "uv_vanishes_at_horizon": vanishing,
            "horizon_input_rejected": status.count("rejected") == len(uv_by_mass)}


EXPERIMENTS = {
    "symmetry": Experiment({"trials": 200, "max_dim": 10},
                           _run_symmetry, _check_symmetry,
                           {"trials": 1, "max_dim": 2}),
    "growth": Experiment({"trials": 200, "dim_left": 3, "dim_right": 3},
                         _run_growth, _check_growth,
                         {"trials": 1, "dim_left": 1, "dim_right": 1}),
    "truncation": Experiment({"states": 50, "dim": 6, "keep": 3,
                              "random_projections": 200},
                             _run_truncation, _check_truncation,
                             {"states": 1, "dim": 1, "keep": 1,
                              "random_projections": 1},
                             {"keep": "dim"}),  # keep >= dim truncates nothing
    "oracle": Experiment({"n_sites": 2, "mass": 1.0, "fock_cutoff": 20},
                         _run_oracle, _check_oracle,
                         {"n_sites": 2, "fock_cutoff": 4}),  # one site has no cut
    "dmrg": Experiment(asdict(dmrg.DmrgConfig()), _run_dmrg, _check_dmrg),
    "modes": Experiment({"ell": 8.0, "mass": 1.0, "samples": 600, "x_max": 30.0},
                        _run_modes, _check_modes, {"samples": 1}),
    "spectrum": Experiment({"mass": 1.0, "epsilon": 0.1, "ell_max": 20.0},
                           _run_spectrum, _check_spectrum),
    "geom-entropy": Experiment({"mass": 1.0, "ell_max": 20.0,
                                "epsilons": (0.1, 0.05, 0.025)},
                               _run_geom_entropy, _check_geom_entropy),
    "kruskal": Experiment({"points": 1000, "masses": (0.5, 1.0, 2.0)},
                          _run_kruskal, _check_kruskal, {"points": 1}),
}
