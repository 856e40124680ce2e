import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entlab import experiments
from entlab import quantum_state as qs


def basis_state(d_l, d_r, a=0, b=0):
    c = np.zeros((d_l, d_r), dtype=complex)
    c[a, b] = 1.0
    return qs.BipartiteState(c)


def bell_state():
    return qs.BipartiteState(np.eye(2) / np.sqrt(2.0))


state_dims = st.tuples(st.integers(2, 10), st.integers(2, 10), st.integers(0, 10_000))


# --- construction -------------------------------------------------------------

def test_state_is_normalized():
    state = qs.BipartiteState(np.full((3, 3), 2.0 + 1.0j))
    assert abs(np.linalg.norm(state.coeff) - 1.0) <= 1e-12


def test_state_rejects_zero_and_nonfinite():
    with pytest.raises(ValueError):
        qs.BipartiteState(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        qs.BipartiteState(np.array([[np.inf, 0.0], [0.0, 1.0]]))


def test_density_matrix_validation():
    with pytest.raises(ValueError):
        qs.DensityMatrix(np.array([[0.5, 0.2], [0.3, 0.5]]))  # not Hermitian
    with pytest.raises(ValueError):
        qs.DensityMatrix(np.diag([0.7, 0.7]))  # bad trace
    with pytest.raises(ValueError):
        qs.DensityMatrix(np.diag([1.5, -0.5]))  # negative eigenvalue


@pytest.mark.parametrize("entries", [np.full((2, 2), np.nan),
                                     [[np.nan, 0.0], [0.0, 1.0]]])
def test_density_matrix_rejects_nan(entries):
    # a NaN compares false with every tolerance, so each check must fail on it
    with pytest.raises(ValueError):
        qs.DensityMatrix(np.array(entries))


def _valid_stack(count, dim, rng):
    g = rng.standard_normal((count, dim, dim)) + 1j * rng.standard_normal((count, dim, dim))
    rho = g @ g.conj().swapaxes(-1, -2)
    return rho / np.trace(rho, axis1=-2, axis2=-1).real[:, None, None]


@pytest.mark.parametrize("bad, message", [
    (np.array([[0.5, 0.2], [0.3, 0.5]]), "not Hermitian"),
    (np.diag([0.7, 0.7]), "trace"),
    (np.diag([1.5, -0.5]), "eigenvalue below"),
    (np.diag([1.0 + 2e-12, -2e-12]), "eigenvalue below"),
    # NaN fails the first test it meets; a stacked `np.any(x > tol)` would pass it
    (np.array([[np.nan, 0.0], [0.0, 1.0]]), "not Hermitian"),
])
@pytest.mark.parametrize("position", [0, 3, 6])
def test_stack_with_one_bad_matrix_raises_the_plain_error(bad, message, position):
    with pytest.raises(ValueError, match=message) as plain:
        qs.DensityMatrix(bad)
    stack = _valid_stack(7, 2, np.random.default_rng(position)).astype(complex)
    stack[position] = bad
    with pytest.raises(ValueError) as stacked:
        qs.DensityMatrix(stack.reshape(7, 1, 2, 2))
    assert str(stacked.value) == str(plain.value)


def test_stack_validates_and_decomposes_each_matrix_like_a_plain_one():
    rng = np.random.default_rng(16)
    stack = qs.DensityMatrix(_valid_stack(6, 4, rng).reshape(2, 3, 4, 4))
    assert stack.eigenvalues.shape == (2, 3, 4)
    entropies = qs.von_neumann_entropy(stack)
    assert entropies.shape == (2, 3)
    for index in np.ndindex(2, 3):
        plain = qs.DensityMatrix(stack.entries[index])
        assert np.array_equal(stack.eigenvalues[index], plain.eigenvalues)
        assert entropies[index] == qs.von_neumann_entropy(plain)


@pytest.mark.parametrize("imaginary", [0.0, 1j])
def test_stacked_state_normalizes_each_matrix_to_its_plain_bits(imaginary):
    # c / np.linalg.norm(c) is the plain normalization: the DMRG and oracle
    # reports depend on these bits
    rng = np.random.default_rng(17)
    coeff = rng.standard_normal((5, 3, 4)) + imaginary * rng.standard_normal((5, 3, 4))
    coeff[2] *= 1e-3
    stack = qs.BipartiteState(coeff)
    for k in range(5):
        assert np.array_equal(stack.coeff[k], coeff[k] / np.linalg.norm(coeff[k]))
        assert np.array_equal(stack.coeff[k], qs.BipartiteState(coeff[k]).coeff)
    coeff[4] = 0.0
    with pytest.raises(ValueError, match="zero"):
        qs.BipartiteState(coeff)


def test_real_state_stays_real_and_complex_stays_complex():
    real = qs.BipartiteState(np.arange(1, 7).reshape(2, 3))
    assert real.coeff.dtype == np.float64
    assert qs.reduced_density_left(real).eigenvectors.dtype == np.float64
    assert qs.BipartiteState(np.eye(2) * 1j).coeff.dtype == np.complex128
    assert qs.random_state(2, 3, np.random.default_rng(1)).coeff.dtype == np.complex128


def test_density_matrix_keeps_its_eigenpairs():
    for rho in (qs.reduced_density_left(qs.random_state(5, 3, np.random.default_rng(2))),
                qs.reduced_density_right(qs.BipartiteState(np.arange(12.0).reshape(3, 4)))):
        w, u = rho.eigenvalues, rho.eigenvectors
        assert np.all(np.diff(w) <= 0.0)
        assert np.abs((u * w) @ u.conj().T - rho.entries).max() <= 1e-12
        for array in (rho.entries, w, u):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0


# --- one decomposition per matrix ------------------------------------------------

def test_symmetry_trial_decomposes_each_density_matrix_once(decompositions):
    experiments.EXPERIMENTS["symmetry"].run({"trials": 7, "max_dim": 5},
                                            np.random.default_rng(3))
    assert len(decompositions) == 2 * 7


def test_growth_trial_decomposes_each_density_matrix_once(decompositions):
    experiments.EXPERIMENTS["growth"].run({"trials": 7, "dim_left": 3, "dim_right": 2},
                                          np.random.default_rng(4))
    assert len(decompositions) == 4 * 7


# --- reduced density matrices ---------------------------------------------------

def test_product_state_reduces_to_pure_projector():
    state = basis_state(2, 2)
    rho = qs.reduced_density_right(state)
    assert np.allclose(rho.entries, np.diag([1.0, 0.0]))
    assert qs.von_neumann_entropy(rho) <= 1e-12
    rho_l = qs.reduced_density_left(state)
    assert np.allclose(rho_l.entries, np.diag([1.0, 0.0]))


def test_bell_state_reduces_to_maximally_mixed():
    rho_r = qs.reduced_density_right(bell_state())
    rho_l = qs.reduced_density_left(bell_state())
    assert np.allclose(rho_r.entries, np.eye(2) / 2.0)
    assert np.allclose(rho_l.entries, np.eye(2) / 2.0)


def test_diagonal_state_eigenvalues_match_direct_product():
    weights = np.array([0.5, 0.3, 0.2])
    state = qs.BipartiteState(np.diag(np.sqrt(weights)).astype(complex))
    rho = qs.reduced_density_right(state)
    direct = state.coeff.conj().T @ state.coeff  # the defining product
    assert np.abs(rho.entries - direct).max() <= 1e-12
    assert np.allclose(np.sort(np.linalg.eigvalsh(rho.entries)), np.sort(weights))


@given(state_dims)
@settings(max_examples=50, deadline=None)
def test_left_right_spectra_agree(dims):
    d_l, d_r, seed = dims
    state = qs.random_state(d_l, d_r, np.random.default_rng(seed))
    left = np.linalg.eigvalsh(qs.reduced_density_left(state).entries)[::-1]
    right = np.linalg.eigvalsh(qs.reduced_density_right(state).entries)[::-1]
    k = min(d_l, d_r)
    assert np.abs(left[:k] - right[:k]).max() <= 1e-10


# --- entropy -------------------------------------------------------------------

def test_entropy_of_pure_and_maximally_mixed():
    assert qs.von_neumann_entropy(qs.DensityMatrix(np.diag([1.0, 0.0]))) == 0.0
    s = qs.von_neumann_entropy(qs.DensityMatrix(np.eye(2) / 2.0))
    assert abs(s - np.log(2.0)) <= 1e-12


def test_entropy_matches_direct_summation():
    p = np.array([0.5, 0.3, 0.2])
    s = qs.von_neumann_entropy(qs.DensityMatrix(np.diag(p)))
    assert abs(s - (-(p * np.log(p)).sum())) <= 1e-12


def test_entropy_from_probs_clamps_and_skips_zeros():
    assert qs.entropy_from_probs(np.array([1.0, 0.0, -1e-17])) == 0.0
    p = np.array([0.25, 0.75, 0.0])
    assert qs.entropy_from_probs(p) == -(p[:2] * np.log(p[:2])).sum()


@pytest.mark.parametrize("p", [[1.0], [1.0, 0.0], [0.0, 1.0, -1e-17]])
def test_entropy_of_a_pure_state_is_positive_zero(p):
    s = qs.entropy_from_probs(p)
    assert s == 0.0 and math.copysign(1.0, s) == 1.0


@pytest.mark.parametrize("p", [[np.nan, 1.0], [0.5, 0.5, np.inf], [1.0, -np.inf]])
def test_entropy_from_probs_rejects_non_finite_input(p):
    with pytest.raises(ValueError, match="non-finite"):
        qs.entropy_from_probs(p)


def test_entropy_from_probs_of_a_stack_is_each_row_entropy():
    p = np.array([[[0.5, 0.5, 0.0], [1.0, 0.0, 0.0]], [[0.2, 0.3, 0.5], [0.0, 0.9, 0.1]]])
    s = qs.entropy_from_probs(p)
    assert s.shape == (2, 2)
    for index in np.ndindex(2, 2):
        assert abs(s[index] - qs.entropy_from_probs(p[index])) <= 1e-16


def test_bose_entropy_matches_symplectic_form():
    mpmath = pytest.importorskip("mpmath")
    for eps in np.geomspace(1e-3, 30.0, 60):
        with mpmath.workdps(40):
            nu = mpmath.coth(mpmath.mpf(eps) / 2) / 2
            ref = float((nu + 0.5) * mpmath.log(nu + 0.5)
                        - (nu - 0.5) * mpmath.log(nu - 0.5))
        assert abs(qs.bose_entropy(eps) - ref) <= 1e-12 * ref, eps


def test_bose_entropy_large_energy_is_finite_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s = qs.bose_entropy(1e4)
    assert np.isfinite(s) and s == 0.0


@given(state_dims)
@settings(max_examples=60, deadline=None)
def test_symmetry_theorem(dims):
    d_l, d_r, seed = dims
    state = qs.random_state(d_l, d_r, np.random.default_rng(seed))
    s_l = qs.von_neumann_entropy(qs.reduced_density_left(state))
    s_r = qs.von_neumann_entropy(qs.reduced_density_right(state))
    assert abs(s_l - s_r) <= 1e-9
    assert -1e-10 <= s_l <= np.log(min(d_l, d_r)) + 1e-10


# --- Schmidt decomposition -------------------------------------------------------

def test_schmidt_of_product_and_bell():
    _, s, _ = qs.schmidt(basis_state(3, 4))
    assert abs(s[0] - 1.0) <= 1e-12
    assert np.abs(s[1:]).max() <= 1e-12
    _, s, _ = qs.schmidt(bell_state())
    assert np.abs(s - 1 / np.sqrt(2.0)).max() <= 1e-12


def test_schmidt_reconstruction_and_spectrum():
    state = qs.random_state(4, 6, np.random.default_rng(3))
    u, s, v = qs.schmidt(state)
    assert abs((s ** 2).sum() - 1.0) <= 1e-12
    rebuilt = sum(c * np.outer(u[:, k], v[:, k].conj()) for k, c in enumerate(s))
    assert np.abs(rebuilt - state.coeff).max() <= 1e-10
    rho_eigs = np.linalg.eigvalsh(qs.reduced_density_left(state).entries)[::-1]
    assert np.abs(s ** 2 - rho_eigs[: s.size]).max() <= 1e-10


# --- truncation ------------------------------------------------------------------

def fidelity(a, b):
    """|<a|b>|^2 of two normalized states."""
    return abs(np.vdot(a.coeff, b.coeff)) ** 2


def test_fidelity_of_truncation_equals_kept_weight():
    state = qs.random_state(6, 6, np.random.default_rng(7))
    reduced, weight = qs.truncate(state, 3)
    assert abs(fidelity(state, reduced) - (1.0 - weight)) <= 1e-10


def test_truncate_full_rank_is_identity():
    state = qs.random_state(4, 4, np.random.default_rng(8))
    reduced, weight = qs.truncate(state, 4)
    assert weight <= 1e-14
    assert abs(fidelity(state, reduced) - 1.0) <= 1e-12


def test_truncate_bell_to_product():
    reduced, weight = qs.truncate(bell_state(), 1)
    assert abs(weight - 0.5) <= 1e-12
    assert abs(qs.schmidt(reduced)[1][0] - 1.0) <= 1e-12


def test_truncate_out_of_range():
    with pytest.raises(ValueError):
        qs.truncate(bell_state(), 0)
    with pytest.raises(ValueError):
        qs.truncate(bell_state(), 3)


def test_truncation_distance_basics():
    a = basis_state(2, 2, 0, 0)
    b = basis_state(2, 2, 1, 1)
    assert qs.truncation_distance(a, a) == 0.0
    assert abs(qs.truncation_distance(a, b) - 2.0) <= 1e-12
    with pytest.raises(ValueError, match="shape mismatch"):
        qs.truncation_distance(a, basis_state(2, 3))


def test_projection_distance_equals_schmidt_tail():
    state = qs.random_state(6, 6, np.random.default_rng(9))
    u, s, _ = qs.schmidt(state)
    m = 3
    projector = u[:, :m] @ u[:, :m].conj().T
    distance = qs.truncation_distance(state, projector @ state.coeff)
    tail = (s[m:] ** 2).sum()
    assert abs(distance - tail) <= 1e-10


def test_kept_projection_beats_random_projections():
    rng = np.random.default_rng(10)
    state = qs.random_state(6, 6, rng)
    u, _, _ = qs.schmidt(state)
    keep = u[:, :3] @ u[:, :3].conj().T
    best = qs.truncation_distance(state, keep @ state.coeff)
    for _ in range(200):
        g = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
        q, _ = np.linalg.qr(g)
        assert best <= qs.truncation_distance(state, q @ q.conj().T @ state.coeff) + 1e-12


# --- the truncation runner --------------------------------------------------------

def _columns(rows):
    """The table a runner returns for these row dicts."""
    return {key: [row[key] for row in rows] for key in rows[0]}


def _truncation_one_projection_at_a_time(params, rng):
    """The truncation runner as a loop with one QR and one distance per
    random projection: the reference for the batched runner."""
    dim, keep = params["dim"], params["keep"]
    rows = []
    for index in range(params["states"]):
        state = qs.random_state(dim, dim, rng)
        u, s, _ = qs.schmidt(state)
        tail = float((s[keep:] ** 2).sum())
        projector = u[:, :keep] @ u[:, :keep].conj().T
        keep_distance = qs.truncation_distance(state, projector @ state.coeff)
        best = np.inf
        for _ in range(params["random_projections"]):
            q, _ = np.linalg.qr(rng.standard_normal((dim, keep))
                                + 1j * rng.standard_normal((dim, keep)))
            best = min(best, qs.truncation_distance(state, q @ q.conj().T @ state.coeff))
        rows.append({"state": index, "keep_distance": keep_distance,
                     "schmidt_tail": tail, "best_random_distance": best})
    return rows


# at dim 6 a batch holds 455 projections: 1000 cross two batch boundaries
# and end in a partial batch
@pytest.mark.parametrize("seed, projections",
                         [(0, 200), (1, 300), (2, 300), (3, 1), (4, 1000)])
def test_batched_truncation_matches_one_projection_at_a_time(seed, projections):
    params = {"states": 4, "dim": 6, "keep": 3, "random_projections": projections}
    rng_ref, rng = np.random.default_rng(seed), np.random.default_rng(seed)
    expected = _columns(_truncation_one_projection_at_a_time(params, rng_ref))
    table = experiments.EXPERIMENTS["truncation"].run(params, rng)
    assert rng.bit_generator.state == rng_ref.bit_generator.state
    assert list(table) == list(expected)
    for key in ("state", "keep_distance", "schmidt_tail"):
        assert table[key] == expected[key]
    assert len(table["best_random_distance"]) == params["states"]
    for value, best in zip(table["best_random_distance"], expected["best_random_distance"]):
        assert abs(value - best) <= 1e-15 * best


def test_truncation_orthonormalises_each_states_projections_at_once(qr_calls):
    experiments.EXPERIMENTS["truncation"].run(
        {"states": 3, "dim": 6, "keep": 3, "random_projections": 200},
        np.random.default_rng(5))
    assert qr_calls == [(200, 6, 3)] * 3


# --- the symmetry and growth runners ----------------------------------------------

def _symmetry_one_trial_at_a_time(params, rng):
    """The symmetry runner as a loop over plain states: the reference for the
    stacked runner."""
    rows = []
    for trial in range(params["trials"]):
        d_l = int(rng.integers(2, params["max_dim"] + 1))
        d_r = int(rng.integers(2, params["max_dim"] + 1))
        state = qs.random_state(d_l, d_r, rng)
        s_l = qs.von_neumann_entropy(qs.reduced_density_left(state))
        s_r = qs.von_neumann_entropy(qs.reduced_density_right(state))
        rows.append({"trial": trial, "d_left": d_l, "d_right": d_r,
                     "s_left": s_l, "s_right": s_r, "abs_diff": abs(s_l - s_r)})
    return rows


def _growth_one_trial_at_a_time(params, rng):
    """The growth runner as a loop over plain density matrices: the reference
    for the stacked runner."""
    rows = []
    for trial in range(params["trials"]):
        rho_l = _random_mixed(params["dim_left"], rng)
        rho_r = _random_mixed(params["dim_right"], rng)
        u = _random_unitary(params["dim_left"] * params["dim_right"], rng)
        out_l, out_r = qs.evolve_product(rho_l, rho_r, u)
        s_in = qs.von_neumann_entropy(rho_l) + qs.von_neumann_entropy(rho_r)
        s_out = qs.von_neumann_entropy(out_l) + qs.von_neumann_entropy(out_r)
        rows.append({"trial": trial, "s_in": s_in, "s_out": s_out, "slack": s_out - s_in})
    return rows


# 5 trials as in the benchmark smoke test, 200 by default; 1500 symmetry
# trials (about 60 entries each, 2^14 per batch) and 500 growth trials at
# 3 x 3 (202 per batch) cross batch boundaries
@pytest.mark.parametrize("name, params, reference", [
    ("symmetry", {"trials": 5, "max_dim": 10}, _symmetry_one_trial_at_a_time),
    ("symmetry", {"trials": 200, "max_dim": 10}, _symmetry_one_trial_at_a_time),
    ("symmetry", {"trials": 1500, "max_dim": 10}, _symmetry_one_trial_at_a_time),
    ("growth", {"trials": 5, "dim_left": 3, "dim_right": 3}, _growth_one_trial_at_a_time),
    ("growth", {"trials": 200, "dim_left": 3, "dim_right": 3}, _growth_one_trial_at_a_time),
    ("growth", {"trials": 500, "dim_left": 3, "dim_right": 3}, _growth_one_trial_at_a_time),
    ("growth", {"trials": 30, "dim_left": 2, "dim_right": 5}, _growth_one_trial_at_a_time),
])
def test_stacked_runner_matches_one_trial_at_a_time(name, params, reference):
    rng_ref, rng = np.random.default_rng(21), np.random.default_rng(21)
    expected = _columns(reference(params, rng_ref))
    table = experiments.EXPERIMENTS[name].run(params, rng)
    assert rng.bit_generator.state == rng_ref.bit_generator.state
    assert list(table) == list(expected)
    for key, column in expected.items():
        assert len(table[key]) == params["trials"], key
        for value, ref in zip(table[key], column):
            if isinstance(ref, int):
                assert value == ref, key
            else:
                assert type(value) is float and abs(value - ref) <= 1e-12, key


def test_growth_draws_unitaries_in_entry_bounded_batches(qr_calls):
    experiments.EXPERIMENTS["growth"].run({"trials": 500, "dim_left": 3, "dim_right": 3},
                                          np.random.default_rng(22))
    assert qr_calls == [(202, 9, 9), (202, 9, 9), (96, 9, 9)]


def test_symmetry_makes_one_stacked_eigh_per_shape_and_batch(monkeypatch):
    shapes = []
    eigh = np.linalg.eigh

    def counted(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    experiments.EXPERIMENTS["symmetry"].run({"trials": 300, "max_dim": 3},
                                            np.random.default_rng(23))
    # 300 trials in 3 x 3 slots fit one batch: one stacked eigh for each of
    # the two reduced density matrices, whatever the trials' shapes
    assert shapes == [(300, 3, 3)] * 2


def test_padded_symmetry_batches_match_one_trial_at_a_time():
    # at max_dim 12 a batch holds 113 trials: 250 trials cross two batch
    # boundaries, and most trials fill only part of their 12 x 12 slot
    params = {"trials": 250, "max_dim": 12}
    rng_ref, rng = np.random.default_rng(25), np.random.default_rng(25)
    table = experiments.EXPERIMENTS["symmetry"].run(params, rng)
    for trial, d_left, d_right, s_left, s_right in zip(
            *(table[key] for key in ("trial", "d_left", "d_right", "s_left", "s_right"))):
        d_l = int(rng_ref.integers(2, params["max_dim"] + 1))
        d_r = int(rng_ref.integers(2, params["max_dim"] + 1))
        state = qs.random_state(d_l, d_r, rng_ref)
        assert (d_left, d_right) == (d_l, d_r)
        assert abs(s_left - qs.von_neumann_entropy(qs.reduced_density_left(state))) <= 1e-13
        assert abs(s_right - qs.von_neumann_entropy(qs.reduced_density_right(state))) <= 1e-13
    assert table["trial"] == list(range(params["trials"]))
    assert all(len(column) == params["trials"] for column in table.values())
    assert rng.bit_generator.state == rng_ref.bit_generator.state


def test_growth_of_one_dimensional_systems_writes_positive_zeros():
    table = experiments.EXPERIMENTS["growth"].run({"trials": 3, "dim_left": 1, "dim_right": 1},
                                                  np.random.default_rng(24))
    for key in ("s_in", "s_out", "slack"):
        assert len(table[key]) == 3
        for value in table[key]:
            assert value == 0.0 and math.copysign(1.0, value) == 1.0


def test_growth_batch_memory_is_bounded_by_entries_not_trials():
    # one trial at 12 x 12 holds 144 x 144 complex unitaries (0.33 MB each),
    # more than the 2^14-entry budget, so a batch holds one trial; a batch
    # bounded by a trial count would hold 40 of them at once
    def peak(trials):
        tracemalloc.start()
        try:
            experiments.EXPERIMENTS["growth"].run(
                {"trials": trials, "dim_left": 12, "dim_right": 12}, np.random.default_rng(25))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(40) <= 2 * peak(1)


# --- unitary evolution of product states ------------------------------------------

def test_stacked_evolution_matches_each_plain_evolution():
    rng = np.random.default_rng(18)
    rho_l = qs.DensityMatrix(_valid_stack(4, 2, rng))
    rho_r = qs.DensityMatrix(_valid_stack(4, 3, rng))
    u = qs.haar_unitary(rng.standard_normal((4, 6, 6)) + 1j * rng.standard_normal((4, 6, 6)))
    out_l, out_r = qs.evolve_product(rho_l, rho_r, u)
    for k in range(4):
        ref_l, ref_r = qs.evolve_product(qs.DensityMatrix(rho_l.entries[k]),
                                         qs.DensityMatrix(rho_r.entries[k]), u[k])
        assert np.abs(out_l.entries[k] - ref_l.entries).max() <= 1e-15
        assert np.abs(out_r.entries[k] - ref_r.entries).max() <= 1e-15
    bad = u.copy()
    bad[2] *= 1.001
    with pytest.raises(ValueError, match="defect"):
        qs.evolve_product(rho_l, rho_r, bad)


def test_haar_unitary_of_a_stack_is_each_plain_unitary():
    rng = np.random.default_rng(19)
    g = rng.standard_normal((3, 5, 5)) + 1j * rng.standard_normal((3, 5, 5))
    u = qs.haar_unitary(g)
    assert np.abs(u.conj().swapaxes(-1, -2) @ u - np.eye(5)).max() <= 1e-14
    for k in range(3):
        assert np.array_equal(u[k], qs.haar_unitary(g[k]))


def test_evolve_identity_preserves_entropies():
    rng = np.random.default_rng(11)
    rho_l = _random_mixed(3, rng)
    rho_r = _random_mixed(3, rng)
    out_l, out_r = qs.evolve_product(rho_l, rho_r, np.eye(9))
    assert abs(qs.von_neumann_entropy(out_l) - qs.von_neumann_entropy(rho_l)) <= 1e-10
    assert abs(qs.von_neumann_entropy(out_r) - qs.von_neumann_entropy(rho_r)) <= 1e-10


def _random_mixed(dim, rng):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return qs.DensityMatrix(rho / np.trace(rho).real)


def _random_unitary(dim, rng):
    return qs.haar_unitary(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))


def _pure_density(dim, rng):
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    v /= np.linalg.norm(v)
    return qs.DensityMatrix(np.outer(v, v.conj()))


def test_pure_product_inputs_keep_entropies_equal():
    rng = np.random.default_rng(12)
    for _ in range(10):
        rho_l = _pure_density(3, rng)
        rho_r = _pure_density(3, rng)
        assert qs.von_neumann_entropy(rho_l) <= 1e-10  # pure inputs start at zero
        u = _random_unitary(9, rng)
        out_l, out_r = qs.evolve_product(rho_l, rho_r, u)
        s_l, s_r = qs.von_neumann_entropy(out_l), qs.von_neumann_entropy(out_r)
        assert abs(s_l - s_r) <= 1e-9


def test_entropy_growth_inequality():
    rng = np.random.default_rng(13)
    for _ in range(50):
        rho_l = _random_mixed(3, rng)
        rho_r = _random_mixed(3, rng)
        s_in = qs.von_neumann_entropy(rho_l) + qs.von_neumann_entropy(rho_r)
        out_l, out_r = qs.evolve_product(rho_l, rho_r, _random_unitary(9, rng))
        s_out = qs.von_neumann_entropy(out_l) + qs.von_neumann_entropy(out_r)
        assert s_out - s_in >= -1e-9


def test_evolve_rejects_non_unitary():
    rng = np.random.default_rng(14)
    rho = _random_mixed(2, rng)
    bad = np.eye(4) * 1.001
    with pytest.raises(ValueError, match="defect"):
        qs.evolve_product(rho, rho, bad)
    with pytest.raises(ValueError):
        qs.evolve_product(rho, rho, np.eye(5))


def test_evolve_rejects_nan_unitary():
    rho = _random_mixed(2, np.random.default_rng(15))
    with pytest.raises(ValueError, match="not unitary"):
        qs.evolve_product(rho, rho, np.full((4, 4), np.nan))
