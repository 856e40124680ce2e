import dataclasses
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from entlab import dmrg, numerics
from entlab import harmonic_chain as hc
from entlab import quantum_state as qs

SRC = Path(__file__).resolve().parents[1] / "src"


def oracle(length, mass):
    v = hc.build_potential(length, mass)
    energy = 0.5 * np.sqrt(np.linalg.eigvalsh(v)).sum()
    gs = hc.ground_state_covariance(v)
    entropy = hc.block_entropy(gs, range(length // 2))
    return energy, entropy


def superblock_diagonal(superblock):
    """The full superblock's diagonal h_ii + h_jj: phi has none in the
    oscillator basis, nor in a basis of definite parity."""
    h = np.diag(superblock.hamiltonian)
    return np.add.outer(h, h).ravel()


def empty_block():
    return dmrg.DmrgBlock(length=0, hamiltonian=np.zeros((1, 1)), edge_phi=np.zeros((1, 1)),
                          parity=np.ones(1, dtype=int))


# --- block construction -----------------------------------------------------------

def test_initial_single_site_block():
    config = dmrg.DmrgConfig(local_dim=6, mass=1.0, target_length=4)
    block = dmrg._enlarge(empty_block(), config)
    omega = np.sqrt(3.0)
    assert block.length == 1
    assert np.allclose(block.hamiltonian, np.diag(omega * (np.arange(6) + 0.5)))
    assert np.abs(block.edge_phi - block.edge_phi.T).max() <= 1e-12


def test_two_site_block_matches_fock_oracle():
    # kept_states >= local_dim: the first step truncates nothing
    config = dmrg.DmrgConfig(local_dim=4, kept_states=4, mass=1.0, target_length=4)
    block = dmrg._enlarge(dmrg.dmrg_step(empty_block(), config)[0], config)
    assert block.length == 2 and block.basis_size == 16
    block_ground = numerics.sym_eig(block.hamiltonian)[0][0]
    v = hc.build_potential(2, 1.0)
    _, fock_ground = hc.fock_ground_state(v, d=4)
    assert abs(block_ground - fock_ground) <= 1e-10


# --- superblock ---------------------------------------------------------------------

@pytest.mark.parametrize("shape", [(4, 4), (2, 3)], ids=["square", "rectangular"])
def test_on_site_is_the_kronecker_product_with_the_identity(shape):
    rng = np.random.default_rng(4)
    phi = rng.standard_normal(shape)
    m = rng.standard_normal((shape[1] * 5, 7))
    reference = np.kron(phi, np.eye(5)) @ m
    assert dmrg._on_site(phi, m).shape == reference.shape
    assert np.abs(dmrg._on_site(phi, m) - reference).max() <= 1e-14


def test_uncoupled_superblock_energy_is_twice_block_energy():
    config = dmrg.DmrgConfig(local_dim=5, mass=0.7, target_length=4)
    h, phi = hc.oscillator_ops(config.site_frequency, 5)
    superblock = dmrg.Superblock(h, np.zeros_like(phi))
    energy, _ = numerics.smallest_eigenpair(superblock.matvec,
                                            superblock_diagonal(superblock))
    block_energy = numerics.sym_eig(h)[0][0]
    assert abs(energy - 2.0 * block_energy) <= 1e-10


def test_superblock_matches_two_site_fock_oracle():
    config = dmrg.DmrgConfig(local_dim=12, mass=1.0, target_length=4)
    superblock = dmrg.Superblock(*hc.oscillator_ops(config.site_frequency, 12))
    energy, _ = numerics.smallest_eigenpair(superblock.matvec,
                                            superblock_diagonal(superblock), tol=1e-11)
    v = hc.build_potential(2, 1.0)
    _, fock_energy = hc.fock_ground_state(v, d=12)
    assert abs(energy - fock_energy) <= 1e-6


def test_superblock_reflection_symmetry():
    config = dmrg.DmrgConfig(local_dim=3, mass=0.5, target_length=4)
    dense = dmrg.Superblock(*hc.oscillator_ops(config.site_frequency, 3)).dense()
    n = config.local_dim
    swap = dense.reshape(n, n, n, n).transpose(1, 0, 3, 2).reshape(n * n, n * n)
    assert np.abs(np.linalg.eigvalsh(dense) - np.linalg.eigvalsh(swap)).max() <= 1e-10


def test_superblock_dense_agrees_with_matvec():
    config = dmrg.DmrgConfig(local_dim=3, mass=1.0, target_length=4)
    superblock = dmrg.Superblock(*hc.oscillator_ops(config.site_frequency, 3))
    rng = np.random.default_rng(0)
    v = rng.standard_normal(superblock.block_dim ** 2)
    assert np.abs(superblock.dense() @ v - superblock.matvec(v)).max() <= 1e-12


def test_superblock_matvec_after_a_truncating_step():
    # the kept basis (m = 2) times a bare site: the edge field is the site's
    config = dmrg.DmrgConfig(local_dim=3, kept_states=2, mass=1.0, target_length=6)
    block = dmrg._enlarge(dmrg.dmrg_step(empty_block(), config)[0], config)
    n = block.basis_size
    assert n == 6 and block.edge_phi.shape == (3, 3)
    _, phi = hc.oscillator_ops(config.site_frequency, 3)
    edge = np.kron(phi, np.eye(2))
    eye = np.eye(n)
    reference = (np.kron(block.hamiltonian, eye) + np.kron(eye, block.hamiltonian)
                 - np.kron(edge, edge))
    superblock = dmrg.Superblock(block.hamiltonian, block.edge_phi)
    assert np.abs(superblock.dense() - reference).max() <= 1e-12
    v = np.random.default_rng(1).standard_normal(superblock.block_dim ** 2)
    assert np.abs(reference @ v - superblock.matvec(v)).max() <= 1e-12


def truncated_superblock():
    # the kept basis (m = 3) times a bare site: edge_phi (4 x 4) acts on the
    # leading factor of the 12-state block, whose parity splits it 6 + 6
    config = dmrg.DmrgConfig(local_dim=4, kept_states=3, mass=0.8, target_length=6)
    block = dmrg._enlarge(dmrg.dmrg_step(empty_block(), config)[0], config)
    superblock = dmrg.Superblock(block.hamiltonian, block.edge_phi)
    assert superblock.block_dim == 12 and superblock.edge_phi.shape == (4, 4)
    assert np.count_nonzero(block.parity > 0) == 6
    return superblock, block.parity


def sector_matrix(parity, seed):
    """A random symmetric matrix that pairs equal parities only."""
    a = np.random.default_rng(seed).standard_normal((parity.size, parity.size))
    return (a + a.T) * np.equal.outer(parity, parity)


def test_sector_packing_is_an_isometry_of_symmetric_matrices():
    superblock, parity = truncated_superblock()
    pack, unpack, _, _ = superblock.sector(parity)
    m = sector_matrix(parity, 2)
    packed = pack(m)
    assert packed.shape == (2 * 21,)  # two triangles of 6 x 6
    assert abs(np.linalg.norm(packed) - np.linalg.norm(m)) <= 1e-15 * np.linalg.norm(m)
    back = unpack(packed)
    assert np.array_equal(back, back.T)
    assert not back[np.not_equal.outer(parity, parity)].any()
    assert np.array_equal(np.diag(back), np.diag(m))
    # sqrt(2) x / sqrt(2) rounds back to x or to a neighbouring double
    assert np.all(np.abs(back - m) <= np.spacing(np.abs(m)))


def test_sector_apply_is_the_full_matvec_on_symmetric_matrices():
    superblock, parity = truncated_superblock()
    pack, unpack, apply, _ = superblock.sector(parity)
    m = unpack(pack(sector_matrix(parity, 3)))
    full = superblock.matvec(m.ravel()).reshape(12, 12)
    assert np.linalg.norm(unpack(apply(pack(m))) - full) <= 1e-12 * np.linalg.norm(full)


def test_sector_apply_is_self_adjoint():
    superblock, parity = truncated_superblock()
    _, _, apply, diagonal = superblock.sector(parity)
    dense = np.stack([apply(col) for col in np.eye(42)], axis=1)
    assert np.abs(dense - dense.T).max() <= 1e-12 * np.abs(dense).max()
    # and the diagonal it returns is the operator's
    assert np.abs(np.diag(dense) - diagonal).max() <= 1e-12 * np.abs(dense).max()


def test_sector_rejects_labels_that_are_not_a_product():
    superblock, parity = truncated_superblock()
    flipped = parity.copy()
    flipped[0] = -flipped[0]
    with pytest.raises(ValueError, match="not a product"):
        superblock.sector(flipped)


def full_space_step(block, config):
    """The growth step with its ground state solved on the whole block x
    mirror space by the full-space matvec, and truncated by one singular
    value decomposition of the whole ground state."""
    enlarged = dmrg._enlarge(block, config)
    n = enlarged.basis_size
    superblock = dmrg.Superblock(enlarged.hamiltonian, enlarged.edge_phi)
    energy, psi = numerics.smallest_eigenpair(superblock.matvec,
                                              superblock_diagonal(superblock),
                                              tol=config.gs_tolerance)
    matrix = psi.reshape(n, n)
    u, s, _ = qs.schmidt(qs.BipartiteState(matrix))
    kept = min(config.kept_states, n)
    basis = u[:, :kept]
    kept_ham = basis.T @ enlarged.hamiltonian @ basis
    edge_field = np.kron(enlarged.edge_phi, np.eye(n // enlarged.edge_phi.shape[0]))
    edge = basis.T @ edge_field @ basis
    # unlabelled: one SVD of M mixes parities in degenerate multiplets, and
    # this reference never splits into sectors
    truncated = dmrg.DmrgBlock(length=enlarged.length,
                               hamiltonian=0.5 * (kept_ham + kept_ham.T),
                               edge_phi=edge, parity=np.zeros(kept, dtype=int))
    return truncated, energy, qs.entropy_from_probs(s ** 2), kept


@pytest.fixture
def truncations(monkeypatch):
    """(ground state M, enlarged parity, kept basis, kept parity, Schmidt
    values in descending weight, number kept) of every truncation made
    while the test runs."""
    calls = []
    truncate = dmrg._truncate

    def recording(matrix, parity, kept_states):
        result = truncate(matrix, parity, kept_states)
        calls.append((matrix, parity) + result)
        return result

    monkeypatch.setattr(dmrg, "_truncate", recording)
    return calls


@pytest.mark.parametrize("config", [
    dmrg.DmrgConfig(),
    dmrg.DmrgConfig(mass=0.1, local_dim=12, kept_states=16, target_length=6),
    dmrg.DmrgConfig(local_dim=5, mass=0.8, kept_states=10, target_length=8),
    dmrg.DmrgConfig(kept_states=1),
], ids=["default", "mass-0.1", "odd-local-dim", "kept-1"])
def test_step_matches_the_full_space_solve(config, truncations):
    # the full-space solve sees every sector, so this also checks that the
    # ground state lies in the even one
    block = reference = empty_block()
    for _ in range(config.target_length // 2):
        enlarged = dmrg._enlarge(block, config)
        superblock = dmrg.Superblock(enlarged.hamiltonian, enlarged.edge_phi)
        block, iterate = dmrg.dmrg_step(block, config)
        m, parity = truncations[-1][:2]
        assert np.array_equal(m, m.T)
        assert not m[np.not_equal.outer(parity, parity)].any()
        residual = superblock.matvec(m.ravel()) - iterate.ground_energy * m.ravel()
        assert np.linalg.norm(residual) <= config.gs_tolerance

        reference, energy, entropy, kept = full_space_step(reference, config)
        assert abs(iterate.ground_energy - energy) <= 1e-12 * abs(energy)
        assert abs(iterate.half_chain_entropy - entropy) <= 1e-10
        assert iterate.kept == kept


@pytest.mark.parametrize("config", [
    dmrg.DmrgConfig(),
    dmrg.DmrgConfig(mass=0.1, local_dim=12, kept_states=16, target_length=6),
], ids=["default", "mass-0.1"])
def test_blocks_conserve_parity_exactly(config, truncations):
    block = empty_block()
    for _ in range(config.target_length // 2):
        enlarged = dmrg._enlarge(block, config)
        p = enlarged.parity
        assert not enlarged.hamiltonian[np.not_equal.outer(p, p)].any()
        edge = np.kron(enlarged.edge_phi,
                       np.eye(enlarged.basis_size // enlarged.edge_phi.shape[0]))
        assert not edge[np.equal.outer(p, p)].any()
        block, _ = dmrg.dmrg_step(block, config)
        m, parity, basis, labels, lam, kept = truncations[-1]
        # each kept vector is an exact eigenvector of the parity operator
        assert np.array_equal(parity[:, None] * basis, basis * labels)
        assert np.abs(basis.T @ (parity[:, None] * basis) - np.diag(labels)).max() <= 1e-13
        # and of M, with eigenvalue lambda_j, in descending weight lambda^2
        assert np.all(np.diff(lam ** 2) <= 0.0)
        assert np.abs(basis.T @ m @ basis - np.diag(lam[:kept])).max() <= 5e-15  # 4.4e-16 measured
        assert np.array_equal(block.schmidt_values, lam[:kept])
        assert np.array_equal(block.parity, labels)


def test_truncation_skips_a_sector_where_the_state_is_zero():
    parity = np.array([1, -1, 1, -1])
    matrix = np.zeros((4, 4))
    matrix[np.ix_([0, 2], [0, 2])] = [[0.8, 0.1], [0.1, 0.3]]
    basis, labels, lam, kept = dmrg._truncate(matrix / np.linalg.norm(matrix), parity, 3)
    w = lam ** 2
    assert kept == 3 and w[2] == w[3] == 0.0
    assert abs(w.sum() - 1.0) <= 1e-15
    assert np.array_equal(labels, [1, 1, -1])
    assert np.array_equal(parity[:, None] * basis, basis * labels)


def test_heavy_chain_runs_to_its_target():
    # at mass 1000 the odd sectors of M hold a weight of about 1e-13
    config = dmrg.DmrgConfig(mass=1000.0)
    iterates = dmrg.run(config)
    assert [it.chain_length for it in iterates] == list(range(2, 21, 2))
    energy, _ = oracle(20, 1000.0)
    assert abs(iterates[-1].ground_energy - energy) <= 1e-9 * energy


# --- one step --------------------------------------------------------------------------

def test_lossless_step_has_zero_truncation_weight():
    config = dmrg.DmrgConfig(local_dim=2, kept_states=8, mass=1.0, target_length=8)
    block = empty_block()
    block, iterate = dmrg.dmrg_step(block, config)
    assert iterate.truncation_weight <= 1e-14
    assert iterate.kept == 2
    block, iterate = dmrg.dmrg_step(block, config)  # basis 4 <= kept_states
    assert iterate.truncation_weight <= 1e-14


def test_density_matrix_spectrum_properties_at_step():
    config = dmrg.DmrgConfig(local_dim=4, kept_states=6, mass=1.0, target_length=8)
    superblock = dmrg.Superblock(*hc.oscillator_ops(config.site_frequency, 4))
    _, psi = numerics.smallest_eigenpair(superblock.matvec,
                                         superblock_diagonal(superblock))
    rho = qs.reduced_density_left(qs.BipartiteState(psi.reshape(4, 4)))
    w = np.linalg.eigvalsh(rho.entries)[::-1]
    assert np.all(np.diff(w) <= 1e-14)
    assert abs(w.sum() - 1.0) <= 1e-10


def test_step_decomposes_its_density_matrix_once(decompositions, monkeypatch):
    config = dmrg.DmrgConfig(local_dim=8)
    solve = numerics.smallest_eigenpair

    def solve_uncounted(*args, **kwargs):
        # Davidson diagonalises its projected matrix at each application
        before = len(decompositions)
        result = solve(*args, **kwargs)
        del decompositions[before:]
        return result

    monkeypatch.setattr(numerics, "smallest_eigenpair", solve_uncounted)
    # packed superblock dim 2 x 10: Davidson; one eigh per sector of M, and
    # the prediction from the Schmidt values of the empty block takes none
    block = dataclasses.replace(empty_block(), schmidt_values=np.ones(1))
    block, _ = dmrg.dmrg_step(block, config)
    assert decompositions == ["eigh", "eigh"] and block.prediction is not None
    # nor does a step that starts from a prediction and makes the next one
    del decompositions[:]
    block, _ = dmrg.dmrg_step(block, config)
    assert decompositions == ["eigh", "eigh"] and block.prediction is not None


def test_step_entropy_obeys_block_mirror_symmetry():
    config = dmrg.DmrgConfig(local_dim=5, kept_states=10, mass=0.8, target_length=8)
    block = dmrg._enlarge(dmrg.dmrg_step(empty_block(), config)[0], config)
    superblock = dmrg.Superblock(block.hamiltonian, block.edge_phi)
    _, psi = numerics.smallest_eigenpair(superblock.matvec,
                                         superblock_diagonal(superblock))
    n = block.basis_size
    state = qs.BipartiteState(psi.reshape(n, n))
    s_block = qs.von_neumann_entropy(qs.reduced_density_left(state))
    s_mirror = qs.von_neumann_entropy(qs.reduced_density_right(state))
    assert abs(s_block - s_mirror) <= 1e-9


def test_truncation_weight_is_the_singular_value_tail():
    config = dmrg.DmrgConfig(local_dim=4, kept_states=5, mass=1.0, target_length=12)
    truncated, _ = dmrg.dmrg_step(empty_block(), config)
    block = dmrg._enlarge(truncated, config)  # basis now 4 * min(5,4) = 16
    superblock = dmrg.Superblock(block.hamiltonian, block.edge_phi)
    _, psi = numerics.smallest_eigenpair(superblock.matvec,
                                         superblock_diagonal(superblock), tol=1e-13)
    n = block.basis_size
    s = np.linalg.svd(psi.reshape(n, n), compute_uv=False)
    expected_weight = (s[config.kept_states:] ** 2).sum()
    _, iterate = dmrg.dmrg_step(truncated, config)
    assert iterate.kept == config.kept_states
    assert abs(iterate.truncation_weight - expected_weight) <= 1e-6 * expected_weight


@pytest.mark.parametrize("config, first, bound", [
    (dmrg.DmrgConfig(), 0, 1e-8),
    (dmrg.DmrgConfig(local_dim=8, kept_states=32), 2, 1e-6),
], ids=["default", "kept-32"])
def test_truncation_weight_of_each_step_is_the_singular_value_tail(config, truncations,
                                                                   first, bound):
    # against the SVD of each recorded M: 7.4e-10 and, from the third step
    # on, 1.2e-7 relative were measured; weights read from rho_L = M M^T
    # resolved only about 1e-16 absolute, 1.2e-2 and 38-1600x off here
    iterates = dmrg.run(config)
    assert len(truncations) == len(iterates)
    for iterate, (m, *_) in list(zip(iterates, truncations))[first:]:
        tail = (np.linalg.svd(m, compute_uv=False)[iterate.kept:] ** 2).sum()
        assert abs(iterate.truncation_weight - tail) <= bound * tail


def test_variational_bound_and_improvement_with_kept_states():
    # chain of 4 at local cutoff 4: exact dense reference has dim 256
    v = hc.build_potential(4, 1.0)
    _, dense_energy = hc.fock_ground_state(v, d=4)
    energies = {}
    for m in (2, 3, 8):
        config = dmrg.DmrgConfig(local_dim=4, kept_states=m, mass=1.0,
                                 target_length=4)
        iterates = dmrg.run(config)
        energies[m] = iterates[-1].ground_energy
    for m, energy in energies.items():
        assert energy >= dense_energy - 1e-9
    assert energies[3] <= energies[2] + 1e-12
    assert energies[8] <= energies[3] + 1e-12


# --- warm start -----------------------------------------------------------------------

@pytest.fixture
def solves(monkeypatch):
    """(operator applications, start vector, returned vector) of every
    ground-state solve made while the test runs."""
    calls = []
    solve = numerics.smallest_eigenpair

    def recording(apply, diagonal, tol=1e-10, v0=None):
        count = 0

        def counted(vec):
            nonlocal count
            count += 1
            return apply(vec)

        energy, psi = solve(counted, diagonal, tol=tol, v0=v0)
        calls.append((count, v0, psi))
        return energy, psi

    monkeypatch.setattr(numerics, "smallest_eigenpair", recording)
    return calls


def test_predicted_start_needs_fewer_applications(solves):
    # the new site in its local ground state took 560 applications
    dmrg.run(dmrg.DmrgConfig(local_dim=8, kept_states=16, target_length=20, mass=1.0))
    assert len(solves) == 10
    assert sum(count for count, _, _ in solves) <= 400
    assert solves[0][1] is None
    for _, v0, psi in solves[4:]:
        overlap = abs(v0 @ psi) / (np.linalg.norm(v0) * np.linalg.norm(psi))
        assert 1.0 - overlap <= 1e-12


def test_davidson_stops_on_the_residual_contract_from_the_predicted_start(solves):
    # ARPACK took 350 applications here, and 23 in each solve from step 5 on:
    # 20 Lanczos steps before its first convergence test
    dmrg.run(dmrg.DmrgConfig())
    assert sum(count for count, _, _ in solves) <= 200
    assert all(count <= 12 for count, _, _ in solves[4:])


def test_nearly_diagonal_sector_converges_without_the_fallback(solves, monkeypatch):
    # at mass 10 the ground state of step 4 is 0.99999 of one unit vector,
    # where diagonal - E = 3.6e-4: r / (diagonal - E) is then nearly that
    # vector again, and without Olsen's projection the solve took 182
    # applications and the ARPACK fallback
    fallbacks = []
    eigsh = numerics.eigsh

    def counted_eigsh(*args, **kwargs):
        fallbacks.append(kwargs["tol"])
        return eigsh(*args, **kwargs)

    monkeypatch.setattr(numerics, "eigsh", counted_eigsh)
    dmrg.run(dmrg.DmrgConfig(mass=10.0, local_dim=2, kept_states=8, gs_tolerance=1e-13))
    assert fallbacks == []
    assert max(count for count, _, _ in solves) <= 20


def test_unreachable_tolerance_fails_after_one_stalled_davidson_cycle(solves):
    # ARPACK alone gave up after 67 applications, three attempts of 21 and
    # their checks; Davidson adds 30 before its residual stops halving
    with pytest.raises(numerics.EigensolverError) as err:
        dmrg.run(dmrg.DmrgConfig(gs_tolerance=1e-17))
    assert err.value.iterations <= 100
    assert len(solves) == 0  # the first solve raised


@pytest.mark.parametrize("local_dim, most_applications", [(2, 30), (4, 40)],
                         ids=["local_dim-2", "local_dim-4"])
def test_tolerance_near_one_ulp_of_the_energy_is_met_by_the_fallback(
        solves, monkeypatch, local_dim, most_applications):
    # at mass 1000, E ~ 2000 from step 2 on, whose ulp is 2.3e-13: Davidson's
    # running residual stalls above 1e-13 / 2, or its correction falls into
    # the span of its basis, and one Lanczos run from its best vector meets
    # the contract; at local_dim 2 the sectors of steps 1 and 2 have
    # dimensions 2 and 6, which the basis spans
    fallbacks = []  # the index of the solve each ARPACK call serves
    eigsh = numerics.eigsh

    def counted_eigsh(*args, **kwargs):
        fallbacks.append(len(solves))
        return eigsh(*args, **kwargs)

    monkeypatch.setattr(numerics, "eigsh", counted_eigsh)
    iterates = dmrg.run(dmrg.DmrgConfig(mass=1000.0, local_dim=local_dim,
                                        gs_tolerance=1e-13))
    assert len(iterates) == len(solves) == 10
    assert max(count for count, _, _ in solves) <= most_applications
    # the fallback ran, and at most once per solve
    assert fallbacks and len(set(fallbacks)) == len(fallbacks)


def test_zero_eigenvalue_of_the_last_ground_state_gives_a_finite_start(solves):
    config = dmrg.DmrgConfig(local_dim=4, kept_states=6, mass=1.0, target_length=6)
    block, _ = dmrg.dmrg_step(empty_block(), config)
    k = block.basis_size
    block = dataclasses.replace(block, schmidt_values=np.linspace(1.0, 0.0, k))
    assert block.schmidt_values[-1] == 0.0
    block, _ = dmrg.dmrg_step(block, config)
    assert np.isfinite(block.prediction).all()
    _, iterate = dmrg.dmrg_step(block, config)
    v0 = solves[-1][1]
    assert np.isfinite(v0).all() and np.any(v0)
    energy, _ = oracle(6, 1.0)
    assert abs(iterate.ground_energy - energy) <= 0.01 * energy


# --- full runs ------------------------------------------------------------------------

def test_run_with_target_equal_to_initial_length_is_exact():
    config = dmrg.DmrgConfig(local_dim=8, kept_states=16, mass=1.0, target_length=2)
    iterates = dmrg.run(config)
    assert len(iterates) == 1
    v = hc.build_potential(2, 1.0)
    _, fock_energy = hc.fock_ground_state(v, d=8)
    assert abs(iterates[0].ground_energy - fock_energy) <= 1e-9


def test_run_tracks_oracle_on_short_chain():
    config = dmrg.DmrgConfig(local_dim=6, kept_states=20, mass=1.0, target_length=8)
    iterates = dmrg.run(config)
    last = iterates[-1]
    assert last.chain_length == 8
    energy, entropy = oracle(8, 1.0)
    assert abs(last.ground_energy - energy) / energy <= 0.01
    assert abs(last.half_chain_entropy - entropy) / entropy <= 0.05


@pytest.mark.parametrize("mass, reference", [
    (1e4, 2.53837178909916e-16),
    (1e6, 3.68966443461655e-24),
], ids=["mass-1e4", "mass-1e6"])
def test_entropy_of_a_nearly_pure_cut_matches_mpmath(mass, reference):
    # the largest weight rounds to 1.0, and its -w ln w term is 1 / (1 - ln p)
    # of the entropy, p the tail weight: read as 1.0 ln 1.0 = 0 it would leave
    # the entropy 2.5 % (mass 1e4) and 1.7 % (mass 1e6) low.  reference: the
    # 4-site chain at 80-digit mpmath, from the symplectic eigenvalues of its half
    last = dmrg.run(dmrg.DmrgConfig(mass=mass, target_length=4))[-1]
    assert abs(last.half_chain_entropy / reference - 1.0) <= 1e-10  # 2e-15 measured


def test_kept_basis_size_stays_constant_once_reached():
    config = dmrg.DmrgConfig(local_dim=4, kept_states=6, mass=1.0, target_length=16)
    iterates = dmrg.run(config)
    kept = [it.kept for it in iterates]
    first_capped = next(i for i, k in enumerate(kept) if k == 6)
    assert all(k == 6 for k in kept[first_capped:])


@pytest.mark.parametrize("config, kept", [
    (dmrg.DmrgConfig(mass=0.1, local_dim=12, kept_states=16, target_length=6),
     [12, 16, 16]),
    (dmrg.DmrgConfig(mass=1.0, local_dim=8, kept_states=8, target_length=12),
     [8] * 6),
], ids=["mass-0.1", "mass-1"])
def test_cut_keeps_exactly_kept_states_at_a_near_tie(config, kept):
    # the 16th and 17th weights of the third step at mass 0.1 are 8.18e-11 and
    # 8.11e-11, and the 8th and 9th of the fifth step at mass 1 are 9.13e-11
    # and 9.09e-11: splits of 0.9 % and 0.5 %, not degeneracies, which an
    # absolute 1e-12 multiplet rule took for ties and kept 17 and 9 states
    assert [it.kept for it in dmrg.run(config)] == kept


def test_truncation_weight_shrinks_as_kept_states_double():
    weights = {}
    for m in (8, 16, 32):
        config = dmrg.DmrgConfig(local_dim=4, kept_states=m, mass=1.0,
                                 target_length=12)
        iterates = dmrg.run(config)
        weights[m] = iterates[-1].truncation_weight
    assert weights[16] <= weights[8] + 1e-12
    assert weights[32] <= weights[16] + 1e-12


def test_last_step_builds_no_unsolved_block():
    # enlarging the 48-state block would build (48 * 48)^2 doubles, 42 MB per
    # matrix, for a superblock beyond target_length that nothing solves
    config = dmrg.DmrgConfig(local_dim=48, kept_states=48, target_length=2)
    tracemalloc.start()
    try:
        iterates = dmrg.run(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [it.chain_length for it in iterates] == [2]
    assert peak < 16 * 2 ** 20


def test_oversized_enlargement_raises_before_building():
    config = dmrg.DmrgConfig(local_dim=48, kept_states=48, target_length=4)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="superblock dimension 5308416 exceeds limit"):
            dmrg.run(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


def test_config_validation():
    with pytest.raises(ValueError):
        dmrg.DmrgConfig(local_dim=1)
    # the first superblock is local_dim^2 <= 2^20: rejected before any matrix is built
    with pytest.raises(ValueError, match="local_dim 1025"):
        dmrg.DmrgConfig(local_dim=1025)
    with pytest.raises(ValueError):
        dmrg.DmrgConfig(kept_states=0)
    with pytest.raises(ValueError):
        dmrg.DmrgConfig(target_length=7)
    # rejected before the run, not by the oracle's build_potential or by the
    # Lanczos fallback after it
    for tolerance in (0.0, -1e-10, float("nan")):
        with pytest.raises(ValueError, match="gs_tolerance"):
            dmrg.DmrgConfig(gs_tolerance=tolerance)
    # masses whose square overflows a float, in the site frequency
    for mass in (-0.5, float("nan"), float("inf"), 1e155, 10 ** 200):
        with pytest.raises(ValueError, match="mass"):
            dmrg.DmrgConfig(mass=mass)
    assert dmrg.DmrgConfig(mass=0.0).mass == 0.0


@pytest.mark.parametrize("name, value", [
    ("kept_states", 2.5), ("local_dim", 8.5), ("target_length", 4.0),
    ("local_dim", True), ("kept_states", "16"), ("target_length", None),
])
def test_config_rejects_sizes_that_are_not_integers(name, value):
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        dmrg.DmrgConfig(**{name: value})


def test_direct_run_does_not_depend_on_blas_threads():
    # importing entlab pins BLAS to one thread, not only the command line
    code = ("from entlab import dmrg; "
            "print(repr(dmrg.run(dmrg.DmrgConfig())))")
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [
                       str(SRC), os.environ.get("PYTHONPATH")])))
        outputs.append(subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                      capture_output=True, text=True).stdout)
    assert outputs[0] == outputs[1]
