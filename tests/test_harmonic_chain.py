import math
import tracemalloc

import numpy as np
import pytest

from entlab import harmonic_chain as hc
from entlab import quantum_state as qs


# --- potential -----------------------------------------------------------------

def test_single_site_fixed_ends():
    assert np.allclose(hc.build_potential(1, 1.0), [[3.0]])


def test_three_site_massless_spectrum():
    vals = np.linalg.eigvalsh(hc.build_potential(3, 0.0))
    assert np.allclose(vals, [2.0 - np.sqrt(2.0), 2.0, 2.0 + np.sqrt(2.0)])


def test_uncoupled_limit_is_diagonal():
    v = hc.build_potential(3, 1.0)
    v[np.abs(np.arange(3)[:, None] - np.arange(3)) == 1] = 0.0
    assert np.allclose(v, np.diag(np.diag(v)))


@pytest.mark.parametrize("n_sites, mass, named", [
    (0, 1.0, "n_sites must be >= 1"),
    (2, -1.0, "mass must be nonnegative"),
    (2, np.nan, "mass must be nonnegative"),
    (2, 1e155, "finite square"),  # mass ** 2 overflows
    (2, 10 ** 200, "finite square"),
], ids=["no-sites", "negative-mass", "nan-mass", "overflowing-mass", "overflowing-int-mass"])
def test_potential_rejects_a_bad_chain(n_sites, mass, named):
    with pytest.raises(ValueError, match=named):
        hc.build_potential(n_sites, mass)


# --- covariance -----------------------------------------------------------------

def test_identity_potential_covariance():
    gs = hc.ground_state_covariance(np.eye(3))
    assert np.allclose(gs.X, np.eye(3) / 2.0)
    assert np.allclose(gs.P, np.eye(3) / 2.0)


def test_single_site_analytic_square_root():
    gs = hc.ground_state_covariance(np.array([[4.0]]))
    assert abs(gs.X[0, 0] - 0.25) <= 1e-14
    assert abs(gs.P[0, 0] - 1.0) <= 1e-14
    assert abs(gs.X[0, 0] * gs.P[0, 0] - 0.25) <= 1e-14


def test_uncertainty_product_identity():
    gs = hc.ground_state_covariance(hc.build_potential(4, 1.0))
    assert np.abs((2 * gs.X) @ (2 * gs.P) - np.eye(4)).max() <= 1e-10


def test_covariance_rejects_indefinite_potential():
    with pytest.raises(ValueError, match="positive definite"):
        hc.ground_state_covariance(np.diag([1.0, -0.5]))


@pytest.mark.parametrize("bad", ["X", "P"])
def test_ground_state_rejects_nonfinite_covariance(bad):
    # a NaN covariance would otherwise give a block entropy of 0
    arrays = {"X": np.eye(2) / 2.0, "P": np.eye(2) / 2.0}
    arrays[bad] = np.full((2, 2), np.nan)
    with pytest.raises(ValueError, match="non-finite"):
        hc.GaussianGroundState(**arrays)


@pytest.mark.parametrize("n", [2, 3, 8, 20, 64])
@pytest.mark.parametrize("mass", [0.01, 0.1, 1.0])
def test_ground_energy_is_trace_of_momentum_covariance(n, mass, decompositions):
    # virial theorem: E0 = Tr V^{1/2} / 2 = Tr P, read without a decomposition
    v = hc.build_potential(n, mass)
    exact = 0.5 * np.sqrt(np.linalg.eigvalsh(v)).sum()
    gs = hc.ground_state_covariance(v)
    del decompositions[:]
    assert abs(hc.ground_energy(gs) - exact) <= 1e-14 * exact
    assert decompositions == []


# --- block entropy ----------------------------------------------------------------

def test_uncoupled_chain_has_zero_block_entropy():
    v = np.diag(np.diag(hc.build_potential(4, 1.0)))  # couplings zeroed
    gs = hc.ground_state_covariance(v)
    for block in (range(1), range(2), range(3)):
        assert hc.block_entropy(gs, block) <= 1e-10


def test_full_chain_region_is_pure():
    gs = hc.ground_state_covariance(hc.build_potential(4, 1.0))
    assert hc.entanglement_energies(gs, range(4)).size == 0
    assert hc.block_entropy(gs, range(4)) == 0.0


def test_empty_region_rejected():
    gs = hc.ground_state_covariance(hc.build_potential(4, 1.0))
    with pytest.raises(ValueError, match="nonempty"):
        hc.block_entropy(gs, [])
    with pytest.raises(ValueError):
        hc.block_entropy(gs, [7])


def test_entanglement_energies_are_finite_and_positive():
    # eps_k > 0 is nu_k > 1/2; k of the 10 sites have min(k, 10 - k) mixed modes
    gs = hc.ground_state_covariance(hc.build_potential(10, 0.3))
    for size in (1, 3, 5, 9):
        eps = hc.entanglement_energies(gs, range(size))
        assert eps.size == min(size, 10 - size)
        assert np.isfinite(eps).all() and (eps > 0.0).all()


def test_region_complement_symmetry():
    gs = hc.ground_state_covariance(hc.build_potential(8, 0.2))
    for size in range(1, 8):
        s_block = hc.block_entropy(gs, range(size))
        s_rest = hc.block_entropy(gs, range(size, 8))
        assert abs(s_block - s_rest) <= 1e-9


def chain_entropy_mpmath(mpmath, n_sites, mass, cut):
    """Entropy of the first `cut` sites at mpmath's working precision, from
    the symplectic eigenvalues of the block itself: nu_k^2 are the
    eigenvalues of R^T P_A R, with X_A = R R^T."""
    v = mpmath.matrix(n_sites, n_sites)
    for i in range(n_sites):
        v[i, i] = 2 + mpmath.mpf(mass) ** 2
        if i:
            v[i, i - 1] = v[i - 1, i] = -1
    w, q = mpmath.eigsy(v)
    x, p = mpmath.matrix(cut, cut), mpmath.matrix(cut, cut)
    for i in range(cut):
        for j in range(cut):
            x[i, j] = mpmath.fsum(q[i, k] * q[j, k] / mpmath.sqrt(w[k])
                                  for k in range(n_sites)) / 2
            p[i, j] = mpmath.fsum(q[i, k] * q[j, k] * mpmath.sqrt(w[k])
                                  for k in range(n_sites)) / 2
    r = mpmath.cholesky(x)
    entropy = mpmath.mpf(0)
    for nu in map(mpmath.sqrt, mpmath.eigsy(r.T * p * r)[0]):
        if nu > 0.5:
            entropy += (nu + 0.5) * mpmath.log(nu + 0.5) - (nu - 0.5) * mpmath.log(nu - 0.5)
    return entropy


@pytest.mark.parametrize("mass, bound", [
    (0.0, 5e-14),  # measured 7.8e-15
    (1.0, 1e-14),  # measured 3.1e-15
    (100.0, 1e-13),  # measured 3.3e-15
    (1000.0, 1e-13),  # measured 1.3e-15
    (1e4, 1e-13),  # measured 5.6e-16
    (1e6, 1e-13),  # measured 1.1e-15
    (1e8, 1e-13),  # measured 2.2e-16; P's off-diagonal is 5e-17 of its diagonal
], ids=["mass-0", "mass-1", "mass-100", "mass-1000", "mass-1e4", "mass-1e6", "mass-1e8"])
def test_block_entropy_matches_mpmath(mass, bound):
    # 120 digits: at mass 1e8, nu_k - 1/2 is about 1e-33
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(120):
        reference = float(chain_entropy_mpmath(mpmath, 20, mass, 10))
    gs = hc.ground_state_covariance(hc.build_potential(20, mass))
    assert abs(hc.block_entropy(gs, range(10)) / reference - 1.0) <= bound


def test_entropy_trend_near_critical_grows_massive_saturates():
    near_critical = hc.ground_state_covariance(hc.build_potential(64, 0.01))
    s_nc = [hc.block_entropy(near_critical, range(size)) for size in range(2, 33, 2)]
    assert all(b > a for a, b in zip(s_nc, s_nc[1:]))
    massive = hc.ground_state_covariance(hc.build_potential(64, 1.0))
    s_m = [hc.block_entropy(massive, range(size)) for size in range(2, 33, 2)]
    assert all(b >= a - 1e-12 for a, b in zip(s_m, s_m[1:]))
    assert abs(s_m[-1] - s_m[7]) <= 1e-6  # flat well before the half chain


# --- Fock-basis brute force ---------------------------------------------------------

def test_uncoupled_fock_ground_state_is_product():
    v = np.diag(np.diag(hc.build_potential(2, 1.0)))
    state, energy = hc.fock_ground_state(v, d=8)
    assert abs(energy - np.sqrt(3.0)) <= 1e-12  # two sites at omega = sqrt(3)
    assert qs.von_neumann_entropy(qs.reduced_density_left(state)) <= 1e-12


def test_fock_energy_matches_normal_modes():
    v = hc.build_potential(2, 1.0)
    exact = 0.5 * np.sqrt(np.linalg.eigvalsh(v)).sum()
    _, energy = hc.fock_ground_state(v, d=20)
    assert abs(energy - exact) <= 1e-6


def test_fock_energy_decreases_with_cutoff():
    v = hc.build_potential(2, 0.4)
    energies = [hc.fock_ground_state(v, d)[1] for d in (3, 4, 6, 10, 16)]
    assert all(b <= a + 1e-13 for a, b in zip(energies, energies[1:]))
    exact = 0.5 * np.sqrt(np.linalg.eigvalsh(v)).sum()
    assert all(e >= exact - 1e-12 for e in energies)


def test_fock_entropy_matches_covariance_oracle():
    v = hc.build_potential(2, 1.0)
    gs = hc.ground_state_covariance(v)
    s_cov = hc.block_entropy(gs, [0])
    s_fock = {}
    for d in (10, 20):
        state, _ = hc.fock_ground_state(v, d)
        s_fock[d] = qs.von_neumann_entropy(qs.reduced_density_left(state))
    assert abs(s_fock[20] - s_fock[10]) <= 1e-4  # cutoff convergence first
    assert abs(s_fock[20] - s_cov) <= 1e-4


def dense_fock_hamiltonian(v, d):
    """H in the product Fock basis from Kronecker products, the identity on
    every site an operator does not act on."""
    n = v.shape[0]
    ops = [hc.oscillator_ops(float(np.sqrt(v[i, i])), d) for i in range(n)]

    def on_sites(factors):
        out = np.eye(1)
        for s in range(n):
            out = np.kron(out, factors.get(s, np.eye(d)))
        return out

    h = sum(on_sites({i: ops[i][0]}) for i in range(n))
    for i in range(n):
        for j in range(i + 1, n):
            h = h + v[i, j] * on_sites({i: ops[i][1], j: ops[j][1]})
    return h


@pytest.mark.parametrize("n, d", [(2, 6), (3, 4)])
def test_fock_ground_state_is_the_dense_ground_state(n, d):
    # dims 36 and 64: above the eigensolver's dense limit of 16.  The second
    # potential also couples every pair of sites beyond neighbours, so every
    # v_ij is nonzero and each bond of the site-tensor apply is checked
    chain = hc.build_potential(n, 0.7)
    apart = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
    for v in (chain, chain + np.where(apart > 1, 0.1 * (apart + 1), 0.0)):
        values, vectors = np.linalg.eigh(dense_fock_hamiltonian(v, d))
        state, energy = hc.fock_ground_state(v, d)
        assert abs(energy - values[0]) <= 1e-12 * abs(values[0])
        assert abs(state.coeff.ravel() @ vectors[:, 0]) >= 1.0 - 1e-12


@pytest.mark.parametrize("n, d", [(2, 20), (2, 40), (3, 10), (4, 6)])
def test_fock_ground_state_is_the_lowest_level(n, d):
    # from a seeded random start, Davidson preconditioned by the Fock
    # diagonal converged to an excited state at (2, 40); the start at the
    # smallest diagonal entry does not
    for mass in (0.1, 1.0, 2.0):
        v = hc.build_potential(n, mass)
        lowest = np.linalg.eigvalsh(dense_fock_hamiltonian(v, d))[0]
        _, energy = hc.fock_ground_state(v, d)
        assert abs(energy - lowest) <= 1e-10 * lowest


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("omega", [0.0, -1.0, math.nan], ids=["zero", "negative", "nan"])
def test_oscillator_ops_rejects_a_frequency_that_is_not_positive(omega):
    with pytest.raises(ValueError, match="frequency must be positive"):
        hc.oscillator_ops(omega, 4)


@pytest.mark.filterwarnings("error")
def test_fock_rejects_a_negative_self_frequency_squared():
    v = hc.build_potential(2, 1.0)
    v[1, 1] = -3.0
    with pytest.raises(ValueError, match="frequency must be positive"):
        hc.fock_ground_state(v, d=4)


def test_both_oracles_reject_a_potential_that_is_not_finite_square_symmetric(bad_potential):
    # unchecked, the Fock oracle reads only the upper triangle of an asymmetric
    # V, solves on a 2 x 3 one, and fails its eigensolve (exit 4) on a NaN
    potential, message = bad_potential
    with pytest.raises(ValueError, match=message):
        hc.fock_ground_state(potential, d=4)
    with pytest.raises(ValueError, match=message):
        hc.ground_state_covariance(potential)


def test_fock_rejects_oversized_basis_and_bad_cutoff():
    with pytest.raises(ValueError, match="exceeds limit"):
        hc.fock_ground_state(hc.build_potential(4, 1.0), d=16)
    with pytest.raises(ValueError):
        hc.fock_ground_state(hc.build_potential(2, 1.0), d=1)
    with pytest.raises(ValueError, match="no cut"):
        hc.fock_ground_state(hc.build_potential(1, 1.0), d=4)


def test_fock_ground_state_never_forms_the_dense_hamiltonian():
    # the dense 1600 x 1600 H alone is 19.5 MiB; the site-tensor apply holds
    # a few 1600-entry vectors and Davidson's basis and images, 8 rows each
    tracemalloc.start()
    try:
        hc.fock_ground_state(hc.build_potential(2, 1.0), 40)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


# --- entanglement spectrum -----------------------------------------------------------

def test_spectrum_of_uncoupled_chain_is_trivial():
    v = np.diag(np.diag(hc.build_potential(3, 1.0)))
    gs = hc.ground_state_covariance(v)
    levels = hc.entanglement_spectrum(gs, [0], n_levels=4)
    assert np.allclose(levels, [1.0])


def test_single_mode_geometric_spectrum():
    # the two-mode squeezed state at cosh r = 3: each mode alone has
    # nu = 3/2, so eps = ln 2, hence levels 1/2, 1/4, 1/8, ...
    c, s = 3.0, np.sqrt(8.0)
    gs = hc.GaussianGroundState(X=0.5 * np.array([[c, s], [s, c]]),
                                P=0.5 * np.array([[c, -s], [-s, c]]))
    levels = hc.entanglement_spectrum(gs, [0], n_levels=5)
    assert np.abs(levels - [0.5, 0.25, 0.125, 0.0625, 0.03125]).max() <= 1e-12


def test_ground_state_rejects_a_mixed_state():
    # X = P = 3/2 is one thermal mode at nu = 3/2: 4 X P = 9, not 1
    with pytest.raises(ValueError, match="pure state"):
        hc.GaussianGroundState(X=np.array([[1.5]]), P=np.array([[1.5]]))


def test_spectrum_of_degenerate_modes_counts_each_level_once():
    # two identical uncoupled 2-site chains, one site of each in the block:
    # two modes at the same eps, so level n is (n + 1)-fold degenerate
    v = np.zeros((4, 4))
    v[:2, :2] = v[2:, 2:] = hc.build_potential(2, 1.0)
    gs = hc.ground_state_covariance(v)
    one = hc.ground_state_covariance(hc.build_potential(2, 1.0))
    nu = np.sqrt(one.X[0, 0] * one.P[0, 0])
    q = (nu - 0.5) / (nu + 0.5)  # e^{-eps}
    levels = hc.entanglement_spectrum(gs, [0, 2], n_levels=10)
    expected = (1.0 - q) ** 2 * q ** np.array([0, 1, 1, 2, 2, 2, 3, 3, 3, 3])
    assert np.abs(levels / expected - 1.0).max() <= 1e-12


def test_spectrum_matches_fock_reduced_density():
    v = hc.build_potential(2, 1.0)
    gs = hc.ground_state_covariance(v)
    predicted = hc.entanglement_spectrum(gs, [0], n_levels=10)
    state, _ = hc.fock_ground_state(v, d=20)
    rho = qs.reduced_density_left(state)
    observed = np.sort(np.linalg.eigvalsh(rho.entries))[::-1][:10]
    assert np.abs(predicted - observed).max() <= 1e-3


def test_spectrum_is_normalized_over_all_levels():
    gs = hc.ground_state_covariance(hc.build_potential(4, 0.5))
    levels = hc.entanglement_spectrum(gs, range(2), n_levels=4000)
    assert levels[0] < 1.0
    assert abs(levels.sum() - 1.0) <= 1e-6
