"""Discretized scalar-field chain of coupled harmonic oscillators: exact
Gaussian ground-state covariances, closed-form block entanglement entropy,
and a brute-force truncated-Fock diagonalization used as an independent
oracle.

Lattice spacing is 1; everything is in lattice units.
"""

from __future__ import annotations

import functools
import heapq
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from . import numerics
from .quantum_state import BipartiteState, bose_entropy

__all__ = [
    "GaussianGroundState",
    "build_potential",
    "ground_state_covariance",
    "ground_energy",
    "entanglement_energies",
    "block_entropy",
    "entanglement_spectrum",
    "oscillator_ops",
    "fock_ground_state",
]

DENSE_LIMIT = 4096


@dataclass(frozen=True)
class GaussianGroundState:
    """Ground-state covariances X = <phi phi> = V^{-1/2}/2 and
    P = <pi pi> = V^{1/2}/2."""

    X: np.ndarray
    P: np.ndarray

    def __post_init__(self):
        if not (np.isfinite(self.X).all() and np.isfinite(self.P).all()):
            raise ValueError("covariances have non-finite entries")
        # entanglement_energies needs a pure state; 4 X P - I is at most 6.1e-15
        # on chains of 1-64 sites at mass 0-1000, and 1.3e-14 at 800 sites, mass 0
        if np.abs(4.0 * self.X @ self.P - np.eye(self.n_sites)).max() > 1e-12:
            raise ValueError("covariances are not of a pure state: 4 X P != I")

    @property
    def n_sites(self) -> int:
        return self.X.shape[0]


def build_potential(n_sites: int, mass: float) -> np.ndarray:
    """Tridiagonal coupling matrix of a chain of n_sites oscillators:
    diagonal 2 + mass^2, off-diagonal -1.  The field is clamped to zero
    beyond both ends, which keeps the potential positive definite even at
    mass 0.
    """
    if not n_sites >= 1:
        raise ValueError("n_sites must be >= 1")
    # NaN fails, and mass ** 2 is a finite float, for an int mass too
    if not 0.0 <= mass <= np.sqrt(np.finfo(float).max):
        raise ValueError("mass must be nonnegative, with a finite square")
    v = np.zeros((n_sites, n_sites))
    np.fill_diagonal(v, 2.0 + mass ** 2)
    if n_sites > 1:
        off = np.arange(n_sites - 1)
        v[off, off + 1] = -1.0
        v[off + 1, off] = -1.0
    return v


def ground_state_covariance(potential: np.ndarray) -> GaussianGroundState:
    """Exact ground-state covariances from the spectral square roots of the
    potential V = a I - T, a its largest diagonal entry, T = Q diag(t) Q^T, in
    a form in which nothing cancels: P = [sqrt(a) I - Q diag(t / (sqrt(w) +
    sqrt(a))) Q^T] / 2, X = [I / sqrt(a) + Q diag(t / (sqrt(a w) (sqrt(w) +
    sqrt(a)))) Q^T] / 2, with w = a - t the eigenvalues of V."""
    v = np.asarray(potential, dtype=float)
    a, eye = float(np.max(np.diagonal(v))), np.eye(*v.shape)  # sym_eig checks the shape
    t, q = numerics.sym_eig(a * eye - v)  # t ascending: V's smallest eigenvalue is a - t[-1]
    if not a - t[-1] > 0.0:
        raise ValueError(f"potential is not positive definite (min eigenvalue {a - t[-1]:.3e})")
    root_a, root_w = np.sqrt(a), np.sqrt(a - t)
    x = 0.5 * (eye / root_a + (q * (t / (root_a * root_w * (root_w + root_a)))) @ q.T)
    p = 0.5 * (root_a * eye - (q * (t / (root_w + root_a))) @ q.T)
    return GaussianGroundState(X=0.5 * (x + x.T), P=0.5 * (p + p.T))


def ground_energy(gs: GaussianGroundState) -> float:
    """Exact ground energy sum_k omega_k / 2 = Tr V^{1/2} / 2 of
    H = sum pi^2/2 + phi^T V phi / 2, with omega_k^2 the eigenvalues of the
    potential.  By the virial theorem that is Tr P."""
    return float(np.trace(gs.P))


def _region_indices(gs: GaussianGroundState, region: Iterable[int]) -> np.ndarray:
    idx = np.asarray(sorted(set(int(i) for i in region)), dtype=int)
    if idx.size == 0:
        raise ValueError("region must be nonempty")
    if idx.min() < 0 or idx.max() >= gs.n_sites:
        raise ValueError("region indices outside the chain")
    return idx


def entanglement_energies(gs: GaussianGroundState, region: Iterable[int]) -> np.ndarray:
    """Entanglement energies eps_k = ln((nu_k+1/2)/(nu_k-1/2)) of the mixed
    modes of region A, nu_k its symplectic eigenvalues (Peschel,
    cond-mat/0212631).  The state is pure, so X_A P_A - 1/4 =
    X_A P_AB P_B^{-1} P_BA for B the rest of the chain, and nu_k^2 - 1/4 =
    sigma_k^2, the squared singular values of L^{-1} P_BA R with P_B = L L^T
    and X_A = R R^T.  Nothing cancels in eps_k = log1p((nu_k+1/2)/sigma_k^2);
    pure modes, sigma_k = 0, are left out."""
    a = _region_indices(gs, region)
    b = np.delete(np.arange(gs.n_sites), a)
    p_b = gs.P[b]
    cross = np.linalg.solve(np.linalg.cholesky(p_b[:, b]),
                            p_b[:, a] @ np.linalg.cholesky(gs.X[a][:, a]))
    sigma2 = np.linalg.svd(cross, compute_uv=False) ** 2
    sigma2 = sigma2[sigma2 > 0.0]
    return np.log1p((0.5 + np.sqrt(0.25 + sigma2)) / sigma2)


def block_entropy(gs: GaussianGroundState, region: Iterable[int]) -> float:
    """Entanglement entropy (nats) of a block of sites in the Gaussian
    ground state: the sum of the bosonic mode entropies at the entanglement
    energies eps_k."""
    return float(bose_entropy(entanglement_energies(gs, region)).sum())


def entanglement_spectrum(
    gs: GaussianGroundState,
    region: Iterable[int],
    n_levels: int,
) -> np.ndarray:
    """The n_levels largest reduced-density eigenvalues, descending.

    Eigenvalues are products prod_k (1 - e^{-eps_k}) e^{-n_k eps_k} over
    occupations n_k >= 0 of the mixed modes, at their entanglement_energies
    eps_k; a pure mode is a weight-1 factor.
    """
    if n_levels < 1:
        raise ValueError("n_levels must be >= 1")
    eps = entanglement_energies(gs, region)
    norm_log = float(np.log1p(-np.exp(-eps)).sum())

    # best-first search over occupation tuples ordered by total energy; a tuple
    # raises only modes from the one last raised, so it is reached once
    heap = [(0.0, (0,) * eps.size, 0)]
    out: list[float] = []
    while heap and len(out) < n_levels:
        energy, occ, low = heapq.heappop(heap)
        out.append(np.exp(norm_log - energy))
        for k in range(low, eps.size):
            succ = occ[:k] + (occ[k] + 1,) + occ[k + 1:]
            heapq.heappush(heap, (energy + float(eps[k]), succ, k))
    return np.array(out)


def oscillator_ops(omega: float, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Single-site operators in the first d oscillator eigenstates at
    frequency omega.

    Returns (h, phi): h is the on-site Hamiltonian omega (n + 1/2), already
    the exact projection onto the basis; phi the position matrix.
    """
    if d < 2:
        raise ValueError("local dimension must be >= 2")
    if not omega > 0.0:  # written so that NaN fails
        raise ValueError("frequency must be positive")
    n = np.arange(d)
    a = np.diag(np.sqrt(n[1:].astype(float)), 1)
    h = np.diag(omega * (n + 0.5))
    phi = (a + a.T) / np.sqrt(2.0 * omega)
    return h, phi


def fock_ground_state(potential: np.ndarray, d: int) -> tuple[BipartiteState, float]:
    """Brute-force ground state of H = sum pi^2/2 + phi^T V phi / 2 in a
    truncated product Fock basis, d levels per site in the local eigenbasis
    at each site's self-frequency sqrt(V_ii).

    Returns the ground state as a BipartiteState split after the first
    n // 2 sites, together with the ground energy.  H is applied to the
    (d,) * n site tensor one site operator at a time, never formed.  The
    basis is a nested family in d, so the energy decreases monotonically
    toward the exact value.
    """
    v = np.asarray(potential, dtype=float)
    n = v.shape[0]
    if n < 2:
        raise ValueError("a one-site chain has no cut")
    if d < 2:
        raise ValueError("d must be >= 2")
    size = d ** n
    if size > DENSE_LIMIT:
        raise ValueError(
            f"Fock basis of size {d}^{n} = {size} exceeds limit {DENSE_LIMIT}")

    with np.errstate(invalid="ignore"):  # a negative V_ii: NaN, which oscillator_ops rejects
        ops = [oscillator_ops(float(np.sqrt(v[i, i])), d) for i in range(n)]
    bonds = [(i, j, v[i, j]) for i in range(n) for j in range(i + 1, n) if v[i, j] != 0.0]

    def on_site(op, site, psi):
        return np.moveaxis(np.tensordot(op, psi, axes=(1, site)), 0, site)

    def apply(vec):
        psi = vec.reshape((d,) * n)
        out = sum(on_site(h, i, psi) for i, (h, _) in enumerate(ops))
        for i, j, coupling in bonds:
            out += coupling * on_site(ops[i][1], i, on_site(ops[j][1], j, psi))
        return out.ravel()

    # phi_i phi_j has no diagonal in the product basis: only the h_i add to it
    diagonal = functools.reduce(np.add.outer, [np.diag(h) for h, _ in ops]).ravel()
    energy, vector = numerics.smallest_eigenpair(apply, diagonal)
    return BipartiteState(vector.reshape(d ** (n // 2), d ** (n - n // 2))), energy
