"""Infinite-system density-matrix renormalization group for the harmonic
chain with truncated local Fock spaces.

A run starts from the empty block.  Each step adjoins one site at the
block's origin-facing edge, solves the enlarged block and its mirror image as
a superblock, and truncates the block to the dominant eigenstates of its
reduced density matrix.  No free sites are inserted between block and mirror.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import numerics
from .harmonic_chain import oscillator_ops
from .quantum_state import BipartiteState, reduced_density_left, von_neumann_entropy

__all__ = [
    "DmrgConfig",
    "DmrgBlock",
    "DmrgIterate",
    "Superblock",
    "dmrg_step",
    "run",
]

_DEGENERACY_TOL = 1e-12
_SUPERBLOCK_LIMIT = 1 << 20


@dataclass(frozen=True)
class DmrgConfig:
    mass: float = 1.0
    local_dim: int = 8
    kept_states: int = 16
    target_length: int = 20
    gs_tolerance: float = 1e-10

    def __post_init__(self):
        if self.local_dim < 2:
            raise ValueError("local_dim must be >= 2")
        if self.local_dim ** 2 > _SUPERBLOCK_LIMIT:
            # the first superblock is local_dim^2; reject before any allocation
            raise ValueError(
                f"local_dim {self.local_dim} gives a first superblock of "
                f"dimension {self.local_dim ** 2}, above limit {_SUPERBLOCK_LIMIT}")
        if self.kept_states < 1:
            raise ValueError("kept_states must be >= 1")
        if self.target_length < 2 or self.target_length % 2:
            raise ValueError("target_length must be a positive even integer")
        if not 0.0 <= self.mass < np.inf:
            raise ValueError("mass must be finite and nonnegative")
        if not 0.0 < self.gs_tolerance < np.inf:
            raise ValueError("gs_tolerance must be finite and positive")

    @property
    def site_frequency(self) -> float:
        # fixed-end chain: every site sees self-frequency sqrt(2 + mass^2)
        return float(np.sqrt(2.0 + self.mass ** 2))


@dataclass(frozen=True)
class DmrgBlock:
    """Block of `length` sites in a (possibly truncated) basis.

    edge_phi is the field operator of the origin-facing boundary site on the
    leading tensor factor of the basis, so the block's edge field is
    kron(edge_phi, I).  That factor is the bare site in an enlarged block,
    and the whole basis in a truncated or the empty one.  All matrices are
    real.  ground_state, in a truncated block, is the superblock ground state
    it was cut from, as a (block x mirror) matrix in the kept basis.
    """

    length: int
    hamiltonian: np.ndarray
    edge_phi: np.ndarray
    ground_state: np.ndarray | None = field(default=None, compare=False)

    @property
    def basis_size(self) -> int:
        return self.hamiltonian.shape[0]


@dataclass(frozen=True)
class DmrgIterate:
    chain_length: int
    ground_energy: float
    half_chain_entropy: float
    truncation_weight: float
    kept: int


@dataclass(frozen=True)
class Superblock:
    """Block + mirror image coupled across the origin by -phi_edge phi'_edge.

    Acts on vectors of length basis_size**2 (the block x mirror product
    space) without materializing the matrix.  edge_phi is the block's edge
    field on its leading tensor factor (see DmrgBlock), so the coupling is
    applied on that factor's index of each side (Schollwoeck, RMP 77, 259,
    2005): the matvec costs the two n^3 products of the block Hamiltonian.
    """

    hamiltonian: np.ndarray
    edge_phi: np.ndarray

    @property
    def block_dim(self) -> int:
        return self.hamiltonian.shape[0]

    @property
    def dim(self) -> int:
        return self.block_dim ** 2

    def _edge_term(self, m: np.ndarray) -> np.ndarray:
        """(phi x I) M (phi x I)^T: phi on the site index of the rows, then,
        row by row, on the site index of the columns."""
        n = self.block_dim
        k = self.edge_phi.shape[0]
        rows = (self.edge_phi @ m.reshape(k, -1)).reshape(n, k, n // k)
        return np.matmul(self.edge_phi, rows).reshape(n, n)

    def matvec(self, vec: np.ndarray) -> np.ndarray:
        n = self.block_dim
        m = vec.reshape(n, n)
        out = self.hamiltonian @ m
        out += m @ self.hamiltonian
        out -= self._edge_term(m)
        return out.ravel()

    def sector(self):
        """The operator on the reflection-symmetric sector M = M^T, in
        orthonormal packed coordinates: the functions (pack, unpack, apply).

        A packed vector holds M's diagonal, then sqrt(2) times its strict
        upper triangle, so pack is an isometry onto length n(n+1)/2, unpack
        returns an exactly symmetric M, and apply = pack . matvec . unpack is
        self-adjoint.  On a symmetric M the matvec is X + X^T with
        X = H M - (phi x I) M (phi x I)^T / 2: one n^3 product of the block
        Hamiltonian instead of two.
        """
        n = self.block_dim
        row, col = np.triu_indices(n, 1)  # the strict upper triangle, row by row
        diagonal = np.arange(n)
        # flat index in M of each packed entry, and packed index of each entry of M
        gather = np.concatenate([diagonal * (n + 1), row * n + col])
        scatter = np.empty((n, n), dtype=np.intp)
        scatter[diagonal, diagonal] = diagonal
        scatter[row, col] = scatter[col, row] = np.arange(n, gather.size)
        scatter = scatter.ravel()
        scale = np.ones(gather.size)
        scale[n:] = np.sqrt(2.0)

        def pack(m: np.ndarray) -> np.ndarray:
            return m.ravel()[gather] * scale

        def unpack(vec: np.ndarray) -> np.ndarray:
            return (vec / scale)[scatter].reshape(n, n)

        def apply(vec: np.ndarray) -> np.ndarray:
            m = unpack(vec)
            x = self.hamiltonian @ m
            x -= 0.5 * self._edge_term(m)
            return pack(x + x.T)

        return pack, unpack, apply

    def dense(self) -> np.ndarray:
        n = self.block_dim
        edge = _edge_field(self.edge_phi, n)
        h = np.kron(self.hamiltonian, np.eye(n))
        h += np.kron(np.eye(n), self.hamiltonian)
        h -= np.kron(edge, edge)
        return h


def _edge_field(edge_phi: np.ndarray, n: int) -> np.ndarray:
    """The edge field on the whole n-dimensional block basis."""
    return np.kron(edge_phi, np.eye(n // edge_phi.shape[0]))


def _enlarge(block: DmrgBlock, config: DmrgConfig) -> DmrgBlock:
    """Adjoin one bare site at the origin-facing edge; the enlarged basis is
    (new site) x (block).  Raises ValueError, before any matrix is built,
    when the enlarged block's superblock exceeds the dimension limit."""
    d = config.local_dim
    n = block.basis_size
    if (d * n) ** 2 > _SUPERBLOCK_LIMIT:
        raise ValueError(
            f"superblock dimension {(d * n) ** 2} exceeds limit "
            f"{_SUPERBLOCK_LIMIT}")
    h1, phi1 = oscillator_ops(config.site_frequency, d)
    ham = (np.kron(h1, np.eye(n))
           + np.kron(np.eye(d), block.hamiltonian)
           - np.kron(phi1, _edge_field(block.edge_phi, n)))
    return DmrgBlock(length=block.length + 1, hamiltonian=ham, edge_phi=phi1)


def dmrg_step(block: DmrgBlock, config: DmrgConfig) -> tuple[DmrgBlock, DmrgIterate]:
    """One growth step: adjoin a site to the block, solve the superblock of
    the enlarged block and its mirror, and truncate the enlarged block to the
    kept_states dominant density-matrix eigenstates.

    Returns the truncated block and the iterate record for the superblock
    just solved (chain length 2 x enlarged block length).
    """
    enlarged = _enlarge(block, config)
    n = enlarged.basis_size
    # the superblock is reflection symmetric and its ground state M = M^T:
    # solve on that sector alone
    pack, unpack, apply = Superblock(enlarged.hamiltonian, enlarged.edge_phi).sector()
    warm = None
    if block.ground_state is not None:
        # the new site in its local ground state, the rest as last solved
        warm = pack(np.pad(block.ground_state, (0, n - block.basis_size)))
        warm /= np.linalg.norm(warm)
    energy, psi = numerics.smallest_eigenpair(
        apply, n * (n + 1) // 2, tol=config.gs_tolerance, v0=warm)

    matrix = unpack(psi)
    # psi is real, so rho and its eigenvectors are; weights come descending
    rho = reduced_density_left(BipartiteState(matrix))
    w = rho.eigenvalues

    kept = min(config.kept_states, n)
    # keep a degenerate multiplet intact when it straddles the cut (zero-weight
    # tails do not count as a multiplet)
    while (kept < n and w[kept] > _DEGENERACY_TOL
           and w[kept - 1] - w[kept] <= _DEGENERACY_TOL):
        kept += 1
    weight = float(max(0.0, 1.0 - w[:kept].sum()))
    basis = rho.eigenvectors[:, :kept]

    kept_ham = basis.T @ enlarged.hamiltonian @ basis
    truncated = DmrgBlock(length=enlarged.length,
                          hamiltonian=0.5 * (kept_ham + kept_ham.T),
                          edge_phi=basis.T @ _edge_field(enlarged.edge_phi, n) @ basis,
                          ground_state=basis.T @ matrix @ basis)
    iterate = DmrgIterate(chain_length=2 * enlarged.length,
                          ground_energy=float(energy),
                          half_chain_entropy=von_neumann_entropy(rho),
                          truncation_weight=weight,
                          kept=kept)
    return truncated, iterate


def run(config: DmrgConfig) -> list[DmrgIterate]:
    """Grow the chain from the empty block until the superblock reaches
    target_length, recording one iterate per step; each step adds two
    sites."""
    block = DmrgBlock(length=0, hamiltonian=np.zeros((1, 1)),
                      edge_phi=np.zeros((1, 1)))
    iterates: list[DmrgIterate] = []
    for _ in range(config.target_length // 2):
        block, iterate = dmrg_step(block, config)
        iterates.append(iterate)
    return iterates
